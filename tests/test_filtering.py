import numpy as np
import pytest

from patchpred import filtering
from patchpred.corpus import Label
from patchpred.embed import EmbeddingPair
from patchpred.errors import EvalError
from patchpred.filtering import ThresholdPolicy, ThresholdStatistic


def test_score_corpus_basics():
    pairs = [
        EmbeddingPair("a", np.array([1.0, 0.0]), np.array([1.0, 0.0]), "t", 2),
        EmbeddingPair("b", np.array([1.0, 0.0]), np.array([0.0, 1.0]), "t", 2),
        EmbeddingPair("c", np.array([0.0, 0.0]), np.array([1.0, 1.0]), "t", 2),
    ]
    scored = filtering.score_corpus(pairs)
    assert [pid for pid, _s, _f in scored] == ["a", "b", "c"]  # order preserved
    assert scored[0][1] == pytest.approx(1.0)
    assert scored[1][1] == pytest.approx(0.0)
    assert scored[2][2] is True  # zero-norm side flagged


def test_stats_symmetric_set():
    s = filtering.stats([1, 2, 3, 4, 5])
    assert (s.min, s.q1, s.median, s.q3, s.max, s.mean) == (1, 2, 3, 4, 5, 3)


def test_stats_single_value():
    s = filtering.stats([5])
    assert (s.min, s.q1, s.median, s.q3, s.max, s.mean) == (5, 5, 5, 5, 5, 5)


def test_stats_linear_interpolation_derived_by_hand():
    # positions (n-1)*q for [1,2,3,4]: q1 at 0.75 -> 1.75, median 2.5, q3 3.25
    s = filtering.stats([4, 2, 1, 3])
    assert s.q1 == pytest.approx(1.75)
    assert s.median == pytest.approx(2.5)
    assert s.q3 == pytest.approx(3.25)


def test_stats_empty_errors():
    with pytest.raises(EvalError):
        filtering.stats([])


def test_stats_ordering_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scores = rng.uniform(size=rng.integers(1, 40))
        s = filtering.stats(scores)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


def test_resolve_policy_matches_stats_fields():
    s = filtering.stats([1, 2, 3, 4])
    assert filtering.resolve_policy("q1", s).value == s.q1
    assert filtering.resolve_policy("mean", s).value == s.mean
    assert filtering.resolve_policy("median", s).value == s.median
    fixed = filtering.resolve_policy("fixed", None, 0.9)
    assert fixed.value == 0.9
    with pytest.raises(EvalError):
        filtering.resolve_policy("fixed", s)


@pytest.mark.parametrize("statistic, value", [("q1", "abc"), ("median", float("nan")), ("mean", float("inf")),
                                              ("fixed", float("nan")), ("fixed", True)])
def test_resolve_policy_refuses_a_threshold_that_is_not_a_finite_number(statistic, value):
    s = filtering.SimilarityStats(*[value] * 6)
    with pytest.raises(EvalError, match=f"{statistic} threshold must be a finite number"):
        filtering.resolve_policy(statistic, s, value)


def test_filter_recall_reporting_on_skewed_corpus():
    # 7 correct patches of which 4 score at or above the threshold, and
    # 1,461 incorrect of which 1,387 score below it.
    threshold = 0.5
    scored = []
    for i in range(4):
        scored.append((f"c{i}", 0.9, Label.CORRECT))
    for i in range(3):
        scored.append((f"c{4 + i}", 0.1, Label.CORRECT))
    for i in range(1387):
        scored.append((f"i{i}", 0.2, Label.INCORRECT))
    for i in range(74):
        scored.append((f"i{1387 + i}", 0.8, Label.INCORRECT))
    report = filtering.filter_by_threshold(
        scored, ThresholdPolicy(ThresholdStatistic.FIXED, threshold))
    assert report.plus_cp == 4 and report.minus_ip == 1387
    assert report.plus_recall * 100 == pytest.approx(57.1, abs=0.05)
    assert report.minus_recall * 100 == pytest.approx(94.9, abs=0.05)


def test_threshold_below_everything():
    scored = [(f"p{i}", 0.5 + i / 100, Label.CORRECT if i % 2 else Label.INCORRECT)
              for i in range(10)]
    report = filtering.filter_by_threshold(scored, ThresholdPolicy(ThresholdStatistic.FIXED, 0.0))
    assert report.plus_recall == 1.0
    assert report.minus_recall == 0.0


def test_boundary_score_counts_as_retained():
    scored = [("p1", 0.75, Label.CORRECT)]
    report = filtering.filter_by_threshold(scored, ThresholdPolicy(ThresholdStatistic.FIXED, 0.75))
    assert report.plus_cp == 1


def test_unlabeled_rows_rejected():
    with pytest.raises(EvalError):
        filtering.filter_by_threshold([("p", 0.5, Label.UNLABELED)],
                                      ThresholdPolicy(ThresholdStatistic.FIXED, 0.1))


def q1_retention(scores):
    """Fraction-of-set machinery for the Q1 self-filter property."""
    s = filtering.stats(scores)
    scored = [(f"p{i}", float(v), Label.CORRECT) for i, v in enumerate(scores)]
    report = filtering.filter_by_threshold(scored, filtering.resolve_policy("q1", s))
    return report.plus_cp


def test_q1_self_filter_retains_three_quarters_boundary_inclusive():
    # Linear interpolation places Q1 strictly inside an inter-rank gap for
    # some sizes, so the provable guarantee counts against n - 1 elements
    # (boundary equality allowance).
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(4, 120))
        scores = rng.uniform(0, 1, size=n)
        assert q1_retention(scores) >= 0.75 * (n - 1)


def test_q1_self_filter_exact_three_quarters_for_aligned_sizes():
    rng = np.random.default_rng(12)
    for n in (4, 5, 8, 9, 100, 101):
        scores = rng.uniform(0, 1, size=n)
        assert q1_retention(scores) >= 0.75 * n


def test_monotonicity_raising_threshold():
    rng = np.random.default_rng(4)
    scored = [(f"p{i}", float(rng.uniform()), Label.CORRECT if rng.random() < 0.5 else Label.INCORRECT)
              for i in range(60)]
    prev_plus, prev_minus = None, None
    for threshold in np.linspace(0, 1, 15):
        rep = filtering.filter_by_threshold(scored, ThresholdPolicy(ThresholdStatistic.FIXED, float(threshold)))
        if prev_plus is not None:
            assert rep.plus_recall <= prev_plus
            assert rep.minus_recall >= prev_minus
        prev_plus, prev_minus = rep.plus_recall, rep.minus_recall


def test_top1_single_bug():
    scored = [("good", "bug1", 0.9, Label.CORRECT), ("bad", "bug1", 0.8, Label.INCORRECT)]
    report = filtering.top1_per_bug(scored)
    assert report.selected == {"bug1": "good"}
    assert report.fraction_correct == 1.0


def test_top1_tie_breaks_to_smallest_patch_id():
    scored = [("zzz", "bug1", 0.7, Label.INCORRECT), ("aaa", "bug1", 0.7, Label.CORRECT)]
    report = filtering.top1_per_bug(scored)
    assert report.selected["bug1"] == "aaa"


def test_top1_predicts_exactly_one_correct_per_bug():
    rng = np.random.default_rng(9)
    scored = []
    for b in range(12):
        for p in range(int(rng.integers(1, 6))):
            label = Label.CORRECT if rng.random() < 0.4 else Label.INCORRECT
            scored.append((f"p{b}-{p}", f"bug{b}", float(rng.uniform()), label))
    report = filtering.top1_per_bug(scored)
    picks_per_bug = {}
    for (pid, bug, _s, _l), (pid2, verdict) in zip(scored, report.verdicts):
        assert pid == pid2
        if verdict:
            picks_per_bug[bug] = picks_per_bug.get(bug, 0) + 1
    assert picks_per_bug == {f"bug{b}": 1 for b in range(12)}


def test_top1_fraction_matches_brute_force():
    rng = np.random.default_rng(21)
    scored = []
    for b in range(20):
        for p in range(int(rng.integers(1, 5))):
            label = Label.CORRECT if rng.random() < 0.5 else Label.INCORRECT
            scored.append((f"p{b}-{p}", f"bug{b}", round(float(rng.uniform()), 2), label))
    report = filtering.top1_per_bug(scored)

    # independent recomputation: pick max score (ties -> smallest id) per bug
    by_bug = {}
    for pid, bug, score, label in scored:
        by_bug.setdefault(bug, []).append((pid, score, label))
    hits = 0
    for bug, entries in by_bug.items():
        best = sorted(entries, key=lambda e: (-e[1], e[0]))[0]
        hits += best[2] is Label.CORRECT
    assert report.fraction_correct == pytest.approx(hits / len(by_bug))
