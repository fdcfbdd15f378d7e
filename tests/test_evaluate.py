import dataclasses
import json
import mmap
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from patchpred import evaluate, worker
from patchpred.corpus import split_by_bug
from patchpred.errors import EvalError, TrainError
from patchpred.evaluate import (FusionTrainer, JointRow, SingleSetTrainer, auc, compare_predictions,
                                confusion_metrics, crossval)


def brute_force_auc(probs, labels):
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_plus_recall_from_confusion_counts():
    # TP=4, FN=3
    probs = [0.9] * 4 + [0.1] * 3
    labels = [1] * 7
    m = confusion_metrics(probs, labels)
    assert m["confusion"] == {"TP": 4, "FP": 0, "TN": 0, "FN": 3}
    assert m["plus_recall"] * 100 == pytest.approx(57.1, abs=0.05)


def test_minus_recall_from_confusion_counts():
    # TN=1387, FP=74
    probs = [0.1] * 1387 + [0.9] * 74
    labels = [0] * 1461
    m = confusion_metrics(probs, labels)
    assert m["confusion"]["TN"] == 1387 and m["confusion"]["FP"] == 74
    assert m["minus_recall"] * 100 == pytest.approx(94.9, abs=0.05)


def test_perfect_predictions_score_one_everywhere():
    probs = [0.9, 0.8, 0.1, 0.2]
    labels = [1, 1, 0, 0]
    m = confusion_metrics(probs, labels)
    for name in ("accuracy", "precision", "plus_recall", "minus_recall", "f1"):
        assert m[name] == 1.0
    assert m["zero_division_flags"] == []


def test_zero_division_flags():
    m = confusion_metrics([0.1, 0.2], [1, 1])
    assert m["precision"] == 0.0
    assert "precision" in m["zero_division_flags"]


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf")])
def test_confusion_metrics_refuse_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(EvalError, match="is not in"):
        confusion_metrics([0.2, 0.8], [0, 1], threshold)


def test_auc_perfect_ordering():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties_is_half():
    assert auc([0.5] * 10, [1, 0] * 5) == 0.5


def test_auc_derived_pair_count():
    # positives {0.9, 0.4}, negatives {0.6, 0.1}: 3 wins of 4 pairs
    assert auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_auc_single_class_errors():
    with pytest.raises(EvalError):
        auc([0.5, 0.6], [1, 1])


def test_auc_equals_brute_force_with_heavy_ties():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid -> many ties
        probs = rng.integers(0, 5, size=n) / 4.0
        assert auc(probs, labels) == pytest.approx(brute_force_auc(probs, labels), abs=1e-9)


def deterministic_rows(n_bugs=8, per_bug=3):
    rng = np.random.default_rng(1)
    rows = []
    for b in range(n_bugs):
        for p in range(per_bug):
            label = int(rng.random() < 0.5)
            x = rng.normal(size=3) + (2.5 * label)
            rows.append(JointRow(f"p{b}-{p}", f"bug{b}", label, learned=x))
    return rows


def test_crossval_each_patch_predicted_exactly_once():
    rows = [JointRow("a1", "bugA", 1, learned=np.array([1.0])),
            JointRow("a2", "bugA", 0, learned=np.array([0.0])),
            JointRow("b1", "bugB", 1, learned=np.array([1.0])),
            JointRow("b2", "bugB", 0, learned=np.array([0.0]))]
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=2, seed=0)
    predicted = sorted(p["patch_id"] for p in report["predictions"])
    assert predicted == ["a1", "a2", "b1", "b2"]


def test_crossval_no_bug_in_both_train_and_test():
    rows = deterministic_rows()
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=4, seed=3)
    plan = report["fold_plan"]
    all_bugs = {r.bug_id for r in rows}
    for fold in report["per_fold"]:
        test_bugs = set(fold["test_bugs"])
        train_bugs = all_bugs - test_bugs
        assert not (test_bugs & train_bugs)
    for pred in report["predictions"]:
        assert pred["bug_id"] in plan[pred["fold"]]


def test_crossval_is_deterministic():
    rows = deterministic_rows()
    r1 = crossval(rows, SingleSetTrainer("learned", "gbt", {"rounds": 10}), k=4, seed=9)
    r2 = crossval(rows, SingleSetTrainer("learned", "gbt", {"rounds": 10}), k=4, seed=9)
    assert r1 == r2


def test_crossval_macro_is_mean_of_fold_metrics():
    rows = deterministic_rows()
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=4, seed=3)
    for name in evaluate.METRIC_NAMES:
        values = [f["metrics"][name] for f in report["per_fold"] if name not in f["undefined"]]
        if values:
            assert report["macro"][name] == pytest.approx(float(np.mean(values)))


def test_crossval_single_class_training_fold_errors():
    rows = [JointRow("p1", "bugA", 1, learned=np.zeros(1)),
            JointRow("p2", "bugB", 1, learned=np.zeros(1)),
            JointRow("p3", "bugC", 0, learned=np.zeros(1))]
    with pytest.raises(EvalError, match="reseed|merge"):
        crossval(rows, SingleSetTrainer("learned", "nb"), k=3, seed=0)


class _NeverFit:
    def describe(self):
        return {"learner": "none"}

    def fit(self, rows, seed):
        raise AssertionError("crossval fit a model")


@pytest.mark.parametrize("k", [1, 0])
def test_crossval_refuses_fewer_than_two_folds_before_any_fit(k):
    with pytest.raises(EvalError, match="k must be at least 2"):
        crossval(deterministic_rows(), _NeverFit(), k=k, seed=0)


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5])
def test_crossval_refuses_a_threshold_outside_the_unit_interval_before_any_fit(threshold):
    with pytest.raises(EvalError, match="is not in"):
        crossval(deterministic_rows(), _NeverFit(), k=4, seed=0, threshold=threshold)


def test_crossval_refuses_a_single_class_training_split_before_any_fit():
    # bugC holds the only incorrect patch, so the fold that tests it trains
    # on correct patches alone; the seed makes that fold the last one.
    rows = [JointRow("p1", "bugA", 1, learned=np.zeros(1)),
            JointRow("p2", "bugB", 1, learned=np.zeros(1)),
            JointRow("p3", "bugC", 0, learned=np.zeros(1)),
            JointRow("p4", "bugD", 1, learned=np.zeros(1))]
    seed = next(s for s in range(100) if split_by_bug([r.bug_id for r in rows], 4, s)[-1] == ["bugC"])
    with pytest.raises(EvalError, match="fold 3: training split is single-class; reseed the split or merge groups"):
        crossval(rows, _NeverFit(), k=4, seed=seed)


def test_crossval_with_one_bug_per_fold():
    rows = deterministic_rows()
    bugs = sorted({r.bug_id for r in rows})
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=len(bugs), seed=5)
    assert sorted(b for fold in report["fold_plan"] for b in fold) == bugs
    assert all(len(fold["test_bugs"]) == 1 for fold in report["per_fold"])
    for fold in report["per_fold"]:
        assert fold["n_test"] == sum(r.bug_id == fold["test_bugs"][0] for r in rows)
    assert sorted(p["patch_id"] for p in report["predictions"]) == sorted(r.patch_id for r in rows)


def test_single_class_test_fold_has_no_auc_but_the_pooled_auc_does():
    rng = np.random.default_rng(2)
    labels = {"bugA": (1, 1), "bugB": (0, 1), "bugC": (1, 0), "bugD": (0, 1)}
    rows = [JointRow(f"{bug}-{i}", bug, label, learned=rng.normal(size=2) + 2.0 * label)
            for bug, pair in labels.items() for i, label in enumerate(pair)]
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=4, seed=1)
    only_positive = [f for f in report["per_fold"] if f["test_bugs"] == ["bugA"]]
    assert len(only_positive) == 1
    fold = only_positive[0]
    assert fold["metrics"]["auc"] is None
    assert "auc" in fold["undefined"] and "minus_recall" in fold["undefined"]
    assert report["macro_excluded"]["auc"] == 1
    others = [f["metrics"]["auc"] for f in report["per_fold"] if f is not fold]
    assert report["macro"]["auc"] == pytest.approx(float(np.mean(others)))
    pooled = [p["probability"] for p in report["predictions"]], [p["label"] for p in report["predictions"]]
    assert report["pooled"]["auc"] == auc(*pooled)


def test_crossval_separable_corpus_scores_high(separable_rows):
    report = crossval(separable_rows, SingleSetTrainer("learned", "gbt"), k=10, seed=42)
    assert report["macro"]["auc"] >= 0.95


def test_crossval_missing_feature_side_names_patch():
    rows = [JointRow("p1", "bugA", 1, learned=np.zeros(2)),
            JointRow("p2", "bugA", 0, learned=None),
            JointRow("p3", "bugB", 1, learned=np.ones(2)),
            JointRow("p4", "bugB", 0, learned=np.zeros(2))]
    with pytest.raises(EvalError, match="p2"):
        crossval(rows, SingleSetTrainer("learned", "nb"), k=2, seed=0)


@pytest.mark.parametrize("kind", ["lr", "nb", "dt", "rf", "gbt", "dnn", "fusion"])
@pytest.mark.parametrize("width", [2, 5])
def test_single_set_predictor_refuses_rows_of_another_width(kind, width):
    X = np.random.default_rng(3).normal(size=(30, 3))
    if kind == "fusion":  # 1 learned and 2 engineered columns, 3 in all
        rows = [JointRow(f"p{i}", f"b{i}", int(x[0] > 0), learned=x[:1], engineered=x[1:])
                for i, x in enumerate(X)]
        predict = FusionTrainer({"epochs": 3}).fit(rows, seed=0)
        bad = JointRow("q", "b", 0, learned=np.zeros(1), engineered=np.zeros(width - 1))
    else:
        rows = [JointRow(f"p{i}", f"b{i}", int(x[0] > 0), engineered=x) for i, x in enumerate(X)]
        config = {"rf": {"n_trees": 3}, "gbt": {"rounds": 3}, "dnn": {"epochs": 3}}.get(kind)
        predict = SingleSetTrainer("engineered", kind, config).fit(rows, seed=0)
        bad = JointRow("q", "b", 0, engineered=np.zeros(width))
    assert len(predict(rows[:4])) == 4
    with pytest.raises(TrainError, match="length 3"):
        predict([bad])


def test_fusion_predictor_refuses_rows_split_at_another_column():
    # The right total width, with the towers' boundary one column off.
    X = np.random.default_rng(3).normal(size=(30, 3))
    rows = [JointRow(f"p{i}", f"b{i}", int(x[0] > 0), learned=x[:1], engineered=x[1:])
            for i, x in enumerate(X)]
    predict = FusionTrainer({"epochs": 3}).fit(rows, seed=0)
    with pytest.raises(TrainError, match="learned feature vectors of length 1, got 2"):
        predict([JointRow("q", "b", 0, learned=np.zeros(2), engineered=np.zeros(1))])


def test_predictions_round_trip_and_compare(tmp_path):
    rows = deterministic_rows()
    report = crossval(rows, SingleSetTrainer("learned", "nb"), k=4, seed=3)
    path = tmp_path / "preds.csv"
    evaluate.write_predictions(path, report["predictions"])
    back = evaluate.read_predictions(path)
    assert back == report["predictions"]

    overlap = compare_predictions(back, back)
    correct_total = sum(1 for p in back if p["label"] == 1)
    assert overlap["correct_patches"]["total"] == correct_total
    assert overlap["correct_patches"]["only_a"] == 0
    assert overlap["correct_patches"]["only_b"] == 0


def test_compare_counts_disagreements():
    a = [{"patch_id": "p1", "bug_id": "b", "label": 1, "probability": 0.9, "fold": 0},
         {"patch_id": "p2", "bug_id": "b", "label": 0, "probability": 0.2, "fold": 0}]
    b = [{"patch_id": "p1", "bug_id": "b", "label": 1, "probability": 0.1, "fold": 0},
         {"patch_id": "p2", "bug_id": "b", "label": 0, "probability": 0.2, "fold": 0}]
    overlap = compare_predictions(a, b)
    assert overlap["correct_patches"] == {"total": 1, "both": 0, "only_a": 1, "only_b": 0, "neither": 0}
    assert overlap["incorrect_patches"]["both"] == 1


def test_compare_requires_same_patch_set():
    a = [{"patch_id": "p1", "bug_id": "b", "label": 1, "probability": 0.9, "fold": 0}]
    b = [{"patch_id": "p2", "bug_id": "b", "label": 1, "probability": 0.9, "fold": 0}]
    with pytest.raises(EvalError):
        compare_predictions(a, b)


def test_compare_requires_same_labels():
    a = [{"patch_id": "p1", "bug_id": "b", "label": 0, "probability": 0.9, "fold": 0}]
    b = [{"patch_id": "p1", "bug_id": "b", "label": 1, "probability": 0.9, "fold": 0}]
    with pytest.raises(EvalError, match="label them differently"):
        compare_predictions(a, b)


@pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.1])
def test_compare_requires_a_threshold_in_the_unit_interval(threshold):
    a = [{"patch_id": "p1", "bug_id": "b", "label": 1, "probability": 0.9, "fold": 0}]
    with pytest.raises(EvalError, match="is not in"):
        compare_predictions(a, a, threshold)


def _loop_tied_ranks(values):
    # The per-run Python loop that the vectorized ranks replaced, verbatim.
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("seed", range(8))
def test_tied_ranks_equal_the_loop_on_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    # A coarse grid, signed zeros and one long run of equal values.
    values = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=n) if seed % 2 else rng.integers(0, 4, size=n) / 3
    values[: n // 3] = values[0]
    assert evaluate._tied_ranks(values).tolist() == _loop_tied_ranks(values).tolist()


@pytest.mark.parametrize("score", [auc, confusion_metrics])
@pytest.mark.parametrize("probs, labels, message", [
    ([0.1, 0.2, 0.3], [0, 1, 2], "labels must be 0/1"),
    ([0.1, 0.2, 0.3], [0, 1, np.nan], "labels must be 0/1"),
    ([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0], "must be finite"),
    ([0.1, np.inf, 0.3, 0.2], [0, 1, 1, 0], "must be finite"),
    ([0.1, 0.2, 0.3], [0, 1], "3 probabilities for 2 labels"),
    ([0.1, 0.2], [0, 1, 1], "2 probabilities for 3 labels"),
    ([], [], "no predictions"),
])
def test_scores_check_their_inputs(score, probs, labels, message):
    with pytest.raises(EvalError, match=message):
        score(probs, labels)


# --- folds on two CPUs -------------------------------------------------------------
# With worker.FOLD_CELLS at 0 every crossval forks a fold worker where it can
# (Linux, two usable CPUs, numpy's OpenBLAS). Each test compares the
# report, or the error, with a run pinned to one CPU, where nothing forks, and
# checks that no child process is left and the CPU set is as it was.

needs_two_cpus = pytest.mark.skipif(not worker.forks(1, 0) or worker.blas_threads() is None,
                                    reason="fold workers need Linux, two CPUs and numpy's OpenBLAS")


@contextmanager
def _pinned(cpus):
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@contextmanager
def _fold_workers():
    before, cells = os.sched_getaffinity(0), worker.FOLD_CELLS
    worker.FOLD_CELLS = 0
    try:
        yield
    finally:
        worker.FOLD_CELLS = cells
        assert os.sched_getaffinity(0) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _one_cpu():
    return _pinned({min(os.sched_getaffinity(0))})


def _two_cpus():
    return _pinned(set(sorted(os.sched_getaffinity(0))[:2]))


def _joint_rows(n_bugs=12, per_bug=4):
    rng = np.random.default_rng(8)
    rows = []
    for b in range(n_bugs):
        for p in range(per_bug):
            x = rng.normal(size=7)
            label = int((x[0] > 0) ^ (x[4] > 0))
            rows.append(JointRow(f"p{b}-{p}", f"bug{b}", label, learned=x[:4], engineered=x[4:]))
    return rows


TRAINERS = {
    "nb": lambda: SingleSetTrainer("learned", "nb"),
    "gbt": lambda: SingleSetTrainer("concat", "gbt", {"rounds": 8}),
    "rf": lambda: SingleSetTrainer("engineered", "rf", {"n_trees": 6}),
    "ensemble": lambda: evaluate.EnsembleTrainer("gbt", {"rounds": 4}),
    "fusion": lambda: FusionTrainer({"epochs": 3}),
}


def _report(trainer, k):
    return json.dumps(crossval(_joint_rows(), trainer, k=k, seed=4), sort_keys=True)


@pytest.mark.parametrize("name", sorted(TRAINERS))
@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_folds_run_with_a_worker_give_the_one_cpu_report(name, k):
    with _one_cpu():
        alone = _report(TRAINERS[name](), k)
    with _fold_workers():
        assert _report(TRAINERS[name](), k) == alone


class _Recording:
    """Delegates to a trainer and records, in an anonymous shared mapping
    that both processes see, how many CPUs each fold's fit could use and how
    many processes it forked; and in `threads`, how many BLAS threads it
    could use."""

    def __init__(self, inner, k, seed, forked):
        self.inner, self.forked = inner, forked
        self.fold = {evaluate.fold_seed(seed, i): i for i in range(k)}
        self.seen = np.frombuffer(mmap.mmap(-1, 16 * k), dtype=np.int64).reshape(k, 2)
        self.threads = np.frombuffer(mmap.mmap(-1, 8 * k), dtype=np.int64)

    def describe(self):
        return self.inner.describe()

    def fit(self, rows, seed):
        forks = len(self.forked)
        cpus = len(os.sched_getaffinity(0))
        predictor = self.inner.fit(rows, seed)
        self.seen[self.fold[seed]] = cpus, len(self.forked) - forks
        self.threads[self.fold[seed]] = worker.blas_threads()[0]()
        return predictor


@needs_two_cpus
def test_paired_folds_fit_on_one_cpu_and_an_odd_last_fold_on_both(monkeypatch):
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(os.getpid()) or fork())
    monkeypatch.setattr(worker, "BOOST_CELLS", 0)
    trainer = _Recording(TRAINERS["gbt"](), 5, 4, forked)
    with _two_cpus(), _fold_workers():
        crossval(_joint_rows(), trainer, k=5, seed=4)
    # Folds 0, 1 here and 2, 3 in the worker on one CPU each, fold 4 here
    # on both with a boosting worker; this process forked twice.
    assert trainer.seen.tolist() == [[1, 0], [1, 0], [1, 0], [1, 0], [2, 1]]
    assert len(forked) == 2


@needs_two_cpus
def test_a_crossval_with_workers_leaves_no_file_open(monkeypatch):
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(os.getpid()) or fork())
    monkeypatch.setattr(worker, "BOOST_CELLS", 0)
    before = sorted(os.listdir("/proc/self/fd"))
    with _two_cpus(), _fold_workers():
        crossval(_joint_rows(), TRAINERS["gbt"](), k=5, seed=4)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forked) == 2  # the fold worker, and the last fold's boosting worker


@needs_two_cpus
@pytest.mark.parametrize("k", [2, 5])
def test_a_fold_worker_that_dies_gives_the_same_report(k, monkeypatch):
    trainer = TRAINERS["gbt"]()
    with _one_cpu():
        alone = _report(trainer, k)
    parent, fit = os.getpid(), trainer.fit

    def dies_in_the_worker(rows, seed):
        if os.getpid() != parent and seed == evaluate.fold_seed(4, k // 2):
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(rows, seed)

    monkeypatch.setattr(trainer, "fit", dies_in_the_worker)
    with _fold_workers():
        assert _report(trainer, k) == alone


class _FailsOnFolds:
    """A naive Bayes trainer that, on the given folds, fits on rows whose
    first one has lost its learned vector."""

    def __init__(self, folds):
        self.inner, self.seeds = SingleSetTrainer("learned", "nb"), {evaluate.fold_seed(4, i) for i in folds}

    def describe(self):
        return self.inner.describe()

    def fit(self, rows, seed):
        if seed in self.seeds:
            rows = [dataclasses.replace(rows[0], learned=None), *rows[1:]]
        return self.inner.fit(rows, seed)


def _error(trainer, k):
    with pytest.raises(EvalError) as caught:
        crossval(_joint_rows(), trainer, k=k, seed=4)
    return type(caught.value), str(caught.value)


@needs_two_cpus
@pytest.mark.parametrize("folds", [[2], [3], [2, 3], [4], [0, 3]])
def test_an_error_in_a_worker_fold_is_the_serial_error(folds):
    with _one_cpu():
        alone = _error(_FailsOnFolds(folds), 5)
    assert "is missing its learned feature vector" in alone[1]
    with _fold_workers():
        assert _error(_FailsOnFolds(folds), 5) == alone


@needs_two_cpus
def test_paired_folds_run_blas_on_one_thread_and_restore_its_count():
    # A BLAS pool restarted after the fork inside the one-CPU pin would run
    # its threads on one CPU. Folds 0, 1 here and 2, 3 in the worker run on
    # one BLAS thread, fold 4 here on the count the caller set, which is
    # back after crossval returns or raises, wherever the fold raised.
    get_threads, set_threads = worker.blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        trainer = _Recording(TRAINERS["nb"](), 5, 4, [])
        with _two_cpus(), _fold_workers():
            crossval(_joint_rows(), trainer, k=5, seed=4)
        assert trainer.threads.tolist() == [1, 1, 1, 1, 2]
        assert get_threads() == 2
        for folds in ([1], [3]):
            with _two_cpus(), _fold_workers():
                _error(_FailsOnFolds(folds), 5)
            assert get_threads() == 2
    finally:
        set_threads(before)


@needs_two_cpus
def test_an_interrupt_in_a_parent_fold_restores_the_cpus_and_reaps_the_worker(monkeypatch):
    trainer = TRAINERS["nb"]()
    parent, fit = os.getpid(), trainer.fit

    def interrupted(rows, seed):
        if os.getpid() == parent and seed == evaluate.fold_seed(4, 1):
            raise KeyboardInterrupt
        return fit(rows, seed)

    monkeypatch.setattr(trainer, "fit", interrupted)
    with _fold_workers(), pytest.raises(KeyboardInterrupt):
        crossval(_joint_rows(), trainer, k=4, seed=4)
