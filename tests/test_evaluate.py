import numpy as np
import pytest

from patchpred import evaluate
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
