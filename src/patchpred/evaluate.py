"""Bug-disjoint k-group cross-validation and the metric suite.

+Recall = TP/(TP+FN) is the fraction of truly correct patches retained;
-Recall = TN/(TN+FP) is the fraction of truly incorrect patches filtered
out. AUC is rank-based with ties counting one half. Cross-validation folds
are bug-disjoint: all patches of a bug stay together, so a model is never
trained on patches of a bug it is tested on. Folds are lists of rows, which
a trainer turns into a learn.Dataset once per fit and once per prediction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import combine, learn
from .corpus import split_by_bug
from .defaults import resolved_config
from .errors import EvalError, TrainError

METRIC_NAMES = ("accuracy", "precision", "plus_recall", "minus_recall", "f1", "auc")


def confusion_metrics(probabilities, labels, threshold: float = 0.5) -> dict:
    """Threshold predictions and compute the confusion-based metric set.

    Division-by-zero cases return 0.0 and are listed in zero_division_flags.
    """
    probs = np.asarray(list(probabilities), dtype=float)
    y = np.asarray(list(labels), dtype=float)
    if probs.size == 0:
        raise EvalError("no predictions to score")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise EvalError("labels must be 0/1")
    pred = probs >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    tn = int(np.sum(~pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    plus_recall = ratio(tp, tp + fn, "plus_recall")
    minus_recall = ratio(tn, tn + fp, "minus_recall")
    f1 = ratio(2 * precision * plus_recall, precision + plus_recall, "f1")
    return {
        "accuracy": (tp + tn) / len(y),
        "precision": precision,
        "plus_recall": plus_recall,
        "minus_recall": minus_recall,
        "f1": f1,
        "confusion": {"TP": tp, "FP": fp, "TN": tn, "FN": fn},
        "zero_division_flags": flags,
    }


def _tied_ranks(values: np.ndarray) -> np.ndarray:
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


def auc(probabilities, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; ties contribute one half."""
    probs = np.asarray(list(probabilities), dtype=float)
    y = np.asarray(list(labels), dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both classes present")
    ranks = _tied_ranks(probs)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# trainers: a uniform fit interface over single and combined feature sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointRow:
    """One patch with whichever feature sets are available."""
    patch_id: str
    bug_id: str
    label: int
    learned: np.ndarray | None = None
    engineered: np.ndarray | None = None


class SingleSetTrainer:
    """Train one learner on one feature set (or the naive concatenation) of
    JointRows, or on FeatureRows, whose one set `feature_set` only names."""

    def __init__(self, feature_set: str, kind: str, config: dict | None = None):
        self.feature_set = feature_set
        self.kind = learn.canonical_kind(kind)
        self.config = config

    def describe(self) -> dict:
        return {
            "strategy": "concat" if self.feature_set == "concat" else "single",
            "feature_set": self.feature_set,
            "learner": self.kind,
            "hyperparameters": resolved_config(self.kind, self.config),
        }

    def fit(self, rows, seed: int):
        model = learn.train(self.kind, learn.Dataset.of(rows, self.feature_set), self.config, seed)

        def predict(test_rows):
            return model.predict_proba_batch(learn.Dataset.of(test_rows, self.feature_set).X)

        predict.model = model
        return predict


class EnsembleTrainer:
    """One learner per feature set; prediction is the mean probability."""

    def __init__(self, kind: str, config_learned: dict | None = None,
                 config_engineered: dict | None = None):
        self.kind = learn.canonical_kind(kind)
        self.config_learned = config_learned
        self.config_engineered = config_engineered

    def describe(self) -> dict:
        return {
            "strategy": "ensemble",
            "learner": self.kind,
            "hyperparameters": {
                "learned": resolved_config(self.kind, self.config_learned),
                "engineered": resolved_config(self.kind, self.config_engineered),
            },
        }

    def fit(self, rows, seed: int):
        members = tuple(learn.train(self.kind, learn.Dataset.of(rows, side), config, seed) for side, config
                        in (("learned", self.config_learned), ("engineered", self.config_engineered)))

        def predict(test_rows):
            data = learn.Dataset.of(test_rows)
            return 0.5 * (members[0].predict_proba_batch(data.columns("learned"))
                          + members[1].predict_proba_batch(data.columns("engineered")))

        predict.members = members
        return predict


class FusionTrainer:
    def __init__(self, config: dict | None = None):
        self.config = config

    def describe(self) -> dict:
        return {
            "strategy": "fusion",
            "learner": "DeepFusion",
            "hyperparameters": resolved_config("DeepFusion", self.config),
        }

    def fit(self, rows, seed: int):
        data = learn.Dataset.of(rows)
        model = combine.deep_fusion_train(data.columns("learned"), data.columns("engineered"),
                                          data.y, self.config, seed)

        def predict(test_rows):
            data = learn.Dataset.of(test_rows)
            if (width := data.blocks["learned"].stop) != model.learned_count:
                raise TrainError(f"expected learned feature vectors of length {model.learned_count}, got {width}")
            return model.predict_proba_batch(data.X)

        predict.model = model
        return predict


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def fold_seed(base_seed: int, fold_index: int) -> int:
    return (base_seed * 1_000_003 + fold_index) % (2**31 - 1)


def _fold_metrics(probs, labels, threshold):
    metrics = confusion_metrics(probs, labels, threshold)
    undefined = []
    y = np.asarray(labels, dtype=float)
    if np.sum(y == 1) == 0:
        undefined.append("plus_recall")
        undefined.append("f1")
    if np.sum(y == 0) == 0:
        undefined.append("minus_recall")
    if len(np.unique(y)) < 2:
        metrics["auc"] = None
        undefined.append("auc")
    else:
        metrics["auc"] = auc(probs, labels)
    return metrics, sorted(set(undefined))


def crossval(rows, trainer, k: int = 10, seed: int = 0, threshold: float = 0.5) -> dict:
    """k-group bug-disjoint cross-validation with macro-averaged metrics.

    Returns a JSON-serializable report: per-fold metrics, macro and pooled
    aggregates, the fold plan, and every out-of-fold prediction.
    """
    rows = list(rows)
    if not rows:
        raise EvalError("no rows for cross-validation")
    labels = np.array([r.label for r in rows], dtype=float)
    if len(np.unique(labels)) < 2:
        raise EvalError("cross-validation requires both classes in the corpus")
    plan = split_by_bug([r.bug_id for r in rows], k, seed)
    per_fold, predictions = [], []
    for i, test_bugs in enumerate(plan):
        test_set = set(test_bugs)
        train_rows = [r for r in rows if r.bug_id not in test_set]
        test_rows = [r for r in rows if r.bug_id in test_set]
        if len({r.label for r in train_rows}) < 2:
            raise EvalError(
                f"fold {i}: training split is single-class; reseed the split or merge groups"
            )
        predictor = trainer.fit(train_rows, fold_seed(seed, i))
        probs = np.asarray(predictor(test_rows), dtype=float)
        fold_labels = [r.label for r in test_rows]
        metrics, undefined = _fold_metrics(probs, fold_labels, threshold)
        per_fold.append({
            "fold": i,
            "test_bugs": list(test_bugs),
            "n_test": len(test_rows),
            "metrics": metrics,
            "undefined": undefined,
        })
        for row, p in zip(test_rows, probs):
            predictions.append({
                "patch_id": row.patch_id,
                "bug_id": row.bug_id,
                "label": int(row.label),
                "probability": float(p),
                "fold": i,
            })

    macro: dict[str, float | None] = {}
    macro_excluded: dict[str, int] = {}
    for name in METRIC_NAMES:
        vals = [f["metrics"][name] for f in per_fold if name not in f["undefined"]]
        macro_excluded[name] = k - len(vals)
        macro[name] = float(np.mean(vals)) if vals else None

    pooled_probs = [p["probability"] for p in predictions]
    pooled_labels = [p["label"] for p in predictions]
    pooled, _ = _fold_metrics(pooled_probs, pooled_labels, threshold)

    return {
        "config": {
            "trainer": trainer.describe(),
            "k": k,
            "seed": seed,
            "threshold": threshold,
            "averaging": "macro",
        },
        "fold_plan": [list(g) for g in plan],
        "per_fold": per_fold,
        "macro": macro,
        "macro_excluded": macro_excluded,
        "pooled": pooled,
        "predictions": predictions,
    }


# ---------------------------------------------------------------------------
# prediction files and set comparison
# ---------------------------------------------------------------------------

PREDICTION_FIELDS = ("patch_id", "bug_id", "label", "probability", "fold")


def write_predictions(path, predictions) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=PREDICTION_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in predictions:
            writer.writerow({k: row[k] for k in PREDICTION_FIELDS})


def read_predictions(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out.append({
                "patch_id": row["patch_id"],
                "bug_id": row["bug_id"],
                "label": int(row["label"]),
                "probability": float(row["probability"]),
                "fold": int(row["fold"]),
            })
    if not out:
        raise EvalError(f"no prediction rows in {path}")
    return out


def compare_predictions(preds_a, preds_b, threshold: float = 0.5) -> dict:
    """Set-overlap counts of correctly identified patches between two runs."""
    by_id_a = {p["patch_id"]: p for p in preds_a}
    by_id_b = {p["patch_id"]: p for p in preds_b}
    if set(by_id_a) != set(by_id_b):
        raise EvalError("prediction files cover different patch sets; compare runs on one corpus")

    def identified(p):
        if p["label"] == 1:
            return p["probability"] >= threshold
        return p["probability"] < threshold

    report = {}
    for label, key in ((1, "correct_patches"), (0, "incorrect_patches")):
        ids = [pid for pid, p in by_id_a.items() if p["label"] == label]
        a_hits = {pid for pid in ids if identified(by_id_a[pid])}
        b_hits = {pid for pid in ids if identified(by_id_b[pid])}
        report[key] = {
            "total": len(ids),
            "both": len(a_hits & b_hits),
            "only_a": len(a_hits - b_hits),
            "only_b": len(b_hits - a_hits),
            "neither": len(ids) - len(a_hits | b_hits),
        }
    return report
