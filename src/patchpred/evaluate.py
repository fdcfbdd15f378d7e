"""Bug-disjoint k-group cross-validation and the metric suite.

+Recall = TP/(TP+FN) is the fraction of truly correct patches retained;
-Recall = TN/(TN+FP) is the fraction of truly incorrect patches filtered
out. AUC is rank-based with ties counting one half. Cross-validation folds
are bug-disjoint: all patches of a bug stay together, so a model is never
trained on patches of a bug it is tested on. Folds are lists of rows, which
a trainer turns into a learn.Dataset once per fit and once per prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import combine, fileio, learn, worker
from .corpus import split_by_bug
from .defaults import resolved_config
from .errors import EvalError, TrainError

METRIC_NAMES = ("accuracy", "precision", "plus_recall", "minus_recall", "f1", "auc")


def _scored(probabilities, labels) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and labels as float arrays; EvalError unless there are
    as many of each, at least one, the probabilities finite and the labels
    0 or 1."""
    probs = np.asarray(list(probabilities), dtype=float)
    y = np.asarray(list(labels), dtype=float)
    if probs.shape != y.shape or probs.ndim != 1:
        raise EvalError(f"{probs.size} probabilities for {y.size} labels")
    if probs.size == 0:
        raise EvalError("no predictions to score")
    if not np.all(np.isfinite(probs)):
        raise EvalError("probabilities must be finite numbers")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise EvalError("labels must be 0/1")
    return probs, y


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # NaN included
        raise EvalError(f"threshold {threshold} is not in [0, 1]")


def confusion_metrics(probabilities, labels, threshold: float = 0.5) -> dict:
    """Threshold predictions and compute the confusion-based metric set.

    Division-by-zero cases return 0.0 and are listed in zero_division_flags.
    EvalError unless the threshold is in [0, 1].
    """
    _check_threshold(threshold)
    probs, y = _scored(probabilities, labels)
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
    """Ranks from 1 in ascending order; a run of equal values at sorted
    positions i..j shares (i + j) / 2 + 1."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(values)] - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def auc(probabilities, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; ties contribute one half."""
    probs, y = _scored(probabilities, labels)
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

    def vectors(self) -> dict:
        """Each feature set's vector, None where it is not available."""
        return {"learned": self.learned, "engineered": self.engineered}


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

    def __init__(self, kind: str, config: dict | None = None):
        self.kind = learn.canonical_kind(kind)
        self.config = config

    def describe(self) -> dict:
        return {
            "strategy": "ensemble",
            "learner": self.kind,
            "hyperparameters": {side: resolved_config(self.kind, self.config) for side in ("learned", "engineered")},
        }

    def fit(self, rows, seed: int):
        members = tuple(learn.train(self.kind, learn.Dataset.of(rows, side), self.config, seed)
                        for side in ("learned", "engineered"))

        def predict(test_rows):
            learned, engineered = (member.predict_proba_batch(learn.Dataset.of(test_rows, side).X)
                                   for member, side in zip(members, ("learned", "engineered")))
            return 0.5 * (learned + engineered)

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
        model = combine.deep_fusion_train(data, self.config, seed)

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
    aggregates, the fold plan, and every out-of-fold prediction. Every fold
    is split and checked before the first fit. `trainer.fit(rows, seed)`
    returns a predictor, rows -> probabilities. A fit and its predictor may
    run in a forked copy of this process (see worker.halves), and their side
    effects on Python objects stay there; the report is the same either way.
    """
    if k < 2:  # with one fold, the training split would be empty
        raise EvalError(f"k must be at least 2, got {k}")
    _check_threshold(threshold)
    rows = list(rows)
    if not rows:
        raise EvalError("no rows for cross-validation")
    labels = np.array([r.label for r in rows], dtype=float)
    # Before any fold, row by row (no matrix of every row): a test split's bad
    # label would reach only the metrics, and its NaN would be named by row.
    finite = np.array([all(vec is None or np.isfinite(vec).all() for vec in r.vectors().values()) for r in rows])
    learn.refuse_bad_rows([r.patch_id for r in rows], labels, finite)
    if len(np.unique(labels)) < 2:
        raise EvalError("cross-validation requires both classes in the corpus")
    plan = split_by_bug([r.bug_id for r in rows], k, seed)
    folds = []
    for i, test_bugs in enumerate(plan):
        test_set = set(test_bugs)
        train_rows = [r for r in rows if r.bug_id not in test_set]
        test_rows = [r for r in rows if r.bug_id in test_set]
        if len({r.label for r in train_rows}) < 2:
            raise EvalError(
                f"fold {i}: training split is single-class; reseed the split or merge groups"
            )
        folds.append((train_rows, test_rows))

    def run(fold_numbers):
        out = []
        for i in fold_numbers:
            train_rows, test_rows = folds[i]
            predictor = trainer.fit(train_rows, fold_seed(seed, i))
            probs = np.asarray(predictor(test_rows), dtype=float)
            out.append((probs, *_fold_metrics(probs, [r.label for r in test_rows], threshold)))
        return out

    width = sum(len(vec) for vec in rows[0].vectors().values() if vec is not None)
    per_fold, predictions = [], []
    parts = worker.halves(run, k, len(rows) * width, worker.FOLD_CELLS)
    for i, (probs, metrics, undefined) in enumerate(fold for part in parts for fold in part):
        test_rows = folds[i][1]
        per_fold.append({
            "fold": i,
            "test_bugs": list(plan[i]),
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
    fileio.write_csv(path, PREDICTION_FIELDS, ([row[k] for k in PREDICTION_FIELDS] for row in predictions))


def read_predictions(path, labels: dict | None = None) -> list[dict]:
    """The rows of a prediction file; EvalError, naming the file and line,
    unless its header starts with PREDICTION_FIELDS and each row fills every
    column, with a 0/1 label, a probability in [0, 1], an integer fold and a
    patch id of its own. With `labels` (patch id -> label, from another run
    on the same corpus), a patch there must carry the same label here."""
    records = fileio.read_csv(path, EvalError, PREDICTION_FIELDS)
    next(records)
    out, lines = [], {}
    for line, (pid, bug_id, label, probability, fold, *_rest) in records:
        where = f"{path} line {line}"
        try:
            if not fileio.number_text(label, probability, fold):
                raise ValueError(f"label {label!r}, probability {probability!r} and fold {fold!r} must be numbers")
            label, probability, fold = int(label), float(probability), int(fold)
            if label not in (0, 1) or not 0.0 <= probability <= 1.0:
                raise ValueError(f"label {label}, probability {probability}: want 0 or 1, and [0, 1]")
        except ValueError as exc:
            raise EvalError(f"{where}: {exc}") from exc
        if pid in lines:
            raise EvalError(f"{where}: patch {pid!r} is already on line {lines[pid]}")
        if labels is not None and labels.get(pid, label) != label:
            raise EvalError(f"{where}: patch {pid!r} is labeled {label} here and {labels[pid]} in the other run")
        lines[pid] = line
        out.append({"patch_id": pid, "bug_id": bug_id, "label": label, "probability": probability, "fold": fold})
    if not out:
        raise EvalError(f"no prediction rows in {path}")
    return out


def compare_predictions(preds_a, preds_b, threshold: float = 0.5) -> dict:
    """Set-overlap counts of correctly identified patches between two runs."""
    _check_threshold(threshold)
    by_id_a = {p["patch_id"]: p for p in preds_a}
    by_id_b = {p["patch_id"]: p for p in preds_b}
    if {pid: p["label"] for pid, p in by_id_a.items()} != {pid: p["label"] for pid, p in by_id_b.items()}:
        raise EvalError("prediction files cover different patches or label them differently; "
                        "compare runs on one corpus")

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
