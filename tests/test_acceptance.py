"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import patchpred
from patchpred import crossing, filtering, learn, synth
from patchpred.corpus import Label
from patchpred.embed import EmbeddingPair
from patchpred.evaluate import (EnsembleTrainer, FusionTrainer, JointRow, SingleSetTrainer, auc,
                                confusion_metrics, crossval)
from patchpred.explain import tree_shap
from patchpred.learn import FeatureRow, glorot_params, logistic_loss_and_grad, net_loss_and_grad

from conftest import build_joint_rows
from shap_reference import brute_force_shap


def report(criterion, started, message):
    print(f"\n[acceptance] criterion {criterion}: PASS ({time.time() - started:.1f}s) - {message}")


def test_c01_crossing_dimension():
    t0 = time.time()
    rng = np.random.default_rng(0)
    for n in (1, 2, 64, 1024):
        pair = EmbeddingPair("p", rng.normal(size=n), rng.normal(size=n), "t", n)
        assert len(crossing.cross(pair).values) == 2 * n + 2
    assert time.time() - t0 < 1.0
    report(1, t0, "cross() emits exactly 2n+2 values for n in {1, 2, 64, 1024}")


def test_c02_recall_arithmetic():
    t0 = time.time()
    plus = confusion_metrics([1.0] * 4 + [0.0] * 3, [1] * 7)
    assert plus["plus_recall"] * 100 == pytest.approx(57.1, abs=0.05)
    minus = confusion_metrics([0.0] * 1387 + [1.0] * 74, [0] * 1461)
    assert minus["minus_recall"] * 100 == pytest.approx(94.9, abs=0.05)
    assert time.time() - t0 < 1.0
    report(2, t0, "TP=4/FN=3 -> +Recall 57.1%; TN=1387/FP=74 -> -Recall 94.9%")


def test_c03_quartile_threshold_retention():
    t0 = time.time()
    rng = np.random.default_rng(33)
    for trial in range(100):
        n = int(rng.integers(4, 201))
        scores = rng.uniform(0, 1, size=n)
        if trial % 2 == 1:
            scores = np.round(scores, 2)  # tie-heavy variant
        sim = filtering.stats(scores)
        scored = [(f"p{i}", float(v), Label.CORRECT) for i, v in enumerate(scores)]
        retained = filtering.filter_by_threshold(
            scored, filtering.resolve_policy("q1", sim)).plus_cp
        # Linear interpolation can land Q1 strictly between two ranks, so the
        # guaranteed bound is 75% of (n - 1): boundary equality allowance.
        assert retained >= 0.75 * (n - 1)
        if n % 4 in (0, 1):
            assert retained >= 0.75 * n
    assert time.time() - t0 < 5.0
    report(3, t0, "Q1 self-filter retains >= 75% (boundary-inclusive) on 100 random score sets")


def test_c04_auc_equals_brute_force_pair_counting():
    t0 = time.time()
    rng = np.random.default_rng(44)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 3 == 0:
            probs = rng.integers(0, 4, size=n) / 3.0  # heavy ties
        else:
            probs = rng.uniform(size=n)
        pos = probs[labels == 1][:, None]
        neg = probs[labels == 0][None, :]
        brute = float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))
        assert abs(auc(probs, labels) - brute) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, t0, "rank-based AUC == brute-force pair counting on 500 instances (ties included)")


def test_c05_fold_hygiene_over_fifty_seeded_runs():
    t0 = time.time()
    from patchpred import engineered
    violations = 0
    for seed in range(50):
        corpus = synth.generate_corpus(8, 4, "none", seed=seed)
        rows = [JointRow(r.patch_id, r.bug_id, 1 if r.label is Label.CORRECT else 0,
                         learned=engineered.extract_all(r).values)
                for r in corpus.records]
        rep = crossval(rows, SingleSetTrainer("learned", "nb"), k=4, seed=seed)
        plan = rep["fold_plan"]
        all_bugs = {r.bug_id for r in rows}
        seen = [b for g in plan for b in g]
        if len(seen) != len(set(seen)) or set(seen) != all_bugs:
            violations += 1
        for fold in rep["per_fold"]:
            test_bugs = set(fold["test_bugs"])
            if test_bugs & (all_bugs - test_bugs) != set():
                violations += 1
        for pred in rep["predictions"]:
            if pred["bug_id"] not in plan[pred["fold"]]:
                violations += 1
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(5, t0, "no bug in both train and test of any fold across 50 seeded runs")


def test_c06_learner_sanity_on_separable_corpus(separable_rows):
    t0 = time.time()
    assert len(separable_rows) == 200
    assert len({r.bug_id for r in separable_rows}) == 40
    aucs = {}
    for kind in ("nb", "lr", "dt", "rf", "gbt", "dnn"):
        rep = crossval(separable_rows, SingleSetTrainer("learned", kind), k=10, seed=42)
        aucs[kind] = rep["macro"]["auc"]
        assert aucs[kind] >= 0.9, f"{kind} reached only {aucs[kind]:.3f}"
    assert aucs["gbt"] >= 0.95
    elapsed = time.time() - t0
    assert elapsed < 300.0
    summary = ", ".join(f"{k}={v:.3f}" for k, v in aucs.items())
    report(6, t0, f"out-of-fold AUC per learner: {summary}")


def test_c07_combination_beats_single_sets_on_xor(xor_rows):
    t0 = time.time()
    concat_auc = crossval(xor_rows, SingleSetTrainer("concat", "gbt"), k=10, seed=42)["macro"]["auc"]
    fusion_auc = crossval(xor_rows, FusionTrainer(), k=10, seed=42)["macro"]["auc"]
    learned_auc = crossval(xor_rows, SingleSetTrainer("learned", "gbt"), k=10, seed=42)["macro"]["auc"]
    engineered_auc = crossval(xor_rows, SingleSetTrainer("engineered", "gbt"), k=10, seed=42)["macro"]["auc"]
    assert concat_auc >= 0.85
    assert fusion_auc >= 0.85
    assert learned_auc <= 0.75
    assert engineered_auc <= 0.75
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(7, t0, f"concat={concat_auc:.3f}, fusion={fusion_auc:.3f} vs "
                  f"learned-only={learned_auc:.3f}, engineered-only={engineered_auc:.3f}")


def test_c08_ensemble_average_is_exact_mean(blob_data):
    t0 = time.time()
    X, y = blob_data
    rows = [JointRow(f"p{i}", f"b{i}", int(y[i]), learned=X[i, :1], engineered=X[i, 1:])
            for i in range(len(y))]
    predict = EnsembleTrainer("lr").fit(rows, seed=0)
    m1, m2 = predict.members
    Z = np.random.default_rng(88).normal(scale=3.0, size=(1000, 2))
    patches = rows + [JointRow(f"q{i}", "q", 0, learned=z[:1], engineered=z[1:]) for i, z in enumerate(Z)]
    for row, p in zip(patches, predict(patches)):
        assert p == (m1.predict_proba(row.learned) + m2.predict_proba(row.engineered)) / 2.0
    assert time.time() - t0 < 1.0
    report(8, t0, "ensemble probability equals the exact member mean on 1120 patches")


def test_c09_treeshap_exactness(separable_rows):
    t0 = time.time()
    rng = np.random.default_rng(99)
    # 100 random small trees/ensembles with <= 4 features vs brute force
    for trial in range(100):
        kind = ("dt", "rf", "gbt")[trial % 3]
        n_features = int(rng.integers(2, 5))
        X = rng.normal(size=(int(rng.integers(15, 40)), n_features))
        y = (X @ rng.normal(size=n_features) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        rows = [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]
        config = {"dt": {"max_depth": 3, "min_leaf": 1},
                  "rf": {"n_trees": 3, "max_depth": 3, "min_leaf": 1},
                  "gbt": {"rounds": 3, "max_depth": 2, "min_leaf": 1}}[kind]
        model = learn.train(kind, rows, config, seed=trial)
        x = X[int(rng.integers(len(X)))]
        fast = tree_shap(model, x, X)
        slow = brute_force_shap(model, x, X)
        assert np.max(np.abs(fast.contributions - slow.contributions)) <= 1e-9
        assert abs(fast.base_value - slow.base_value) <= 1e-9

    # additivity on every explanation of a 200-instance dataset
    rows = [FeatureRow(r.patch_id, r.bug_id, r.learned, r.label) for r in separable_rows]
    model = learn.train("gbt", rows, {"rounds": 25}, seed=1)
    X = np.array([r.features for r in rows])
    worst = 0.0
    for x in X:
        worst = max(worst, tree_shap(model, x, X).additivity_gap())
    assert worst <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(9, t0, f"TreeSHAP == brute force on 100 models; max additivity gap {worst:.1e}")


def test_c10_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(10)

    def numeric(fn, x0, eps=1e-6):
        grad = np.zeros_like(x0)
        for i in range(len(x0)):
            up, down = x0.copy(), x0.copy()
            up[i] += eps
            down[i] -= eps
            grad[i] = (fn(up) - fn(down)) / (2 * eps)
        return grad

    for _ in range(5):
        X = rng.normal(size=(15, 4))
        y = (rng.random(15) < 0.5).astype(float)
        y[:2] = [0, 1]
        wb = rng.normal(scale=0.5, size=5)
        _l, grad = logistic_loss_and_grad(wb, X, y, l2=0.01)
        num = numeric(lambda p: logistic_loss_and_grad(p, X, y, l2=0.01)[0], wb)
        assert np.max(np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)) < 1e-4

    X = rng.normal(size=(12, 3))
    y = (X[:, 0] > 0).astype(float)
    params = [p + rng.normal(scale=0.2, size=p.shape) for p in glorot_params([(3, 4), (4, 1)], seed=2)]
    shapes = [p.shape for p in params]

    def unflatten(flat):
        out, pos = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(flat[pos: pos + size].reshape(shape))
            pos += size
        return out

    flat0 = np.concatenate([p.ravel() for p in params])
    _l, grads = net_loss_and_grad(unflatten(flat0), X, y)
    grad_flat = np.concatenate([g.ravel() for g in grads])
    num = numeric(lambda f: net_loss_and_grad(unflatten(f), X, y)[0], flat0)
    assert np.max(np.abs(grad_flat - num) / np.maximum(np.abs(num), 1e-8)) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(10, t0, "logistic and network gradients match central differences within 1e-4")


# The directory that holds the imported patchpred package (src/, an editable
# install or site-packages), as an absolute path.
PACKAGE_PARENT = str(Path(patchpred.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    # Put PACKAGE_PARENT first on the child's PYTHONPATH, so a CLI started in
    # cwd runs the package this suite imported even if inherited entries are
    # relative to the directory the suite was started from.
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([PACKAGE_PARENT, inherited] if inherited else [PACKAGE_PARENT])
    proc = subprocess.run([sys.executable, "-m", "patchpred.cli", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"{args} (cwd={cwd}, PYTHONPATH={pythonpath}): {proc.stderr}"
    return proc


def test_c11_cli_determinism(tmp_path):
    t0 = time.time()
    run_cli(["gen-synthetic", "--bugs", "10", "--patches-per-bug", "3", "--signal", "learned",
             "--seed", "4", "--out", "corpus.jsonl"], tmp_path)
    run_cli(["train-embedder", "--corpus", "corpus.jsonl", "--dim", "8", "--epochs", "25",
             "--out", "embedder.json"], tmp_path)
    run_cli(["embed", "--corpus", "corpus.jsonl", "--model", "embedder.json",
             "--out", "embeddings.jsonl"], tmp_path)
    run_cli(["features", "--corpus", "corpus.jsonl", "--embeddings", "embeddings.jsonl",
             "--set", "learned", "--out", "learned.csv"], tmp_path)
    run_cli(["train", "--features", "learned.csv", "--learner", "gbt",
             "--hyper", '{"rounds": 15}', "--seed", "5", "--out", "model.json"], tmp_path)
    artifacts = {}
    for tag in ("one", "two"):
        run_cli(["crossval", "--features", "learned.csv", "--learner", "gbt",
                 "--hyper", '{"rounds": 15}', "--k", "5", "--seed", "7",
                 "--out", f"metrics_{tag}.json", "--out-predictions", f"preds_{tag}.csv"], tmp_path)
        run_cli(["explain", "--model", "model.json", "--features", "learned.csv",
                 "--out", f"contrib_{tag}.csv", "--global-out", f"global_{tag}.json"], tmp_path)
        artifacts[tag] = [(tmp_path / f"metrics_{tag}.json").read_bytes(),
                          (tmp_path / f"preds_{tag}.csv").read_bytes(),
                          (tmp_path / f"contrib_{tag}.csv").read_bytes(),
                          (tmp_path / f"global_{tag}.json").read_bytes()]
    assert artifacts["one"] == artifacts["two"]
    report(11, t0, "repeated CLI runs produce byte-identical metric and explanation artifacts")


WALKTHROUGH = [
    ["gen-synthetic", "--bugs", "40", "--patches-per-bug", "5", "--signal", "learned",
     "--seed", "11", "--out", "corpus.jsonl"],
    ["fragments", "--corpus", "corpus.jsonl", "--out", "fragments.jsonl"],
    ["train-embedder", "--corpus", "corpus.jsonl", "--out", "embedder.json"],
    ["embed", "--corpus", "corpus.jsonl", "--model", "embedder.json", "--out", "embeddings.jsonl"],
    ["features", "--corpus", "corpus.jsonl", "--embeddings", "embeddings.jsonl",
     "--set", "learned", "--out", "learned.csv"],
    ["features", "--corpus", "corpus.jsonl", "--set", "engineered",
     "--out", "engineered.csv", "--registry-out", "registry.json"],
    ["crossval", "--features", "learned.csv", "--learner", "gbt", "--k", "10", "--seed", "42",
     "--out", "metrics.json", "--out-predictions", "predictions.csv"],
    ["combine", "--strategy", "concat", "--learner", "gbt", "--learned-features", "learned.csv",
     "--engineered-features", "engineered.csv", "--k", "10", "--seed", "42",
     "--out", "combined.json", "--out-predictions", "predictions_concat.csv"],
    ["train", "--features", "learned.csv", "--learner", "gbt", "--seed", "42",
     "--out", "model.json"],
    ["explain", "--model", "model.json", "--features", "learned.csv",
     "--global-out", "importance.json", "--out", "contributions.csv"],
    ["compare", "--a", "predictions.csv", "--b", "predictions_concat.csv", "--out", "overlap.json"],
]

WALKTHROUGH_ARTIFACTS = [
    "corpus.jsonl", "fragments.jsonl", "embedder.json", "embeddings.jsonl", "learned.csv",
    "engineered.csv", "registry.json", "metrics.json", "predictions.csv", "combined.json",
    "predictions_concat.csv", "model.json", "importance.json", "contributions.csv", "overlap.json",
]


def test_c12_end_to_end_walkthrough(tmp_path):
    t0 = time.time()
    for args in WALKTHROUGH:
        run_cli(args, tmp_path)
    elapsed = time.time() - t0
    for name in WALKTHROUGH_ARTIFACTS:
        assert (tmp_path / name).exists(), name
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["macro"]["auc"] is not None
    importance = json.loads((tmp_path / "importance.json").read_text())
    assert importance["ranking"]
    assert elapsed < 600.0
    report(12, t0, f"documented pipeline completed in {elapsed:.0f}s with all artifacts present")
