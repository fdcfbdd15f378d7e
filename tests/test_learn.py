import gc
import itertools
import json
import mmap
import os
import pickle
import platform
import select
import signal
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchpred import explain, learn, worker
from patchpred.combine import deep_fusion_train, fusion_loss_and_grad
from patchpred.errors import ExplainError, TrainError
from patchpred.evaluate import JointRow
from patchpred.learn import (FeatureRow, RandomForestModel, LogisticRegressionModel,
                             Tree, _pick, logistic_loss_and_grad, net_loss_and_grad,
                             init_net_params)

from conftest import paper_shaped_matrix
from tree_reference import model_output, predict

ALL_KINDS = ("lr", "nb", "dt", "rf", "gbt", "dnn")


def rows_from(X, y):
    return [FeatureRow(f"p{i}", f"bug{i}", X[i], int(y[i])) for i in range(len(y))]


def fusion_data(X, y, learned):
    """The Dataset of JointRows whose learned vectors are the first
    `learned` columns of X and whose engineered vectors are the rest."""
    return learn.Dataset.of([JointRow(f"p{i}", f"bug{i}", int(y[i]), learned=X[i, :learned],
                                      engineered=X[i, learned:]) for i in range(len(y))])


def numeric_grad(fn, x0, eps=1e-6):
    grad = np.zeros_like(x0)
    for i in range(len(x0)):
        up, down = x0.copy(), x0.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2 * eps)
    return grad


def test_every_kind_separates_gaussian_blobs(blob_data):
    X, y = blob_data
    rows = rows_from(X, y)
    for kind in ALL_KINDS:
        model = learn.train(kind, rows, seed=0)
        preds = model.predict_proba_batch(X) >= 0.5
        accuracy = float(np.mean(preds == y))
        assert accuracy >= 0.95, f"{kind} reached only {accuracy}"


def test_xor_separable_by_tree_but_not_logistic():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0])
    rows = rows_from(X, y)
    tree = learn.train("dt", rows, {"max_depth": 2}, seed=0)
    tree_acc = np.mean((tree.predict_proba_batch(X) >= 0.5) == y)
    assert tree_acc == 1.0
    logistic = learn.train("lr", rows, seed=0)
    lr_acc = np.mean((logistic.predict_proba_batch(X) >= 0.5) == y)
    assert lr_acc <= 0.75


def test_single_class_input_errors():
    X = np.zeros((4, 2))
    with pytest.raises(TrainError, match="single class"):
        learn.train("dt", rows_from(X, np.ones(4)), seed=0)


def test_unknown_kind_errors():
    with pytest.raises(TrainError):
        learn.canonical_kind("svm")


@pytest.mark.parametrize("kind, key, value", [
    ("dnn", "epochs", 0),
    ("dnn", "epochs", -3),
    ("lr", "max_epochs", 0),
    ("lr", "tol", -1e-6),
    ("lr", "tol", float("nan")),
    ("nb", "var_smoothing", float("nan")),
    ("nb", "var_smoothing", -1.0),
    ("nb", "var_smoothing", 0.0),
    ("dnn", "hidden", "abc"),
    ("dnn", "hidden", [0]),
    ("dnn", "hidden", [8, 2.5]),
    ("lr", "standardize", "no"),
    ("dnn", "standardize", 1),
    ("dt", "class_weight", "auto"),
    ("nb", "class_weight", {"0": 1}),
    ("DeepFusion", "epochs", -1),
    ("DeepFusion", "epochs", 0),
    ("DeepFusion", "learned_width", 0),
    ("DeepFusion", "engineered_width", 0),
    ("DeepFusion", "joint_width", 0),
    ("DeepFusion", "joint_width", True),
])
def test_bad_hyperparameters_are_refused_before_training(kind, key, value):
    X, y = np.random.default_rng(0).normal(size=(12, 3)), np.arange(12) % 2
    name = kind if kind == "DeepFusion" else learn.canonical_kind(kind)
    with pytest.raises(TrainError, match=f"{name} hyperparameter '{key}' must be"):
        if kind == "DeepFusion":
            deep_fusion_train(fusion_data(X, y, 2), {key: value})
        else:
            learn.train(kind, rows_from(X, y), {key: value})


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("seed", [-1, 10**400, 1.5, True])
def test_a_seed_that_breaks_numpys_rule_is_refused_before_training(kind, seed):
    # An integer >= 0, for every kind, also those that never draw from it
    # (an integer too large for a float is none, as fileio has numbers).
    X, y = np.random.default_rng(0).normal(size=(12, 3)), np.arange(12) % 2
    with pytest.raises(TrainError, match=r"^seed must be an integer >= 0, got "):
        learn.train(kind, rows_from(X, y), seed=seed)


@pytest.mark.parametrize("learning_rate", [1.0, 10.0])
def test_boosting_that_saturates_a_leaf_without_l2_is_a_train_error(learning_rate):
    # The first column is the label, so a few rounds drive every probability
    # of each leaf to exactly 0 or 1, and with l2 0 its hessian sums to 0.
    y = np.arange(40) % 2
    X = np.column_stack([y, np.random.default_rng(0).normal(size=40)])
    with pytest.raises(TrainError, match=f"l2 0.0 and learning_rate {learning_rate!r}"):
        learn.train("gbt", rows_from(X, y), {"l2": 0.0, "learning_rate": learning_rate}, 0)


def test_zero_weight_logistic_outputs_half():
    model = LogisticRegressionModel(3, {"standardize": False}, 0)
    assert model.predict_proba(np.array([5.0, -2.0, 0.1])) == 0.5


def test_single_leaf_tree_outputs_class_frequency():
    X = np.arange(8, dtype=float).reshape(4, 2)
    y = np.array([1, 1, 1, 0])
    model = learn.train("dt", rows_from(X, y), {"max_depth": 0}, seed=0)
    assert model.predict_proba(np.array([9.0, 9.0])) == pytest.approx(0.75)


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
@pytest.mark.parametrize("lo, hi", [(0.3, np.nextafter(0.3, 1.0)), (1e308, 1.7e308)])
def test_trees_split_adjacent_floats(kind, lo, hi):
    # (a + b) / 2 rounds up to b for adjacent floats; a threshold of b would
    # send every row left and leave an empty right child. For huge values the
    # sum overflows.
    X = np.array([[lo]] * 6 + [[hi]] * 6)
    y = np.array([0] * 6 + [1] * 6)
    model = learn.train(kind, rows_from(X, y), {"n_trees": 10} if kind == "rf" else {}, seed=0)
    trees = model.trees
    assert all(np.all(np.isfinite(t.value)) for t in trees)
    assert all(lo <= t.threshold[0] < hi for t in trees if t.feature[0] == 0)
    p = model.predict_proba_batch(X)
    assert p[:6].max() < 0.5 < p[6:].min()


def test_forest_averages_member_probabilities():
    leaf = lambda v: {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [v]}
    forest = RandomForestModel(2, {"n_trees": 2}, 0, learn.Forest.load([leaf(0.2), leaf(0.6)], 2))
    assert forest.predict_proba(np.array([0.0, 0.0])) == pytest.approx(0.4)


def test_forest_save_load_predicts_identically(tmp_path, blob_data):
    X, y = blob_data
    model = learn.train("rf", rows_from(X, y), {"n_trees": 12}, seed=5)
    path = tmp_path / "forest.json"
    model.save(path)
    loaded = learn.load(path)
    rng = np.random.default_rng(0)
    probe = rng.normal(size=(100, 2))
    assert np.max(np.abs(model.predict_proba_batch(probe) - loaded.predict_proba_batch(probe))) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_save_load_round_trip_every_kind(tmp_path, blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), seed=3)
    path = tmp_path / f"{kind}.json"
    model.save(path)
    loaded = learn.load(path)
    probe = np.random.default_rng(1).normal(size=(20, 2))
    assert np.array_equal(model.predict_proba_batch(probe), loaded.predict_proba_batch(probe))
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_saved_files_are_the_sorted_json_of_the_model_dict(tmp_path, blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), seed=3)
    model.save(tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == json.dumps(model.to_dict(), sort_keys=True)


def test_load_unknown_kind_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "Oracle", "feature_count": 1,
                                "seed": 0, "config": {}, "params": {}}))
    with pytest.raises(TrainError, match="unknown model kind"):
        learn.load(path)


def test_load_truncated_file_errors(tmp_path, blob_data):
    X, y = blob_data
    model = learn.train("dt", rows_from(X, y), seed=0)
    path = tmp_path / "model.json"
    model.save(path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(TrainError):
        learn.load(path)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_training_is_byte_deterministic(tmp_path, blob_data, kind):
    X, y = blob_data
    rows = rows_from(X, y)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    learn.train(kind, rows, seed=7).save(p1)
    learn.train(kind, rows, seed=7).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gbt_training_loss_nonincreasing(blob_data):
    X, y = blob_data
    model = learn.train("gbt", rows_from(X, y), {"rounds": 40}, seed=0)
    losses = model.training_report["round_losses"]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _final_losses(kind, epochs, learning_rate):
    """(reported final loss, the loss of the returned parameters) of a fit
    of `epochs` epochs on 80 random rows: "lr", "dnn" or "fusion"."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 6))
    y = (rng.random(80) < 0.5).astype(float)
    sw = learn._sample_weights(y, None)
    if kind == "fusion":
        model = deep_fusion_train(fusion_data(X, y, 3), {"epochs": epochs, "learning_rate": learning_rate}, 0)
        return model.training_report["final_loss"], fusion_loss_and_grad(model.params, *model._towers(X), y, 0.0, sw)[0]
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    epochs_key = "max_epochs" if kind == "lr" else "epochs"
    model = cls.fit(X, y, learn.resolved_config(cls.kind, {epochs_key: epochs, "learning_rate": learning_rate}), 0)
    Xs = (X - model.mean) / model.std
    if kind == "lr":
        loss = logistic_loss_and_grad(np.r_[model.weights, model.bias], Xs, y, model.config["l2"], sw)[0]
    else:
        loss = net_loss_and_grad(model.params, Xs, y, model.config["l2"], sw)[0]
    return model.training_report["final_loss"], loss


@pytest.mark.parametrize("kind", ["lr", "dnn", "fusion"])
def test_the_final_loss_reported_is_the_returned_parameters(kind):
    # 5 epochs: a logistic regression runs out of epochs before its tol.
    reported, returned = _final_losses(kind, 5, 0.01)
    assert reported == returned


@pytest.mark.parametrize("kind", ["lr", "dnn", "fusion"])
def test_a_last_step_to_a_non_finite_loss_raises(kind):
    # The one step of a one-epoch fit at this rate leaves weights near 1e308.
    with np.errstate(all="ignore"), pytest.raises(TrainError, match="non-finite .* loss; lower the learning rate"):
        _final_losses(kind, 1, 1e308)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(5):
        X = rng.normal(size=(12, 4))
        y = (rng.random(12) < 0.5).astype(float)
        if len(np.unique(y)) < 2:
            continue
        wb = rng.normal(scale=0.5, size=5)
        _loss, grad = logistic_loss_and_grad(wb, X, y, l2=0.01)
        numeric = numeric_grad(lambda p: logistic_loss_and_grad(p, X, y, l2=0.01)[0], wb)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-5


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_network_gradient_matches_finite_differences_five_param_toy(l2):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    y = (X[:, 0] > 0).astype(float)
    sw = rng.uniform(0.5, 2.0, size=10)  # non-unit sample weights
    params = init_net_params([2, 1, 1], seed=4)  # 2 + 1 + 1 + 1 = 5 parameters
    shapes = [p.shape for p in params]

    def unflatten(flat):
        out, pos = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(flat[pos: pos + size].reshape(shape))
            pos += size
        return out

    flat0 = np.concatenate([p.ravel() for p in params])
    assert flat0.size == 5
    _loss, grads = net_loss_and_grad(unflatten(flat0), X, y, l2, sw)
    grad_flat = np.concatenate([g.ravel() for g in grads])
    numeric = numeric_grad(lambda f: net_loss_and_grad(unflatten(f), X, y, l2, sw)[0], flat0)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(grad_flat - numeric) / denom) < 1e-4


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_probabilities_are_in_unit_interval(blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), seed=2)
    probe = np.random.default_rng(5).normal(scale=4.0, size=(50, 2))
    probs = model.predict_proba_batch(probe)
    assert np.all(probs >= 0) and np.all(probs <= 1)


def test_predict_rejects_wrong_length(blob_data):
    X, y = blob_data
    model = learn.train("nb", rows_from(X, y), seed=0)
    with pytest.raises(TrainError, match="length"):
        model.predict_proba(np.array([1.0, 2.0, 3.0]))


def test_non_finite_features_rejected():
    X = np.array([[0.0, 1.0], [np.nan, 2.0]])
    with pytest.raises(TrainError, match="non-finite"):
        learn.train("dt", rows_from(X, np.array([0, 1])), seed=0)


@pytest.mark.parametrize("kind", ALL_KINDS + ("DeepFusion",))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scoring_refuses_a_non_finite_row(kind, value):
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(40, 3)), np.arange(40) % 2
    if kind == "DeepFusion":
        model = deep_fusion_train(fusion_data(X, y, 1), {"epochs": 3}, 0)
    else:
        model = learn.train(kind, rows_from(X, y), seed=0)
    rows = np.zeros((2, 3))
    rows[1, 0] = value
    with pytest.raises(TrainError, match="row 1 has non-finite feature values"):
        model.predict_proba_batch(rows)
    assert np.all(np.isfinite(model.predict_proba_batch(rows[:1])))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scoring_checks_each_matrix_once(blob_data, kind, monkeypatch):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), seed=0)
    calls = []
    checked = learn.TrainedModel._rows
    monkeypatch.setattr(learn.TrainedModel, "_rows", lambda self, *a, **kw: calls.append(1) or checked(self, *a, **kw))
    probs = model.predict_proba_batch(X)
    assert len(calls) == 1 and probs.shape == (len(X),)


def test_balanced_class_weight_changes_imbalanced_fit():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, size=(50, 2)), rng.normal(1.0, 1, size=(5, 2))])
    y = np.array([0] * 50 + [1] * 5)
    plain = learn.train("lr", rows_from(X, y), seed=0)
    weighted = learn.train("lr", rows_from(X, y), {"class_weight": "balanced"}, seed=0)
    probe = np.ones((1, 2)) * 0.8
    assert weighted.predict_proba_batch(probe)[0] > plain.predict_proba_batch(probe)[0]


# --- exact split search against a frozen per-node-sort reference ---------------
# _reference_best_split and _reference_grow_tree are the per-node argsort
# version of split search that the presorted search replaced, kept verbatim;
# _reference_trees repeats the DT/RF/GBT fits around them. The new search
# must grow the same trees bit for bit.

def _reference_best_split(X, targets, weights, idx, features, criterion, min_leaf):
    best = None
    t = targets[idx]
    w = weights[idx]
    w_total = w.sum()
    for f in features:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        st = t[order]
        sw = w[order]
        cuts = np.nonzero(sv[:-1] < sv[1:])[0]
        if len(cuts) == 0:
            continue
        counts = np.arange(1, len(sv))
        valid = cuts[(counts[cuts] >= min_leaf) & (len(sv) - counts[cuts] >= min_leaf)]
        if len(valid) == 0:
            continue
        cw = np.cumsum(sw)
        cwt = np.cumsum(sw * st)
        wl = cw[valid]
        wr = w_total - wl
        sl = cwt[valid]
        sr = cwt[-1] - sl
        if criterion == "gini":
            pl = sl / wl
            pr = sr / wr
            score = (wl * 2 * pl * (1 - pl) + wr * 2 * pr * (1 - pr)) / w_total
        else:
            cwt2 = np.cumsum(sw * st * st)
            sse_l = cwt2[valid] - sl * sl / wl
            sse_r = (cwt2[-1] - cwt2[valid]) - sr * sr / wr
            score = (sse_l + sse_r) / w_total
        j = int(np.argmin(score))
        lo, hi = sv[valid[j]], sv[valid[j] + 1]
        thr = lo / 2.0 + hi / 2.0
        cand = (float(score[j]), f, float(thr if thr < hi else lo))
        if best is None or cand[0] < best[0] - 1e-15:
            best = cand
    return best


def _reference_grow_tree(X, targets, weights, leaf_value_fn, max_depth, min_leaf,
                         criterion="gini", max_features=None, rng=None) -> Tree:
    n_features = X.shape[1]
    tree = Tree([], [], [], [], [])

    def new_node():
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(0.0)
        return len(tree.feature) - 1

    def build(idx, depth):
        node = new_node()
        tree.value[node] = float(leaf_value_fn(idx))
        t = targets[idx]
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.all(t == t[0]):
            return node
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            feats = np.arange(n_features)
        split = _reference_best_split(X, targets, weights, idx, feats, criterion, min_leaf)
        if split is None:
            return node
        _score, f, thr = split
        mask = X[idx, f] <= thr
        tree.feature[node] = int(f)
        tree.threshold[node] = thr
        tree.left[node] = build(idx[mask], depth + 1)
        tree.right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return tree


def _reference_trees(kind, X, y, config, seed):
    sw = learn._sample_weights(y, config["class_weight"])
    if kind == "dt":
        def leaf_value(idx):
            w = sw[idx]
            return float((w * y[idx]).sum() / w.sum())
        return [_reference_grow_tree(X, y, sw, leaf_value, config["max_depth"], config["min_leaf"])]
    if kind == "rf":
        n, p = X.shape
        max_features = p if config["max_features"] is None else (
            max(1, int(np.sqrt(p))) if config["max_features"] == "sqrt" else int(config["max_features"]))
        trees = []
        for t in range(config["n_trees"]):
            rng = np.random.default_rng([seed, t])
            boot = rng.integers(0, n, size=n)
            Xb, yb, wb = X[boot], y[boot], sw[boot]

            def leaf_value(idx, yb=yb, wb=wb):
                w = wb[idx]
                return float((w * yb[idx]).sum() / w.sum())

            trees.append(_reference_grow_tree(Xb, yb, wb, leaf_value, config["max_depth"],
                                              config["min_leaf"], max_features=max_features, rng=rng))
        return trees
    total = sw.sum()
    p_bar = float(np.clip((sw * y).sum() / total, 1e-6, 1 - 1e-6))
    margin = np.full(len(y), np.log(p_bar / (1 - p_bar)))
    trees = []
    for _round in range(config["rounds"]):
        p = learn._sigmoid(margin)
        residual = y - p
        hessian = p * (1 - p)

        def leaf_value(idx, residual=residual, hessian=hessian):
            num = float((sw[idx] * residual[idx]).sum())
            den = float((sw[idx] * hessian[idx]).sum()) + config["l2"]
            return num / den

        tree = _reference_grow_tree(X, residual, sw, leaf_value, config["max_depth"],
                                    config["min_leaf"], criterion="mse")
        trees.append(tree)
        margin = margin + config["learning_rate"] * predict(tree, X)
    return trees


def _assert_same_trees(kind, X, y, overrides, seed):
    config = learn.resolved_config(learn.canonical_kind(kind), overrides)
    model = learn._MODEL_CLASSES[learn.canonical_kind(kind)].fit(X, y, config, seed)
    trees = model.trees
    expected = _reference_trees(kind, X, y, config, seed)
    # json.dumps tells -0.0 from 0.0, which == does not.
    assert json.dumps([t.to_dict() for t in trees]) == json.dumps([t.to_dict() for t in expected])
    assert model.training_report["trees"] == len(expected)
    assert model.training_report["nodes"] == sum(len(t.feature) for t in expected)
    if kind == "gbt":
        margin = model.margin_batch(X)
        forest = learn.Forest.load([t.to_dict() for t in expected], X.shape[1])
        reference = learn.GradientBoostedTreesModel(X.shape[1], config, seed, model.base_margin, forest)
        assert np.array_equal(margin, reference.margin_batch(X))


@st.composite
def _tree_problem(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["ties", "continuous", "constant", "mirror", "signed zero"]),
                          min_size=p, max_size=p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for k in kinds:
        if k == "mirror" and columns:
            # The same cuts in reverse order: scores that differ in the last
            # bits, where the 1e-15 tie rule decides.
            columns.append(-columns[0])
        elif k == "constant":
            columns.append(np.full(n, 1.5))
        elif k == "continuous":
            columns.append(rng.normal(size=n))
        elif k == "signed zero":
            # -0.0 and 0.0 are one value, tied in row order.
            columns.append(rng.choice([-0.0, 0.0, 0.5, -1.0], size=n))
        else:
            columns.append(rng.integers(0, 3, size=n).astype(float))
    X = np.column_stack(columns)
    y = (rng.random(n) < 0.5).astype(float)
    y[0], y[1] = 0.0, 1.0  # both classes, as learn.train requires
    return X, y


@settings(max_examples=60, deadline=None)
@given(problem=_tree_problem(), criterion=st.sampled_from(["gini", "mse"]),
       min_leaf=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 3, 4096]), cells=st.sampled_from([1, 50, learn._GROUP_CELLS]))
def test_split_search_matches_reference_score(problem, criterion, min_leaf, seed, chunk, cells):
    # The chosen split's score must be the same float, which holds only if
    # the prefix sums add tied rows in the same (stable) order. Small chunks
    # carry the best cut across chunk boundaries, and small blocks (1 cell:
    # a column at a time) carry it across blocks of columns. The root, then
    # a child partitioned from its sorted lists.
    X, y = problem
    n, p = X.shape
    rng = np.random.default_rng(seed)
    targets = y - rng.random(n) if criterion == "mse" else y
    weights = rng.choice([0.5, 1.0, 3.0], size=n)
    wt = weights * targets
    defaults = learn._GROUP_CELLS, learn._CUTS_PER_CHUNK
    learn._GROUP_CELLS, learn._CUTS_PER_CHUNK = cells, chunk
    try:
        scratch = learn._Scratch(X, weights, criterion == "mse", 1, min_leaf)
        root = (0, 0, scratch.root)
        mask = rng.random(n) < 0.7
        child = scratch.partition(root, np.arange(n), mask, int(mask.sum()), [True, False])[0]
        for idx, where in ((np.arange(n), root), (np.flatnonzero(mask), child)):
            if len(idx) < 2 * min_leaf:
                continue
            paired = learn._pair(wt, wt * targets) if criterion == "mse" else wt
            got = scratch.search(where, len(idx), paired, weights[idx].sum())[0]
            assert got == _reference_best_split(X, targets, weights, idx, np.arange(p), criterion,
                                                min_leaf)
    finally:
        learn._GROUP_CELLS, learn._CUTS_PER_CHUNK = defaults


@settings(max_examples=80, deadline=None)
@given(problem=_tree_problem(), min_leaf=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1),
       cells=st.sampled_from([1, 40, learn._GROUP_CELLS]), unit=st.booleans(),
       trees=st.integers(1, 8), chunk=st.sampled_from([1, 3, 4096]))
def test_grouped_split_search_matches_reference(problem, min_leaf, seed, cells, unit, trees, chunk):
    # One step of the forest grower: the roots of several trees, of
    # different sizes and with repeated rows as in a bootstrap sample, are
    # searched in groups. A budget of 1 cell searches each node alone and
    # 40 cells groups only small nodes; small chunks carry a node's best cut
    # across chunk boundaries. Each node's leaf value, split and children
    # must be the per-node reference's, and each tree draws its columns
    # from its own generator.
    X, y = problem
    n, p = X.shape
    rng = np.random.default_rng(seed)
    weights = np.ones(n) if unit else rng.choice([0.5, 1.0, 3.0], size=n)
    k = int(rng.integers(1, p + 1))
    roots = [rng.integers(0, n, size=int(rng.integers(1, 3 * n))) for _t in range(trees)]
    grower = learn._ForestGrower(X, y, weights, k, max_depth=5, min_leaf=min_leaf)
    nodes = learn._Nodes()
    live = [(t, np.random.default_rng([seed, t]), [(rows.astype(np.int32), 0, -1, True)])
            for t, rows in enumerate(roots)]
    defaults = learn._GROUP_CELLS, learn._CUTS_PER_CHUNK
    learn._GROUP_CELLS, learn._CUTS_PER_CHUNK = cells, chunk
    try:
        grower._step(nodes, live)
    finally:
        learn._GROUP_CELLS, learn._CUTS_PER_CHUNK = defaults
    # Each tree's root, node t.
    assert nodes.tree == list(range(trees))
    for t, (rows, (_t, _rng, stack)) in enumerate(zip(roots, live)):
        w = weights[rows]
        assert nodes.value[t] == float((w * y[rows]).sum() / w.sum())
        split = None
        if len(rows) >= 2 * min_leaf and not np.all(y[rows] == y[rows][0]):
            feats = np.sort(np.random.default_rng([seed, t]).choice(p, size=k, replace=False))
            split = _reference_best_split(X, y, weights, rows, feats, "gini", min_leaf)
        if split is None:
            assert (nodes.feature[t], stack) == (-1, [])
            continue
        _score, f, thr = split
        # json.dumps tells -0.0 from 0.0, which == does not.
        assert json.dumps([nodes.feature[t], nodes.threshold[t]]) == json.dumps([int(f), thr])
        left = X[rows, f] <= thr
        assert [(r.tolist(), rest) for r, *rest in stack] == [
            (rows[~left].tolist(), [1, t, False]), (rows[left].tolist(), [1, t, True])]


def test_dense_ranks_share_signed_zeros_and_widen_past_int16():
    X = np.column_stack([[0.5, -0.0, 0.0, -1.0, 0.5], [3.0, 2.0, 1.0, 0.0, -1.0]])
    ranks, sentinel = learn._dense_ranks(X)
    assert (ranks.dtype, sentinel) == (np.int16, 5)
    assert ranks.tolist() == [[2, 1, 1, 0, 2, 5], [4, 3, 2, 1, 0, 5]]
    ranks, sentinel = learn._dense_ranks(np.arange(40000.0)[::-1, None])
    assert (ranks.dtype, sentinel) == (np.int32, 40000)
    assert ranks[0].tolist() == list(range(39999, -1, -1)) + [40000]


def test_forest_of_many_distinct_values_matches_reference():
    # 40,000 distinct values: int32 ranks, and sort keys wider than int32.
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.permutation(40000) / 7.0, rng.integers(0, 3, size=40000)])
    y = ((X[:, 0] > 2000) ^ (X[:, 1] == 1) ^ (rng.random(40000) < 0.1)).astype(float)
    _assert_same_trees("rf", X, y, {"n_trees": 2, "max_depth": 3, "max_features": 1}, seed=0)


@pytest.mark.parametrize("kind, overrides", [("dt", {"max_depth": 4}), ("gbt", {"rounds": 3})])
def test_presorted_trees_of_many_distinct_values_match_reference(kind, overrides):
    # 40,000 distinct values: 16 bits of row ids leave too few for the
    # ranks in int32, so the presorted keys are int64.
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.permutation(40000) / 7.0, rng.integers(0, 3, size=40000)])
    y = ((X[:, 0] > 2000) ^ (X[:, 1] == 1) ^ (rng.random(40000) < 0.1)).astype(float)
    assert learn._Scratch(X, np.ones(40000), kind == "gbt", 1, 1).lists[0].dtype == np.int64
    _assert_same_trees(kind, X, y, overrides, seed=0)


@settings(max_examples=60, deadline=None)
@given(problem=_tree_problem(), kind=st.sampled_from(["dt", "rf", "gbt"]),
       class_weight=st.sampled_from([None, "balanced"]), min_leaf=st.sampled_from([1, 2, 5]),
       max_depth=st.integers(1, 6), max_features=st.integers(1, 7), seed=st.integers(0, 3),
       n_trees=st.integers(1, 8))
def test_trees_match_per_node_sort_reference(problem, kind, class_weight, min_leaf, max_depth,
                                             max_features, seed, n_trees):
    X, y = problem
    overrides = {"class_weight": class_weight, "min_leaf": min_leaf, "max_depth": max_depth}
    if kind == "rf":
        overrides.update(n_trees=n_trees, max_features=max_features)
    if kind == "gbt":
        overrides["rounds"] = 4
    _assert_same_trees(kind, X, y, overrides, seed)


PAPER_SHAPE_CASES = [
    ("gbt", {"rounds": 20}),
    ("gbt", {"rounds": 5, "class_weight": "balanced", "max_depth": 5, "min_leaf": 2}),
    ("rf", {"n_trees": 4}),
    ("rf", {"n_trees": 2, "max_features": None, "max_depth": 6}),
    ("dt", {"min_leaf": 5}),
    # One step holds many nodes of mixed sizes.
    ("rf", {"n_trees": 24, "class_weight": "balanced", "min_leaf": 2}),
    # More columns than the matrix has: every column, with no draw.
    ("rf", {"n_trees": 2, "max_features": 75, "max_depth": 6}),
]


@pytest.mark.parametrize("kind, overrides", PAPER_SHAPE_CASES)
def test_trees_match_reference_at_paper_shape(kind, overrides):
    # 400 x 60 like the concat features: hashed token counts with many ties,
    # continuous cross terms and constant engineered flags.
    rng = np.random.default_rng(11)
    counts = rng.poisson(1.0, size=(400, 30)).astype(float)
    cross = rng.normal(size=(400, 20))
    flags = np.zeros((400, 10))
    flags[:, 0] = rng.integers(0, 2, size=400)
    X = np.hstack([counts, cross, flags])
    y = ((counts[:, 0] > 0) ^ (cross[:, 0] > 0)).astype(float)
    _assert_same_trees(kind, X, y, overrides, seed=3)


def _fit_peak(fit, X, y, config):
    """The tracemalloc peak of one fit(X, y, config, 1), in bytes."""
    tracemalloc.start()
    try:
        fit(X, y, config, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forest_fit_memory_peak_at_paper_shape():
    # The per-tree implementation this replaced peaked at 5,585,178 bytes
    # on this fit (numpy 2.4.6): its copy of X per bootstrap sample alone
    # is 2.6 MB.
    X, y = paper_shaped_matrix()
    config = learn.resolved_config("RandomForest", {"n_trees": 5})
    assert _fit_peak(RandomForestModel.fit, X, y, config) < 5_585_178


def test_unsampled_forest_fit_memory_peak_at_paper_shape():
    # Growing each tree alone on its own copy of X[boot], with a presort of
    # that copy, peaked at about 16.5 MB on this fit (numpy 2.4.6); side by
    # side it peaks at about 7.7 MB. A copy of X per tree is 2.6 MB.
    X, y = paper_shaped_matrix()
    config = learn.resolved_config("RandomForest", {"n_trees": 5, "max_features": None})
    assert _fit_peak(RandomForestModel.fit, X, y, config) < 10_000_000


def test_boosting_fit_memory_peak_at_paper_shape():
    # The search that rank keys replaced (intp row lists, a transposed float
    # copy of X and a per-node value gather) peaked at 17,718,317 bytes on
    # this fit (numpy 2.4.6), and buffers sized for every column of the root
    # at 16,523,359 alone and 8,352,227 with the lockstep worker. Searched a
    # block of columns at a time, it peaks at about 6.3 MB alone and 4.1 MB
    # with the worker.
    X, y = paper_shaped_matrix()
    config = learn.resolved_config("GradientBoostedTrees", {"rounds": 10})
    assert _fit_peak(learn.GradientBoostedTreesModel.fit, X, y, config) < 8_500_000


def test_serial_boosting_fit_memory_peak_at_paper_shape():
    # Alone (no worker, peer None), buffers sized for every column of the
    # root peaked at 16,523,359 bytes on this fit (numpy 2.4.6): 46 bytes
    # per cell of the 202 non-constant columns, and the root's row ids.
    X, y = paper_shaped_matrix()
    config = learn.resolved_config("GradientBoostedTrees", {"rounds": 10})
    assert _fit_peak(learn.GradientBoostedTreesModel._boost, X, y, config) < 8_500_000


@pytest.mark.parametrize("kind, lockstep", [("dt", False), ("gbt", False), ("gbt", True)])
def test_blocks_of_columns_keep_the_trees_bits(kind, lockstep, monkeypatch):
    # 300 cells per block: one column at a time at the root, more columns
    # in smaller nodes, every node's candidates merged across blocks. The
    # model must be the default's, alone and with the lockstep worker.
    X, y = paper_shaped_matrix()
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    config = learn.resolved_config(cls.kind, {"rounds": 10} if kind == "gbt" else {})
    fit = (lambda: cls._boost(X, y, config, 1)) if kind == "gbt" and not lockstep else \
        (lambda: cls.fit(X, y, config, 1))
    expected = json.dumps(fit().to_dict())
    monkeypatch.setattr(learn, "_GROUP_CELLS", 300)
    forks = _count_forks(monkeypatch)
    with _workers_always() if lockstep else nullcontext():
        assert json.dumps(fit().to_dict()) == expected
    assert len(forks) == (WORKERS["gbt"] if lockstep else 0)


def test_scratch_grow_leaves_no_reference_cycles(blob_data):
    X, y = blob_data[0], blob_data[1].astype(float)
    sw = np.ones_like(y)
    gc.collect()
    gc.disable()
    try:
        learn._Scratch(X, sw, False, 6, 1).grow(y, lambda idx: float(y[idx].mean()), learn._Nodes())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
def test_tree_records_are_each_forest_tree(blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), {"n_trees": 7} if kind == "rf" else {}, seed=0)
    records = model.trees
    assert len(records) == len(model.forest)
    # Packed again, the records are the forest's arrays.
    again = learn.Forest.load([t.to_dict() for t in records], model.feature_count)
    for field in ("offsets", *learn._TREE_FIELDS):
        assert getattr(again, field).tobytes() == getattr(model.forest, field).tobytes()
    # Fresh lists on every access.
    expected = json.dumps(records[0].to_dict())
    records[0].feature.append(99)
    assert json.dumps(model.trees[0].to_dict()) == expected


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
def test_tree_statistics_in_training_report(blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), {"n_trees": 5} if kind == "rf" else {}, seed=0)
    trees = model.trees
    report = model.training_report
    assert report["trees"] == len(trees)
    assert report["nodes"] == sum(len(t.feature) for t in trees)
    assert 1 <= report["max_depth_reached"] <= model.config["max_depth"]
    assert ("round_losses" in report) == (kind == "gbt")
    assert "training_report" not in model.to_dict()


# --- the root's cut plan, pure children and partitions -------------------------

@settings(max_examples=40, deadline=None)
@given(problem=_tree_problem(), rounds=st.integers(1, 30), chunk=st.sampled_from([1, 3, 4096]),
       class_weight=st.sampled_from([None, "balanced"]), min_leaf=st.sampled_from([1, 2, 5]),
       max_depth=st.integers(1, 4))
def test_gbt_rounds_sharing_a_root_plan_match_reference(problem, rounds, chunk, class_weight,
                                                        min_leaf, max_depth):
    # Every round after the first scores the root from the plan the first
    # one made; small chunks split that plan across chunk boundaries.
    X, y = problem
    default_chunk, learn._CUTS_PER_CHUNK = learn._CUTS_PER_CHUNK, chunk
    try:
        _assert_same_trees("gbt", X, y, {"rounds": rounds, "class_weight": class_weight,
                                         "min_leaf": min_leaf, "max_depth": max_depth}, 0)
    finally:
        learn._CUTS_PER_CHUNK = default_chunk


def test_gbt_finds_the_root_cuts_once_per_fit(monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(float)
    calls = []
    cut_positions = learn._cut_positions
    monkeypatch.setattr(learn, "_cut_positions",
                        lambda *a: calls.append(a[0].shape) or cut_positions(*a))
    # Stumps: the root is the only node searched in each of the 12 rounds.
    _assert_same_trees("gbt", X, y, {"rounds": 12, "max_depth": 1}, 0)
    assert calls == [(4, 60)]


def test_scratch_plans_the_root_for_its_min_leaf():
    # One outlying target: with min_leaf 1 the best root cut isolates its
    # row, which min_leaf 8 forbids. A scratch per min_leaf grows two trees,
    # the second from the root plan the first made.
    rng = np.random.default_rng(9)
    X = np.column_stack([rng.normal(size=50), rng.integers(0, 6, size=50), rng.normal(size=50)])
    y = rng.random(50)
    y[np.argmax(X[:, 0])] = 100.0
    w = np.ones(50)
    leaf = lambda idx: float(y[idx].mean())
    roots = []
    for min_leaf in (1, 8):
        scratch = learn._Scratch(X, w, True, 3, min_leaf)
        nodes = learn._Nodes()
        for _tree in range(2):
            scratch.grow(y, leaf, nodes)
        expected = _reference_grow_tree(X, y, w, leaf, 3, min_leaf, criterion="mse")
        for tree in learn.Forest(*nodes.packed()).records():
            assert json.dumps(tree.to_dict()) == json.dumps(expected.to_dict())
        roots.append((expected.feature[0], expected.threshold[0]))
    assert roots[0] != roots[1]


@pytest.mark.parametrize("kind", ("dt", "gbt"))
def test_pure_children_are_never_partitioned(monkeypatch, kind):
    # y is the sign of column 0, so the root split leaves both children
    # pure (in every boosting round): they become leaves unsearched.
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] > 0).astype(float)

    def partition(*args):
        raise AssertionError("a pure child was partitioned")

    monkeypatch.setattr(learn._Scratch, "partition", partition)
    overrides = {"rounds": 10} if kind == "gbt" else {}
    config = learn.resolved_config(learn.canonical_kind(kind), overrides)
    model = learn._MODEL_CLASSES[learn.canonical_kind(kind)].fit(X, y, config, 0)
    assert all(t.feature == [0, -1, -1] for t in model.trees)
    monkeypatch.undo()
    _assert_same_trees(kind, X, y, overrides, 0)


def _node_rows(scratch, where, m):
    """The rows of the node of m rows at `where`, as (columns, m): its keys' low bits."""
    level, off, cols = where
    return scratch.lists[level][off: off + len(cols) * m].reshape(-1, m) & ((1 << scratch.bits) - 1)


@pytest.mark.parametrize("seed", range(6))
def test_partitioned_lists_hold_each_childs_rows_in_value_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    X = np.column_stack([rng.integers(0, 4, size=n), rng.normal(size=n), np.full(n, 2.0),
                         rng.integers(0, 2, size=n)]).astype(float)
    scratch = learn._Scratch(X, np.ones(n), False, 1, 1)
    pending = [(np.arange(n), (0, 0, scratch.root))]
    # Three generations, so children are partitioned from every buffer.
    for _generation in range(3):
        grown = []
        for idx, where in pending:
            if len(idx) < 2:
                continue
            mask = rng.random(len(idx)) < 0.5
            mask[:2] = [True, False]
            children = scratch.partition(where, idx, mask, int(mask.sum()), [True, True])
            grown += zip((idx[mask], idx[~mask]), children)
        for rows, where in grown:
            lists = _node_rows(scratch, where, len(rows))
            for c, f in enumerate(scratch.root):
                expected = rows[np.argsort(X[rows, f], kind="stable")]
                assert np.array_equal(lists[c], expected)
        pending = grown


@pytest.mark.parametrize("seed", range(4))
def test_partitions_with_one_row_on_a_side_keep_each_childs_value_order(seed):
    # Each node sends one row, or all but one, to its left child; the big
    # child is partitioned again, from the other buffer.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    X = np.column_stack([rng.integers(0, 3, size=n), rng.normal(size=n), np.full(n, 1.0)]).astype(float)
    scratch = learn._Scratch(X, np.ones(n), True, 1, 1)
    idx, where = np.arange(n), (0, 0, scratch.root)
    while len(idx) > 1:
        mask = np.full(len(idx), rng.random() < 0.5)
        mask[rng.integers(len(idx))] ^= True
        children = scratch.partition(where, idx, mask, int(mask.sum()), [True, True])
        for child_rows, child in zip((idx[mask], idx[~mask]), children):
            lists = _node_rows(scratch, child, len(child_rows))
            for c, f in enumerate(scratch.root):
                assert np.array_equal(lists[c], child_rows[np.argsort(X[child_rows, f], kind="stable")])
        idx, where = max(zip((idx[mask], idx[~mask]), children), key=lambda item: len(item[0]))


def test_forest_sums_trees_in_order_for_rows_alone_and_in_batches():
    # Paper-shaped: hashed counts with ties, continuous cross terms, flags.
    rng = np.random.default_rng(11)
    counts = rng.poisson(1.0, size=(500, 30)).astype(float)
    X = np.hstack([counts, rng.normal(size=(500, 20)), rng.integers(0, 2, size=(500, 10))])
    y = ((counts[:, 0] > 0) ^ (X[:, 30] > 0)).astype(float)
    for kind in ("dt", "rf", "gbt"):
        model = learn.train(kind, rows_from(X[:400], y[:400]), seed=1)
        # The holdout, then rows that sit on split thresholds.
        splits = [(f, t) for tree in model.trees
                  for f, t in zip(tree.feature, tree.threshold) if f >= 0][:300]
        on_thresholds = X[400:][np.arange(len(splits)) % 100]
        on_thresholds[np.arange(len(splits)), [f for f, _t in splits]] = [t for _f, t in splits]
        rows = np.vstack([X[400:], on_thresholds])
        batch = model.predict_proba_batch(rows)
        # Frozen reference: a per-tree walk and a loop over the trees, which
        # adds them one after another (a sum over one row's trees could add
        # them pairwise).
        if kind == "gbt":
            assert np.array_equal(model.margin_batch(rows), model_output(model, rows))
            assert all(model.margin_batch(x[None, :])[0] == m
                       for x, m in zip(rows, model.margin_batch(rows)))
        else:
            assert np.array_equal(batch, model_output(model, rows))
        assert all(model.predict_proba(x) == p for x, p in zip(rows, batch))


def test_forest_walks_views_and_copies_of_rows_alike(blob_data):
    X, y = blob_data
    wide = np.hstack([X, np.full((len(X), 3), np.nan)])
    for kind in ("dt", "rf", "gbt"):
        model = learn.train(kind, rows_from(X, y), seed=2)
        expected = model.predict_proba_batch(X)
        # Columns of a wider matrix, Fortran order, and every other row.
        for view in (wide[:, :X.shape[1]], np.asfortranarray(X)):
            assert np.array_equal(model.predict_proba_batch(view), expected)
        assert np.array_equal(model.predict_proba_batch(X[::2]), expected[::2])


# DT, RF and GBT files saved by the per-tree implementation that the packed
# forest replaced (commit 1096741), with their probabilities on a probe
# matrix whose last 12 rows sit on split thresholds.
V1_MODELS = Path(__file__).parent / "data" / "v1_models"


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
def test_saved_format_1_models_load_predict_and_save_unchanged(tmp_path, kind):
    saved = V1_MODELS / f"{kind}.json"
    expected = json.loads((V1_MODELS / "probe.json").read_text())
    probe, probabilities = np.array(expected["probe"]), expected["probabilities"][kind]
    model = learn.load(saved)
    assert model.predict_proba_batch(probe).tolist() == probabilities
    assert [model.predict_proba(x) for x in probe] == probabilities
    model.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("kind, edit, message", [
    ("gbt", lambda trees: [], "rounds is 6, but 0 trees are saved"),
    ("gbt", lambda trees: trees + trees[:1], "rounds is 6, but 7 trees are saved"),
    ("rf", lambda trees: trees[:1], "n_trees is 4, but 1 trees are saved"),
    ("rf", lambda trees: trees[:3], "n_trees is 4, but 3 trees are saved"),
])
def test_load_refuses_a_forest_of_other_than_its_configured_size(tmp_path, kind, edit, message):
    doc = json.loads((V1_MODELS / f"{kind}.json").read_text())
    doc["params"]["trees"] = edit(doc["params"]["trees"])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TrainError, match=f"{kind}.json: not a valid .*: {message}$"):
        learn.load(path)


def _saved_model_doc(tmp_path, kind):
    X = np.random.default_rng(0).normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(float)
    path = tmp_path / f"{kind}.json"
    learn.train(kind, rows_from(X, y), {"n_trees": 3} if kind == "rf" else {}, seed=0).save(path)
    return json.loads(path.read_text())


def _set(tree_field, value):
    """Sets one field of the first split node of the model's first tree."""
    def edit(doc):
        tree = doc["params"]["tree"] if "tree" in doc["params"] else doc["params"]["trees"][0]
        tree[tree_field][next(i for i, f in enumerate(tree["feature"]) if f >= 0)] = value
    return edit


def _put(*path_and_value):
    """Sets the entry at a path of keys and indices of a saved model."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _tree(feature, left, right):
    """A saved tree of these features and children, with thresholds 0 and values 0.5."""
    return {"feature": feature, "threshold": [0.0] * len(feature), "left": left, "right": right,
            "value": [0.5] * len(feature)}


@pytest.mark.parametrize("kind, edit, message", [
    ("gbt", lambda d: d.update(params={}), "no 'base_margin' entry"),
    ("gbt", lambda d: d["params"].update(trees=5), "not iterable"),
    ("rf", lambda d: d.update(feature_count="x"), "feature_count must be a positive integer"),
    ("gbt", lambda d: d.update(config={}), "config lacks class_weight, l2, learning_rate"),
    ("gbt", lambda d: d["config"].update(learning_rate="0.1"), "'learning_rate' must be a number"),
    ("dt", _set("feature", 3), "splits on feature 3; the model has 3"),
    ("dt", _set("left", 99), "children 99"),
    ("dt", _set("right", 0), "must lie in"),
    ("dt", _set("left", 0), "must lie in"),
    ("rf", lambda d: d["params"]["trees"][0]["value"].pop(), "one length"),
    ("gbt", _set("threshold", "0.5"), "finite numbers"),
    ("rf", lambda d: d["params"].update(trees=[]), "at least one tree"),
    ("lr", lambda d: d["params"]["weights"].pop(), "weights must be finite numbers of shape (3,)"),
    ("nb", lambda d: d["params"].update(means=[[0.0], [1.0]]), "means must be"),
    ("dnn", lambda d: d["params"]["layers"].pop(), "chain from the features"),
    ("dt", _put("format_version", True), "unsupported model format version True"),
    ("dt", _put("format_version", 1.0), "unsupported model format version 1.0"),
    ("dt", _put("kind", []), "unknown model kind []"),
    ("dt", _put("kind", "ParagraphVectorModel"), "unknown model kind 'ParagraphVectorModel'; known: DecisionTree"),
    ("dt", _put("params", "tree", "value", 0, -1.0), "tree 0 values must be probabilities, in [0, 1]"),
    ("rf", _put("params", "trees", 1, "value", 0, 1.5), "tree 1 values must be probabilities, in [0, 1]"),
    ("lr", _put("params", "std", 0, 0.0), "std must be finite numbers > 0 of shape (3,)"),
    ("lr", _put("params", "bias", True), "bias must be finite numbers of shape ()"),
    ("nb", _put("params", "priors", 0, -0.5), "priors must be numbers in [0, 1] of shape (2,)"),
    ("nb", _put("params", "variances", 1, 2, 0.0), "variances must be finite numbers > 0 of shape (2, 3)"),
    ("dnn", _put("params", "std", 1, -1.0), "std must be finite numbers > 0 of shape (3,)"),
    ("gbt", _put("config", "learning_rate", 1e308), "learning_rate x trees x the largest |leaf value| overflows"),
    ("gbt", _put("params", "trees", 0, "value", 0, 1e308),
     "learning_rate x trees x the largest |leaf value| overflows"),
    ("gbt", _put("params", "base_margin", False), "base_margin must be finite numbers of shape ()"),
    # true, a string or an integer too large for a float is not a number, in any array.
    ("lr", _put("params", "weights", 0, True), "weights must be finite numbers of shape (3,): got true"),
    ("lr", _put("params", "bias", 10**400), "bias must be finite numbers of shape (): got an integer too large"),
    ("nb", _put("params", "means", 0, 1, "1e3"), 'means must be finite numbers of shape (2, 3): got "1e3"'),
    ("dnn", _put("params", "layers", 0, 0, 0, True), "layer 0 must be finite numbers: got true"),
    ("dnn", _put("params", "layers", 1, 0, "0.5"), 'layer 1 must be finite numbers: got "0.5"'),
    ("rf", _put("params", "trees", 2, "threshold", 0, 10**400),
     "tree 2 thresholds and values must be finite numbers of shape"),
    ("rf", _put("params", "trees", 1, "left", 0, 10**400), "tree 1 features and children must be integers"),
    ("dt", _put("params", "tree", "value", 0, True), "tree 0 thresholds and values must be finite numbers"),
    ("gbt", _put("config", "learning_rate", 10**400), "'learning_rate' must be a number > 0"),
    ("rf", _put("seed", 10**400), "seed must be an integer"),
    # Trees, not graphs: node 3 is the left child of nodes 1 and 2, or of no split.
    ("dt", _put("params", "tree", _tree([0, 1, 2, -1, -1, -1], [1, 3, 3, -1, -1, -1], [2, 4, 5, -1, -1, -1])),
     "tree 0 node 3 is the child of more than one split"),
    ("rf", _put("params", "trees", 1, _tree([0, -1, -1, -1], [1, -1, -1, -1], [2, -1, -1, -1])),
     "tree 1 node 3 is not the child of any split"),
])
def test_load_checks_model_structure(tmp_path, kind, edit, message):
    doc = _saved_model_doc(tmp_path, kind)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TrainError, match="edited.json") as info:
        learn.load(path)
    assert message in str(info.value)


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe{}", "not a valid model file", id="not-utf-8"),
    pytest.param(b"[" * 100_000, "not a valid model file", id="nested-too-deep"),
    pytest.param(b"[1, 2]", "not a model file: it holds no JSON object", id="a-list"),
])
def test_load_refuses_a_file_that_holds_no_json_object(tmp_path, content, message):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(TrainError, match=f"model.json: {message}"):
        learn.load(path)


def test_a_model_whose_arithmetic_overflows_on_rows_refuses_them(tmp_path):
    doc = _saved_model_doc(tmp_path, "lr")
    doc["params"]["weights"] = [1e308] * 3
    path = tmp_path / "lr.json"
    path.write_text(json.dumps(doc))
    model = learn.load(path)  # every saved number is finite and in range
    rows = np.full((2, 3), 5.0)
    with pytest.raises(TrainError, match="LogisticRegression probabilities of these rows: overflow"):
        model.predict_proba_batch(rows)
    with pytest.raises(ExplainError, match="logistic regression attributions: overflow"):
        explain.linear_shap(model, rows[0], rows)


def test_load_names_the_tree_of_a_bad_node(tmp_path):
    X = np.random.default_rng(0).normal(size=(40, 3))
    path = tmp_path / "rf.json"
    learn.train("rf", rows_from(X, (X[:, 0] > 0).astype(float)), {"n_trees": 5}, seed=0).save(path)
    doc = json.loads(path.read_text())
    tree = doc["params"]["trees"][3]
    split = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["left"][split] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(TrainError, match=f"tree 3 node {split} has children 99 and "):
        learn.load(path)


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _packed_forest(draw):
    """A learner kind, a feature count and random trees (one for dt), each
    a preorder node list of random depth, features, thresholds and values
    (probabilities for dt and rf, whose files hold no other values)."""
    kind = draw(st.sampled_from(["dt", "rf", "gbt"]))
    p = draw(st.integers(1, 6))
    values = _FINITE if kind == "gbt" else st.floats(0, 1)
    trees = []
    for _t in range(1 if kind == "dt" else draw(st.integers(1, 5))):
        tree = {field: [] for field in learn._TREE_FIELDS}

        def grow(depth, tree=tree):
            node = len(tree["feature"])
            for field, leaf in zip(learn._TREE_FIELDS, (-1, 0.0, -1, -1, draw(values))):
                tree[field].append(leaf)
            if depth < 4 and draw(st.booleans()):
                tree["feature"][node], tree["threshold"][node] = draw(st.integers(0, p - 1)), draw(_FINITE)
                tree["left"][node] = grow(depth + 1)
                tree["right"][node] = grow(depth + 1)
            return node

        grow(0)
        trees.append(tree)
    return kind, p, trees


@settings(max_examples=60, deadline=None)
@given(forest=_packed_forest(), base=_FINITE, seed=st.integers(0, 2**32 - 1),
       bad_child=st.sampled_from(["itself", "past the end", "negative"]))
def test_random_forests_round_trip_through_files(forest, base, seed, bad_child):
    kind, p, trees = forest
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    # A saved forest has as many trees as its config grows.
    counts = {"rf": {"n_trees": len(trees)}, "gbt": {"rounds": len(trees)}}
    config = learn.resolved_config(cls.kind, counts.get(kind))
    model = cls(p, config, 0, *([base] if kind == "gbt" else []), learn.Forest.load(trees, p))
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1e6, size=(50, p))
    # Rows on split thresholds, which go left.
    splits = [(f, t) for tree in trees for f, t in zip(tree["feature"], tree["threshold"]) if f >= 0][:25]
    X[np.arange(len(splits)), [f for f, _t in splits]] = [t for _f, t in splits]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        loaded = learn.load(path)
        for field in ("offsets", *learn._TREE_FIELDS):
            assert getattr(loaded.forest, field).tobytes() == getattr(model.forest, field).tobytes()
        assert (json.dumps(loaded.to_dict(), sort_keys=True)
                == json.dumps(model.to_dict(), sort_keys=True))
        assert loaded.predict_proba_batch(X).tobytes() == model.predict_proba_batch(X).tobytes()

        t = next((t for t, tree in enumerate(trees) if tree["feature"][0] >= 0), None)
        if t is None:
            return
        doc = json.loads(path.read_text())
        saved = doc["params"]["tree"] if kind == "dt" else doc["params"]["trees"][t]
        node = int(rng.choice([i for i, f in enumerate(saved["feature"]) if f >= 0]))
        saved["left"][node] = {"itself": node, "past the end": len(saved["feature"]),
                               "negative": -1}[bad_child]
        path.write_text(json.dumps(doc))
        with pytest.raises(TrainError, match=f"model.json: .* tree {t} node {node} has children"):
            learn.load(path)


# --- fits with a worker on the other CPU -----------------------------------------
# With the size rule's constants at 0 every boosting fit forks a worker where
# it can (Linux, two usable CPUs), and every forest fit of two trees or more
# where numpy's OpenBLAS is found as well (worker.halves); elsewhere the same
# tests run the serial path. Either way the trees are the reference's, and
# no test leaves a child process behind.

@contextmanager
def _workers_always():
    defaults = worker.BOOST_CELLS, worker.FOREST_ROW_TREES
    worker.BOOST_CELLS = worker.FOREST_ROW_TREES = 0
    try:
        yield
    finally:
        worker.BOOST_CELLS, worker.FOREST_ROW_TREES = defaults
        _assert_no_children()


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


# Forks per fit from the size rule's 0 up, by kind.
WORKERS = {"gbt": int(worker.forks(1, 0)), "rf": int(worker.forks(1, 0) and worker.blas_threads() is not None)}
needs_halves = pytest.mark.skipif(not WORKERS["rf"], reason="worker.halves needs Linux, two CPUs and numpy's OpenBLAS")


@pytest.mark.parametrize("kind, overrides", [case for case in PAPER_SHAPE_CASES if case[0] != "dt"])
def test_trees_grown_with_a_worker_match_reference_at_paper_shape(kind, overrides, monkeypatch):
    forks = _count_forks(monkeypatch)
    with _workers_always():
        test_trees_match_reference_at_paper_shape(kind, overrides)
    assert len(forks) == WORKERS[kind]


def test_decision_trees_never_fork(monkeypatch):
    forks = _count_forks(monkeypatch)
    with _workers_always():
        test_trees_match_reference_at_paper_shape("dt", {"min_leaf": 5})
    assert forks == []


@settings(max_examples=40, deadline=None)
@given(problem=_tree_problem(), kind=st.sampled_from(["rf", "gbt"]),
       class_weight=st.sampled_from([None, "balanced"]), min_leaf=st.sampled_from([1, 2, 5]),
       max_depth=st.integers(1, 6), max_features=st.sampled_from([1, 3, 7, None]),
       seed=st.integers(0, 3), n_trees=st.integers(1, 8), rounds=st.integers(1, 12),
       chunk=st.sampled_from([1, 3, 4096]))
def test_trees_grown_with_a_worker_match_per_node_sort_reference(
        problem, kind, class_weight, min_leaf, max_depth, max_features, seed, n_trees, rounds, chunk):
    # Few columns: a side may own one column or none, and most nodes'
    # candidates come from one side.
    X, y = problem
    overrides = {"class_weight": class_weight, "min_leaf": min_leaf, "max_depth": max_depth}
    if kind == "rf":
        overrides.update(n_trees=n_trees, max_features=max_features)
    else:
        overrides["rounds"] = rounds
    default_chunk, learn._CUTS_PER_CHUNK = learn._CUTS_PER_CHUNK, chunk
    try:
        with _workers_always():
            _assert_same_trees(kind, X, y, overrides, seed)
    finally:
        learn._CUTS_PER_CHUNK = default_chunk


def test_candidates_merged_from_two_column_sets_pick_as_all_columns_do():
    # Every list of up to 4 column minima within a few 1e-15 of each other,
    # where the rule's tolerance decides, split between two sides in every
    # way. Each side keeps its candidates; the merged lists in column order
    # give the pick of every column. A column is a segment of two cuts
    # whose lower score is its minimum.
    def candidates(minima, columns):
        if not columns:
            return []
        score = [x for c in columns for x in ((minima[c], minima[c] + 0.5) if c % 2 else
                                                (minima[c] + 0.5, minima[c]))]
        cuts = (None, None, None, 2, list(range(0, len(score) + 1, 2)))
        (found,) = learn._candidates(np.array(score), cuts, 1)
        return [(v, columns[s]) for v, s in found]

    values = [0.5, 0.5 + 4e-16, 0.5 + 8e-16, 0.5 + 1.2e-15, 0.5 - 6e-16, 0.25]
    for size in range(1, 5):
        for minima in itertools.product(values, repeat=size):
            everything = _pick([(v, c) for c, v in enumerate(minima)])
            assert _pick(candidates(minima, list(range(size)))) == everything
            for sides in itertools.product((0, 1), repeat=size):
                halves = [[c for c in range(size) if sides[c] == side] for side in (0, 1)]
                merged = sorted(candidates(minima, halves[0]) + candidates(minima, halves[1]),
                                key=lambda candidate: candidate[1])
                assert _pick(merged) == everything, (minima, sides)


def test_a_worker_result_arrives_whole_or_not_at_all(monkeypatch):
    # Two trees packed, as a forest worker returns them.
    trees = tuple(np.array(a) for a in ([3, 1], [0, -1, -1, -1], [0.5, 0.0, 0.0, 0.0], [1, -1, -1, -1],
                                        [2, -1, -1, -1], [0.5, -0.0, 1.0, 0.25]))
    with worker.Worker(lambda peer: trees) as peer:
        assert json.dumps([a.tolist() for a in peer.result()]) == json.dumps([a.tolist() for a in trees])
    data = pickle.dumps(trees)
    for cut in (0, 3, 8, 16, len(data) - 8, len(data) - 1):
        # The parent reads what a worker that died after `cut` bytes wrote.
        monkeypatch.setattr(pickle, "dumps", lambda _obj, cut=cut: data[:cut])
        with worker.Worker(lambda peer: trees) as peer, pytest.raises(worker.WorkerLost):
            peer.result()


def test_exchanges_larger_than_a_pipe_buffer_pass_both_ways():
    # Both sides send 400 kB before either reads: each takes in what the
    # other sends while its own message waits for room in the pipe. A
    # deadlock ends in the alarm's TimeoutError.
    def timeout(*_args):
        raise TimeoutError
    mine, theirs = [float(i) for i in range(50_000)], [-0.5 * i for i in range(50_000)]
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with worker.Worker(lambda peer: [peer.exchange(theirs) == mine for _ in range(3)]) as peer:
            assert [peer.exchange(mine) == theirs for _ in range(3)] == [True] * 3
            assert peer.result() == [True] * 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_a_worker_whose_parent_hangs_up_loses_its_exchange():
    # The parent's write end is the only one left to the worker's pipe, so
    # closing it, as the parent's death would, ends the worker's read.
    def work(peer):
        try:
            peer.exchange([1.0])
        except worker.WorkerLost:
            return "lost"
    with worker.Worker(work) as peer:
        os.close(peer.writer)
        peer.writer = os.open(os.devnull, os.O_WRONLY)  # what the parent sends goes nowhere
        assert peer.exchange([2.0]) == [1.0]
        assert select.select([peer.reader], [], [], 30)[0], "the worker still waits"
        assert peer.result() == "lost"


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="workers need Linux and two usable CPUs")
def test_workers_fork_whatever_the_machine(monkeypatch):
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    assert worker.forks(1, 0)


@pytest.mark.parametrize("n", range(8))
def test_halves_run_consecutive_ranges_that_cover_the_items(n, monkeypatch):
    forks = _count_forks(monkeypatch)
    parts = worker.halves(lambda items: items, n, 1, 0)
    _assert_no_children()
    assert [i for part in parts for i in part] == list(range(n))
    m = n // 2
    if m and WORKERS["rf"]:  # this process's half, the worker's, the rest
        assert parts == [range(m), range(m, 2 * m), range(2 * m, n)]
    else:
        assert parts == [range(n)]
    assert len(forks) == (WORKERS["rf"] if m else 0)


@contextmanager
def _two_cpus():
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(before)[:2]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@needs_halves
def test_forest_halves_grow_on_one_cpu_and_one_blas_thread_and_restore_both(monkeypatch):
    # Each call of grow records, in an anonymous shared mapping that the
    # worker writes too, the CPUs and BLAS threads it could use, by its
    # first tree. Trees 0, 1 grow here and 2, 3 in the worker on one CPU
    # and one thread each, tree 4 here on both CPUs and the caller's count,
    # which is back after the fit returns or raises.
    X, y = _boosting_problem()
    config = learn.resolved_config("RandomForest", {"n_trees": 5})
    seen = np.frombuffer(mmap.mmap(-1, 16 * 5), dtype=np.int64).reshape(5, 2)
    get_threads, set_threads = worker.blas_threads()
    parent, grow = os.getpid(), learn._ForestGrower.grow

    def recorded(self, seed, trees, raises=False):
        seen[trees.start] = len(os.sched_getaffinity(0)), get_threads()
        if raises and os.getpid() == parent and trees.start == 0:
            raise KeyboardInterrupt
        return grow(self, seed, trees)

    before = get_threads()
    set_threads(2)
    try:
        with _two_cpus():
            cpus = os.sched_getaffinity(0)
            monkeypatch.setattr(learn._ForestGrower, "grow", recorded)
            with _workers_always():
                RandomForestModel.fit(X, y, config, 0)
            assert seen[[0, 2, 4]].tolist() == [[1, 1], [1, 1], [2, 2]]
            assert (os.sched_getaffinity(0), get_threads()) == (cpus, 2)
            monkeypatch.setattr(learn._ForestGrower, "grow", lambda *args: recorded(*args, raises=True))
            with _workers_always(), pytest.raises(KeyboardInterrupt):
                RandomForestModel.fit(X, y, config, 0)
            assert (os.sched_getaffinity(0), get_threads()) == (cpus, 2)
    finally:
        set_threads(before)


@needs_halves
def test_lockstep_boosting_sides_run_on_their_own_cpu_and_one_blas_thread_and_restore_both(monkeypatch):
    # Each side records, in an anonymous shared mapping, the CPUs and BLAS
    # threads it could use as its rounds start: one CPU each, not the same
    # one, and one thread. The caller's CPUs and count are back after the
    # fit returns or raises.
    X, y = _boosting_problem()
    config = learn.resolved_config("GradientBoostedTrees", {"rounds": 2})
    seen = np.frombuffer(mmap.mmap(-1, 8 * 3 * 2), dtype=np.int64).reshape(2, 3)
    get_threads, set_threads = worker.blas_threads()
    boost = learn.GradientBoostedTreesModel._boost.__func__

    def recorded(cls, X, y, config, seed, peer=None, raises=False):
        cpus = os.sched_getaffinity(0)
        seen[peer.side] = len(cpus), min(cpus), get_threads()
        if raises and peer.side == 0:
            raise KeyboardInterrupt
        return boost(cls, X, y, config, seed, peer)

    before = get_threads()
    set_threads(2)
    try:
        with _two_cpus():
            cpus = os.sched_getaffinity(0)
            monkeypatch.setattr(learn.GradientBoostedTreesModel, "_boost", classmethod(recorded))
            with _workers_always():
                learn.GradientBoostedTreesModel.fit(X, y, config, 0)
            assert seen[:, [0, 2]].tolist() == [[1, 1], [1, 1]] and seen[0, 1] != seen[1, 1]
            assert (os.sched_getaffinity(0), get_threads()) == (cpus, 2)
            monkeypatch.setattr(learn.GradientBoostedTreesModel, "_boost",
                                classmethod(lambda *args: recorded(*args, raises=True)))
            with _workers_always(), pytest.raises(KeyboardInterrupt):
                learn.GradientBoostedTreesModel.fit(X, y, config, 0)
            assert (os.sched_getaffinity(0), get_threads()) == (cpus, 2)
    finally:
        set_threads(before)


def _boosting_problem():
    rng = np.random.default_rng(6)
    X = np.round(rng.normal(size=(300, 24)), 1)
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0) ^ (rng.random(300) < 0.1)).astype(float)
    return X, y


def _dies_in_the_worker(method, after):
    """`method` of learn, wrapped so that the worker kills itself on its
    call number `after`."""
    parent, calls = os.getpid(), []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if os.getpid() != parent and len(calls) == after:
            os.kill(os.getpid(), signal.SIGKILL)
        return method(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("kind", ["gbt", "rf"])
def test_a_fit_whose_worker_dies_returns_the_serial_model(kind, monkeypatch):
    X, y = _boosting_problem()
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    config = learn.resolved_config(cls.kind, {"n_trees": 8} if kind == "rf" else {"rounds": 12})
    serial = json.dumps(cls.fit(X, y, config, 3).to_dict())
    forks = _count_forks(monkeypatch)
    if kind == "gbt":
        monkeypatch.setattr(learn._Scratch, "search", _dies_in_the_worker(learn._Scratch.search, 40))
    else:
        monkeypatch.setattr(learn._ForestGrower, "_step", _dies_in_the_worker(learn._ForestGrower._step, 3))
    with _workers_always():
        assert json.dumps(cls.fit(X, y, config, 3).to_dict()) == serial
    assert len(forks) == WORKERS[kind]


@pytest.mark.parametrize("kind", ["gbt", "rf"])
def test_fits_reap_their_worker_on_every_way_out(kind, monkeypatch):
    X, y = _boosting_problem()
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    config = learn.resolved_config(cls.kind, {"n_trees": 4} if kind == "rf" else {"rounds": 6})
    forks = _count_forks(monkeypatch)
    with _workers_always():
        cls.fit(X, y, config, 0)
    # An interrupt in the parent, mid-fit.
    parent, calls = os.getpid(), []

    def interrupted(*args):
        calls.append(1)
        if os.getpid() == parent and len(calls) == 3:
            raise KeyboardInterrupt
        return grow(*args)

    owner, name = (learn._Scratch, "search") if kind == "gbt" else (learn._ForestGrower, "_step")
    grow = getattr(owner, name)
    monkeypatch.setattr(owner, name, interrupted)
    with _workers_always(), pytest.raises(KeyboardInterrupt):
        cls.fit(X, y, config, 0)
    assert len(forks) == 2 * WORKERS[kind]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files through /proc")
@pytest.mark.parametrize("kind", ["gbt", "rf"])
def test_fits_with_a_worker_leave_no_file_open(kind, monkeypatch):
    X, y = _boosting_problem()
    cls = learn._MODEL_CLASSES[learn.canonical_kind(kind)]
    config = learn.resolved_config(cls.kind, {"n_trees": 8} if kind == "rf" else {"rounds": 12})
    forks = _count_forks(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    with _workers_always():
        cls.fit(X, y, config, 3)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == WORKERS[kind]


def test_a_boosting_fit_that_raises_reaps_its_worker(monkeypatch):
    X, y = _boosting_problem()
    config = learn.resolved_config("GradientBoostedTrees", {"learning_rate": 1e308})
    forks = _count_forks(monkeypatch)
    with _workers_always(), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainError, match="non-finite boosting loss"):
            learn.GradientBoostedTreesModel.fit(X, y, config, 0)
    assert len(forks) == WORKERS["gbt"]
