import json

import numpy as np
import pytest

from patchpred import learn
from patchpred.errors import TrainError
from patchpred.learn import (FeatureRow, RandomForestModel, LogisticRegressionModel,
                             Tree, logistic_loss_and_grad, net_loss_and_grad,
                             init_net_params)

ALL_KINDS = ("lr", "nb", "dt", "rf", "gbt", "dnn")


def rows_from(X, y):
    return [FeatureRow(f"p{i}", f"bug{i}", X[i], int(y[i])) for i in range(len(y))]


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
    trees = [model.tree] if kind == "dt" else model.trees
    assert all(np.all(np.isfinite(t.value)) for t in trees)
    assert all(lo <= t.threshold[0] < hi for t in trees if t.feature[0] == 0)
    p = model.predict_proba_batch(X)
    assert p[:6].max() < 0.5 < p[6:].min()


def test_forest_averages_member_probabilities():
    leaf = lambda v: Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[v])
    forest = RandomForestModel(2, {"n_trees": 2}, 0, trees=[leaf(0.2), leaf(0.6)])
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


def test_network_gradient_matches_finite_differences_five_param_toy():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    y = (X[:, 0] > 0).astype(float)
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
    _loss, grads = net_loss_and_grad(unflatten(flat0), X, y)
    grad_flat = np.concatenate([g.ravel() for g in grads])
    numeric = numeric_grad(lambda f: net_loss_and_grad(unflatten(f), X, y)[0], flat0)
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


def test_balanced_class_weight_changes_imbalanced_fit():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, size=(50, 2)), rng.normal(1.0, 1, size=(5, 2))])
    y = np.array([0] * 50 + [1] * 5)
    plain = learn.train("lr", rows_from(X, y), seed=0)
    weighted = learn.train("lr", rows_from(X, y), {"class_weight": "balanced"}, seed=0)
    probe = np.ones((1, 2)) * 0.8
    assert weighted.predict_proba_batch(probe)[0] > plain.predict_proba_batch(probe)[0]
