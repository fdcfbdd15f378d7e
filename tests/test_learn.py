import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchpred import learn
from patchpred.errors import TrainError
from patchpred.learn import (FeatureRow, RandomForestModel, LogisticRegressionModel,
                             Tree, logistic_loss_and_grad, net_loss_and_grad,
                             init_net_params)

from tree_reference import model_output, predict

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
    trees = [model.tree] if kind == "dt" else model.trees
    expected = _reference_trees(kind, X, y, config, seed)
    # json.dumps tells -0.0 from 0.0, which == does not.
    assert json.dumps([t.to_dict() for t in trees]) == json.dumps([t.to_dict() for t in expected])
    assert model.training_report["trees"] == len(expected)
    assert model.training_report["nodes"] == sum(len(t.feature) for t in expected)
    if kind == "gbt":
        margin = model.margin_batch(X)
        reference = learn.GradientBoostedTreesModel(X.shape[1], config, seed, model.base_margin, expected)
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
       chunk=st.sampled_from([1, 3, 4096]))
def test_split_search_matches_reference_score(problem, criterion, min_leaf, seed, chunk):
    # The chosen split's score must be the same float, which holds only if
    # the prefix sums add tied rows in the same (stable) order. Small chunks
    # carry the best cut across chunk boundaries. The root, then a child
    # partitioned from its sorted lists.
    X, y = problem
    n, p = X.shape
    rng = np.random.default_rng(seed)
    targets = y - rng.random(n) if criterion == "mse" else y
    weights = rng.choice([0.5, 1.0, 3.0], size=n)
    wt = weights * targets
    scratch = learn._Scratch(X, weights, True)
    root = (0, 0, scratch.root)
    mask = rng.random(n) < 0.7
    child = scratch.partition(root, np.arange(n), mask, int(mask.sum()), [True, False])[0]
    default_chunk, learn._CUTS_PER_CHUNK = learn._CUTS_PER_CHUNK, chunk
    try:
        for idx, where in ((np.arange(n), root), (np.flatnonzero(mask), child)):
            if len(idx) < 2 * min_leaf:
                continue
            rows, values = scratch.sorted_lists(where, len(idx))
            got = learn._best_split(X, values, rows, None if scratch.unit_weights else weights, wt,
                                    wt * targets, weights[idx].sum(), scratch.root, criterion,
                                    min_leaf, scratch)
            assert got == _reference_best_split(X, targets, weights, idx, np.arange(p), criterion,
                                                min_leaf)
    finally:
        learn._CUTS_PER_CHUNK = default_chunk


@settings(max_examples=80, deadline=None)
@given(problem=_tree_problem(), min_leaf=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1),
       cells=st.sampled_from([1, 40, learn._GROUP_CELLS]), unit=st.booleans(),
       trees=st.integers(1, 8))
def test_grouped_split_search_matches_reference(problem, min_leaf, seed, cells, unit, trees):
    # One step of the forest grower: the roots of several trees, of
    # different sizes and with repeated rows as in a bootstrap sample, are
    # searched in groups. A budget of 1 cell searches each node alone and
    # 40 cells groups only small nodes. Each node's leaf value, split and
    # children must be the per-node reference's, and each tree draws its
    # columns from its own generator.
    X, y = problem
    n, p = X.shape
    rng = np.random.default_rng(seed)
    weights = np.ones(n) if unit else rng.choice([0.5, 1.0, 3.0], size=n)
    k = int(rng.integers(1, p + 1))
    roots = [rng.integers(0, n, size=int(rng.integers(1, 3 * n))) for _t in range(trees)]
    grower = learn._ForestGrower(X, y, weights, k, max_depth=5, min_leaf=min_leaf)
    live = [(np.random.default_rng([seed, t]), Tree([], [], [], [], []),
             [(rows.astype(np.int32), 0, -1, True)]) for t, rows in enumerate(roots)]
    default_cells, learn._GROUP_CELLS = learn._GROUP_CELLS, cells
    try:
        grower._step(live)
    finally:
        learn._GROUP_CELLS = default_cells
    for t, (rows, (_rng, tree, stack)) in enumerate(zip(roots, live)):
        w = weights[rows]
        assert tree.value == [float((w * y[rows]).sum() / w.sum())]
        split = None
        if len(rows) >= 2 * min_leaf and not np.all(y[rows] == y[rows][0]):
            feats = np.sort(np.random.default_rng([seed, t]).choice(p, size=k, replace=False))
            split = _reference_best_split(X, y, weights, rows, feats, "gini", min_leaf)
        if split is None:
            assert (tree.feature, stack) == ([-1], [])
            continue
        _score, f, thr = split
        # json.dumps tells -0.0 from 0.0, which == does not.
        assert json.dumps([tree.feature, tree.threshold]) == json.dumps([[int(f)], [thr]])
        left = X[rows, f] <= thr
        assert [(r.tolist(), rest) for r, *rest in stack] == [
            (rows[~left].tolist(), [1, 0, False]), (rows[left].tolist(), [1, 0, True])]


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


@pytest.mark.parametrize("kind, overrides", [
    ("gbt", {"rounds": 20}),
    ("gbt", {"rounds": 5, "class_weight": "balanced", "max_depth": 5, "min_leaf": 2}),
    ("rf", {"n_trees": 4}),
    ("rf", {"n_trees": 2, "max_features": None, "max_depth": 6}),
    ("dt", {"min_leaf": 5}),
    # One step holds many nodes of mixed sizes.
    ("rf", {"n_trees": 24, "class_weight": "balanced", "min_leaf": 2}),
])
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


def test_forest_fit_memory_peak_at_paper_shape():
    # 1,600 x 202 like the paper-scale benchmark's forest: hashed counts
    # with ties, cross terms of a few values each, and flags. The per-tree
    # implementation this replaced peaked at 5,585,178 bytes on this fit
    # (numpy 2.4.6): its copy of X per bootstrap sample alone is 2.6 MB.
    rng = np.random.default_rng(5)
    counts = rng.poisson(1.0, size=(1600, 100)).astype(float)
    cross = np.round(rng.normal(size=(1600, 80)), 1)
    X = np.hstack([counts, cross, rng.integers(0, 2, size=(1600, 22)).astype(float)])
    y = ((counts[:, 0] > 0) ^ (cross[:, 0] > 0)).astype(float)
    config = learn.resolved_config("RandomForest", {"n_trees": 5})
    tracemalloc.start()
    try:
        RandomForestModel.fit(X, y, config, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_585_178


def test_grow_tree_leaves_no_reference_cycles(blob_data):
    X, y = blob_data[0], blob_data[1].astype(float)
    sw = np.ones_like(y)
    gc.collect()
    gc.disable()
    try:
        learn.grow_tree(X, y, sw, lambda idx: float(y[idx].mean()), 6, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
def test_tree_records_are_each_forest_tree(blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), {"n_trees": 7} if kind == "rf" else {}, seed=0)
    records = model.trees
    expected = [model.forest.tree(t) for t in range(len(model.forest))]
    assert json.dumps([t.to_dict() for t in records]) == json.dumps([t.to_dict() for t in expected])
    # Fresh lists on every access.
    records[0].feature.append(99)
    assert model.trees[0] == expected[0]


@pytest.mark.parametrize("kind", ("dt", "rf", "gbt"))
def test_tree_statistics_in_training_report(blob_data, kind):
    X, y = blob_data
    model = learn.train(kind, rows_from(X, y), {"n_trees": 5} if kind == "rf" else {}, seed=0)
    trees = [model.tree] if kind == "dt" else model.trees
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


def test_shared_scratch_plans_the_root_per_min_leaf():
    # One outlying target: with min_leaf 1 the best root cut isolates its
    # row, which min_leaf 8 forbids.
    rng = np.random.default_rng(9)
    X = np.column_stack([rng.normal(size=50), rng.integers(0, 6, size=50), rng.normal(size=50)])
    y = rng.random(50)
    y[np.argmax(X[:, 0])] = 100.0
    w = np.ones(50)
    leaf = lambda idx: float(y[idx].mean())
    scratch = learn._Scratch(X, w, True)
    for min_leaf in (1, 8, 1):
        tree = learn.grow_tree(X, y, w, leaf, 3, min_leaf, criterion="mse", scratch=scratch)
        expected = _reference_grow_tree(X, y, w, leaf, 3, min_leaf, criterion="mse")
        assert json.dumps(tree.to_dict()) == json.dumps(expected.to_dict())


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
    trees = [model.tree] if kind == "dt" else model.trees
    assert all(t.feature == [0, -1, -1] for t in trees)
    monkeypatch.undo()
    _assert_same_trees(kind, X, y, overrides, 0)


@pytest.mark.parametrize("seed", range(6))
def test_partitioned_lists_hold_each_childs_rows_in_value_order(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    X = np.column_stack([rng.integers(0, 4, size=n), rng.normal(size=n), np.full(n, 2.0),
                         rng.integers(0, 2, size=n)]).astype(float)
    scratch = learn._Scratch(X, np.ones(n), False)
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
            lists = scratch.node_rows(where, len(rows))
            for c, f in enumerate(scratch.root):
                expected = rows[np.argsort(X[rows, f], kind="stable")]
                assert np.array_equal(lists[c], expected)
        pending = grown


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
])
def test_load_checks_model_structure(tmp_path, kind, edit, message):
    doc = _saved_model_doc(tmp_path, kind)
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TrainError, match="edited.json") as info:
        learn.load(path)
    assert message in str(info.value)


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
