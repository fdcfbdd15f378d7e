import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchpred import explain, learn
from patchpred.errors import ExplainError
from patchpred.explain import global_importance, interaction_pairs, linear_shap, tree_shap
from patchpred.learn import DecisionTreeModel, FeatureRow, LogisticRegressionModel, RandomForestModel

from conftest import paper_shaped_matrix
from shap_reference import brute_force_interaction, brute_force_shap, tree_phi
from tree_reference import cover_counts


def leaf_tree(value):
    return {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [value]}


def stump(feature, threshold, left_value, right_value):
    return {"feature": [feature, -1, -1], "threshold": [threshold, 0.0, 0.0],
            "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, left_value, right_value]}


def fit_rows(X, y):
    return [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]


def test_single_leaf_tree_contributes_nothing():
    model = DecisionTreeModel(4, {}, 0, learn.Forest.load([leaf_tree(0.7)], 4))
    background = np.random.default_rng(0).normal(size=(10, 4))
    exp = tree_shap(model, np.zeros(4), background)
    assert np.all(exp.contributions == 0)
    assert exp.base_value == pytest.approx(0.7)
    assert exp.model_output == pytest.approx(0.7)


def test_depth_one_tree_touches_only_its_split_feature():
    model = DecisionTreeModel(5, {}, 0, learn.Forest.load([stump(3, 0.0, 0.2, 0.9)], 5))
    rng = np.random.default_rng(1)
    background = rng.normal(size=(40, 5))
    exp = tree_shap(model, np.array([0.0, 0.0, 0.0, -1.0, 0.0]), background)
    nonzero = np.nonzero(exp.contributions)[0]
    assert list(nonzero) == [3]
    assert exp.additivity_gap() <= 1e-12


def random_tree_model(rng, n_features, kind):
    X = rng.normal(size=(rng.integers(20, 60), n_features))
    y = (X @ rng.normal(size=n_features) + 0.5 * X[:, 0] * X[:, -1] > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    configs = {
        "dt": {"max_depth": int(rng.integers(1, 5)), "min_leaf": 1},
        "rf": {"n_trees": int(rng.integers(2, 6)), "max_depth": 3, "min_leaf": 1},
        "gbt": {"rounds": int(rng.integers(2, 8)), "max_depth": int(rng.integers(1, 4)), "min_leaf": 1},
    }
    return learn.train(kind, fit_rows(X, y), configs[kind], seed=int(rng.integers(1000))), X


def test_tree_shap_matches_brute_force_small_models():
    rng = np.random.default_rng(7)
    for trial in range(12):
        kind = ("dt", "rf", "gbt")[trial % 3]
        model, X = random_tree_model(rng, 4, kind)
        for i in range(3):
            fast = tree_shap(model, X[i], X)
            slow = brute_force_shap(model, X[i], X)
            assert np.max(np.abs(fast.contributions - slow.contributions)) < 1e-9
            assert abs(fast.base_value - slow.base_value) < 1e-9


def test_tree_shap_matches_brute_force_up_to_twelve_features():
    rng = np.random.default_rng(8)
    for n_features in (6, 9, 12):
        model, X = random_tree_model(rng, n_features, "gbt")
        fast = tree_shap(model, X[0], X)
        slow = brute_force_shap(model, X[0], X)
        assert np.max(np.abs(fast.contributions - slow.contributions)) < 1e-9


def test_additivity_on_every_instance(separable_rows):
    rows = [learn.FeatureRow(r.patch_id, r.bug_id, r.learned, r.label) for r in separable_rows]
    model = learn.train("gbt", rows, {"rounds": 25}, seed=1)
    X = np.array([r.features for r in rows])
    for x in X[::10]:
        exp = tree_shap(model, x, X)
        assert exp.additivity_gap() <= 1e-6


def test_dummy_feature_gets_zero_contribution():
    # feature 2 never splits anywhere
    model = DecisionTreeModel(3, {}, 0, learn.Forest.load([stump(0, 0.0, 0.1, 0.8)], 3))
    background = np.random.default_rng(2).normal(size=(30, 3))
    for x in background[:5]:
        exp = tree_shap(model, x, background)
        assert exp.contributions[2] == 0.0


def test_symmetric_features_receive_equal_credit():
    # two stumps, one per feature, identical structure; symmetric input
    t1 = stump(0, 0.0, 0.0, 1.0)
    t2 = stump(1, 0.0, 0.0, 1.0)
    model = RandomForestModel(2, {"n_trees": 2}, 0, learn.Forest.load([t1, t2], 2))
    background = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    exp = tree_shap(model, np.array([0.5, 0.5]), background)
    assert exp.contributions[0] == pytest.approx(exp.contributions[1], abs=1e-12)


def test_gbt_attribution_in_margin_space(separable_rows):
    rows = [learn.FeatureRow(r.patch_id, r.bug_id, r.learned, r.label) for r in separable_rows[:60]]
    model = learn.train("gbt", rows, {"rounds": 10}, seed=0)
    X = np.array([r.features for r in rows])
    exp = tree_shap(model, X[0], X)
    assert exp.space == "margin"
    margin = float(model.margin_batch(X[:1])[0])
    assert exp.base_value + exp.contributions.sum() == pytest.approx(margin, abs=1e-9)


def test_zero_cover_background_raises():
    model = DecisionTreeModel(1, {}, 0, learn.Forest.load([stump(0, 0.0, 0.1, 0.9)], 1))
    background = np.full((5, 1), -1.0)  # nothing ever goes right
    with pytest.raises(ExplainError, match="background"):
        tree_shap(model, np.array([1.0]), background)


def test_unsupported_kind_refused(blob_data):
    X, y = blob_data
    for model in (learn.train("nb", fit_rows(X, y), seed=0), learn.train("dnn", fit_rows(X, y), {"epochs": 2}, seed=0)):
        for call in (lambda: explain.explain_instance(model, X[0], X), lambda: explain.explain_rows(model, X, X),
                     lambda: global_importance(model, X, ["a", "b"], X), lambda: interaction_pairs(model, X, 0, 1, X)):
            with pytest.raises(ExplainError, match="unsupported"):
                call()


def test_one_explainer_under_three_names(blob_data):
    # An lr through tree_shap gets linear_shap's bits: see the row-by-row check of every name below.
    assert explain.tree_shap is explain.linear_shap is explain.explain_instance
    X, y = blob_data
    with pytest.raises(ExplainError, match="unsupported"):
        interaction_pairs(learn.train("lr", fit_rows(X, y), seed=0), X[:1], 0, 1, X)


def test_linear_shap_formula_and_additivity():
    model = LogisticRegressionModel(2, {"standardize": False}, 0,
                                    weights=np.array([2.0, 0.0]), bias=0.5)
    background = np.array([[1.0, 3.0], [3.0, 5.0]])  # mean [2, 4]
    x = np.array([3.0, 9.0])
    exp = linear_shap(model, x, background)
    assert np.allclose(exp.contributions, [2.0 * (3.0 - 2.0), 0.0])
    assert exp.base_value + exp.contributions.sum() == pytest.approx(exp.model_output)
    at_mean = linear_shap(model, background.mean(axis=0), background)
    assert np.allclose(at_mean.contributions, 0.0)


def test_linear_shap_with_standardization_stays_additive(blob_data):
    X, y = blob_data
    model = learn.train("lr", fit_rows(X, y), seed=0)
    exp = linear_shap(model, X[0], X)
    assert exp.additivity_gap() <= 1e-9


def test_global_importance_constant_model_is_all_zero():
    model = DecisionTreeModel(3, {}, 0, learn.Forest.load([leaf_tree(0.4)], 3))
    X = np.random.default_rng(3).normal(size=(20, 3))
    gi = global_importance(model, X, ["a", "b", "c"], X)
    assert all(v == 0.0 for _n, v in gi.ranking)


def test_global_importance_ranks_the_split_feature_first():
    model = DecisionTreeModel(3, {}, 0, learn.Forest.load([stump(1, 0.0, 0.1, 0.9)], 3))
    X = np.random.default_rng(4).normal(size=(30, 3))
    gi = global_importance(model, X, ["left", "singleLine", "right"], X)
    assert gi.ranking[0][0] == "singleLine"
    assert gi.ranking[0][1] > 0
    assert gi.ranking[1][1] == 0.0 and gi.ranking[2][1] == 0.0


def test_interaction_zero_for_additive_model():
    t1 = stump(0, 0.0, 0.0, 1.0)
    t2 = stump(1, 0.0, 0.0, 1.0)
    model = RandomForestModel(2, {"n_trees": 2}, 0, learn.Forest.load([t1, t2], 2))
    background = np.random.default_rng(5).normal(size=(30, 2))
    value = interaction_pairs(model, [np.array([0.3, -0.7])], 0, 1, background)[0]
    assert value == pytest.approx(0.0, abs=1e-12)


def test_interaction_matches_brute_force_and_is_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(6):
        model, X = random_tree_model(rng, 4, "dt")
        x = X[0]
        fast = interaction_pairs(model, [x], 0, 1, X)[0]
        slow = brute_force_interaction(model, x, 0, 1, X)
        assert fast == pytest.approx(slow, abs=1e-9)
        assert interaction_pairs(model, [x], 1, 0, X)[0] == pytest.approx(fast, abs=1e-12)


def test_depth_two_tree_has_nonzero_interaction():
    # split on 0 then on 1 in one branch: genuinely interacting
    tree = {"feature": [0, 1, -1, -1, -1],
            "threshold": [0.0, 0.0, 0.0, 0.0, 0.0],
            "left": [1, 3, -1, -1, -1],
            "right": [2, 4, -1, -1, -1],
            "value": [0.0, 0.0, 0.2, 0.1, 0.9]}
    model = DecisionTreeModel(2, {}, 0, learn.Forest.load([tree], 2))
    background = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    x = np.array([-0.5, 0.5])
    fast = interaction_pairs(model, [x], 0, 1, background)[0]
    slow = brute_force_interaction(model, x, 0, 1, background)
    assert fast == pytest.approx(slow, abs=1e-12)
    assert abs(fast) > 1e-6


@pytest.mark.parametrize("kind", ["dt", "rf", "gbt", "lr"])
def test_explain_rows_matches_explain_instance_with_covers_once(kind, monkeypatch):
    rng = np.random.default_rng(4)
    if kind == "lr":
        X = rng.normal(size=(30, 3))
        model = learn.train("lr", fit_rows(X, (X[:, 0] > 0).astype(int)), seed=0)
    else:
        model, X = random_tree_model(rng, 3, kind)
    one_by_one = {explainer: [explainer(model, x, X, f"p{i}") for i, x in enumerate(X)]
                  for explainer in (explain.explain_instance, tree_shap, linear_shap)}
    calls = count_cover_calls(monkeypatch)
    model.explain_cache = None  # the batch builds a table of its own
    batch = explain.explain_rows(model, X, X, [f"p{i}" for i in range(len(X))])
    # One walk gives every tree's covers.
    assert len(calls) == (0 if kind == "lr" else 1)
    for rows in one_by_one.values():
        assert len(rows) == len(batch)
        for a, b in zip(rows, batch):
            assert (a.patch_id, a.base_value, a.model_output, a.space) == (b.patch_id, b.base_value,
                                                                          b.model_output, b.space)
            assert np.array_equal(a.contributions, b.contributions)
    names = ["a", "b", "c"]
    assert explain.rank_importance(batch, names) == global_importance(model, X, names, X)
    assert len(calls) == (0 if kind == "lr" else 1)


# --- the path table against the recursion and the brute-force oracle ---------

def recursion_phi(model, x, background):
    """Attributions summed tree by tree from the per-node recursion."""
    phi = np.zeros(model.feature_count)
    for tree in model.trees:
        phi += model.scale * tree_phi(tree, cover_counts(tree, background), x, model.feature_count)
    return phi


@st.composite
def tree_models(draw):
    """A fitted DT, RF or GBT of depth up to 6 on a few features, with the
    rows to explain. Values come from a small grid, so rows tie with each
    other, and few features under deep trees split again on a path; the
    explained rows include one that sits on split thresholds."""
    n_features = draw(st.integers(1, 5))
    n_rows = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, draw(st.sampled_from([3, 6, 50])), size=(n_rows, n_features)) / 2.0
    y = rng.integers(0, 2, size=n_rows)
    y[:2] = [0, 1]
    kind = draw(st.sampled_from(["dt", "rf", "gbt"]))
    depth = draw(st.integers(1, 6))
    config = {"max_depth": depth, "min_leaf": 1}
    if kind == "rf":
        config.update(n_trees=draw(st.integers(1, 4)), max_features=None)
    if kind == "gbt":
        config.update(rounds=draw(st.integers(1, 6)))
    model = learn.train(kind, fit_rows(X, y), config, seed=seed)
    on_thresholds = X[0].copy()
    for tree in model.trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                on_thresholds[f] = t
    return model, X, np.vstack([X[:3], on_thresholds])


@settings(max_examples=60, deadline=None)
@given(case=tree_models())
def test_path_table_matches_recursion_and_brute_force(case):
    model, X, rows = case
    for exp, x in zip(explain.explain_rows(model, rows, X), rows):
        assert np.max(np.abs(exp.contributions - recursion_phi(model, x, X))) <= 1e-12
        slow = brute_force_shap(model, x, X)
        assert np.max(np.abs(exp.contributions - slow.contributions)) <= 1e-12
        assert abs(exp.base_value - slow.base_value) <= 1e-12
        assert exp.additivity_gap() <= 1e-12
        if isinstance(model, learn.GradientBoostedTreesModel):
            assert exp.model_output == model.margin_batch(x[None, :])[0]
        else:
            assert exp.model_output == model.predict_proba(x)
        for a in range(model.feature_count):
            for b in range(a + 1, model.feature_count):
                value = interaction_pairs(model, [x], a, b, X)[0]
                assert abs(value - brute_force_interaction(model, x, a, b, X)) <= 1e-12
                assert interaction_pairs(model, [x], b, a, X)[0] == value


@pytest.mark.parametrize("block_bytes", [1, 4096, explain._BLOCK_BYTES])
@pytest.mark.parametrize("kind", ["rf", "gbt"])
def test_explain_rows_on_a_shuffled_subset_equals_the_full_batch(kind, block_bytes, monkeypatch):
    rng = np.random.default_rng(11)
    model, X = random_tree_model(rng, 6, kind)
    full = explain.explain_rows(model, X, X)
    order = rng.permutation(len(X))[: len(X) // 2]
    monkeypatch.setattr(explain, "_BLOCK_BYTES", block_bytes)
    subset = explain.explain_rows(model, X[order], X)
    for exp, i in zip(subset, order):
        assert np.array_equal(exp.contributions, full[i].contributions)
        assert exp.model_output == full[i].model_output


def count_cover_calls(monkeypatch):
    """Records every covers walk, one per path table built."""
    calls = []
    covers = learn.Forest.covers
    monkeypatch.setattr(learn.Forest, "covers", lambda forest, bg: calls.append(1) or covers(forest, bg))
    return calls


@settings(max_examples=30, deadline=None)
@given(case=tree_models())
def test_forest_covers_equal_the_per_tree_recursion(case):
    model, X, rows = case
    covers = model.forest.covers(X)
    offsets = model.forest.offsets
    for t, tree in enumerate(model.trees):
        assert np.array_equal(covers[offsets[t]:offsets[t + 1]], cover_counts(tree, X))
    assert np.all(model.forest.covers(rows)[offsets[:-1]] == len(rows))  # every root


def test_tree_shap_reuses_its_table_only_for_the_same_background_values(monkeypatch):
    rng = np.random.default_rng(12)
    model, X = random_tree_model(rng, 4, "rf")
    calls = count_cover_calls(monkeypatch)
    first = tree_shap(model, X[0], X)
    assert len(calls) == 1
    assert np.array_equal(tree_shap(model, X[0], X.copy()).contributions, first.contributions)
    assert len(calls) == 1
    edited = X.copy()
    edited[3, 1] += 0.25
    again = tree_shap(model, X[0], edited)
    assert len(calls) == 2
    model.explain_cache = None
    fresh = explain.explain_rows(model, X[:1], edited)[0]
    assert np.array_equal(again.contributions, fresh.contributions)
    assert again.base_value == fresh.base_value
    # Equal trees in a new forest object: the table is built again.
    model.forest = learn.Forest.load([tree.to_dict() for tree in model.trees], model.feature_count)
    tree_shap(model, X[0], edited)
    assert len(calls) == 4


def test_interactions_for_many_rows_compute_covers_once_per_tree(monkeypatch):
    rng = np.random.default_rng(14)
    model, X = random_tree_model(rng, 4, "rf")
    calls = count_cover_calls(monkeypatch)
    values = [interaction_pairs(model, [x], 0, 3, X)[0] for x in X[:5]]
    assert len(calls) == 1
    reference = [brute_force_interaction(model, x, 0, 3, X) for x in X[:5]]
    assert np.max(np.abs(np.subtract(values, reference))) <= 1e-12


@pytest.mark.parametrize("kind", ["dt", "rf", "gbt"])
def test_every_explainer_on_one_background_reuses_one_table(monkeypatch, kind):
    model, X = random_tree_model(np.random.default_rng(15), 4, kind)
    names = [f"f{i}" for i in range(X.shape[1])]
    builds = []  # the model's cache as each build starts
    path_table = explain._path_table
    monkeypatch.setattr(explain, "_path_table",
                        lambda model, background: builds.append(model.explain_cache) or path_table(model, background))
    explanations = explain.explain_rows(model, X, X)
    contributions = [exp.contributions.tolist() for exp in explanations]
    assert [exp.contributions.tolist() for exp in explain.explain_rows(model, X, X.copy())] == contributions
    values = [interaction_pairs(model, [x], 1, 2, X)[0] for x in X]
    assert len(builds) == 1
    assert tree_shap(model, X[0], X).contributions.tolist() == contributions[0]
    per_row = [explain.explain_instance(model, x, X) for x in X]
    assert global_importance(model, X, names, X) == explain.rank_importance(per_row, names)
    assert len(builds) == 1
    # The same rows in another order are another background: one build, the old table dropped first.
    assert [exp.contributions.tolist() for exp in explain.explain_rows(model, X, X[::-1])] == contributions
    assert global_importance(model, X, names, X) == explain.rank_importance(per_row, names)
    assert builds == [None] * 3
    model.explain_cache = None
    assert [interaction_pairs(model, [x], 1, 2, X)[0] for x in X] == values
    assert len(builds) == 4


@pytest.mark.parametrize("block_bytes", [1, 4096, explain._BLOCK_BYTES])
@pytest.mark.parametrize("kind", ["dt", "rf", "gbt"])
def test_interactions_of_a_batch_are_the_bits_of_each_row_alone(kind, block_bytes, monkeypatch):
    # Trees deep enough that groups hold more than eight paths through both
    # features, where numpy may sum a batch's rows in another order.
    X = np.random.default_rng(18).normal(size=(300, 5))
    y = (X[:, 0] * X[:, 1] + X[:, 3] - X[:, 2] * X[:, 4] > 0).astype(int)
    model = learn.train(kind, fit_rows(X, y), {"max_depth": 6, **({"n_trees": 5} if kind == "rf" else {})}, seed=2)
    alone = [[interaction_pairs(model, [x], a, b, X)[0] for x in X] for a, b in ((0, 1), (1, 3), (4, 2))]
    monkeypatch.setattr(explain, "_BLOCK_BYTES", block_bytes)
    assert [interaction_pairs(model, X, a, b, X) for a, b in ((0, 1), (1, 3), (4, 2))] == alone
    assert any(value != 0.0 for values in alone for value in values)
    order = np.random.default_rng(19).permutation(len(X))
    assert interaction_pairs(model, X[order], 1, 3, X) == [alone[1][i] for i in order]


@pytest.mark.parametrize("index", [-1, "feature_count", 1.0, True, "0"])
def test_interaction_feature_index_out_of_range_or_not_an_integer_is_refused(index):
    model, X = random_tree_model(np.random.default_rng(16), 3, "dt")
    index = model.feature_count if index == "feature_count" else index
    value = interaction_pairs(model, X[:1], 0, 2, X)
    assert interaction_pairs(model, X[:1], np.int64(0), np.intp(2), X) == value
    for a, b in ((0, index), (index, 0)):
        with pytest.raises(ExplainError, match="integer indices"):
            interaction_pairs(model, X[:1], a, b, X)


def test_uncovered_background_raises_after_a_cached_success():
    model = DecisionTreeModel(1, {}, 0, learn.Forest.load([stump(0, 0.0, 0.1, 0.9)], 1))
    background = np.array([[-1.0], [1.0]])
    assert tree_shap(model, np.array([1.0]), background).additivity_gap() <= 1e-12
    with pytest.raises(ExplainError, match="uncovered"):
        tree_shap(model, np.array([1.0]), np.full((5, 1), -1.0))
    with pytest.raises(ExplainError, match="uncovered"):
        tree_shap(model, np.array([1.0]), np.full((5, 1), -1.0))


def test_two_models_never_share_a_table():
    background = np.random.default_rng(13).normal(size=(30, 2))
    a = DecisionTreeModel(2, {}, 0, learn.Forest.load([stump(0, 0.0, 0.1, 0.9)], 2))
    b = DecisionTreeModel(2, {}, 0, learn.Forest.load([stump(1, 0.0, 0.3, 0.6)], 2))
    x = np.array([0.5, -0.5])
    exp_a, exp_b = tree_shap(a, x, background), tree_shap(b, x, background)
    assert a.explain_cache is not b.explain_cache
    assert exp_a.contributions[1] == 0.0 and exp_b.contributions[0] == 0.0
    assert np.array_equal(tree_shap(a, x, background).contributions, exp_a.contributions)
    assert np.array_equal(exp_b.contributions, explain.explain_rows(b, x[None, :], background)[0].contributions)


BAD_INPUTS = ["long-x", "short-x", "2-D-x", "wide-background", "narrow-background", "1-D-background",
              "empty-background", "nan-x", "inf-background"]


def bad_input(what, X):
    """(x, background) with one defect, from a training matrix X that covers
    every node of the model."""
    x, background = X[0].copy(), X.copy()
    if what == "nan-x":
        x[1] = np.nan
    if what == "inf-background":
        background[4, 0] = np.inf
    return {"long-x": (np.append(x, 0.0), background), "short-x": (x[:-1], background),
            "2-D-x": (x[None, :], background), "wide-background": (x, np.hstack([background, background])),
            "narrow-background": (x, background[:, :-1]), "1-D-background": (x, background[0]),
            "empty-background": (x, background[:0])}.get(what, (x, background))


@pytest.mark.parametrize("what", BAD_INPUTS)
@pytest.mark.parametrize("kind", ["dt", "rf", "gbt", "lr"])
def test_bad_explain_inputs_raise_explain_error(kind, what):
    rng = np.random.default_rng(15)
    if kind == "lr":
        X = rng.normal(size=(30, 3))
        model = learn.train("lr", fit_rows(X, (X[:, 0] > 0).astype(int)), seed=0)
    else:
        model, X = random_tree_model(rng, 3, kind)
    assert explain.explain_instance(model, *bad_input("none", X)).additivity_gap() <= 1e-9
    x, background = bad_input(what, X)
    rows = x[None, :] if x.ndim == 1 else x[:, :, None]
    names = [f"f{i}" for i in range(x.shape[-1])]
    calls = [lambda: explain.explain_instance(model, x, background),
             lambda: explain.explain_rows(model, rows, background),
             lambda: global_importance(model, rows, names, background)]
    if kind != "lr":
        calls.append(lambda: interaction_pairs(model, [x], 0, 1, background))
    for call in calls:
        with pytest.raises(ExplainError, match="x |X |background "):
            call()


@pytest.mark.parametrize("kind", ["dt", "rf", "gbt", "lr"])
def test_patch_ids_not_one_per_row_are_refused(kind):
    # Not an explanation per id, the other rows dropped without a word.
    rng = np.random.default_rng(20)
    if kind == "lr":
        X = rng.normal(size=(60, 4))
        model = learn.train("lr", fit_rows(X, (X[:, 0] > 0).astype(int)), seed=0)
    else:
        model, X = random_tree_model(rng, 4, kind)
    assert [e.patch_id for e in explain.explain_rows(model, X[:5], X, "abcde")] == list("abcde")
    for ids, count in ((["a", "b"], 2), ([f"p{i}" for i in range(7)], 7)):
        with pytest.raises(ExplainError, match=f"^{count} patch ids for 5 rows of X$"):
            explain.explain_rows(model, X[:5], X, ids)


@pytest.mark.parametrize("kind, features, names", [
    ("lr", 4, ["only"]), ("dt", 1, ["real", "bogus-1", "bogus-2"]), ("dt", 1, []), ("gbt", 3, ["a", "b"])])
def test_names_not_one_per_contribution_are_refused(kind, features, names):
    # Not a numpy error, nor a ranking of columns the model never had.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, features))
    model = learn.train(kind, fit_rows(X, (X[:, 0] > 0).astype(int)), seed=0)
    explanations = explain.explain_rows(model, X, X)
    message = f"^{len(names)} names for {features} contributions$"
    for call in (lambda: explain.rank_importance(explanations, names), lambda: global_importance(model, X, names, X)):
        with pytest.raises(ExplainError, match=message):
            call()
    right = [f"f{i}" for i in range(features)]
    assert explain.rank_importance(explanations, right) == global_importance(model, X, right, X)


@pytest.mark.parametrize("kind", ["dt", "gbt", "lr"])
def test_ranking_no_explanations_is_refused(kind):
    # Not a ranking of NaNs in a space no model gave.
    rng = np.random.default_rng(17)
    if kind == "lr":
        X = rng.normal(size=(30, 3))
        model = learn.train("lr", fit_rows(X, (X[:, 0] > 0).astype(int)), seed=0)
    else:
        model, X = random_tree_model(rng, 3, kind)
    names = ["a", "b", "c"]
    for call in (lambda: explain.rank_importance([], names), lambda: global_importance(model, X[:0], names, X)):
        with pytest.raises(ExplainError, match="no explanations to rank"):
            call()


# Explanations of the saved v1 models of tests/data/v1_models, as repr
# floats: every row of the probe matrix of probe.json over a background of
# the probe and one row per leaf that reaches it (the probe alone leaves
# nodes uncovered), with one interaction value per model. Recorded by the
# per-tree path walk that the level-wise path table replaced, so any change
# of path order or of a product's order shows. dt_not_preorder.json numbers
# each right subtree before its left one, so its leaves are not in walk order.
V1_MODELS = Path(__file__).parent / "data" / "v1_models"


@pytest.mark.parametrize("name", ["dt", "rf", "gbt", "dt_not_preorder"])
def test_saved_v1_models_explain_to_the_recorded_bits(name):
    recorded = json.loads((V1_MODELS / "explain.json").read_text())
    probe = np.array(json.loads((V1_MODELS / "probe.json").read_text())["probe"])
    background, expected = np.array(recorded["background"]), recorded["models"][name]
    model = learn.load(V1_MODELS / f"{name}.json")
    explanations = explain.explain_rows(model, probe, background)
    assert [[repr(v) for v in e.contributions.tolist()] for e in explanations] == expected["contributions"]
    assert [repr(e.base_value) for e in explanations] == [expected["base_value"]] * len(probe)
    pair = expected["interaction"]
    value = interaction_pairs(model, [probe[pair["row"]]], *pair["features"], background)[0]
    assert repr(value) == pair["value"]


def test_path_table_memory_peak_at_paper_shape():
    # The default forest (100 trees, 12 levels) over its 1,600 training
    # rows as background: a table of about 4.7 MB. When every route held a
    # slot per level and the ending routes were gathered into (paths x
    # levels) arrays, the build peaked at 19,905,975 bytes (numpy 2.4.6);
    # routes of depth d now hold d slots and end straight in their group,
    # about 8.5 MB.
    X, y = paper_shaped_matrix()
    model = RandomForestModel.fit(X, y, learn.resolved_config("RandomForest", {}), 1)
    tracemalloc.start()
    try:
        groups, _base = explain._path_table(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(group.value) for group in groups) == np.count_nonzero(model.forest.feature < 0)
    assert peak < 10_500_000
