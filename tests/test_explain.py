import numpy as np
import pytest

from patchpred import explain, learn
from patchpred.errors import ExplainError
from patchpred.explain import (brute_force_interaction, brute_force_shap, global_importance,
                               interaction_pairs, linear_shap, tree_shap)
from patchpred.learn import (DecisionTreeModel, FeatureRow, LogisticRegressionModel,
                             RandomForestModel, Tree)


def leaf_tree(value):
    return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[value])


def stump(feature, threshold, left_value, right_value):
    return Tree(feature=[feature, -1, -1], threshold=[threshold, 0.0, 0.0],
                left=[1, -1, -1], right=[2, -1, -1], value=[0.0, left_value, right_value])


def fit_rows(X, y):
    return [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]


def test_single_leaf_tree_contributes_nothing():
    model = DecisionTreeModel(4, {}, 0, tree=leaf_tree(0.7))
    background = np.random.default_rng(0).normal(size=(10, 4))
    exp = tree_shap(model, np.zeros(4), background)
    assert np.all(exp.contributions == 0)
    assert exp.base_value == pytest.approx(0.7)
    assert exp.model_output == pytest.approx(0.7)


def test_depth_one_tree_touches_only_its_split_feature():
    model = DecisionTreeModel(5, {}, 0, tree=stump(3, 0.0, 0.2, 0.9))
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
    model = DecisionTreeModel(3, {}, 0, tree=stump(0, 0.0, 0.1, 0.8))
    background = np.random.default_rng(2).normal(size=(30, 3))
    for x in background[:5]:
        exp = tree_shap(model, x, background)
        assert exp.contributions[2] == 0.0


def test_symmetric_features_receive_equal_credit():
    # two stumps, one per feature, identical structure; symmetric input
    t1 = stump(0, 0.0, 0.0, 1.0)
    t2 = stump(1, 0.0, 0.0, 1.0)
    model = RandomForestModel(2, {"n_trees": 2}, 0, trees=[t1, t2])
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
    model = DecisionTreeModel(1, {}, 0, tree=stump(0, 0.0, 0.1, 0.9))
    background = np.full((5, 1), -1.0)  # nothing ever goes right
    with pytest.raises(ExplainError, match="background"):
        tree_shap(model, np.array([1.0]), background)


def test_unsupported_kind_refused(blob_data):
    X, y = blob_data
    model = learn.train("nb", fit_rows(X, y), seed=0)
    with pytest.raises(ExplainError, match="unsupported"):
        tree_shap(model, X[0], X)


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
    model = DecisionTreeModel(3, {}, 0, tree=leaf_tree(0.4))
    X = np.random.default_rng(3).normal(size=(20, 3))
    gi = global_importance(model, X, ["a", "b", "c"], X)
    assert all(v == 0.0 for _n, v in gi.ranking)


def test_global_importance_ranks_the_split_feature_first():
    model = DecisionTreeModel(3, {}, 0, tree=stump(1, 0.0, 0.1, 0.9))
    X = np.random.default_rng(4).normal(size=(30, 3))
    gi = global_importance(model, X, ["left", "singleLine", "right"], X)
    assert gi.ranking[0][0] == "singleLine"
    assert gi.ranking[0][1] > 0
    assert gi.ranking[1][1] == 0.0 and gi.ranking[2][1] == 0.0


def test_interaction_zero_for_additive_model():
    t1 = stump(0, 0.0, 0.0, 1.0)
    t2 = stump(1, 0.0, 0.0, 1.0)
    model = RandomForestModel(2, {"n_trees": 2}, 0, trees=[t1, t2])
    background = np.random.default_rng(5).normal(size=(30, 2))
    value = interaction_pairs(model, np.array([0.3, -0.7]), 0, 1, background)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_interaction_matches_brute_force_and_is_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(6):
        model, X = random_tree_model(rng, 4, "dt")
        x = X[0]
        fast = interaction_pairs(model, x, 0, 1, X)
        slow = brute_force_interaction(model, x, 0, 1, X)
        assert fast == pytest.approx(slow, abs=1e-9)
        assert interaction_pairs(model, x, 1, 0, X) == pytest.approx(fast, abs=1e-12)


def test_depth_two_tree_has_nonzero_interaction():
    # split on 0 then on 1 in one branch: genuinely interacting
    tree = Tree(feature=[0, 1, -1, -1, -1],
                threshold=[0.0, 0.0, 0.0, 0.0, 0.0],
                left=[1, 3, -1, -1, -1],
                right=[2, 4, -1, -1, -1],
                value=[0.0, 0.0, 0.2, 0.1, 0.9])
    model = DecisionTreeModel(2, {}, 0, tree=tree)
    background = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    x = np.array([-0.5, 0.5])
    fast = interaction_pairs(model, x, 0, 1, background)
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
    one_by_one = [explain.explain_instance(model, x, X, f"p{i}") for i, x in enumerate(X)]
    calls = []
    real_cover_counts = explain._cover_counts
    monkeypatch.setattr(explain, "_cover_counts", lambda tree, bg: calls.append(1) or real_cover_counts(tree, bg))
    batch = explain.explain_rows(model, X, X, [f"p{i}" for i in range(len(X))])
    assert len(calls) == (0 if kind == "lr" else len(explain._ensemble_parts(model)[0]))
    for a, b in zip(one_by_one, batch):
        assert (a.patch_id, a.base_value, a.model_output, a.space) == (b.patch_id, b.base_value,
                                                                      b.model_output, b.space)
        assert np.array_equal(a.contributions, b.contributions)
    names = ["a", "b", "c"]
    assert explain.rank_importance(batch, names) == global_importance(model, X, names, X)
