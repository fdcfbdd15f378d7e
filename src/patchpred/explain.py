"""Shapley-value attribution for trained models.

Tree ensembles get the exact polynomial-time path recursion, with feature
subsets marginalized by node cover counts computed from a background
dataset. Logistic regression gets the closed-form linear attribution. A
brute-force subset-enumeration oracle over the same value function backs the
tests. Boosted trees are attributed in margin (log-odds) space; forests and
single trees in probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ExplainError
from .learn import (DecisionTreeModel, GradientBoostedTreesModel,
                    LogisticRegressionModel, RandomForestModel, Tree)

TREE_KINDS = ("DecisionTree", "RandomForest", "GradientBoostedTrees")


@dataclass
class ShapExplanation:
    patch_id: str
    base_value: float
    contributions: np.ndarray
    model_output: float
    space: str  # "probability" or "margin"

    def additivity_gap(self) -> float:
        return abs(self.base_value + float(self.contributions.sum()) - self.model_output)


@dataclass
class GlobalImportance:
    ranking: list[tuple[str, float]]  # descending mean |contribution|
    space: str


def _ensemble_parts(model):
    """Normalize a tree model into (trees, per-tree scales, constant, space)."""
    if isinstance(model, DecisionTreeModel):
        return [model.tree], [1.0], 0.0, "probability"
    if isinstance(model, RandomForestModel):
        t = len(model.trees)
        return list(model.trees), [1.0 / t] * t, 0.0, "probability"
    if isinstance(model, GradientBoostedTreesModel):
        lr = model.config["learning_rate"]
        return list(model.trees), [lr] * len(model.trees), model.base_margin, "margin"
    raise ExplainError(
        f"exact tree explanation unsupported for kind {getattr(model, 'kind', type(model).__name__)!r}; "
        "supported: DecisionTree, RandomForest, GradientBoostedTrees (or linear_shap for LogisticRegression)"
    )


def _cover_counts(tree: Tree, background: np.ndarray) -> np.ndarray:
    covers = np.zeros(len(tree.feature))

    def down(node, idx):
        covers[node] = len(idx)
        f = tree.feature[node]
        if f < 0:
            return
        mask = background[idx, f] <= tree.threshold[node]
        down(tree.left[node], idx[mask])
        down(tree.right[node], idx[~mask])

    down(0, np.arange(len(background)))
    if np.any(covers == 0):
        raise ExplainError(
            "background set leaves some tree nodes uncovered; use a larger background "
            "(the training feature matrix covers every node by construction)"
        )
    return covers


def _tree_expectation(tree: Tree, covers: np.ndarray) -> float:
    total = 0.0
    for node in range(len(tree.feature)):
        if tree.feature[node] < 0:
            total += covers[node] * tree.value[node]
    return total / covers[0]


# --- exact path recursion ----------------------------------------------------
# Path entries are [feature, zero_fraction, one_fraction, weight]. The weight
# vector encodes, per subset size, the combined probability of reaching the
# current node with that many path features "on".

def _extend(path, pz, po, pf):
    path = [e.copy() for e in path]
    path.append([pf, pz, po, 1.0 if not path else 0.0])
    length = len(path)
    for i in range(length - 2, -1, -1):
        path[i + 1][3] += po * path[i][3] * (i + 1) / length
        path[i][3] = pz * path[i][3] * (length - 1 - i) / length
    return path


def _unwound_sum(path, i):
    depth = len(path) - 1
    one, zero = path[i][2], path[i][1]
    next_one = path[depth][3]
    total = 0.0
    for j in range(depth - 1, -1, -1):
        if one != 0.0:
            tmp = next_one * (depth + 1) / ((j + 1) * one)
            total += tmp
            next_one = path[j][3] - tmp * zero * (depth - j) / (depth + 1)
        else:
            total += path[j][3] * (depth + 1) / (zero * (depth - j))
    return total


def _unwind(path, i):
    depth = len(path) - 1
    one, zero = path[i][2], path[i][1]
    path = [e.copy() for e in path]
    next_one = path[depth][3]
    for j in range(depth - 1, -1, -1):
        if one != 0.0:
            tmp = path[j][3]
            path[j][3] = next_one * (depth + 1) / ((j + 1) * one)
            next_one = tmp - path[j][3] * zero * (depth - j) / (depth + 1)
        else:
            path[j][3] = path[j][3] * (depth + 1) / (zero * (depth - j))
    for j in range(i, depth):
        path[j][0], path[j][1], path[j][2] = path[j + 1][0], path[j + 1][1], path[j + 1][2]
    path.pop()
    return path


def _tree_phi(tree: Tree, covers: np.ndarray, x: np.ndarray, n_features: int,
              cond_feature: int | None = None, cond_mode: str = "on") -> np.ndarray:
    """Per-feature attributions for one tree.

    With cond_feature set, computes the game conditioned on that feature
    being always present ("on") or always marginalized ("off"); the
    conditioned feature never joins the path, so the remaining features play
    over a reduced player set.
    """
    phi = np.zeros(n_features)

    def recurse(node, path, mult):
        f = tree.feature[node]
        if f < 0:
            value = tree.value[node]
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path[i][0]] += mult * w * (path[i][2] - path[i][1]) * value
            return
        left, right = tree.left[node], tree.right[node]
        if f == cond_feature:
            if cond_mode == "on":
                hot = left if x[f] <= tree.threshold[node] else right
                recurse(hot, path, mult)
            else:
                for child in (left, right):
                    recurse(child, path, mult * covers[child] / covers[node])
            return
        hot = left if x[f] <= tree.threshold[node] else right
        cold = right if hot == left else left
        iz = io = 1.0
        k = None
        for idx in range(1, len(path)):
            if path[idx][0] == f:
                k = idx
                break
        if k is not None:
            iz, io = path[k][1], path[k][2]
            path = _unwind(path, k)
        pz_hot = iz * covers[hot] / covers[node]
        if pz_hot != 0.0 or io != 0.0:
            recurse(hot, _extend(path, pz_hot, io, f), mult)
        pz_cold = iz * covers[cold] / covers[node]
        if pz_cold != 0.0:
            recurse(cold, _extend(path, pz_cold, 0.0, f), mult)

    recurse(0, _extend([], 1.0, 1.0, -1), 1.0)
    return phi


def _model_output(model, x) -> float:
    if isinstance(model, GradientBoostedTreesModel):
        return float(model.margin_batch(np.asarray(x, dtype=float)[None, :])[0])
    return model.predict_proba(x)


def _covered_parts(model, background):
    """(trees, scales, covers, base value, space): each tree's background
    covers, computed once for any number of rows to explain."""
    trees, scales, const, space = _ensemble_parts(model)
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or len(background) == 0:
        raise ExplainError("background must be a nonempty 2-D feature matrix")
    covers = [_cover_counts(tree, background) for tree in trees]
    base = const
    for tree, scale, cover in zip(trees, scales, covers):
        base += scale * _tree_expectation(tree, cover)
    return trees, scales, covers, float(base), space


def _tree_shap_row(model, parts, x, patch_id: str) -> ShapExplanation:
    trees, scales, covers, base, space = parts
    x = np.asarray(x, dtype=float)
    phi = np.zeros(model.feature_count)
    for tree, scale, cover in zip(trees, scales, covers):
        phi += scale * _tree_phi(tree, cover, x, model.feature_count)
    return ShapExplanation(patch_id, base, phi, _model_output(model, x), space)


def tree_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Exact Shapley attributions for a tree-ensemble prediction."""
    return _tree_shap_row(model, _covered_parts(model, background), x, patch_id)


def linear_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Closed-form attribution for logistic regression, in margin space."""
    if not isinstance(model, LogisticRegressionModel):
        raise ExplainError("linear_shap requires a LogisticRegression model")
    background = np.asarray(background, dtype=float)
    if background.ndim != 2 or len(background) == 0:
        raise ExplainError("background must be a nonempty 2-D feature matrix")
    x = np.asarray(x, dtype=float)
    bg_mean = background.mean(axis=0)
    effective_w = model.weights / model.std
    contributions = effective_w * (x - bg_mean)
    base = float(model.margin_batch(bg_mean[None, :])[0])
    output = float(model.margin_batch(x[None, :])[0])
    return ShapExplanation(patch_id, base, contributions, output, "margin")


def explain_instance(model, x, background, patch_id: str = "") -> ShapExplanation:
    if isinstance(model, LogisticRegressionModel):
        return linear_shap(model, x, background, patch_id)
    return tree_shap(model, x, background, patch_id)


def explain_rows(model, X, background, patch_ids=None) -> list[ShapExplanation]:
    """explain_instance for every row of X; a tree's covers are computed once."""
    X = np.asarray(X, dtype=float)
    patch_ids = [""] * len(X) if patch_ids is None else list(patch_ids)
    if isinstance(model, LogisticRegressionModel):
        return [linear_shap(model, x, background, pid) for x, pid in zip(X, patch_ids)]
    parts = _covered_parts(model, background)
    return [_tree_shap_row(model, parts, x, pid) for x, pid in zip(X, patch_ids)]


def rank_importance(explanations, names) -> GlobalImportance:
    """Mean absolute contribution per feature over explanations, ranked."""
    names = list(names)
    total = np.zeros(len(names))
    space = "margin"
    for exp in explanations:
        total += np.abs(exp.contributions)
        space = exp.space
    mean_abs = total / len(explanations)
    order = sorted(range(len(names)), key=lambda i: (-mean_abs[i], names[i]))
    return GlobalImportance([(names[i], float(mean_abs[i])) for i in order], space)


def global_importance(model, X, names, background) -> GlobalImportance:
    """Mean absolute contribution per feature over a dataset, ranked."""
    return rank_importance(explain_rows(model, X, background), names)


def interaction_pairs(model, x, feature_a: int, feature_b: int, background) -> float:
    """Shapley interaction value for one feature pair, symmetric by
    construction (both conditioning orders are averaged)."""
    if feature_a == feature_b:
        raise ExplainError("interaction requires two distinct features")
    trees, scales, _const, _space = _ensemble_parts(model)
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)

    all_covers = [_cover_counts(tree, background) for tree in trees]

    def one_direction(i, j):
        # phi_i under the game with j forced present minus j marginalized.
        total = 0.0
        for tree, scale, covers in zip(trees, scales, all_covers):
            on = _tree_phi(tree, covers, x, model.feature_count, cond_feature=j, cond_mode="on")
            off = _tree_phi(tree, covers, x, model.feature_count, cond_feature=j, cond_mode="off")
            total += scale * (on[i] - off[i])
        return total / 2.0

    return (one_direction(feature_a, feature_b) + one_direction(feature_b, feature_a)) / 2.0


# --- brute-force oracles (test references) -----------------------------------

def _cond_exp(tree: Tree, covers: np.ndarray, x, subset: frozenset, node: int = 0) -> float:
    f = tree.feature[node]
    if f < 0:
        return tree.value[node]
    left, right = tree.left[node], tree.right[node]
    if f in subset:
        child = left if x[f] <= tree.threshold[node] else right
        return _cond_exp(tree, covers, x, subset, child)
    return (covers[left] * _cond_exp(tree, covers, x, subset, left)
            + covers[right] * _cond_exp(tree, covers, x, subset, right)) / covers[node]


def _value_function(model, x, background):
    trees, scales, const, _space = _ensemble_parts(model)
    covers = [_cover_counts(t, np.asarray(background, dtype=float)) for t in trees]
    cache: dict[frozenset, float] = {}

    def v(subset: frozenset) -> float:
        if subset not in cache:
            cache[subset] = const + sum(
                s * _cond_exp(t, c, x, subset) for t, c, s in zip(trees, covers, scales)
            )
        return cache[subset]

    return v


def brute_force_shap(model, x, background) -> ShapExplanation:
    """Shapley values by full subset enumeration; exponential, tests only."""
    m = model.feature_count
    x = np.asarray(x, dtype=float)
    v = _value_function(model, x, background)
    phi = np.zeros(m)
    features = list(range(m))
    for i in features:
        others = [f for f in features if f != i]
        for size in range(m):
            weight = math.factorial(size) * math.factorial(m - size - 1) / math.factorial(m)
            for subset in combinations(others, size):
                s = frozenset(subset)
                phi[i] += weight * (v(s | {i}) - v(s))
    base = v(frozenset())
    return ShapExplanation("", float(base), phi, _model_output(model, x),
                           "margin" if isinstance(model, GradientBoostedTreesModel) else "probability")


def brute_force_interaction(model, x, feature_a: int, feature_b: int, background) -> float:
    """Shapley interaction index by subset enumeration; tests only."""
    m = model.feature_count
    if m < 2:
        raise ExplainError("interaction needs at least two features")
    x = np.asarray(x, dtype=float)
    v = _value_function(model, x, background)
    others = [f for f in range(m) if f not in (feature_a, feature_b)]
    total = 0.0
    for size in range(len(others) + 1):
        weight = (math.factorial(size) * math.factorial(m - size - 2)
                  / (2.0 * math.factorial(m - 1)))
        for subset in combinations(others, size):
            s = frozenset(subset)
            delta = (v(s | {feature_a, feature_b}) - v(s | {feature_a})
                     - v(s | {feature_b}) + v(s))
            total += weight * delta
    return total
