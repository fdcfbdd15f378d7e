"""Shapley-value attribution for trained models.

Tree ensembles get exact TreeSHAP, with feature subsets marginalized by
node cover counts computed from a background dataset. Attributions and
pairwise interactions both come from one table of root-to-leaf paths,
evaluated for many rows at once. Logistic regression gets the closed-form
linear attribution. Boosted trees are attributed in margin (log-odds)
space; forests and single trees in probability space. Covers and outputs
come from one walk of the model's packed forest. The tests check the
table against the per-node TreeSHAP recursion and brute-force subset
enumeration, kept in tests/shap_reference.py.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import crossing
from .errors import ExplainError
from .learn import Forest, LogisticRegressionModel, Tree, TreeModel


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


def _cover_counts(forest: Forest, background: np.ndarray) -> np.ndarray:
    """How many background rows reach each node of the forest."""
    covers = forest.covers(background)
    if np.any(covers == 0):
        raise ExplainError(
            "background set leaves some tree nodes uncovered; use a larger background "
            "(the training feature matrix covers every node by construction)"
        )
    return covers


# --- path table ----------------------------------------------------------------
# A leaf's contribution to the value function, for the subset S of features
# that follow x, is value * prod_{j in S} one_j * prod_{j not in S} zero_j over
# the distinct features j split on its root-to-leaf path. A feature split
# more than once on a path becomes one interval (lo, hi]: its one fraction is
# lo < x[j] <= hi, its zero fraction the product of its cover ratios. For a
# path of D distinct features, the Shapley value of feature i in that game is
#   value * (one_i - zero_i) * sum_{S without i} |S|! (D-1-|S|)! / D! * prod_S one * prod_rest zero
#   = value * (one_i - zero_i) * integral_0^1 prod_{j != i} (zero_j (1-t) + one_j t) dt,
# as |S|! (D-1-|S|)! / D! is the Beta integral of t^|S| (1-t)^(D-1-|S|). The
# integrand is a polynomial of degree D-1, so Gauss-Legendre quadrature on
# ceil(D/2) nodes gives it exactly (Yu et al., Linear TreeShap, 2022; the
# path table follows Mitchell et al., GPUTreeShap, 2022). Paths are grouped
# by D and evaluated for a block of rows at once.

# Bytes of one (rows, D, paths) array of a row block; evaluating a block
# holds three such arrays.
_BLOCK_BYTES = 1 << 18


@dataclass
class _PathGroup:
    """Every root-to-leaf path with D distinct split features, P of them.

    Row x follows path p on its j-th feature iff
    lo[j, p] < x[feature[j, p]] <= hi[j, p].
    """

    feature: np.ndarray  # (D, P) feature indices
    lo: np.ndarray  # (D, P)
    hi: np.ndarray  # (D, P)
    zero: np.ndarray  # (D, P) zero fractions
    value: np.ndarray  # (P,) leaf value times the tree's scale
    nodes: np.ndarray  # (ceil(D/2),) Gauss-Legendre nodes on [0, 1]
    weights: np.ndarray  # their weights, summing to 1


@dataclass
class _PathTable:
    groups: list[_PathGroup]
    base: float
    space: str


def _checked_inputs(model, x, background, ndim: int = 1):
    """(x, background) as float arrays, or ExplainError. x is one row
    (ndim 1) or rows (ndim 2), background a matrix with at least one row;
    each has one entry per model feature on its last axis, and every value
    is finite."""
    m = model.feature_count
    checked = []
    for name, a, want in (("x" if ndim == 1 else "X", x, ndim), ("background", background, 2)):
        try:
            a = np.asarray(a, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ExplainError(f"{name} is not a numeric array: {exc}") from exc
        if a.ndim != want or a.shape[-1] != m:
            what = "a vector of" if want == 1 else "a matrix with columns for"
            raise ExplainError(f"{name} must be {what} the model's {m} features, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ExplainError(f"{name} has non-finite values")
        checked.append(a)
    if len(checked[1]) == 0:
        raise ExplainError("background must have at least one row")
    return checked


def _tree_paths(tree: Tree, covers: np.ndarray):
    """(elements, leaf value) for each root-to-leaf path. elements maps each
    feature split on the path, in order of its first split, to
    (lo, hi, zero fraction)."""
    stack = [(0, {})]
    while stack:
        node, elements = stack.pop()
        f = tree.feature[node]
        if f < 0:
            yield elements, tree.value[node]
            continue
        lo, hi, zero = elements.get(f, (-math.inf, math.inf, 1.0))
        threshold, cover = tree.threshold[node], covers[node]
        for child, bounds in ((tree.right[node], (max(lo, threshold), hi)),
                              (tree.left[node], (lo, min(hi, threshold)))):
            branch = dict(elements)
            branch[f] = bounds + (zero * covers[child] / cover,)
            stack.append((child, branch))


def _path_table(model: TreeModel, background: np.ndarray) -> _PathTable:
    """The path table of a tree model over a checked background. Trees
    become paths, then arrays, one at a time: one tree's objects live at once."""
    forest, scale, base = model.forest, model.scale, model.intercept
    covers = _cover_counts(forest, background)
    by_depth: dict[int, list] = {}  # D -> per tree (features, (lo, hi, zero), values)
    for t in range(len(forest)):
        tree, tree_covers = forest.tree(t), covers[forest.offsets[t]:forest.offsets[t + 1]]
        # The tree's mean over the background: its leaves added in preorder.
        leaves = [c * v for f, c, v in zip(tree.feature, tree_covers, tree.value) if f < 0]
        base += scale * (np.cumsum(leaves)[-1] / tree_covers[0])
        paths: dict[int, list] = {}
        for elements, value in _tree_paths(tree, tree_covers):
            if elements:  # a lone leaf attributes nothing
                paths.setdefault(len(elements), []).append((elements, scale * value))
        for depth, group in paths.items():
            by_depth.setdefault(depth, []).append((
                np.array([list(e) for e, _v in group], dtype=np.intp).T,
                np.array([list(e.values()) for e, _v in group]).transpose(2, 1, 0),
                np.array([v for _e, v in group])))
    groups = []
    for depth in sorted(by_depth):
        feature, bounds, value = (np.ascontiguousarray(np.concatenate(arrays, axis=-1))
                                  for arrays in zip(*by_depth.pop(depth)))
        nodes, weights = np.polynomial.legendre.leggauss((depth + 1) // 2)
        groups.append(_PathGroup(feature, *bounds, value, (nodes + 1.0) / 2.0, weights / 2.0))
    return _PathTable(groups, float(base), model.space)


def _cached_table(model, background: np.ndarray) -> _PathTable:
    """The model's path table, rebuilt unless model.explain_cache (not
    persisted) holds one of the same forest object, scale, intercept and
    background, whose shape and values a SHA-256 digest stands in for: a
    copy would keep the background alive twice."""
    if not isinstance(model, TreeModel):
        raise ExplainError(
            f"exact tree explanation unsupported for kind {getattr(model, 'kind', type(model).__name__)!r}; "
            "supported: DecisionTree, RandomForest, GradientBoostedTrees (or linear_shap for LogisticRegression)"
        )
    digest = hashlib.sha256(repr(background.shape).encode())
    digest.update(np.ascontiguousarray(background).data)
    key = (model.forest, model.scale, model.intercept, digest.digest())  # a Forest equals only itself
    if model.explain_cache is None or model.explain_cache[0] != key:
        model.explain_cache = (key, _path_table(model, background))
    return model.explain_cache[1]


def _add_group_phi(group: _PathGroup, X: np.ndarray, phi: np.ndarray) -> None:
    """Add one group's attributions for rows X (R, n_features) to phi.

    Every step is elementwise, and np.bincount adds a row's contributions
    in (feature position, path) order, so a row's result does not depend on
    the other rows of the block. A matrix product would break that.
    """
    rows, depth = len(X), group.feature.shape[0]
    one = X[:, group.feature]  # (R, D, P)
    np.logical_and(one > group.lo, one <= group.hi, out=one, casting="unsafe")
    integral = np.zeros_like(one)
    factor = np.empty_like(one)
    for t, weight in zip(group.nodes, group.weights):
        np.multiply(one, t, out=factor)
        factor += group.zero * (1.0 - t)  # zero_j (1-t) + one_j t > 0
        product = factor[:, 0] * weight
        for j in range(1, depth):
            product *= factor[:, j]
        integral += np.divide(product[:, None], factor, out=factor)
    one -= group.zero
    integral *= one
    integral *= group.value
    feature = group.feature.ravel()
    for phi_row, contributions in zip(phi, integral.reshape(rows, -1)):
        phi_row += np.bincount(feature, contributions, len(phi_row))


def _explain_table(model, table: _PathTable, X: np.ndarray, patch_ids) -> list[ShapExplanation]:
    phi = np.zeros(X.shape)
    for group in table.groups:
        step = max(1, _BLOCK_BYTES // (8 * group.feature.size))
        for start in range(0, len(X), step):
            _add_group_phi(group, X[start:start + step], phi[start:start + step])
    # Each row's explained output, the same bits as alone.
    outputs = model.margin_batch(X) if table.space == "margin" else model.predict_proba_batch(X)
    return [ShapExplanation(pid, table.base, contributions, output, table.space)
            for pid, contributions, output in zip(patch_ids, phi, outputs.tolist())]


def tree_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Exact Shapley attributions for a tree-ensemble prediction.

    The model keeps the path table of its last call, so repeated calls with
    the same background skip the covers and the table.
    """
    x, background = _checked_inputs(model, x, background)
    return _explain_table(model, _cached_table(model, background), x[None, :], [patch_id])[0]


def linear_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Closed-form attribution for logistic regression, in margin space."""
    if not isinstance(model, LogisticRegressionModel):
        raise ExplainError("linear_shap requires a LogisticRegression model")
    x, background = _checked_inputs(model, x, background)
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
    """explain_instance for every row of X, bit for bit. A tree model's
    covers and path table are built once per call and left in the model's
    cache, for tree_shap and interaction_pairs on the same background."""
    X, background = _checked_inputs(model, X, background, ndim=2)
    patch_ids = [""] * len(X) if patch_ids is None else list(patch_ids)
    if isinstance(model, LogisticRegressionModel):
        return [linear_shap(model, x, background, pid) for x, pid in zip(X, patch_ids)]
    model.explain_cache = None  # built afresh, then kept
    return _explain_table(model, _cached_table(model, background), X, patch_ids)


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


def block_totals(importance: GlobalImportance) -> dict:
    """For the learned block (the crossed embedding columns, named as
    crossing.feature_names names them) and the engineered block (every other
    column): the summed mean |contribution| and its share of the total over
    all columns, 0.0 when that total is 0."""
    sums = {"learned": 0.0, "engineered": 0.0}
    for name, value in importance.ranking:
        sums["learned" if crossing.is_feature_name(name) else "engineered"] += value
    total = sums["learned"] + sums["engineered"]
    return {block: {"sum_mean_abs_contribution": value, "share": value / total if total else 0.0}
            for block, value in sums.items()}


def global_importance(model, X, names, background) -> GlobalImportance:
    """Mean absolute contribution per feature over a dataset, ranked."""
    return rank_importance(explain_rows(model, X, background), names)


def interaction_pairs(model, x, feature_a: int, feature_b: int, background) -> float:
    """SHAP interaction value of two features for row x (half their Shapley
    interaction index), from the same cached path table as tree_shap.

    A path that does not split on both features adds nothing. One that
    does adds value * (one_a - zero_a) * (one_b - zero_b) *
    integral_0^1 prod_{k != a, b} (zero_k (1-t) + one_k t) dt, a polynomial
    of degree D-2 that its group's quadrature integrates exactly. Every step
    treats the two features alike, so swapping them gives the same bits.
    """
    m = model.feature_count
    for i in (feature_a, feature_b):
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < m:
            raise ExplainError(f"interaction features must be integer indices in [0, {m}), got {i!r}")
    if feature_a == feature_b:
        raise ExplainError("interaction requires two distinct features")
    x, background = _checked_inputs(model, x, background)
    total = 0.0
    for group in _cached_table(model, background).groups:
        pair = (group.feature == feature_a) | (group.feature == feature_b)
        both = np.count_nonzero(pair, axis=0) == 2
        if not both.any():
            continue
        pair, zero = pair[:, both], group.zero[:, both]
        one = x[group.feature[:, both]]
        one = ((one > group.lo[:, both]) & (one <= group.hi[:, both])).astype(float)
        integral = np.zeros(zero.shape[1])
        for t, weight in zip(group.nodes, group.weights):
            integral += weight * np.prod(np.where(pair, one - zero, one * t + zero * (1.0 - t)), axis=0)
        total += float(np.sum(group.value[both] * integral))
    return total / 2.0
