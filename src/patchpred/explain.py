"""Shapley-value attribution for trained models.

Tree ensembles get exact TreeSHAP, with feature subsets marginalized by
node cover counts computed from a background dataset. Attributions and
pairwise interactions both come from one table of root-to-leaf paths,
read level by level from the model's packed forest arrays and evaluated
for many rows at once; covers and outputs come from one walk of the same
forest. Logistic regression gets the closed-form linear attribution.
Boosted trees are attributed in margin (log-odds) space; forests and
single trees in probability space. The tests check the table against the
per-node TreeSHAP recursion and brute force, in tests/shap_reference.py.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import crossing
from .errors import ExplainError
from .learn import LogisticRegressionModel, TreeModel, checked_arithmetic


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
    Row x follows path p on its j-th feature iff lo[j, p] < x[feature[j, p]] <= hi[j, p]."""

    feature: np.ndarray  # (D, P) feature indices
    lo: np.ndarray  # (D, P)
    hi: np.ndarray  # (D, P)
    zero: np.ndarray  # (D, P) zero fractions
    value: np.ndarray  # (P,) leaf value times the tree's scale
    nodes: np.ndarray  # (ceil(D/2),) Gauss-Legendre nodes on [0, 1]
    weights: np.ndarray  # their weights, summing to 1


def _valid_inputs(model, x, background, ndim: int = 1):
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


def _path_table(model: TreeModel, background: np.ndarray) -> tuple[list[_PathGroup], float]:
    """The path groups and base value of a tree model over a checked
    background, from the packed forest a level at a time. A route from a
    root holds a slot (feature, lo, hi, zero fraction) per feature split on
    it, in order of first split, and a child's is its parent's with one slot
    updated or appended. Paths, the routes that reach a leaf, keep the order
    of a left-first walk of each tree in turn: `rank` counts those before."""
    forest, scale, leaf, value = model.forest, model.scale, model.forest.feature < 0, model.forest.value
    covers = forest.covers(background)
    if np.any(covers == 0):
        raise ExplainError("background set leaves some tree nodes uncovered; use a larger background "
                           "(the training feature matrix covers every node by construction)")
    # Each tree's mean over the background: its leaves' cover times value added in node
    # order (-0.0 pads, adding nothing), over its root's cover.
    leaves = np.flatnonzero(leaf)
    tree = np.searchsorted(forest.offsets, leaves, side="right") - 1
    terms = np.full((len(forest), np.bincount(tree, minlength=len(forest)).max(initial=1)), -0.0)
    terms[tree, np.arange(len(leaves)) - np.searchsorted(tree, tree)] = covers[leaves] * value[leaves]
    means = np.cumsum(terms, axis=1)[:, -1] / covers[forest.offsets[:-1]]
    base = np.cumsum(np.append(model.intercept, scale * means))[-1]
    below = leaf.astype(np.intp)  # paths below each node
    for nodes in reversed(forest.levels):
        below[nodes] = below[forest.left[nodes]] + below[forest.right[nodes]]
    node = forest.offsets[:-1]
    rank = np.cumsum(below[node]) - below[node]
    # feature, lo, hi, zero: a route has at most one slot per split level.
    slots = [np.full((len(node), len(forest.levels)), v) for v in (-1, -math.inf, math.inf, 1.0)]
    ends = []  # per level, (rank, *slots, leaf value) of the routes that reach a leaf there
    while True:
        at = leaf[node]
        ends.append(tuple(a[at] for a in (rank, *slots, value[node])))
        node, rank, *slots = (a[~at] for a in (node, rank, *slots))
        if not len(node):
            break
        f, thr, children = forest.feature[node], forest.threshold[node], (forest.left[node], forest.right[node])
        # The slot of f, else the first free one: slots fill from the left.
        i = ((slots[0] == f[:, None]) | (slots[0] < 0)).argmax(axis=1)
        lo, hi, zero = (a[np.arange(len(node)), i] for a in slots[1:])
        # Left children, then right; Python's min(hi, thr) and max(lo, thr).
        updated = (np.tile(f, 2), np.concatenate([lo, np.where(thr > lo, thr, lo)]),
                   np.concatenate([np.where(thr < hi, thr, hi), hi]),
                   np.tile(zero, 2) * covers[np.concatenate(children)] / np.tile(covers[node], 2))
        slots = [np.tile(a, (2, 1)) for a in slots]
        for a, b in zip(slots, updated):
            a[np.arange(2 * len(node)), np.tile(i, 2)] = b
        node, rank = np.concatenate(children), np.append(rank, rank + below[children[0]])
    rank, *slots, values = map(np.concatenate, zip(*ends))
    order, count = np.argsort(rank), np.count_nonzero(slots[0] >= 0, axis=1)
    groups = []
    for depth in np.unique(count[count > 0]).tolist():  # a lone leaf attributes nothing
        at = order[count[order] == depth]
        nodes, weights = np.polynomial.legendre.leggauss((depth + 1) // 2)
        groups.append(_PathGroup(*(np.ascontiguousarray(a[at, :depth].T) for a in slots), scale * values[at],
                                 (nodes + 1.0) / 2.0, weights / 2.0))
    return groups, float(base)


def _cached_table(model, background: np.ndarray) -> tuple[list[_PathGroup], float]:
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


def _explain_table(model, table, X: np.ndarray, patch_ids) -> list[ShapExplanation]:
    (groups, base), phi = table, np.zeros(X.shape)
    for group in groups:
        step = max(1, _BLOCK_BYTES // (8 * group.feature.size))
        for start in range(0, len(X), step):
            _add_group_phi(group, X[start:start + step], phi[start:start + step])
    # Each row's explained output, the same bits as alone.
    outputs = model.margin_batch(X) if model.space == "margin" else model.predict_proba_batch(X)
    return [ShapExplanation(pid, base, contributions, output, model.space)
            for pid, contributions, output in zip(patch_ids, phi, outputs.tolist())]


def tree_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Exact Shapley attributions for a tree-ensemble prediction.

    The model keeps the path table of its last call, so repeated calls with
    the same background skip the covers and the table.
    """
    x, background = _valid_inputs(model, x, background)
    return _explain_table(model, _cached_table(model, background), x[None, :], [patch_id])[0]


def linear_shap(model, x, background, patch_id: str = "") -> ShapExplanation:
    """Closed-form attribution for logistic regression, in margin space."""
    if not isinstance(model, LogisticRegressionModel):
        raise ExplainError("linear_shap requires a LogisticRegression model")
    x, background = _valid_inputs(model, x, background)
    with checked_arithmetic(ExplainError, "logistic regression attributions"):
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
    X, background = _valid_inputs(model, X, background, ndim=2)
    patch_ids = [""] * len(X) if patch_ids is None else list(patch_ids)
    if isinstance(model, LogisticRegressionModel):
        return [linear_shap(model, x, background, pid) for x, pid in zip(X, patch_ids)]
    model.explain_cache = None  # built afresh, then kept
    return _explain_table(model, _cached_table(model, background), X, patch_ids)


def rank_importance(explanations, names) -> GlobalImportance:
    """Mean absolute contribution per feature over explanations, ranked."""
    names, explanations = list(names), list(explanations)
    if not explanations:
        raise ExplainError("no explanations to rank")
    total = np.zeros(len(names))
    for exp in explanations:
        total += np.abs(exp.contributions)
    mean_abs = total / len(explanations)
    order = sorted(range(len(names)), key=lambda i: (-mean_abs[i], names[i]))
    return GlobalImportance([(names[i], float(mean_abs[i])) for i in order], explanations[-1].space)


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
    x, background = _valid_inputs(model, x, background)
    total = 0.0
    for group in _cached_table(model, background)[0]:
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
