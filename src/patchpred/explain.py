"""Shapley-value attribution for trained models.

Tree ensembles get exact TreeSHAP, with feature subsets marginalized by
node cover counts computed from a background dataset. Attributions and
pairwise interactions both come from one table of root-to-leaf paths,
read level by level from the model's packed forest arrays and evaluated
for many rows at once; covers and outputs come from one walk of the same
forest. Logistic regression gets the closed-form linear attribution.
explain_rows is the one path to both: explain_instance (also named
tree_shap and linear_shap) is explain_rows of one row.
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


def _valid_inputs(model, X, name: str, background):
    """(X, background) as the model's row check passes them, or ExplainError
    naming X as `name`: X the rows to explain ([x] for one row x), and
    background rows, at least one of them."""
    X = model._rows(X, ExplainError, name)
    background = model._rows(background, ExplainError, "background")
    if len(background) == 0:
        raise ExplainError("background must have at least one row")
    return X, background


# A free slot: no feature, the interval (-inf, inf], zero fraction 1.
_FREE = (-1, -math.inf, math.inf, 1.0)


def _children(forest, covers, below, node, rank, *slots):
    """The routes one level down from split nodes `node`: left children,
    then right, with their ranks (see _path_table) and slots, each of them
    one wider than the parents', the last one free before the split. Its
    own function, so that a level's temporaries are freed as it returns."""
    routes, width = len(node), slots[0].shape[1]
    f, thr, children = forest.feature[node], forest.threshold[node], (forest.left[node], forest.right[node])
    wider = [np.empty((2 * routes, width + 1), dtype=a.dtype) for a in slots]
    for a, b, v in zip(wider, slots, _FREE):
        a[:routes, :width] = a[routes:, :width] = b
        a[:, width] = v
    # The slot of f, else the first free one: slots fill from the left.
    i = ((wider[0][:routes] == f[:, None]) | (wider[0][:routes] < 0)).argmax(axis=1)
    lo, hi, zero = (a[np.arange(routes), i] for a in wider[1:])
    # Python's min(hi, thr) and max(lo, thr).
    updated = (np.tile(f, 2), np.concatenate([lo, np.where(thr > lo, thr, lo)]),
               np.concatenate([np.where(thr < hi, thr, hi), hi]),
               np.tile(zero, 2) * covers[np.concatenate(children)] / np.tile(covers[node], 2))
    for a, b in zip(wider, updated):
        a[np.arange(2 * routes), np.tile(i, 2)] = b
    return np.concatenate(children), np.append(rank, rank + below[children[0]]), wider


def _path_table(model: TreeModel, background: np.ndarray) -> tuple[list[_PathGroup], float]:
    """The path groups and base value of a tree model over a checked
    background, from the packed forest a level at a time. A route from a
    root holds a slot (feature, lo, hi, zero fraction) per feature split on
    it, in order of first split, and a child's is its parent's with one slot
    updated or appended (see _children). Paths, the routes that reach a
    leaf, are filed into their group as they end, and keep the order of a
    left-first walk of each tree in turn: `rank` counts those before."""
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
    # feature, lo, hi, zero: a route at depth d has d slots, one per split level.
    slots = [np.full((len(node), 0), v) for v in _FREE]
    ends = {}  # per D, chunks (rank, *slots' first D columns, leaf value) of the routes that end there
    while len(node):
        at = leaf[node]
        ended = np.flatnonzero(at)
        count = np.count_nonzero(slots[0][ended] >= 0, axis=1)
        for depth in np.unique(count[count > 0]).tolist():  # a lone leaf attributes nothing
            end = ended[count == depth]
            ends.setdefault(depth, []).append((rank[end], *(a[end, :depth] for a in slots), value[node[end]]))
        node, rank, slots = _children(forest, covers, below, *(a[~at] for a in (node, rank, *slots)))
    groups = []
    for depth in sorted(ends):
        rank, *fields, values = map(np.concatenate, zip(*ends.pop(depth)))
        order = np.argsort(rank)
        nodes, weights = np.polynomial.legendre.leggauss((depth + 1) // 2)
        groups.append(_PathGroup(*(a.T.take(order, axis=1) for a in fields), scale * values[order],
                                 (nodes + 1.0) / 2.0, weights / 2.0))
    return groups, float(base)


def _cached_table(model, background: np.ndarray) -> tuple[list[_PathGroup], float]:
    """The model's path table, rebuilt unless model.explain_cache (not
    persisted) holds one of the same forest object, scale, intercept and
    background, whose shape and values a SHA-256 digest stands in for: a
    copy would keep the background alive twice. Every explainer takes its
    table from here; one of another key is dropped before the new one is
    built, so at most one is held."""
    if not isinstance(model, TreeModel):
        raise ExplainError(
            f"exact tree explanation unsupported for kind {getattr(model, 'kind', type(model).__name__)!r}; "
            "supported: DecisionTree, RandomForest, GradientBoostedTrees"
        )
    digest = hashlib.sha256(repr(background.shape).encode())
    digest.update(np.ascontiguousarray(background).data)
    key = (model.forest, model.scale, model.intercept, digest.digest())  # a Forest equals only itself
    if model.explain_cache is None or model.explain_cache[0] != key:
        model.explain_cache = None
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


def _linear_rows(model, X: np.ndarray, background: np.ndarray, patch_ids) -> list[ShapExplanation]:
    """Closed-form attributions of checked rows, elementwise; a row's output is
    margin_batch of that row alone, as a batch product may differ in the last bit."""
    with checked_arithmetic(ExplainError, "logistic regression attributions"):
        bg_mean = background.mean(axis=0)
        base = float(model.margin_batch(bg_mean[None, :])[0])
        return [ShapExplanation(pid, base, contributions, float(model.margin_batch(x[None, :])[0]), "margin")
                for pid, contributions, x in zip(patch_ids, model.weights / model.std * (X - bg_mean), X)]


def explain_rows(model, X, background, patch_ids=None) -> list[ShapExplanation]:
    """Shapley attributions of every row of X, one patch id per row; a row's
    are the same bits alone or in a batch. A tree model's path table is the
    cached one of interaction_pairs, built only when the background or
    model differs."""
    X, background = _valid_inputs(model, X, "X", background)
    patch_ids = [""] * len(X) if patch_ids is None else list(patch_ids)
    if len(patch_ids) != len(X):
        raise ExplainError(f"{len(patch_ids)} patch ids for {len(X)} rows of X")
    if isinstance(model, LogisticRegressionModel):
        return _linear_rows(model, X, background, patch_ids)
    (groups, base), phi = _cached_table(model, background), np.zeros(X.shape)
    for group in groups:
        step = max(1, _BLOCK_BYTES // (8 * group.feature.size))
        for start in range(0, len(X), step):
            _add_group_phi(group, X[start:start + step], phi[start:start + step])
    # Each row's explained output, the same bits as alone.
    outputs = model.margin_batch(X) if model.space == "margin" else model.predict_proba_batch(X)
    return [ShapExplanation(pid, base, contributions, output, model.space)
            for pid, contributions, output in zip(patch_ids, phi, outputs.tolist())]


def explain_instance(model, x, background, patch_id: str = "") -> ShapExplanation:
    """explain_rows of the one row x: TreeSHAP for a tree model, the
    closed-form attribution for logistic regression."""
    return explain_rows(model, [x], background, [patch_id])[0]


tree_shap = linear_shap = explain_instance


def rank_importance(explanations, names) -> GlobalImportance:
    """Mean absolute contribution per feature over explanations, ranked."""
    names, explanations = list(names), list(explanations)
    if not explanations:
        raise ExplainError("no explanations to rank")
    total = np.zeros(len(names))
    for exp in explanations:
        if len(exp.contributions) != len(names):
            raise ExplainError(f"{len(names)} names for {len(exp.contributions)} contributions")
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


def interaction_pairs(model, X, feature_a: int, feature_b: int, background) -> list[float]:
    """SHAP interaction value of two features for each row of X (half their
    Shapley interaction index), from the same cached path table as explain_rows;
    [x] for one row x.

    A path that does not split on both features adds nothing. One that
    does adds value * (one_a - zero_a) * (one_b - zero_b) *
    integral_0^1 prod_{k != a, b} (zero_k (1-t) + one_k t) dt, a polynomial
    of degree D-2 that its group's quadrature integrates exactly. Every step
    treats the two features alike and each row apart, so swapping them or
    batching rows gives the same bits.
    """
    m = model.feature_count
    for i in (feature_a, feature_b):
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < m:
            raise ExplainError(f"interaction features must be integer indices in [0, {m}), got {i!r}")
    if feature_a == feature_b:
        raise ExplainError("interaction requires two distinct features")
    X, background = _valid_inputs(model, X, "X", background)
    total = np.zeros(len(X))
    for group in _cached_table(model, background)[0]:
        pair = (group.feature == feature_a) | (group.feature == feature_b)
        both = np.count_nonzero(pair, axis=0) == 2
        if not both.any():
            continue
        pair, zero, feature, lo, hi = (a[:, both] for a in (pair, group.zero, group.feature, group.lo, group.hi))
        step = max(1, _BLOCK_BYTES // (8 * feature.size))
        for start in range(0, len(X), step):
            one = X[start:start + step, feature]  # (R, D, P)
            one = ((one > lo) & (one <= hi)).astype(float)
            integral = sum(weight * np.prod(np.where(pair, one - zero, one * t + zero * (1.0 - t)), axis=1)
                           for t, weight in zip(group.nodes, group.weights))
            # Each row summed alone: np.sum(axis=1) may add a short row's terms in another order.
            total[start:start + step] += [np.sum(terms) for terms in group.value[both] * integral]
    return (total / 2.0).tolist()
