"""Reference Shapley computations that the tests hold patchpred.explain to.

Two independent algorithms over the same value function as the path table:
the per-node TreeSHAP recursion (Lundberg et al., 2020) and brute-force
enumeration of feature subsets. Both are slow and exist only to check the
package, which computes attributions and interactions from one path table.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from patchpred.errors import ExplainError
from patchpred.explain import ShapExplanation
from patchpred.learn import Tree

from tree_reference import cover_counts, model_output

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


def tree_phi(tree: Tree, covers: np.ndarray, x: np.ndarray, n_features: int) -> np.ndarray:
    """Per-feature attributions for one tree by the per-node recursion."""
    phi = np.zeros(n_features)

    def recurse(node, path):
        f = tree.feature[node]
        if f < 0:
            value = tree.value[node]
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path[i][0]] += w * (path[i][2] - path[i][1]) * value
            return
        left, right = tree.left[node], tree.right[node]
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
            recurse(hot, _extend(path, pz_hot, io, f))
        pz_cold = iz * covers[cold] / covers[node]
        if pz_cold != 0.0:
            recurse(cold, _extend(path, pz_cold, 0.0, f))

    recurse(0, _extend([], 1.0, 1.0, -1))
    return phi


# --- brute-force subset enumeration ------------------------------------------

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
    trees = model.trees
    covers = [cover_counts(t, background) for t in trees]
    cache: dict[frozenset, float] = {}

    def v(subset: frozenset) -> float:
        if subset not in cache:
            cache[subset] = model.intercept + sum(
                model.scale * _cond_exp(t, c, x, subset) for t, c in zip(trees, covers)
            )
        return cache[subset]

    return v


def brute_force_shap(model, x, background) -> ShapExplanation:
    """Shapley values by full subset enumeration; exponential in the features."""
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
    return ShapExplanation("", float(base), phi, float(model_output(model, x[None, :])[0]),
                           model.space)


def brute_force_interaction(model, x, feature_a: int, feature_b: int, background) -> float:
    """SHAP interaction value (half the Shapley interaction index) by subset
    enumeration."""
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
