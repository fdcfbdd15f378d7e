"""Six from-scratch binary classifiers behind one train/predict interface.

All learners output the probability of label 1 (correct). Every fit takes
one Dataset, the only conversion of rows to a matrix. Training is fully
deterministic under a fixed seed, and every model serializes to versioned
JSON that round-trips to an identical predictor.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .defaults import resolved_config
from .errors import EvalError, TrainError

MODEL_FORMAT_VERSION = 1

KIND_ALIASES = {
    "lr": "LogisticRegression",
    "nb": "NaiveBayes",
    "dt": "DecisionTree",
    "rf": "RandomForest",
    "gbt": "GradientBoostedTrees",
    "dnn": "FeedForwardNet",
}


def canonical_kind(kind: str) -> str:
    if kind in KIND_ALIASES:
        return KIND_ALIASES[kind]
    if kind in KIND_ALIASES.values():
        return kind
    raise TrainError(f"unknown learner kind {kind!r}; choose from {sorted(KIND_ALIASES)}")


@dataclass(frozen=True)
class FeatureRow:
    patch_id: str
    bug_id: str
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class Dataset:
    """Rows as one float64 matrix: patch ids, X, labels y (nan: unlabeled)
    and `blocks`, each feature set's column slice of X. FeatureRows give
    one block, "features"; JointRows give "learned" then "engineered"."""
    patch_ids: list
    X: np.ndarray
    y: np.ndarray
    blocks: dict

    @classmethod
    def of(cls, rows, feature_set: str | None = None) -> "Dataset":
        """The one place where rows become a matrix. Of JointRows, only the
        blocks that `feature_set` (learned, engineered or concat) needs are
        stacked; EvalError names a row without one of them."""
        if not rows:
            raise TrainError("no feature rows")
        sides = ["features"] if hasattr(rows[0], "features") else \
            [s for s in ("learned", "engineered") if feature_set in (None, "concat", s)]
        if not sides:
            raise EvalError(f"unknown feature set {feature_set!r}")
        vectors = {side: [getattr(row, side) for row in rows] for side in sides}
        blocks, width = {}, 0
        for side, vecs in vectors.items():
            for row, vec in zip(rows, vecs):
                if vec is None:
                    raise EvalError(f"patch {row.patch_id!r} is missing its {side} feature vector")
                if len(vec) != len(vecs[0]):
                    raise TrainError(f"patch {row.patch_id!r}: {side} length {len(vec)} != {len(vecs[0])}")
            blocks[side] = slice(width, width + len(vecs[0]))
            width += len(vecs[0])
        X = np.empty((len(rows), width))
        try:
            for side, vecs in vectors.items():
                np.stack(vecs, out=X[:, blocks[side]])
        except (TypeError, ValueError) as exc:
            raise TrainError(f"feature vectors must be numbers: {exc}") from exc
        y = np.array([np.nan if row.label is None else row.label for row in rows], dtype=float)
        return cls([row.patch_id for row in rows], X, y, blocks)

    def columns(self, feature_set: str) -> np.ndarray:
        """A view of one block's columns; "concat" is the learned and the
        engineered block, which are adjacent."""
        if feature_set == "concat":
            return self.X[:, self.blocks["learned"].start: self.blocks["engineered"].stop]
        return self.X[:, self.blocks[feature_set]]


def _sample_weights(y: np.ndarray, class_weight) -> np.ndarray:
    if class_weight is None:
        return np.ones_like(y)
    if class_weight != "balanced":
        raise TrainError(f"unsupported class_weight {class_weight!r}; use None or 'balanced'")
    n = len(y)
    pos = float(y.sum())
    neg = n - pos
    w = np.where(y == 1.0, n / (2.0 * pos), n / (2.0 * neg))
    return w


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


# ---------------------------------------------------------------------------
# CART trees (shared by DecisionTree, RandomForest, GradientBoostedTrees)
# ---------------------------------------------------------------------------

_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


@dataclass
class Tree:
    """Flat lists in preorder; feature == -1 marks a leaf, whose children are -1."""
    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def to_dict(self) -> dict:
        return {field: getattr(self, field) for field in _TREE_FIELDS}


# Rows walked at a time, per tree: bounds the (rows, trees) arrays of a walk.
_WALK_CELLS = 1 << 16


class Forest:
    """Tree records packed into one set of node arrays: tree t is nodes
    offsets[t]:offsets[t + 1], root first. Children are forest indices and
    a leaf's children are itself, so one gather per level moves every
    (row, tree) pair down a level, for len(levels) levels (the split nodes
    of each depth). Not modified after it is made."""

    def __init__(self, trees):
        sizes = [len(t.feature) for t in trees]
        self.offsets = np.cumsum([0] + sizes, dtype=np.intp)
        self.feature, self.threshold, left, right, self.value = (
            np.array([v for t in trees for v in getattr(t, field)], dtype=dtype)
            for field, dtype in zip(_TREE_FIELDS, (np.intp, float, np.intp, np.intp, float)))
        itself, first = np.arange(len(self.feature)), np.repeat(self.offsets[:-1], sizes)
        self.left, self.right = (np.where(self.feature < 0, itself, side + first) for side in (left, right))
        # Unique nodes: a saved file may give two splits one child.
        self.levels, nodes = [], self.offsets[:-1]
        while len(nodes := nodes[self.feature[nodes] >= 0]):
            self.levels.append(nodes)
            nodes = np.unique(np.concatenate([self.left[nodes], self.right[nodes]]))

    @classmethod
    def load(cls, dicts, feature_count: int) -> "Forest":
        """The forest of saved trees; ValueError, naming the first bad tree,
        unless each tree's arrays are non-empty lists of one length, its
        features and children integers, its thresholds and values finite
        numbers, and each split's feature below feature_count and its
        children after it in its tree."""
        trees = [Tree(*(d[field] for field in _TREE_FIELDS)) for d in dicts]
        for t, tree in enumerate(trees):
            arrays = vars(tree).values()
            if not (tree.feature and all(isinstance(a, list) for a in arrays) and len(set(map(len, arrays))) == 1):
                raise ValueError(f"tree {t} arrays must be non-empty lists of one length")
            if not all(type(v) is int for v in tree.feature + tree.left + tree.right):
                raise ValueError(f"tree {t} features and children must be integers")
            if not all(type(v) in (int, float) and math.isfinite(v) for v in tree.threshold + tree.value):
                raise ValueError(f"tree {t} thresholds and values must be finite numbers")
            n = len(tree.feature)
            for node, (f, l, r) in enumerate(zip(tree.feature, tree.left, tree.right)):
                if not -1 <= f < feature_count:
                    raise ValueError(f"tree {t} node {node} splits on feature {f}; the model has {feature_count}")
                if f >= 0 and not (node < l < n and node < r < n):
                    raise ValueError(f"tree {t} node {node} has children {l} and {r}; "
                                     f"they must lie in ({node}, {n})")
            # A leaf's children are never read, whatever integers they are.
            tree.left, tree.right = ([c if f >= 0 else -1 for f, c in zip(tree.feature, side)]
                                     for side in (tree.left, tree.right))
        return cls(trees)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def records(self) -> tuple[Tree, ...]:
        """Every tree as a Tree record, from one tolist() per node array."""
        first = np.repeat(self.offsets[:-1], np.diff(self.offsets))
        leaf = self.feature < 0
        left, right = (np.where(leaf, -1, side - first).tolist() for side in (self.left, self.right))
        feature, threshold, value = self.feature.tolist(), self.threshold.tolist(), self.value.tolist()
        bounds = self.offsets.tolist()
        return tuple(Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
                     for a, b in zip(bounds, bounds[1:]))

    def tree(self, t: int) -> Tree:
        nodes = slice(self.offsets[t], self.offsets[t + 1])
        leaf = self.feature[nodes] < 0
        left, right = (np.where(leaf, -1, side[nodes] - nodes.start).tolist()
                       for side in (self.left, self.right))
        return Tree(self.feature[nodes].tolist(), self.threshold[nodes].tolist(), left, right,
                    self.value[nodes].tolist())

    def _leaves(self, X):
        """(rows, their leaf in every tree) for blocks of X's rows, which
        bound the walk's arrays. Split values are gathered from X's flat
        view; a leaf reads the cell before its row (column -1), to no effect."""
        step = max(1, _WALK_CELLS // max(1, len(self)))
        cells, width = np.ravel(X), X.shape[1]
        for a in range(0, len(X), step):
            rows = np.arange(a, min(a + step, len(X)))[:, None]
            starts = rows * width
            node = np.repeat(self.offsets[None, :-1], len(rows), axis=0)
            for _level in self.levels:
                node = np.where(cells.take(starts + self.feature[node]) <= self.threshold[node],
                                self.left[node], self.right[node])
            yield rows[:, 0], node

    def sums(self, X, scale: float = 1.0, start: float | None = None) -> np.ndarray:
        """Per row of X, its leaf values times `scale` added in tree order
        after `start`, if given: the same bits alone and in any batch."""
        out = np.empty(len(X))
        for rows, leaves in self._leaves(X):
            terms = self.value[leaves] * scale
            if start is not None:
                terms = np.column_stack([np.full(len(terms), start), terms])
            out[rows] = np.cumsum(terms, axis=1)[:, -1]
        return out

    def covers(self, X) -> np.ndarray:
        """How many rows of X reach each node: leaf counts summed upward."""
        counts = np.zeros(len(self.feature))
        for _rows, leaves in self._leaves(X):
            counts += np.bincount(leaves.ravel(), minlength=len(counts))
        for nodes in reversed(self.levels):
            counts[nodes] = counts[self.left[nodes]] + counts[self.right[nodes]]
        return counts


class _Scratch:
    """Per-fit buffers for split search, filled with out= at every node.

    Made for one X and one set of sample weights. Split search works on
    (columns x rows) arrays: row c holds one column's values at the node in
    ascending order and the prefix sums along them. Allocating those at
    every node costs a page fault per page, so they are allocated once, for
    the largest node (the root), and a node uses the leading part. The
    scratch also keeps every non-constant column's rows in ascending value
    order, ties in row order (one stable argsort per column, made once and
    reused by every tree grown on the same X), and two more buffers that
    children's sorted lists are partitioned into. A node's lists are a
    contiguous (columns, rows) block of one of them, located by `where` =
    (buffer, offset, columns). For mse, `cwt` is complex (see _pair).
    `flat` and, for mse, `values` share their memory with `cwt`: they hold
    a node's indices and values only until its prefix sums are taken. Every
    tree grown on the scratch searches the same root, so the root's cut
    chunks are made once and kept in `root_plan`.
    """

    def __init__(self, X, weights, mse: bool):
        n, p = X.shape
        size = p * n
        # Unit weights need no prefix sum of weights (see _cut_scores).
        self.unit_weights = bool(np.all(weights == 1.0))
        self.cw = None if self.unit_weights else np.empty(size)
        self.cwt = np.empty(size, dtype=complex if mse else float)
        self.change = np.empty(size, dtype=bool)
        self.n = n
        self.XT = np.ascontiguousarray(X.T).ravel()
        cells = self.cwt.view(np.intp)
        self.flat = cells[:size]
        self.values = cells[size:].view(float) if mse else np.empty(size)
        self.side = np.empty(n, dtype=bool)
        self.goes_left = np.empty(size, dtype=bool)
        self.root = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
        order = np.argsort(self.XT.reshape(p, n)[self.root], axis=1, kind="stable").ravel()
        self.lists = (order, np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp))
        self.root_plan = None  # ((min_leaf, chunk size), the root's cut chunks)

    def node_rows(self, where, m):
        """The node's rows, (columns, m), each in ascending value order."""
        level, off, cols = where
        return self.lists[level][off: off + len(cols) * m].reshape(len(cols), m)

    def sorted_lists(self, where, m):
        """The node's (rows, values), each (columns, m) in ascending value order."""
        cols = where[2]
        k = len(cols)
        rows = self.node_rows(where, m)
        flat = np.add(rows, (cols * self.n)[:, None], out=self.flat[: k * m].reshape(k, m))
        values = np.take(self.XT, flat, out=self.values[: k * m].reshape(k, m), mode="clip")
        return rows, values

    def root_chunks(self, min_leaf):
        """The root's cut chunks (see _cut_chunks), made by the first root
        search and kept: later trees differ only in the prefix sums. The
        positions are int32 when they fit, so the plan costs 8 bytes per
        cut; empty when the root has no valid cut."""
        key = (min_leaf, _CUTS_PER_CHUNK)
        if self.root_plan is None or self.root_plan[0] != key:
            self.root_plan = None  # freed before the new plan is made
            values = self.sorted_lists((0, 0, self.root), self.n)[1]
            position = np.int32 if values.size <= np.iinfo(np.int32).max else np.intp
            self.root_plan = (key, _cut_chunks(values, min_leaf, self, position))
        return self.root_plan[1]

    def partition(self, where, idx, mask, m_left, needed):
        """Stable partition of the node's sorted lists by `mask` (per row of
        `idx`, m_left of them true) into the children that `needed` says are
        searched. Children
        go to the other buffer within the parent's range, which no pending
        node shares. Returns where the children's lists are.
        """
        level, off, cols = where
        src = self.lists[level][off: off + len(cols) * len(idx)]
        self.side[idx] = mask
        goes_left = np.take(self.side, src, out=self.goes_left[: len(src)], mode="clip")
        child = 2 if level == 1 else 1
        split = off + len(cols) * m_left
        # Boolean indexing keeps the order and, unlike np.compress, makes no
        # index array of the selected positions.
        if needed[0]:
            self.lists[child][off: split] = src[goes_left]
        if needed[1]:
            self.lists[child][split: off + len(src)] = src[np.logical_not(goes_left, out=goes_left)]
        return (child, off, cols), (child, split, cols)


def _prefix_sums(per_row, rows, buf):
    k, m = rows.shape
    out = np.take(per_row, rows, out=buf[: k * m].reshape(k, m), mode="clip")
    return np.cumsum(out, axis=1, out=out).ravel()


# Cuts scored at a time: bounds the temporaries of scoring a node whose
# columns are continuous, where nearly every position is a valid cut.
_CUTS_PER_CHUNK = 4096


def _cut_positions(values, min_leaf, scratch):
    """The node's valid cuts: those at a value change of a column's sorted
    `values` (k, m) that leave min_leaf rows on each side. None when there
    is none, else (col, cut, bounds): each cut's column and the position of
    its last left row in that column, and where each column's cuts start,
    then the end."""
    k, m = values.shape
    lo_cut, hi_cut = min_leaf - 1, m - min_leaf
    width = hi_cut - lo_cut
    change = np.less(values[:, lo_cut:hi_cut], values[:, lo_cut + 1:hi_cut + 1],
                     out=scratch.change[: k * width].reshape(k, width))
    col, cut = np.divmod(np.flatnonzero(change), width)
    if len(col) == 0:
        return None
    cut += lo_cut
    bounds = [0] + (np.flatnonzero(col[1:] != col[:-1]) + 1).tolist() + [len(col)]
    return col, cut, bounds


def _chunk_bounds(bounds):
    """Chunks of whole columns, up to _CUTS_PER_CHUNK cuts each (a longer
    column is a chunk of its own): (a, b, segments) for the cuts a:b, with
    where each column starts in the chunk, then its end."""
    first = 0
    while first < len(bounds) - 1:
        stop = max(first + 1, bisect.bisect_left(bounds, bounds[first] + _CUTS_PER_CHUNK,
                                                 first, len(bounds) - 1))
        a, b = bounds[first], bounds[stop]
        yield a, b, [x - a for x in bounds[first:stop + 1]]
        first = stop


def _cut_chunks(values, min_leaf, scratch, position=np.intp):
    """The node's valid cuts (see _cut_positions) in chunks (see
    _chunk_bounds): a list of (at, last, segments) with the flat positions,
    of dtype `position`, of each cut and of its column's last row in the
    (k, m) prefix sums; empty when there is no valid cut."""
    cuts = _cut_positions(values, min_leaf, scratch)
    if cuts is None:
        return []
    col, cut, bounds = cuts
    m = values.shape[1]
    at = np.multiply(col, m, dtype=position)
    last = at + (m - 1)
    at += cut
    return [(at[a:b], last[a:b], segments) for a, b, segments in _chunk_bounds(bounds)]


def _pair(re, im):
    """re and im as the parts of one complex array, whose prefix sum adds
    each part on its own: both sums in one pass, with the same bits."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _best_split(X, values, rows, weights, wt, wtt, w_total, features, criterion, min_leaf,
                scratch, chunks=None):
    """Exact greedy split search over all columns of a node at once.

    `rows` is (k, m): row c holds the node's rows in ascending order of
    column features[c], ties in row order, and `values` holds those values
    sorted (only their order matters). `wt` is weights * targets per row and
    `wtt` is wt * targets (mse only); for mse, `wt` may instead hold both,
    paired by _pair, with `wtt` None. `weights` is None when all are 1.
    Prefix sums along each row give every cut's left weight and target
    sums, in the same order as a per-node sort would add them; only cuts at
    a value change that leave min_leaf rows on each side are scored. Gini
    uses weighted class sums; mse uses weighted squared error. Ties keep the
    first (lowest feature index, then lowest threshold). `chunks`, if given,
    are the node's cut chunks made earlier (see _Scratch.root_chunks), and
    `values` is not read. Returns (score, feature, threshold), or None.
    """
    k, m = rows.shape
    if chunks is None:
        chunks = _cut_chunks(values, min_leaf, scratch)
    if not chunks:
        return None
    if criterion == "mse" and wtt is not None:
        wt = _pair(wt, wtt)
    sums = (None if weights is None else _prefix_sums(weights, rows, scratch.cw),
            _prefix_sums(wt, rows, scratch.cwt.view(wt.dtype)))
    best = None
    for at, last, segments in chunks:
        score = _cut_scores(at, last, m, sums, w_total, criterion)
        minima = np.minimum.reduceat(score, segments[:-1]).tolist()
        # The first minimum within a column; the first column whose minimum
        # beats the best so far by more than 1e-15.
        for s, v in enumerate(minima):
            if best is None or v < best[0] - 1e-15:
                j = segments[s] + int(np.argmin(score[segments[s]:segments[s + 1]]))
                best = (v, int(at[j]))
    best_score, at = best
    c, cut = divmod(at, m)
    f = features[c]
    lo, hi = X[rows[c, cut], f], X[rows[c, cut + 1], f]
    # The midpoint of adjacent floats can round up to hi, which would send
    # every row left; fall back to lo then, as sklearn does. Summing halves
    # gives the same midpoint as halving the sum (barring subnormals)
    # without overflowing.
    thr = lo / 2.0 + hi / 2.0
    return best_score, f, float(thr if thr < hi else lo)


def _cut_scores(at, last, m, sums, w_total, criterion):
    """Scores of the cuts at flat positions `at` of the prefix sums (cw,
    cwt) of rows of length m, whose columns end at `last`; for mse, cwt
    holds the sums of wt and wtt as complex numbers. cw None means unit
    weights, whose prefix sum is a cut's left row count. m and the weight
    total w_total are numbers, or arrays of one per cut."""
    cw, cwt = sums
    # take, not indexing: indexing by the root plan's int32 positions goes
    # through numpy's casting path (4,096 cuts: 14.8 against 6.0 us).
    wl = (at - last) + (m + 0.0) if cw is None else cw.take(at)
    wr = w_total - wl
    sl = cwt.take(at)
    sr = cwt.take(last) - sl
    if criterion == "gini":
        pl = sl / wl
        pr = sr / wr
        return (wl * 2 * pl * (1 - pl) + wr * 2 * pr * (1 - pr)) / w_total
    # weighted mse via sum of squares decomposition
    sl, sl2, sr, sr2 = sl.real, sl.imag, sr.real, sr.imag
    sse_l = sl2 - sl * sl / wl
    sse_r = sr2 - sr * sr / wr
    return (sse_l + sse_r) / w_total


def grow_tree(X, targets, weights, leaf_value_fn, max_depth, min_leaf,
              criterion="gini", *, scratch: _Scratch | None = None, leaf_values=None) -> Tree:
    """Grow one CART tree depth-first on every column; nodes are numbered in
    preorder.

    Every column is searched from sorted lists kept by stable partitions
    (the scratch's presort). A `scratch` made for this X may be passed to
    reuse it across trees; their root searches then share one cut plan.
    `leaf_values`, if given, receives each row's leaf value. A forest that
    samples columns per node grows its trees with _ForestGrower instead.
    """
    X = np.ascontiguousarray(X)
    n = len(X)
    if scratch is None:
        scratch = _Scratch(X, weights, criterion == "mse")
    wt, wtt = weights * targets, None
    if criterion == "mse":
        wt = _pair(wt, wt * targets)
    search_weights = None if scratch.unit_weights else weights

    def searched(idx, depth):
        # Otherwise the node is a leaf, as it is when no valid cut exists.
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return False
        t = targets[idx]
        return not np.all(t == t[0])

    nodes = []  # [feature, threshold, left, right, value] per node, as in Tree
    # (rows in ascending order, depth, parent, is_left, whether it is
    # searched, where the sorted lists are)
    root = np.arange(n)
    stack = [(root, 0, -1, True, searched(root, 0), (0, 0, scratch.root))]
    while stack:
        idx, depth, parent, is_left, search, where = stack.pop()
        node, value = len(nodes), float(leaf_value_fn(idx))
        nodes.append([-1, 0.0, -1, -1, value])
        if parent >= 0:
            nodes[parent][2 if is_left else 3] = node
        split = None
        if search:
            if parent < 0:
                rows, values = scratch.node_rows(where, n), None
                chunks = scratch.root_chunks(min_leaf)
            else:
                (rows, values), chunks = scratch.sorted_lists(where, len(idx)), None
            split = _best_split(X, values, rows, search_weights, wt, wtt, weights[idx].sum(),
                                where[2], criterion, min_leaf, scratch, chunks)
        if split is None:
            if leaf_values is not None:
                leaf_values[idx] = value
            continue
        _score, f, thr = split
        mask = X[idx, f] <= thr
        nodes[node][:2] = int(f), thr
        left, right = idx[mask], idx[~mask]
        where_l = where_r = None
        needed = [searched(left, depth + 1), searched(right, depth + 1)]
        if any(needed):
            where_l, where_r = scratch.partition(where, idx, mask, len(left), needed)
        stack.append((right, depth + 1, node, False, needed[1], where_r))
        stack.append((left, depth + 1, node, True, needed[0], where_l))
    return Tree(*map(list, zip(*nodes)))


# Cells (nodes x sampled columns x padded rows) that a forest's split search
# sorts at once: bounds the temporaries of one group of nodes.
_GROUP_CELLS = 1 << 16


def _dense_ranks(X):
    """Each column's dense value ranks as (columns, rows + 1), and the
    sentinel, one above every rank, which the last entry of every column
    holds for padding. Equal values, -0.0 and 0.0 among them, share a rank.
    int16 when every column has fewer than 32,768 distinct values. Made a
    column at a time, so that no (rows, columns) temporary is made."""
    n, p = X.shape
    ranks = np.empty((p, n + 1), dtype=np.int32)
    for c, column in enumerate(X.T):
        order = np.argsort(column)
        ordered = column.take(order)
        ranks[c, order[0]] = 0
        ranks[c, order[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    sentinel = int(ranks[:, :n].max()) + 1
    ranks[:, n] = sentinel
    return (ranks.astype(np.int16) if sentinel < 1 << 15 else ranks), sentinel


class _ForestGrower:
    """Grows a random forest's bootstrap trees side by side, bit for bit the
    trees that a per-node search would grow one by one on X[boot], drawing
    `max_features` columns per searched node.

    A tree keeps its rows as int32 global row ids in bootstrap order, so no
    X[boot] is made, and the rows of its pending nodes on a stack. Each
    step takes the next node, in preorder, of every unfinished tree, so
    every tree still draws its columns in preorder. The step's searched
    nodes are split in groups of similar row count (see _split_group).
    """

    def __init__(self, X, y, weights, max_features, max_depth, min_leaf):
        self.X = np.ascontiguousarray(X)
        self.n, self.p = self.X.shape
        self.y, self.weights = y, weights
        self.k, self.max_depth, self.min_leaf = max_features, max_depth, min_leaf
        self.ranks, self.sentinel = _dense_ranks(self.X)
        # Row n pads a node's rows: its weight and weighted target are 0.
        self.wt = np.append(weights * y, 0.0)
        self.w = None if np.all(weights == 1.0) else np.append(weights, 0.0)

    def grow(self, seed, n_trees) -> list[Tree]:
        trees = []  # (rng, its Tree so far, stack of (rows, depth, parent, is_left))
        for t in range(n_trees):
            rng = np.random.default_rng([seed, t])  # per-tree derived seed
            boot = rng.integers(0, self.n, size=self.n).astype(np.int32)
            trees.append((rng, Tree([], [], [], [], []), [(boot, 0, -1, True)]))
        live = trees
        while live:
            self._step(live)
            live = [tree for tree in live if tree[2]]
        return [tree for _rng, tree, _stack in trees]

    def _step(self, live):
        """Adds the next node of every live tree, and splits those that are
        searched in groups of at most twice the smallest row count and
        _GROUP_CELLS cells."""
        popped = [stack.pop() for _rng, _tree, stack in live]
        ends = np.cumsum([len(item[0]) for item in popped])
        # Node statistics are gathered for about _GROUP_CELLS rows at a time.
        bounds = [0, *(np.flatnonzero(np.diff(ends // _GROUP_CELLS)) + 1).tolist(), len(live)]
        searched = []
        for a, b in zip(bounds, bounds[1:]):
            searched += self._add_nodes(live[a:b], popped[a:b])
        searched.sort(key=lambda item: item[0])
        first = 0
        for i in range(1, len(searched) + 1):
            if i == len(searched) or searched[i][0] > 2 * searched[first][0] \
                    or (i - first + 1) * self.k * searched[i][0] > _GROUP_CELLS:
                self._split_group(searched[first:i])
                first = i

    def _add_nodes(self, live, popped):
        """Appends each popped node to its tree with its leaf value; returns
        (row count, rows, columns, weight total, tree, node, stack, depth)
        for those to be searched, whose trees draw their columns here."""
        rows = np.concatenate([item[0] for item in popped], dtype=np.intp)
        ends = np.cumsum([len(item[0]) for item in popped]).tolist()
        starts = [0] + ends[:-1]
        w, wt, y = self.weights.take(rows), self.wt.take(rows), self.y.take(rows)
        pure = (np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)).tolist()
        searched = []
        for (rng, tree, stack), (idx, depth, parent, is_left), a, b, is_pure in zip(
                live, popped, starts, ends, pure):
            node, w_total = len(tree.feature), w[a:b].sum()
            tree.feature.append(-1)
            tree.threshold.append(0.0)
            tree.left.append(-1)
            tree.right.append(-1)
            tree.value.append(float(wt[a:b].sum() / w_total))
            if parent >= 0:
                (tree.left if is_left else tree.right)[parent] = node
            # Otherwise a leaf, as in grow_tree.
            if depth < self.max_depth and b - a >= 2 * self.min_leaf and not is_pure:
                feats = rng.choice(self.p, size=self.k, replace=False)
                searched.append((b - a, idx, feats, w_total, tree, node, stack, depth))
        return searched

    def _split_group(self, group):
        """Finds each node's best split as _best_split would, and pushes
        the children of those that have one.

        The group's rows are padded to its largest node with row n, whose
        rank is the sentinel. A key rank << s | position sorts each column's
        rows by value, ties in row order and padding last, as a stable
        argsort would, and gives the sorted ranks too; prefix sums along the
        padded rows keep every real sum's bits.
        """
        G, k, n, M = len(group), self.k, self.n, group[-1][0]
        m = np.array([item[0] for item in group])
        real = np.arange(M) < m[:, None]
        rows = np.full((G, M), n)
        rows[real] = np.concatenate([item[1] for item in group])
        feats = np.sort(np.array([item[2] for item in group]), axis=1)
        s = (G * M - 1).bit_length()
        key = np.left_shift(self.ranks.take((feats * (n + 1))[:, :, None] + rows[:, None, :]), s,
                            dtype=np.int32 if self.sentinel < 1 << (31 - s) else np.int64)
        key |= np.arange(G * M, dtype=key.dtype).reshape(G, 1, M)
        key.sort(axis=2)
        # (G, k, M): where in `rows` each sorted row is. take is several
        # times slower with int32 indices.
        pos = np.bitwise_and(key, (1 << s) - 1, dtype=np.intp)
        # np.add.accumulate is np.cumsum without its wrapper's overhead.
        cwt = self.wt.take(rows).take(pos)
        np.add.accumulate(cwt, axis=2, out=cwt)
        cw = None if self.w is None else self.w.take(rows).take(pos)
        if cw is not None:
            np.add.accumulate(cw, axis=2, out=cw)
        key >>= s
        gc, cut = np.divmod(np.flatnonzero(key[:, :, 1:] != key[:, :, :-1]), M - 1)
        g = gc // k
        valid = (cut >= self.min_leaf - 1) & (cut < (m - self.min_leaf).take(g))
        gc, cut, g = gc[valid], cut[valid], g[valid]
        if not len(gc):
            return
        at, m_cut = gc * M + cut, m.take(g)
        score = _cut_scores(at, at + (m_cut - 1 - cut), m_cut, (cw, cwt),
                            np.array([item[3] for item in group]).take(g), "gini")
        starts = [0] + (np.flatnonzero(gc[1:] != gc[:-1]) + 1).tolist()
        bounds = starts + [len(gc)]
        # Per node, the first column whose minimum beats the best so far by
        # more than 1e-15, and the first minimum within that column.
        best = {}
        for i, (v, member) in enumerate(zip(np.minimum.reduceat(score, starts).tolist(),
                                           g.take(starts).tolist())):
            if member not in best or v < best[member][0] - 1e-15:
                best[member] = (v, i)
        split = np.array(list(best))
        pick = np.array([bounds[i] + int(np.argmin(score[bounds[i]:bounds[i + 1]]))
                         for _v, i in best.values()])
        f = feats.take(gc.take(pick))
        # The values on either side of each chosen cut.
        lo, hi = self.X[rows.take(pos.take(at.take(pick)[:, None] + (0, 1))), f[:, None]].T
        thr = lo / 2.0 + hi / 2.0
        thr = np.where(thr < hi, thr, lo)
        real, rows = real[split], rows[split]
        goes_left = (self.X.take(rows * self.p + f[:, None], mode="clip") <= thr[:, None]) & real
        lefts, rights = rows[goes_left].astype(np.int32), rows[real & ~goes_left].astype(np.int32)
        a = b = 0
        for i, f_, t_, m_left in zip(split.tolist(), f.tolist(), thr.tolist(),
                                     goes_left.sum(axis=1).tolist()):
            m_, _idx, _feats, _w, tree, node, stack, depth = group[i]
            tree.feature[node], tree.threshold[node] = f_, t_
            # A right child may wait on its stack for many steps: a copy, so
            # that it does not keep the group's arrays alive.
            stack.append((rights[b:b + m_ - m_left].copy(), depth + 1, node, False))
            stack.append((lefts[a:a + m_left], depth + 1, node, True))
            a, b = a + m_left, b + m_ - m_left

# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

class TrainedModel:
    kind = "abstract"

    def __init__(self, feature_count: int, config: dict, seed: int):
        self.feature_count = feature_count
        self.config = config
        self.seed = seed
        self.training_report: dict = {}
        self.explain_cache = None  # explain's last path table; not persisted

    def _rows(self, X) -> np.ndarray:
        """X as a float matrix of rows of the model's width, or TrainError."""
        try:
            X = np.asarray(X, dtype=float)
        except (TypeError, ValueError) as exc:
            raise TrainError(f"feature vectors must be numbers of one length: {exc}") from exc
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise TrainError(f"expected feature vectors of length {self.feature_count}, "
                             f"got shape {X.shape}")
        return X

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch([x])[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        """The probability of label 1 for every row of X."""
        return self._proba(self._rows(X))

    def _proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def _params_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "feature_count": self.feature_count,
            "seed": self.seed,
            "config": self.config,
            "params": self._params_dict(),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)


def _standardizer(X, enabled):
    if not enabled:
        return np.zeros(X.shape[1]), np.ones(X.shape[1])
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    return mean, std


def logistic_loss_and_grad(wb: np.ndarray, X: np.ndarray, y: np.ndarray,
                           l2: float, sample_weight=None):
    """Mean cross-entropy with L2 on weights (not bias); wb = [w..., b]."""
    w, b = wb[:-1], wb[-1]
    sw = np.ones_like(y) if sample_weight is None else sample_weight
    total = sw.sum()
    p = _sigmoid(X @ w + b)
    eps = 1e-12
    loss = float(-(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))).sum() / total
                 + 0.5 * l2 * float(w @ w))
    err = sw * (p - y) / total
    grad = np.concatenate([X.T @ err + l2 * w, [err.sum()]])
    return loss, grad


class LogisticRegressionModel(TrainedModel):
    kind = "LogisticRegression"

    def __init__(self, feature_count, config, seed, weights=None, bias=0.0, mean=None, std=None):
        super().__init__(feature_count, config, seed)
        self.weights = np.zeros(feature_count) if weights is None else np.asarray(weights, dtype=float)
        self.bias = float(bias)
        self.mean = np.zeros(feature_count) if mean is None else np.asarray(mean, dtype=float)
        self.std = np.ones(feature_count) if std is None else np.asarray(std, dtype=float)

    @classmethod
    def fit(cls, X, y, config, seed):
        mean, std = _standardizer(X, config["standardize"])
        Xs = (X - mean) / std
        sw = _sample_weights(y, config["class_weight"])
        wb = np.zeros(X.shape[1] + 1)
        lr = config["learning_rate"]
        losses = []
        for _epoch in range(config["max_epochs"]):
            loss, grad = logistic_loss_and_grad(wb, Xs, y, config["l2"], sw)
            if not math.isfinite(loss):
                raise TrainError("non-finite logistic loss; lower the learning rate")
            losses.append(loss)
            if float(np.linalg.norm(grad)) <= config["tol"]:
                break
            wb -= lr * grad
        model = cls(X.shape[1], config, seed, wb[:-1], wb[-1], mean, std)
        model.training_report = {"epochs_run": len(losses), "final_loss": losses[-1] if losses else 0.0}
        return model

    def margin_batch(self, X) -> np.ndarray:
        Xs = (self._rows(X) - self.mean) / self.std
        return Xs @ self.weights + self.bias

    def _proba(self, X) -> np.ndarray:
        return _sigmoid(self.margin_batch(X))

    def _params_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias,
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        vector = (feature_count,)
        return cls(feature_count, config, seed, _array(params["weights"], vector, "weights"),
                   _number(params["bias"], "bias"), _array(params["mean"], vector, "mean"),
                   _array(params["std"], vector, "std"))


class NaiveBayesModel(TrainedModel):
    """Gaussian per-feature likelihoods with a variance floor."""

    kind = "NaiveBayes"

    def __init__(self, feature_count, config, seed, priors, means, variances):
        super().__init__(feature_count, config, seed)
        self.priors, self.means, self.variances = priors, means, variances

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])
        floor = config["var_smoothing"] * float(X.var(axis=0).max() or 1.0)
        means = np.zeros((2, X.shape[1]))
        variances = np.zeros((2, X.shape[1]))
        priors = np.zeros(2)
        for c in (0, 1):
            mask = y == c
            w = sw[mask]
            priors[c] = w.sum() / sw.sum()
            mu = (w[:, None] * X[mask]).sum(axis=0) / w.sum()
            var = (w[:, None] * (X[mask] - mu) ** 2).sum(axis=0) / w.sum()
            means[c] = mu
            variances[c] = np.maximum(var, floor) + floor
        return cls(X.shape[1], config, seed, priors, means, variances)

    def _proba(self, X) -> np.ndarray:
        log_joint = np.zeros((X.shape[0], 2))
        for c in (0, 1):
            ll = -0.5 * (np.log(2 * np.pi * self.variances[c])
                         + (X - self.means[c]) ** 2 / self.variances[c]).sum(axis=1)
            log_joint[:, c] = np.log(self.priors[c] + 1e-300) + ll
        shift = log_joint.max(axis=1, keepdims=True)
        probs = np.exp(log_joint - shift)
        return probs[:, 1] / probs.sum(axis=1)

    def _params_dict(self) -> dict:
        return {"priors": self.priors.tolist(), "means": np.asarray(self.means).tolist(),
                "variances": np.asarray(self.variances).tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, _array(params["priors"], (2,), "priors"),
                   _array(params["means"], (2, feature_count), "means"),
                   _array(params["variances"], (2, feature_count), "variances"))


class TreeModel(TrainedModel):
    """A tree learner's model: one Forest. Its explained output, in `space`,
    is `intercept` plus `scale` times each tree's leaf value, summed over
    the trees; predictions take the same leaf values in tree order."""

    space = "probability"
    intercept = 0.0

    def __init__(self, feature_count, config, seed, trees):  # a Forest or Tree records
        super().__init__(feature_count, config, seed)
        self.forest = trees if isinstance(trees, Forest) else Forest(trees)
        self.training_report = {"trees": len(self.forest), "nodes": len(self.forest.feature),
                                "max_depth_reached": len(self.forest.levels)}

    @property
    def trees(self) -> tuple[Tree, ...]:
        return self.forest.records()

    @property
    def scale(self) -> float:
        return 1.0 / len(self.forest)

    def _proba(self, X) -> np.ndarray:
        # The mean leaf value: one tree's for DT, the trees' for RF.
        return self.forest.sums(X) / len(self.forest)

    def _params_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}


def _leaf_frequency(y, weights):
    """The leaf value of DT and RF trees: the weighted frequency of label 1."""
    def value(idx):
        w = weights[idx]
        return float((w * y[idx]).sum() / w.sum())
    return value


class DecisionTreeModel(TreeModel):
    kind = "DecisionTree"

    def __init__(self, feature_count, config, seed, tree):
        super().__init__(feature_count, config, seed, tree if isinstance(tree, Forest) else [tree])

    @property
    def tree(self) -> Tree:
        return self.forest.tree(0)

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])
        tree = grow_tree(X, y, sw, _leaf_frequency(y, sw), config["max_depth"], config["min_leaf"])
        return cls(X.shape[1], config, seed, tree)

    def _params_dict(self) -> dict:
        return {"tree": self.tree.to_dict()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, Forest.load([params["tree"]], feature_count))


class RandomForestModel(TreeModel):
    """Bagged Gini trees with per-split feature subsampling; the forest
    probability is the mean of per-tree leaf frequencies."""

    kind = "RandomForest"

    @classmethod
    def fit(cls, X, y, config, seed):
        """Tree t is grown on the bootstrap sample that default_rng([seed,
        t]) draws first, and draws its columns from the same generator, per
        searched node in preorder. Trees that sample columns are grown side
        by side by _ForestGrower, with no copy of X per tree; trees that
        search every column presort their own bootstrap sample (grow_tree).
        Both give, bit for bit, the trees of a per-node search on X[boot]."""
        sw = _sample_weights(y, config["class_weight"])
        n, p = X.shape
        if config["max_features"] == "sqrt":
            max_features = max(1, int(math.sqrt(p)))
        elif config["max_features"] is None:
            max_features = p
        else:
            max_features = int(config["max_features"])
        if max_features < p:
            grower = _ForestGrower(X, y, sw, max_features, config["max_depth"], config["min_leaf"])
            return cls(p, config, seed, grower.grow(seed, config["n_trees"]))
        trees = []
        for t in range(config["n_trees"]):
            rng = np.random.default_rng([seed, t])  # per-tree derived seed
            boot = rng.integers(0, n, size=n)
            Xb, yb, wb = X[boot], y[boot], sw[boot]
            trees.append(grow_tree(Xb, yb, wb, _leaf_frequency(yb, wb), config["max_depth"],
                                   config["min_leaf"]))
        return cls(p, config, seed, trees)

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        forest = Forest.load(params["trees"], feature_count)
        if not len(forest):
            raise ValueError("a forest needs at least one tree")
        return cls(feature_count, config, seed, forest)


class GradientBoostedTreesModel(TreeModel):
    """Boosted shallow regression trees on the logistic loss with shrinkage.

    Predictions live in margin (log-odds) space; leaf values are damped
    Newton steps with an L2 term in the denominator.
    """

    kind = "GradientBoostedTrees"
    space = "margin"

    def __init__(self, feature_count, config, seed, base_margin, trees):
        super().__init__(feature_count, config, seed, trees)
        self.base_margin = float(base_margin)

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])
        total = sw.sum()
        p_bar = float(np.clip((sw * y).sum() / total, 1e-6, 1 - 1e-6))
        base = math.log(p_bar / (1 - p_bar))
        margin = np.full(len(y), base)
        lr = config["learning_rate"]
        l2 = config["l2"]
        trees: list[Tree] = []
        losses: list[float] = []
        # One presort serves every round; each row's leaf value updates its
        # margin, which is what the tree's walk would return for it.
        scratch = _Scratch(X, sw, True)
        leaf_values = np.empty(len(y))
        for _round in range(config["rounds"]):
            p = _sigmoid(margin)
            residual = y - p
            hessian = p * (1 - p)

            def leaf_value(idx, residual=residual, hessian=hessian):
                num = float((sw[idx] * residual[idx]).sum())
                den = float((sw[idx] * hessian[idx]).sum()) + l2
                return num / den

            trees.append(grow_tree(X, residual, sw, leaf_value, config["max_depth"],
                                   config["min_leaf"], criterion="mse", scratch=scratch,
                                   leaf_values=leaf_values))
            margin = margin + lr * leaf_values
            p_new = np.clip(_sigmoid(margin), 1e-12, 1 - 1e-12)
            loss = float(-(sw * (y * np.log(p_new) + (1 - y) * np.log(1 - p_new))).sum() / total)
            if not math.isfinite(loss):
                raise TrainError("non-finite boosting loss; lower the learning rate")
            losses.append(loss)
        model = cls(X.shape[1], config, seed, base, trees)
        model.training_report = {"round_losses": losses, **model.training_report}
        return model

    @property
    def scale(self) -> float:
        return self.config["learning_rate"]

    @property
    def intercept(self) -> float:
        return self.base_margin

    def margin_batch(self, X) -> np.ndarray:
        return self.forest.sums(self._rows(X), self.scale, self.base_margin)

    def _proba(self, X) -> np.ndarray:
        return _sigmoid(self.margin_batch(X))

    def _params_dict(self) -> dict:
        return {"base_margin": self.base_margin, **super()._params_dict()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, _number(params["base_margin"], "base_margin"),
                   Forest.load(params["trees"], feature_count))


# --- feed-forward network ---------------------------------------------------

def init_net_params(layer_sizes, seed) -> list[np.ndarray]:
    """Glorot-uniform weight matrices and zero biases, flattened as
    [W0, b0, W1, b1, ...]."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def net_forward(params, X):
    """Returns (probabilities, activations per layer) for backprop."""
    acts = [np.asarray(X, dtype=float)]
    n_layers = len(params) // 2
    h = acts[0]
    for i in range(n_layers):
        W, b = params[2 * i], params[2 * i + 1]
        z = h @ W + b
        h = _sigmoid(z) if i == n_layers - 1 else np.maximum(z, 0.0)
        acts.append(h)
    return acts[-1][:, 0], acts


def net_loss_and_grad(params, X, y, l2=0.0, sample_weight=None):
    """Mean cross-entropy loss and backprop gradients per parameter array."""
    sw = np.ones_like(y) if sample_weight is None else sample_weight
    total = sw.sum()
    p, acts = net_forward(params, X)
    eps = 1e-12
    loss = float(-(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))).sum() / total)
    grads = [np.zeros_like(q) for q in params]
    n_layers = len(params) // 2
    # dL/dz for the sigmoid output under cross-entropy collapses to (p - y).
    delta = ((p - y) * sw / total)[:, None]
    for i in range(n_layers - 1, -1, -1):
        W = params[2 * i]
        a_prev = acts[i]
        grads[2 * i] = a_prev.T @ delta + l2 * W
        grads[2 * i + 1] = delta.sum(axis=0)
        loss += 0.5 * l2 * float((W * W).sum())
        if i > 0:
            delta = (delta @ W.T) * (acts[i] > 0.0)
    return loss, grads


class FeedForwardNetModel(TrainedModel):
    kind = "FeedForwardNet"

    def __init__(self, feature_count, config, seed, params, mean, std):
        super().__init__(feature_count, config, seed)
        self.params, self.mean, self.std = params, mean, std

    @classmethod
    def fit(cls, X, y, config, seed):
        mean, std = _standardizer(X, config["standardize"])
        Xs = (X - mean) / std
        sw = _sample_weights(y, config["class_weight"])
        sizes = [X.shape[1]] + list(config["hidden"]) + [1]
        params = init_net_params(sizes, seed)
        opt = AdamOptimizer(params, config["learning_rate"])
        final_loss = 0.0
        for _epoch in range(config["epochs"]):
            loss, grads = net_loss_and_grad(params, Xs, y, config["l2"], sw)
            if not math.isfinite(loss):
                raise TrainError("non-finite network loss; lower the learning rate")
            opt.step(params, grads)
            final_loss = loss
        model = cls(X.shape[1], config, seed, params, mean, std)
        model.training_report = {"final_loss": final_loss}
        return model

    def _proba(self, X) -> np.ndarray:
        p, _ = net_forward(self.params, (X - self.mean) / self.std)
        return p

    def _params_dict(self) -> dict:
        return {"layers": [q.tolist() for q in self.params],
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        layers = [np.array(q, dtype=float) for q in params["layers"]]
        # Weight matrix i maps sizes[i] inputs to the sizes[i + 1] of bias i.
        sizes = [feature_count] + [b.shape[0] if b.ndim == 1 else -1 for b in layers[1::2]]
        if not layers or len(layers) % 2 or sizes[-1] != 1 \
                or any(W.shape != (a, b) for W, a, b in zip(layers[::2], sizes, sizes[1:])) \
                or not all(np.all(np.isfinite(q)) for q in layers):
            raise ValueError("layers must be finite weight matrices and bias vectors that "
                             "chain from the features to one output")
        vector = (feature_count,)
        return cls(feature_count, config, seed, layers, _array(params["mean"], vector, "mean"),
                   _array(params["std"], vector, "std"))


class AdamOptimizer:
    """Adaptive-moment updates over a list of parameter arrays."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(q) for q in params]
        self.v = [np.zeros_like(q) for q in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for i, (q, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            q -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _array(values, shape, what) -> np.ndarray:
    """A saved array of finite numbers; ValueError unless it has `shape`."""
    a = np.array(values, dtype=float)
    if a.shape != shape or not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite numbers of shape {shape}")
    return a


def _number(value, what) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    return float(value)


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (LogisticRegressionModel, NaiveBayesModel, DecisionTreeModel,
                RandomForestModel, GradientBoostedTreesModel, FeedForwardNetModel)
}


def train(kind: str, rows, config: dict | None = None, seed: int = 0) -> TrainedModel:
    """Fit one of the six learners on FeatureRows or on every column of a
    Dataset.

    `config` overrides the committed defaults for that kind; the resolved
    values are stored on the model and echoed into reports.
    """
    kind = canonical_kind(kind)
    data = rows if isinstance(rows, Dataset) else Dataset.of(rows)
    X, y = data.X, data.y
    for bad, what in ((np.isnan(y), "is unlabeled"), (~np.isfinite(X), "has non-finite feature values")):
        if bad.any():
            raise TrainError(f"patch {data.patch_ids[int(np.nonzero(bad)[0][0])]!r} {what}")
    classes = np.unique(y)
    if len(classes) < 2:
        raise TrainError("training data contains a single class; both labels are required")
    if not set(classes) <= {0.0, 1.0}:
        raise TrainError(f"labels must be 0/1, got {sorted(classes)}")
    if len(y) < 2:
        raise TrainError("need at least 2 rows to train")
    resolved = resolved_config(kind, config)
    return _MODEL_CLASSES[kind].fit(X, y, resolved, seed)


def load(path) -> TrainedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TrainError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise TrainError(f"{path}: not a model file")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise TrainError(f"{path}: unsupported model format version {doc.get('format_version')!r}")
    kind = doc["kind"]
    if kind not in _MODEL_CLASSES:
        raise TrainError(f"{path}: unknown model kind {kind!r}")
    try:
        feature_count, seed = doc["feature_count"], doc["seed"]
        config, params = doc["config"], doc["params"]
        if type(feature_count) is not int or feature_count < 1:
            raise ValueError(f"feature_count must be a positive integer, not {feature_count!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, not {seed!r}")
        if not isinstance(config, dict) or not isinstance(params, dict):
            raise ValueError("config and params must be objects")
        # A saved config holds every hyperparameter, each a valid value.
        missing = sorted(set(resolved_config(kind, None)) - set(config))
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        resolved_config(kind, config)
        return _MODEL_CLASSES[kind]._from_params(feature_count, config, seed, params)
    except KeyError as exc:
        raise TrainError(f"{path}: not a valid {kind} model: no {exc} entry") from exc
    except (TypeError, ValueError, OverflowError, TrainError) as exc:
        raise TrainError(f"{path}: not a valid {kind} model: {exc}") from exc
