"""Six from-scratch binary classifiers behind one train/predict interface,
and the two-tower fusion network (DeepFusionModel) over both feature sets.

All learners output the probability of label 1 (correct). Every fit takes
one Dataset, the only conversion of rows to a matrix. Training is fully
deterministic under a fixed seed, and each of the six learners' models
serializes to versioned JSON that round-trips to an identical predictor.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import fileio, worker
from .defaults import HYPERPARAMETER_CHECKS, resolved_config
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

    def vectors(self) -> dict:
        """Each feature set's vector, as JointRow.vectors gives them: one, "features"."""
        return {"features": self.features}


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
        given = [row.vectors() for row in rows]
        sides = [s for s in given[0] if s == "features" or feature_set in (None, "concat", s)]
        if not sides:
            raise EvalError(f"unknown feature set {feature_set!r}")
        vectors = {side: [vecs[side] for vecs in given] for side in sides}
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

    def labeled(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) to fit on: the one check of every fit's rows. TrainError
        names the first bad patch (see refuse_bad_rows), or says that one
        class is missing."""
        X, y = self.X, self.y
        refuse_bad_rows(self.patch_ids, y, np.isfinite(X).all(axis=1))
        if len(np.unique(y)) < 2:
            raise TrainError("training data contains a single class; both labels are required")
        return X, y


def refuse_bad_rows(patch_ids, y: np.ndarray, finite: np.ndarray | None = None) -> None:
    """TrainError naming the first patch that is unlabeled (a NaN in y), has
    a non-finite feature value (False in `finite`, one flag per row, if it
    is given), or has a label other than 0/1."""
    checks = [(np.isnan(y), "is unlabeled"), ((y != 0.0) & (y != 1.0), "has a label other than 0/1")]
    if finite is not None:
        checks.insert(1, (~finite, "has non-finite feature values"))
    for bad, what in checks:
        if bad.any():
            raise TrainError(f"patch {patch_ids[int(np.nonzero(bad)[0][0])]!r} {what}")


def _sample_weights(y: np.ndarray, class_weight) -> np.ndarray:
    # class_weight is None or "balanced": the settings checks pass no other value.
    if class_weight is None:
        return np.ones_like(y)
    n = len(y)
    pos = float(y.sum())
    neg = n - pos
    w = np.where(y == 1.0, n / (2.0 * pos), n / (2.0 * neg))
    return w


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


@contextmanager
def checked_arithmetic(error, what: str):
    """Raise `error` where numpy arithmetic in the block overflows, divides by
    zero or turns invalid, as out-of-range saved values can make it do."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise error(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# CART trees (shared by DecisionTree, RandomForest, GradientBoostedTrees)
# ---------------------------------------------------------------------------

_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")
_FIELD_TYPES = (np.intp, float, np.intp, np.intp, float)


@dataclass
class Tree:
    """A tree as v1 files save it: flat lists, root first; a leaf's feature and children are -1."""
    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def to_dict(self) -> dict:
        return {field: getattr(self, field) for field in _TREE_FIELDS}


# Rows walked at a time, per tree: bounds the (rows, trees) arrays of a walk,
# about 33 bytes per cell at once (~1.1 MB); twice as many walked no faster.
_WALK_CELLS = 1 << 15


class Forest:
    """Trees packed into one set of node arrays: tree t is nodes
    offsets[t]:offsets[t + 1], root first. Children are forest indices and
    a leaf's children are itself, so one gather per level moves every
    (row, tree) pair down a level, for len(levels) levels (the split nodes
    of each depth). The one tree representation: growers (_Nodes) and load
    fill it, prediction and TreeSHAP read it. Not modified after it is made."""

    def __init__(self, sizes, feature, threshold, left, right, value):
        """Trees of `sizes` nodes: fields over all nodes, tree after tree,
        children numbered within their tree; a leaf's are not read."""
        self.offsets = np.cumsum(np.append(0, sizes), dtype=np.intp)
        self.feature, self.threshold, left, right, self.value = (
            np.asarray(a, dtype=dtype) for a, dtype in zip((feature, threshold, left, right, value), _FIELD_TYPES))
        itself, first = np.arange(len(self.feature)), np.repeat(self.offsets[:-1], sizes)
        self.left, self.right = (np.where(self.feature < 0, itself, side + first) for side in (left, right))
        self.levels, nodes = [], self.offsets[:-1]
        while len(nodes := nodes[self.feature[nodes] >= 0]):
            self.levels.append(nodes)
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])

    @classmethod
    def load(cls, dicts, feature_count: int, probabilities: bool = False) -> "Forest":
        """The forest of saved trees; ValueError unless each tree's arrays
        are non-empty lists of one length, its features and children
        integers and its thresholds and values numbers (fileio.numbers;
        values in [0, 1] with `probabilities`), and each split's feature
        below feature_count and its children after it in its tree, and
        each node but a root the child of exactly one split. Each field is
        read once for the whole forest, and the rules are checked in that
        order, each naming the tree (and node) of its first break."""
        trees = [[d[field] for field in _TREE_FIELDS] for d in dicts]
        for t, tree in enumerate(trees):
            if not (tree[0] and all(isinstance(a, list) for a in tree) and len(set(map(len, tree))) == 1):
                raise ValueError(f"tree {t} arrays must be non-empty lists of one length")
        sizes = np.array([len(tree[0]) for tree in trees], dtype=np.intp)

        def read(fields, what, integer=False):  # at once; on a bad entry, again tree by tree to name it
            try:
                return [fileio.numbers(list(chain.from_iterable(tree[i] for tree in trees)), what,
                                       (int(sizes.sum()),), integer) for i in fields]
            except ValueError:
                for t, tree in enumerate(trees):
                    for i in fields:
                        fileio.numbers(tree[i], f"tree {t} {what}", (len(tree[i]),), integer)
                raise
        feature, left, right = read((0, 2, 3), "features and children", integer=True)
        threshold, value = read((1, 4), "thresholds and values")
        tree_of = np.repeat(np.arange(len(sizes)), sizes)
        first = (np.cumsum(sizes) - sizes)[tree_of]
        node, n, split = np.arange(len(feature)) - first, sizes[tree_of], feature >= 0
        inside = split & (node < left) & (left < n) & (node < right) & (right < n)
        # Only children inside their tree are counted: the others break an earlier rule.
        parents = np.bincount(np.concatenate([left[inside], right[inside]]) + np.tile(first[inside], 2),
                              minlength=len(feature))
        for bad, rule in (  # a leaf's children are never read, whatever integers they are
                (probabilities and (value < 0) | (value > 1), "values must be probabilities, in [0, 1]"),
                ((feature < -1) | (feature >= feature_count), "node {at} splits on feature {f}; the model has {m}"),
                (split & ~inside, "node {at} has children {l} and {r}; they must lie in ({at}, {n})"),
                (parents > 1, "node {at} is the child of more than one split"),
                ((parents == 0) & (node > 0), "node {at} is not the child of any split")):
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(f"tree {tree_of[i]} " + rule.format(
                    at=node[i], f=feature[i], m=feature_count, l=left[i], r=right[i], n=n[i]))
        return cls(sizes, feature, threshold, left, right, value)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def records(self) -> tuple[Tree, ...]:
        """Every tree's record, from one conversion of each node array."""
        first = np.repeat(self.offsets[:-1], np.diff(self.offsets))
        leaf = self.feature < 0
        left, right = (np.where(leaf, -1, side - first) for side in (self.left, self.right))
        fields = [a.tolist() for a in (self.feature, self.threshold, left, right, self.value)]
        bounds = self.offsets.tolist()
        return tuple(Tree(*(field[a:b] for field in fields)) for a, b in zip(bounds, bounds[1:]))

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


# Cells (nodes x sampled columns x padded rows) that a forest's split search
# sorts at once: bounds the temporaries of one group of nodes.
_GROUP_CELLS = 1 << 16

# Cuts scored at a time: bounds the temporaries of scoring a node whose
# columns are continuous, where nearly every position is a valid cut.
_CUTS_PER_CHUNK = 4096


def _dense_ranks(X, columns=None):
    """The dense value ranks of X's `columns` (every column if None) as
    (columns, rows + 1), and the sentinel, one above every rank, which the
    last entry of every column holds for padding. Equal values, -0.0 and
    0.0 among them, share a rank. int16 when every column has fewer than
    32,768 distinct values, and made as int16 when X has fewer rows than
    that. Made a block of columns at a time, of about _GROUP_CELLS / 4
    cells, so that the temporaries stay near 350 KB, with no (rows,
    columns) one."""
    n, p = len(X), X.shape[1] if columns is None else len(columns)
    ranks = np.empty((p, n + 1), dtype=np.int16 if n < 1 << 15 else np.int32)
    step = max(1, (_GROUP_CELLS >> 2) // n)
    for a in range(0, p, step):
        columns_a = X[:, a:a + step].T if columns is None else X[:, columns[a:a + step]].T
        order = np.argsort(columns_a, axis=1)
        ordered = np.take_along_axis(columns_a, order, axis=1)
        dense = np.zeros(order.shape, dtype=np.int32)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
        np.put_along_axis(ranks[a:a + step], order, dense, axis=1)
    sentinel = int(ranks[:, :n].max(initial=0)) + 1
    ranks[:, n] = sentinel
    return (ranks.astype(np.int16, copy=False) if sentinel < 1 << 15 else ranks), sentinel


def _packed_keys(ranks, positions, count, sentinel):
    """Sort keys rank << bits | position for ranks up to `sentinel` and
    positions below `count`, which broadcast against each other, with bits
    the fewest that hold every position: int32 when every key fits, else
    int64. Sorting them orders positions by rank, ties by position.
    Returns (keys, bits)."""
    bits = (count - 1).bit_length()
    keys = np.left_shift(ranks, bits, dtype=np.int32 if sentinel < 1 << (31 - bits) else np.int64)
    keys |= positions
    return keys, bits


# --- split search, shared by both tree engines --------------------------------
# A search block holds G nodes' k columns as G·k segments of M entries: each
# segment is its node's rows in ascending order of one column, ties in row
# order, followed by padding when the node has fewer than M rows.

def _cut_positions(ranks, m, min_leaf, change, position=np.intp):
    """The valid cuts of a block's sorted ranks (G·k, M), where node g has
    m[g] rows and its padding ranks above them: the rank changes that leave
    min_leaf rows on each side. Only the window [min_leaf - 1, M - min_leaf)
    is compared, into the bool buffer `change` if given; with several
    nodes, cuts past a shorter node's own window are dropped. None when
    there is no valid cut, else (at, last, node, count, bounds): the flat
    positions, of dtype `position`, of each cut's last left row and of its
    segment's last row; each cut's node and its node's row count (None and
    M when G is 1); and where each segment's cuts start, then the end."""
    gk, M = ranks.shape
    lo, hi = min_leaf - 1, M - min_leaf
    width = hi - lo
    out = None if change is None else change[: gk * width].reshape(gk, width)
    seg, cut = np.divmod(np.less(ranks[:, lo:hi], ranks[:, lo + 1:hi + 1], out=out).ravel().nonzero()[0], width)
    cut += lo
    node, count = None, M
    if len(m) > 1:
        node = seg // (gk // len(m))
        keep = cut < (m - min_leaf).take(node)
        seg, cut, node = seg[keep], cut[keep], node[keep]
        count = m.take(node)
    if not len(seg):
        return None
    bounds = [0, *((seg[1:] != seg[:-1]).nonzero()[0] + 1).tolist(), len(seg)]
    at = np.multiply(seg, M, dtype=position)
    last = at + (count - 1)
    at += cut
    return at, last, node, count, bounds


def _cut_weights(at, last, m, cw, w_total):
    """(left, right) weights of the cuts at flat positions `at` of rows of
    length m whose columns end at `last`: from the prefix sums of weights
    `cw`, or, when cw is None (unit weights), the left row count. m and the
    weight total w_total are numbers, or arrays of one per cut."""
    # take, not indexing: indexing by the root plan's int32 positions goes
    # through numpy's casting path (4,096 cuts: 14.8 against 6.0 us).
    wl = (at - last) + (m + 0.0) if cw is None else cw.take(at)
    return wl, w_total - wl


def _scores(cuts, cwt, cw, w_total, criterion, planned=None):
    """One score per cut of `cuts` (see _cut_positions) of nodes of weight
    totals w_total (one per node). cwt and cw are the prefix sums along the
    block's segments of weighted targets (for mse, paired with their squares
    by _pair) and of weights (None when all are 1); `planned`, if given,
    holds every cut's left and right weights instead. Gini uses weighted
    class sums and mse weighted squared error. Cuts are scored
    _CUTS_PER_CHUNK at a time."""
    at, last, node, count, _ends = cuts
    score = np.empty(len(at))
    for a in range(0, len(at), _CUTS_PER_CHUNK):
        c = slice(a, a + _CUTS_PER_CHUNK)
        at_c, last_c = at[c], last[c]
        counts, totals = (count, w_total[0]) if node is None else (count[c], w_total.take(node[c]))
        wl, wr = _cut_weights(at_c, last_c, counts, cw, totals) if planned is None else \
            (planned[0][c], planned[1][c])
        sl = cwt.take(at_c)
        sr = cwt.take(last_c) - sl
        if criterion == "gini":
            pl, pr = sl / wl, sr / wr
            np.divide(wl * 2 * pl * (1 - pl) + wr * 2 * pr * (1 - pr), totals, out=score[c])
        else:  # the sums of squares decomposition
            sl, sl2, sr, sr2 = sl.real, sl.imag, sr.real, sr.imag
            np.divide((sl2 - sl * sl / wl) + (sr2 - sr * sr / wr), totals, out=score[c])
    return score


def _candidates(score, cuts, nodes):
    """Per node of the block, in column order, its segments whose minimum
    score is below every earlier one of the node, as (minimum, segment):
    the only ones _pick can choose."""
    node, ends = cuts[2], cuts[4]
    owners = [0] * (len(ends) - 1) if node is None else node.take(ends[:-1]).tolist()
    low, candidates = [math.inf] * nodes, [[] for _g in range(nodes)]
    for s, (v, g) in enumerate(zip(np.minimum.reduceat(score, ends[:-1]).tolist(), owners)):
        if v < low[g]:
            low[g] = v
            candidates[g].append((v, s))
    return candidates


def _first_minimum(score, cuts, s):
    """The flat position (see _cut_positions) of segment s's first minimum,
    its lowest threshold among equal scores."""
    at, ends = cuts[0], cuts[4]
    return int(at[ends[s] + np.argmin(score[ends[s]:ends[s + 1]])])


def _pick(candidates):
    """The split rule over (minimum, ...) in column order: the first whose
    minimum beats the best so far by more than 1e-15, so ties keep the
    lowest feature index; None when there are none.

    A column whose minimum u is not below an earlier column's v is never
    picked: the best b before it has fl(b - 1e-15) <= v <= u, since v was
    either picked (b <= v) or passed over (v >= fl(b' - 1e-15) for the
    best b' >= b then). Such columns never change the best, so each side
    of a split column set may keep only its candidates (see _candidates),
    and the rule picks the same from the merged lists in column order as
    from all columns."""
    best = None
    for candidate in candidates:
        if best is None or candidate[0] < best[0] - 1e-15:
            best = candidate
    return best


def _midpoint(lo, hi):
    """Thresholds between values lo < hi, floats or arrays: their midpoint,
    from halves so as not to overflow, or lo, as sklearn does, where that
    rounds up to hi (adjacent floats), which would send every row left."""
    thr = lo / 2.0 + hi / 2.0
    if isinstance(thr, float):  # np.where on two floats takes ~4 us
        return thr if thr < hi else lo
    return np.where(thr < hi, thr, lo)


def _pair(re, im):
    """re and im as the parts of one complex array, whose prefix sum adds
    each part on its own: both sums in one pass, with the same bits."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _prefix_sums(per_row, rows, buf):
    k, m = rows.shape
    out = np.take(per_row, rows, out=buf[: k * m].reshape(k, m), mode="clip")
    return np.add.accumulate(out, axis=1, out=out).ravel()


class _Nodes:
    """Growing trees: a list per field (_TREE_FIELDS) and of each node's tree, children as list
    indices (-1 until set). Each tree's nodes come in preorder; several trees' may interleave."""

    def __init__(self):
        self.tree, self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], [], []

    def add(self, tree: int, value: float, parent: int, is_left: bool) -> int:
        """A leaf in tree `tree`, the child of `parent` unless -1; its index."""
        node = len(self.tree)
        self.tree.append(tree)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        if parent >= 0:
            (self.left if is_left else self.right)[parent] = node
        return node

    def packed(self) -> tuple:
        """Forest's arguments, as arrays: trees in the order of their numbers."""
        order = np.argsort(self.tree, kind="stable")
        sizes = np.bincount(self.tree)
        number = np.empty_like(order)  # each node's number in its tree
        number[order] = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        fields = [np.array(getattr(self, name), dtype)[order] for name, dtype in zip(_TREE_FIELDS, _FIELD_TYPES)]
        fields[2:4] = number[fields[2]], number[fields[3]]  # a leaf's -1 turns into a number Forest never reads
        return sizes, *fields


# --- one tree at a time: presorted keys and partitions ------------------------

class _Scratch:
    """One fit's presort engine, as _ForestGrower is a forest's: X, sample
    weights, criterion (mse, else gini), max_depth, min_leaf and buffers
    filled with out= at every node, on which grow adds one tree at a time.

    Every non-constant column's rows are kept in value order, ties in row
    order, as packed keys rank << bits | row (_dense_ranks, then one integer
    sort, reused by every tree grown), and children's lists are
    partitioned into two more key buffers. A node's lists are a contiguous
    (columns, rows) block of one of them, located by `where` = (buffer,
    offset, columns). A node is searched and partitioned a block of
    columns at a time (see blocks), each block's rows one `&` of its keys and
    its ranks one `>>`, into per-block buffers (see _cut_positions) sized
    once for the largest block, as the forest grower bounds a group by
    _GROUP_CELLS; allocating them at every node would cost a page fault per
    page. The ranks share their memory with `cwt` and are read only until
    its prefix sums are taken. For mse, `cwt` is complex (see _pair). Every
    tree grown on the scratch searches the same root, so each root block's
    cuts and weights are made once (`root_plan`).

    With a `peer` (a worker.Worker), this process and the worker each own
    every other non-constant column, by their `side`, and every search
    merges both sides' candidates (see _pick) through the peer's exchange,
    so that both grow the same tree in lockstep.
    """

    def __init__(self, X, weights, mse: bool, max_depth, min_leaf, peer=None):
        self.X = X = np.ascontiguousarray(X)
        self.n = n = len(X)
        self.weights, self.criterion = weights, "mse" if mse else "gini"
        self.max_depth, self.min_leaf, self.peer = max_depth, min_leaf, peer
        # Unit weights need no prefix sum of weights (see _cut_weights).
        self.unit_weights = bool(np.all(weights == 1.0))
        self.root = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
        if peer is not None:
            self.root = self.root[peer.side::2]
        ranks, sentinel = _dense_ranks(X, self.root)
        keys, self.bits = _packed_keys(ranks[:, :n], np.arange(n, dtype=np.int32), n, sentinel)
        keys.sort(axis=1)
        size = keys.size
        self.lists = (keys.ravel(), np.empty(size, dtype=keys.dtype), np.empty(size, dtype=keys.dtype))
        # A block holds at most _GROUP_CELLS cells, or one column of the root.
        block = min(size, max(_GROUP_CELLS, n))
        self.rows = np.empty(block, dtype=np.intp)
        self.cw = None if self.unit_weights else np.empty(block)
        self.cwt = np.empty(block, dtype=complex if mse else float)
        self.change = np.empty(block, dtype=bool)
        self.side = np.empty(n, dtype=bool)
        self.goes_left = np.empty(block, dtype=bool)
        self.root_plan = None  # per root block: its cuts, their weights

    def grow(self, targets, leaf_value_fn, nodes: _Nodes, leaf_values=None) -> _Nodes:
        """Grow one CART tree depth-first on every column, one node at a
        time, into `nodes` as its next tree; returns the nodes. Every node
        is searched from the presorted rank keys (search), which children
        receive by index-gather partitions; every tree of the scratch
        searches its root from one plan. `leaf_values`, if given, receives
        each row's leaf value. Forests grow their trees side by side with
        _ForestGrower instead."""
        wt = self.weights * targets
        if self.criterion == "mse":
            wt = _pair(wt, wt * targets)

        def searched(idx, depth):
            # Otherwise the node is a leaf, as it is when no valid cut exists.
            if depth >= self.max_depth or len(idx) < 2 * self.min_leaf:
                return False
            t = targets[idx]
            return not np.all(t == t[0])

        tree = nodes.tree[-1] + 1 if nodes.tree else 0
        # (rows in ascending order, depth, parent, is_left, whether it is
        # searched, where the sorted lists are)
        root = np.arange(self.n)
        stack = [(root, 0, -1, True, searched(root, 0), (0, 0, self.root))]
        while stack:
            idx, depth, parent, is_left, search, where = stack.pop()
            value = float(leaf_value_fn(idx))
            node = nodes.add(tree, value, parent, is_left)
            split = None
            if search:
                split, rows = self.search(where, len(idx), wt, self.weights[idx].sum())
            if split is None:
                if leaf_values is not None:
                    leaf_values[idx] = value
                continue
            _score, f, thr = split
            mask = self.X[idx, f] <= thr
            nodes.feature[node], nodes.threshold[node] = int(f), thr
            left, right = idx[mask], idx[~mask]
            where_l = where_r = None
            needed = [searched(left, depth + 1), searched(right, depth + 1)]
            if any(needed):
                where_l, where_r = self.partition(where, idx, mask, len(left), needed, rows)
            stack.append((right, depth + 1, node, False, needed[1], where_r))
            stack.append((left, depth + 1, node, True, needed[0], where_l))
        return nodes

    def blocks(self, where, m):
        """(first column, keys as (columns, m)) for each block of the node
        of m rows at `where`, in column order: as many columns as the block
        buffers hold, at least one."""
        level, off, cols = where
        step = max(1, len(self.rows) // m)
        for c in range(0, len(cols), step):
            yield c, self.lists[level][off + c * m: off + min(c + step, len(cols)) * m].reshape(-1, m)

    def block_rows(self, keys):
        """A block's rows, as intp in `rows`."""
        return np.bitwise_and(keys, (1 << self.bits) - 1, out=self.rows[: keys.size].reshape(keys.shape))

    def block_ranks(self, keys):
        """A block's ranks, in `cwt`'s memory."""
        return np.right_shift(keys, self.bits, out=self.cwt.view(keys.dtype)[: keys.size].reshape(keys.shape))

    def root_cuts(self, w_total):
        """Per block of the root (see blocks), its cuts (see _cut_positions)
        and their left and right weights, both None when it has no valid
        cut: made by the first root search and kept, since later trees
        differ only in the prefix sums of weighted targets. The positions
        are int32 when they fit, so the plan costs 24 bytes per cut."""
        if self.root_plan is None:
            plans = []
            for _c, keys in self.blocks((0, 0, self.root), self.n):
                position = np.int32 if keys.size <= np.iinfo(np.int32).max else np.intp
                cuts = _cut_positions(self.block_ranks(keys), [self.n], self.min_leaf, self.change, position)
                cw = None if cuts is None or self.unit_weights else \
                    _prefix_sums(self.weights, self.block_rows(keys), self.cw)
                plans.append((cuts, cuts and _cut_weights(*cuts[:2], self.n, cw, w_total)))
            self.root_plan = plans
        return self.root_plan

    def search(self, where, m, wt, w_total):
        """The best split of the node of m rows whose lists are at `where`,
        as (score, feature, threshold), or None when it has no valid cut;
        and its last block's rows as the search read them (see partition).
        `wt` is weights * targets per row, paired with wt * targets for mse
        (see _pair). The blocks are searched in column order, each keeping
        only its candidates below every earlier block's minimum, so that
        the merged lists are the node's candidates (see _pick); the root's
        cuts and weights come from its plan."""
        plans = None if where[0] else self.root_cuts(w_total)
        found, low, rows = [], math.inf, None  # (score, feature, threshold) in column order; the least score
        for b, (first, keys) in enumerate(self.blocks(where, m)):
            rows = self.block_rows(keys)
            if plans is None:
                cuts, planned = _cut_positions(self.block_ranks(keys), [m], self.min_leaf, self.change), None
                cw = None if cuts is None or self.unit_weights else _prefix_sums(self.weights, rows, self.cw)
            else:
                (cuts, planned), cw = plans[b], None
            if cuts is None:
                continue
            cwt = _prefix_sums(wt, rows, self.cwt.view(wt.dtype))
            score = _scores(cuts, cwt, cw, [w_total], self.criterion, planned)
            (segments,) = _candidates(score, cuts, 1)
            segments, low = [s for s in segments if s[0] < low], min(low, segments[-1][0])
            if self.peer is None and segments:  # alone, only the pick so far needs a threshold
                best = _pick(found + segments)
                found, segments = (found, []) if found and best is found[0] else ([], [best])
            for v, s in segments:
                c, cut = divmod(_first_minimum(score, cuts, s), m)
                f = int(where[2][first + c])
                found.append((v, f, _midpoint(self.X.item(rows[c, cut], f), self.X.item(rows[c, cut + 1], f))))
        if self.peer is not None:
            theirs = self.peer.exchange([x for candidate in found for x in candidate])
            found = sorted(found + list(zip(theirs[::3], map(int, theirs[1::3]), theirs[2::3])),
                           key=lambda candidate: candidate[1])
        return _pick(found), rows

    def partition(self, where, idx, mask, m_left, needed, rows=None):
        """Stable partition of the node's sorted lists by `mask` (per row of
        `idx`, m_left of them true) into the children that `needed` says are
        searched, a block of columns at a time, the last block first: its
        rows are `rows` if its search gives them (see search). Each child's
        keys are one take per block of the positions that go its way, which
        keeps every column's order. Children go to the other buffer within
        the parent's range, which no pending node shares. Returns where the
        children's lists are.
        """
        level, off, cols = where
        m, m_right = len(idx), len(idx) - m_left
        self.side[idx] = mask
        child, split = 2 if level == 1 else 1, off + len(cols) * m_left
        for c, keys in reversed(list(self.blocks(where, m))):
            src, c_end = keys.ravel(), c + len(keys)
            rows = self.block_rows(keys) if rows is None else rows
            goes_left = np.take(self.side, rows.ravel(), out=self.goes_left[: keys.size], mode="clip")
            rows = None
            # Gathers by nonzero positions: boolean indexing is several
            # times slower on an unpredictable mask.
            if needed[0]:
                np.take(src, goes_left.nonzero()[0],
                        out=self.lists[child][off + c * m_left: off + c_end * m_left], mode="clip")
            if needed[1]:
                np.take(src, np.logical_not(goes_left, out=goes_left).nonzero()[0],
                        out=self.lists[child][split + c * m_right: split + c_end * m_right], mode="clip")
        return (child, off, cols), (child, split, cols)



# --- trees side by side: every random forest ---------------------------------

class _ForestGrower:
    """Grows a random forest's bootstrap trees side by side, bit for bit the
    trees that a per-node search would grow one by one on X[boot], drawing
    `max_features` columns per searched node; at max_features >= the column
    count, every node searches every column and draws nothing.

    A tree keeps its rows as int32 global row ids in bootstrap order, so no
    X[boot] is made, and the rows of its pending nodes on a stack. Each
    step adds the next node, in preorder, of every unfinished tree to one
    _Nodes, so every tree still draws its columns in preorder. The step's
    searched nodes are split in groups of similar row count, each searched
    as one block (see _split_group).
    """

    def __init__(self, X, y, weights, max_features, max_depth, min_leaf):
        self.X = np.ascontiguousarray(X)
        self.n, self.p = self.X.shape
        self.y, self.weights = y, weights
        self.k, self.max_depth, self.min_leaf = min(max_features, self.p), max_depth, min_leaf
        self.columns = np.arange(self.p)
        self.ranks, self.sentinel = _dense_ranks(self.X)
        # Row n pads a node's rows: its weight and weighted target are 0.
        self.wt = np.append(weights * y, 0.0)
        self.w = None if np.all(weights == 1.0) else np.append(weights, 0.0)

    def grow(self, seed, indices) -> tuple:
        """The trees of these indices, packed (see _Nodes.packed): tree t
        draws from default_rng([seed, t])."""
        nodes, live = _Nodes(), []  # (tree number, rng, stack of (rows, depth, parent, is_left))
        for i, t in enumerate(indices):
            rng = np.random.default_rng([seed, t])  # per-tree derived seed
            boot = rng.integers(0, self.n, size=self.n).astype(np.int32)
            live.append((i, rng, [(boot, 0, -1, True)]))
        while live:
            self._step(nodes, live)
            live = [tree for tree in live if tree[2]]
        return nodes.packed()

    def _step(self, nodes, live):
        """Adds the next node of every live tree to `nodes`, and splits those
        that are searched in groups of at most twice the smallest row count
        and _GROUP_CELLS cells."""
        popped = [stack.pop() for _i, _rng, stack in live]
        ends = np.cumsum([len(item[0]) for item in popped])
        # Node statistics are gathered for about _GROUP_CELLS rows at a time.
        bounds = [0, *(np.flatnonzero(np.diff(ends // _GROUP_CELLS)) + 1).tolist(), len(live)]
        searched = []
        for a, b in zip(bounds, bounds[1:]):
            searched += self._add_nodes(nodes, live[a:b], popped[a:b])
        searched.sort(key=lambda item: item[0])
        first = 0
        for i in range(1, len(searched) + 1):
            if i == len(searched) or searched[i][0] > 2 * searched[first][0] \
                    or (i - first + 1) * self.k * searched[i][0] > _GROUP_CELLS:
                self._split_group(nodes, searched[first:i])
                first = i

    def _add_nodes(self, nodes, live, popped):
        """Adds each popped node to `nodes` with its leaf value; returns
        (row count, rows, columns, weight total, node, stack, depth) for
        those to be searched, whose trees draw their columns here."""
        rows = np.concatenate([item[0] for item in popped], dtype=np.intp)
        ends = np.cumsum([len(item[0]) for item in popped]).tolist()
        starts = [0] + ends[:-1]
        w, wt, y = self.weights.take(rows), self.wt.take(rows), self.y.take(rows)
        pure = (np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)).tolist()
        searched = []
        for (tree, rng, stack), (idx, depth, parent, is_left), a, b, is_pure in zip(
                live, popped, starts, ends, pure):
            w_total = w[a:b].sum()
            node = nodes.add(tree, float(wt[a:b].sum() / w_total), parent, is_left)
            # Otherwise a leaf, as in _Scratch.grow.
            if depth < self.max_depth and b - a >= 2 * self.min_leaf and not is_pure:
                feats = self.columns if self.k == self.p else \
                    rng.choice(self.p, size=self.k, replace=False)
                searched.append((b - a, idx, feats, w_total, node, stack, depth))
        return searched

    def _split_group(self, nodes, group):
        """Finds each node's best split with the shared search and pushes
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
        key, s = _packed_keys(self.ranks.take((feats * (n + 1))[:, :, None] + rows[:, None, :]),
                              np.arange(G * M, dtype=np.int32).reshape(G, 1, M), G * M, self.sentinel)
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
        cuts = _cut_positions(key.reshape(G * k, M), m, self.min_leaf, None)
        if cuts is None:
            return
        score = _scores(cuts, cwt, cw, np.array([item[3] for item in group]), "gini")
        picks = [_pick(found) for found in _candidates(score, cuts, G)]
        split = [g for g, found in enumerate(picks) if found is not None]
        at = np.array([_first_minimum(score, cuts, picks[g][1]) for g in split])
        f = feats.take(at // M)
        # The values on either side of each chosen cut.
        lo, hi = self.X[rows.take(pos.take(at[:, None] + (0, 1))), f[:, None]].T
        thr = _midpoint(lo, hi)
        real, rows = real[split], rows[split]
        goes_left = (self.X.take(rows * self.p + f[:, None], mode="clip") <= thr[:, None]) & real
        lefts, rights = rows[goes_left].astype(np.int32), rows[real & ~goes_left].astype(np.int32)
        a = b = 0
        for i, f_, t_, m_left in zip(split, f.tolist(), thr.tolist(), goes_left.sum(axis=1).tolist()):
            m_, _idx, _feats, _w, node, stack, depth = group[i]
            nodes.feature[node], nodes.threshold[node] = f_, t_
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

    def _rows(self, X, error=TrainError, name: str = "") -> np.ndarray:
        """X as a float matrix of finite rows of the model's width: the one
        check of the rows a model scores or explains. Otherwise `error`,
        whose message names the matrix as `name`, if one is given."""
        at = f"{name} " if name else ""
        try:
            X = np.asarray(X, dtype=float)
        except (TypeError, ValueError) as exc:
            raise error(f"{at}feature vectors must be numbers of one length: {exc}") from exc
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise error(f"expected {at}feature vectors of length {self.feature_count}, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise error(f"{at}row {int(np.nonzero(~np.isfinite(X))[0][0])} has non-finite feature values")
        return X

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch([x])[0])

    def predict_proba_batch(self, X) -> np.ndarray:
        """The probability of label 1 for every row of X."""
        X = self._rows(X)
        with checked_arithmetic(TrainError, f"{self.kind} probabilities of these rows"):
            return self._proba(X)

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
        fileio.write(path, self.to_dict())


class _MarginModel:
    """A model whose probability is the sigmoid of a margin (log-odds), which
    the model's _margin gives for rows already checked."""

    def margin_batch(self, X) -> np.ndarray:
        return self._margin(self._rows(X))

    def _proba(self, X) -> np.ndarray:
        return _sigmoid(self._margin(X))


def _standardizer(X, enabled):
    if not enabled:
        return np.zeros(X.shape[1]), np.ones(X.shape[1])
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    return mean, std


def _cross_entropy(p, y, sample_weight):
    """(the weighted mean cross-entropy of probabilities p for labels y, the
    weights, their total); no sample_weight weighs every row 1."""
    sw = np.ones_like(y) if sample_weight is None else sample_weight
    total = sw.sum()
    eps = 1e-12
    return -(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))).sum() / total, sw, total


def logistic_loss_and_grad(wb: np.ndarray, X: np.ndarray, y: np.ndarray,
                           l2: float, sample_weight=None):
    """Mean cross-entropy with L2 on weights (not bias); wb = [w..., b]."""
    w, b = wb[:-1], wb[-1]
    p = _sigmoid(np.dot(X, w) + b)
    cross_entropy, sw, total = _cross_entropy(p, y, sample_weight)
    loss = float(cross_entropy + 0.5 * l2 * float(np.dot(w, w)))
    err = sw * (p - y) / total
    grad = np.concatenate([np.dot(X.T, err) + l2 * w, [err.sum()]])
    return loss, grad


class LogisticRegressionModel(_MarginModel, TrainedModel):
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
        for epoch in range(config["max_epochs"] + 1):  # the last loss is the returned weights'
            loss, grad = logistic_loss_and_grad(wb, Xs, y, config["l2"], sw)
            if not math.isfinite(loss):
                raise TrainError("non-finite logistic loss; lower the learning rate")
            if epoch == config["max_epochs"] or float(np.linalg.norm(grad)) <= config["tol"]:
                break
            wb -= lr * grad
        model = cls(X.shape[1], config, seed, wb[:-1], wb[-1], mean, std)
        model.training_report = {"epochs_run": epoch, "final_loss": loss}
        return model

    def _margin(self, X) -> np.ndarray:
        return ((X - self.mean) / self.std) @ self.weights + self.bias

    def _params_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias,
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        vector = (feature_count,)
        return cls(feature_count, config, seed, _array(params["weights"], vector, "weights"),
                   _array(params["bias"], (), "bias"), _array(params["mean"], vector, "mean"),
                   _array(params["std"], vector, "std", *_POSITIVE))


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
        return cls(feature_count, config, seed, _array(params["priors"], (2,), "priors", *_UNIT),
                   _array(params["means"], (2, feature_count), "means"),
                   _array(params["variances"], (2, feature_count), "variances", *_POSITIVE))


class TreeModel(TrainedModel):
    """A tree learner's model: one Forest. Its explained output, in `space`,
    is `intercept` plus `scale` times each tree's leaf value, summed over
    the trees; predictions take the same leaf values in tree order."""

    space = "probability"
    intercept = 0.0

    def __init__(self, feature_count, config, seed, forest: Forest):
        super().__init__(feature_count, config, seed)
        self.forest = forest
        self.training_report = {"trees": len(self.forest), "nodes": len(self.forest.feature),
                                "max_depth_reached": len(self.forest.levels)}

    @property
    def trees(self) -> tuple[Tree, ...]:  # the one per-tree export
        return self.forest.records()

    @property
    def scale(self) -> float:
        return 1.0 / len(self.forest)

    def _proba(self, X) -> np.ndarray:
        # The mean leaf value: one tree's for DT, the trees' for RF.
        return self.forest.sums(X) / len(self.forest)

    def _params_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}


class DecisionTreeModel(TreeModel):
    kind = "DecisionTree"

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])

        def leaf_value(idx):  # the weighted frequency of label 1
            w = sw[idx]
            return float((w * y[idx]).sum() / w.sum())
        nodes = _Scratch(X, sw, False, config["max_depth"], config["min_leaf"]).grow(y, leaf_value, _Nodes())
        return cls(X.shape[1], config, seed, Forest(*nodes.packed()))

    def _params_dict(self) -> dict:
        return {"tree": self.trees[0].to_dict()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, Forest.load([params["tree"]], feature_count, probabilities=True))


class RandomForestModel(TreeModel):
    """Bagged Gini trees with per-split feature subsampling; the forest
    probability is the mean of per-tree leaf frequencies."""

    kind = "RandomForest"

    @classmethod
    def fit(cls, X, y, config, seed):
        """Tree t is grown on the bootstrap sample that default_rng([seed,
        t]) draws first, and draws its columns from the same generator, per
        searched node in preorder, unless it searches every column: with
        `max_features` None or at least the column count. All trees are
        grown side by side by _ForestGrower, with no copy of X per tree, and
        are bit for bit the trees of a per-node search on X[boot]. From
        worker.FOREST_ROW_TREES rows x trees up, worker.halves grows half of
        the trees in a worker and half here, each on its own CPU; the
        packed arrays (_Nodes.packed) of its parts are joined in tree
        order."""
        sw = _sample_weights(y, config["class_weight"])
        p = X.shape[1]
        k = config["max_features"]
        k = p if k is None else max(1, int(math.sqrt(p))) if k == "sqrt" else int(k)
        grower = _ForestGrower(X, y, sw, k, config["max_depth"], config["min_leaf"])
        n = config["n_trees"]
        parts = worker.halves(lambda trees: grower.grow(seed, trees), n, len(X) * n, worker.FOREST_ROW_TREES)
        return cls(p, config, seed, Forest(*map(np.concatenate, zip(*parts))))

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        forest = Forest.load(params["trees"], feature_count, probabilities=True)
        if not len(forest):
            raise ValueError("a forest needs at least one tree")
        return cls(feature_count, config, seed, _counted(forest, config, "n_trees"))


class GradientBoostedTreesModel(_MarginModel, TreeModel):
    """Boosted shallow regression trees on the logistic loss with shrinkage.

    Predictions live in margin (log-odds) space; leaf values are damped
    Newton steps with an L2 term in the denominator.
    """

    kind = "GradientBoostedTrees"
    space = "margin"

    def __init__(self, feature_count, config, seed, base_margin, forest: Forest):
        super().__init__(feature_count, config, seed, forest)
        self.base_margin = float(base_margin)

    @classmethod
    def fit(cls, X, y, config, seed):
        """From worker.BOOST_CELLS cells up, a worker runs the same rounds in
        lockstep (worker.lockstep), each side searching every other column
        of each node (see _Scratch) pinned to its own half of the CPUs, as
        each side polls for the other's candidates; if it dies, the fit
        starts again alone. The trees are the same either way."""
        return worker.lockstep(lambda peer: cls._boost(X, y, config, seed, peer), X.size, worker.BOOST_CELLS)

    @classmethod
    def _boost(cls, X, y, config, seed, peer=None):
        sw = _sample_weights(y, config["class_weight"])
        total = sw.sum()
        p_bar = float(np.clip((sw * y).sum() / total, 1e-6, 1 - 1e-6))
        base = math.log(p_bar / (1 - p_bar))
        margin = np.full(len(y), base)
        lr = config["learning_rate"]
        l2 = config["l2"]
        nodes = _Nodes()
        losses: list[float] = []
        # One presort serves every round; each row's leaf value updates its
        # margin, which is what the tree's walk would return for it.
        scratch = _Scratch(X, sw, True, config["max_depth"], config["min_leaf"], peer)
        leaf_values = np.empty(len(y))
        p = _sigmoid(margin)  # a round's probabilities; each round ends by taking the next one's
        for _round in range(config["rounds"]):
            residual = y - p
            # A node's sums of these products are its gradient and hessian.
            g, h = sw * residual, sw * (p * (1 - p))

            def leaf_value(idx, g=g, h=h):
                hessian = float(h.take(idx).sum()) + l2
                if hessian == 0.0:  # every probability in the leaf rounded to 0 or 1
                    raise TrainError(f"boosting saturated: a leaf has a zero hessian with l2 {l2!r} and "
                                     f"learning_rate {lr!r}; raise l2 above 0 or lower the learning rate")
                return float(g.take(idx).sum()) / hessian

            scratch.grow(residual, leaf_value, nodes, leaf_values)
            margin = margin + lr * leaf_values
            p = _sigmoid(margin)
            clipped = np.clip(p, 1e-12, 1 - 1e-12)
            loss = float(-(sw * (y * np.log(clipped) + (1 - y) * np.log(1 - clipped))).sum() / total)
            if not math.isfinite(loss):
                raise TrainError("non-finite boosting loss; lower the learning rate")
            losses.append(loss)
        model = cls(X.shape[1], config, seed, base, Forest(*nodes.packed()))
        model.training_report = {"round_losses": losses, **model.training_report}
        return model

    @property
    def scale(self) -> float:
        return self.config["learning_rate"]

    @property
    def intercept(self) -> float:
        return self.base_margin

    def _margin(self, X) -> np.ndarray:
        return self.forest.sums(X, self.scale, self.base_margin)

    def _params_dict(self) -> dict:
        return {"base_margin": self.base_margin, **super()._params_dict()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        base = float(_array(params["base_margin"], (), "base_margin"))
        forest = _counted(Forest.load(params["trees"], feature_count), config, "rounds")
        # A bound on every margin, in Python floats, which overflow to inf without a warning.
        reach = abs(base) + config["learning_rate"] * len(forest) * float(np.abs(forest.value).max())
        if not math.isfinite(reach):
            raise ValueError("|base_margin| + learning_rate x trees x the largest |leaf value| overflows")
        return cls(feature_count, config, seed, base, forest)


# --- feed-forward network ---------------------------------------------------

def glorot_params(layers, seed) -> list[np.ndarray]:
    """Glorot-uniform weight matrices and zero biases for (fan_in, fan_out)
    layers, flattened as [W0, b0, W1, b1, ...]; one generator draws the
    matrices in layer order."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, fan_out in layers:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params += [rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)]
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


def net_backward(params, acts, y, l2, sample_weight):
    """Backprop from net_forward's activations: (mean cross-entropy without
    any L2 term, gradients per parameter array, the first layer's dL/dz).
    The gradients carry their l2 * W terms; each caller adds its L2 loss."""
    p = acts[-1][:, 0]
    cross_entropy, sw, total = _cross_entropy(p, y, sample_weight)
    loss = float(cross_entropy)
    grads = [None] * len(params)
    # dL/dz for the sigmoid output under cross-entropy collapses to (p - y).
    delta = ((p - y) * sw / total)[:, None]
    for i in range(len(params) // 2 - 1, -1, -1):
        W = params[2 * i]
        grads[2 * i] = acts[i].T @ delta + l2 * W
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W.T) * (acts[i] > 0.0)
    return loss, grads, delta


def net_loss_and_grad(params, X, y, l2=0.0, sample_weight=None):
    """Mean cross-entropy loss and backprop gradients per parameter array."""
    loss, grads, _delta = net_backward(params, net_forward(params, X)[1], y, l2, sample_weight)
    for W in params[-2::-2]:
        loss += 0.5 * l2 * float((W * W).sum())
    return loss, grads


def adam_epochs(params, loss_and_grad, config, what: str) -> dict:
    """Full-batch Adam on `params`, in place, for config["epochs"] (>= 1)
    epochs at config["learning_rate"]; loss_and_grad(params) gives (loss,
    grads). Returns the training report, whose final_loss is the loss of
    the returned parameters; TrainError if a loss is not finite."""
    lr, beta1, beta2, eps = config["learning_rate"], 0.9, 0.999, 1e-8
    m = [np.zeros_like(q) for q in params]
    v = [np.zeros_like(q) for q in params]
    for t in range(1, config["epochs"] + 2):  # the last loss is the returned parameters'
        loss, grads = loss_and_grad(params)
        if not math.isfinite(loss):
            raise TrainError(f"non-finite {what} loss; lower the learning rate")
        if t > config["epochs"]:
            break
        for i, (q, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            q -= lr * (m[i] / (1 - beta1**t)) / (np.sqrt(v[i] / (1 - beta2**t)) + eps)
    return {"final_loss": loss}


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
        sizes = [X.shape[1], *config["hidden"], 1]
        params = glorot_params(zip(sizes, sizes[1:]), seed)
        report = adam_epochs(params, lambda q: net_loss_and_grad(q, Xs, y, config["l2"], sw),
                             config, "network")
        model = cls(X.shape[1], config, seed, params, mean, std)
        model.training_report = report
        return model

    def _proba(self, X) -> np.ndarray:
        p, _ = net_forward(self.params, (X - self.mean) / self.std)
        return p

    def _params_dict(self) -> dict:
        return {"layers": [q.tolist() for q in self.params],
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        layers = [fileio.numbers(q, f"layer {i}") for i, q in enumerate(params["layers"])]
        # Weight matrix i maps sizes[i] inputs to the sizes[i + 1] of bias i.
        sizes = [feature_count] + [b.shape[0] if b.ndim == 1 else -1 for b in layers[1::2]]
        if not layers or len(layers) % 2 or sizes[-1] != 1 \
                or any(W.shape != (a, b) for W, a, b in zip(layers[::2], sizes, sizes[1:])):
            raise ValueError("layers must be weight matrices and bias vectors that "
                             "chain from the features to one output")
        vector = (feature_count,)
        return cls(feature_count, config, seed, layers, _array(params["mean"], vector, "mean"),
                   _array(params["std"], vector, "std", *_POSITIVE))


# --- two-tower fusion network -----------------------------------------------

def fusion_forward(params, Xl, Xe):
    """Forward pass; returns (probabilities, (the towers' outputs, the
    head's activations)). params are [Wl, bl, We, be] then the head's."""
    hl = np.maximum(Xl @ params[0] + params[1], 0.0)
    he = np.maximum(Xe @ params[2] + params[3], 0.0)
    p, acts = net_forward(params[4:], np.concatenate([hl, he], axis=1))
    return p, (hl, he, acts)


def fusion_loss_and_grad(params, Xl, Xe, y, l2=0.0, sample_weight=None):
    """Mean cross-entropy and gradients for the two-tower network: the
    head's backward pass, then its first layer's delta back through Wj and
    split over the towers."""
    Wl, We, Wj = params[0], params[2], params[4]
    _p, (hl, he, acts) = fusion_forward(params, Xl, Xe)
    loss, head_grads, d_hj = net_backward(params[4:], acts, y, l2, sample_weight)
    for W in params[::2]:  # Wl, We, Wj, wo
        loss += 0.5 * l2 * float((W * W).sum())
    d_joint = d_hj @ Wj.T
    d_hl = d_joint[:, : hl.shape[1]] * (hl > 0.0)
    d_he = d_joint[:, hl.shape[1]:] * (he > 0.0)
    return loss, [Xl.T @ d_hl + l2 * Wl, d_hl.sum(axis=0),
                  Xe.T @ d_he + l2 * We, d_he.sum(axis=0), *head_grads]


class DeepFusionModel(TrainedModel):
    """Two-tower network over rows of the learned then the engineered
    features: the first learned_count columns feed the learned tower. Each
    tower is one ReLU layer, and a feed-forward head (net_forward) with one
    joint hidden layer models cross-set interactions over both towers'
    outputs. One standardizer covers every column. Not saved: no model file."""

    kind = "DeepFusion"

    def __init__(self, learned_count, config, seed, params, mean, std):
        super().__init__(len(mean), config, seed)
        self.learned_count = learned_count
        self.params, self.mean, self.std = params, mean, std

    def _towers(self, X):
        """X standardized, as contiguous learned and engineered columns (a
        matmul over a strided one-column view can round differently)."""
        Xs = (X - self.mean) / self.std
        return (np.ascontiguousarray(Xs[:, :self.learned_count]),
                np.ascontiguousarray(Xs[:, self.learned_count:]))

    def _proba(self, X) -> np.ndarray:
        return fusion_forward(self.params, *self._towers(X))[0]


def deep_fusion_train(data: Dataset, config: dict | None = None, seed: int = 0) -> DeepFusionModel:
    """Jointly train the fusion net on a Dataset of JointRows, whose learned
    block comes first; its rows pass Dataset.labeled, as every fit's do."""
    X, y = data.labeled()
    resolved = resolved_config("DeepFusion", config)
    learned = data.blocks["learned"].stop
    hl, he, hj = resolved["learned_width"], resolved["engineered_width"], resolved["joint_width"]
    layers = [(learned, hl), (X.shape[1] - learned, he), (hl + he, hj), (hj, 1)]
    model = DeepFusionModel(learned, resolved, seed, glorot_params(layers, seed),
                            *_standardizer(X, resolved["standardize"]))
    Xls, Xes = model._towers(X)
    model.training_report = adam_epochs(
        model.params, lambda q: fusion_loss_and_grad(q, Xls, Xes, y, resolved["l2"]), resolved, "fusion")
    return model


# (test, what passes) for _array: divisors, and probabilities.
_POSITIVE = (lambda a: a > 0, "finite numbers > 0")
_UNIT = (lambda a: (a >= 0) & (a <= 1), "numbers in [0, 1]")


def _array(values, shape, what, valid=None, rule="") -> np.ndarray:
    """A saved array of `shape` (fileio.numbers) whose entries pass `valid`,
    if given, or ValueError."""
    a = fileio.numbers(values, what, shape)
    if valid is not None and not valid(a).all():
        raise ValueError(f"{what} must be {rule} of shape {shape}")
    return a


def _counted(forest: Forest, config: dict, what: str) -> Forest:
    """`forest`, if it has as many trees as config[what] says a fit grows."""
    if len(forest) != config[what]:
        raise ValueError(f"{what} is {config[what]}, but {len(forest)} trees are saved")
    return forest


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (LogisticRegressionModel, NaiveBayesModel, DecisionTreeModel,
                RandomForestModel, GradientBoostedTreesModel, FeedForwardNetModel)
}


def train(kind: str, rows, config: dict | None = None, seed: int = 0) -> TrainedModel:
    """Fit one of the six learners on FeatureRows or on every column of a
    Dataset.

    `config` overrides the committed defaults for that kind; the resolved
    values are stored on the model and echoed into reports. The seed must
    follow numpy's rule, for every kind: an integer >= 0.
    """
    valid, rule = HYPERPARAMETER_CHECKS["seed"]
    if not valid(seed):
        raise TrainError(f"seed must be {rule}, got {seed!r}")
    kind = canonical_kind(kind)
    X, y = (rows if isinstance(rows, Dataset) else Dataset.of(rows)).labeled()
    return _MODEL_CLASSES[kind].fit(X, y, resolved_config(kind, config), seed)


def load(path) -> TrainedModel:
    doc = fileio.read_object(path, TrainError, "model file")
    kind = fileio.model_kind(doc, path, TrainError, _MODEL_CLASSES, MODEL_FORMAT_VERSION)
    try:
        feature_count, seed = doc["feature_count"], doc["seed"]
        config, params = doc["config"], doc["params"]
        if not (fileio.is_number(feature_count, integer=True) and feature_count >= 1):
            raise ValueError(f"feature_count must be a positive integer, not {feature_count!r}")
        if not fileio.is_number(seed, integer=True):
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
    except (TypeError, ValueError, TrainError) as exc:
        raise TrainError(f"{path}: not a valid {kind} model: {exc}") from exc
