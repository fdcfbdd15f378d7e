"""Six from-scratch binary classifiers behind one train/predict interface.

All learners output the probability of label 1 (correct). Training is fully
deterministic under a fixed seed, and every model serializes to versioned
JSON that round-trips to an identical predictor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .defaults import resolved_config
from .errors import TrainError

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


def rows_to_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    if not rows:
        raise TrainError("no feature rows")
    width = len(rows[0].features)
    for row in rows:
        if len(row.features) != width:
            raise TrainError(f"patch {row.patch_id!r}: feature length {len(row.features)} != {width}")
        if row.label is None:
            raise TrainError(f"patch {row.patch_id!r} is unlabeled")
    X = np.array([row.features for row in rows], dtype=float)
    y = np.array([row.label for row in rows], dtype=float)
    if not np.all(np.isfinite(X)):
        bad = rows[int(np.where(~np.isfinite(X))[0][0])].patch_id
        raise TrainError(f"non-finite feature values (first at patch {bad!r})")
    return X, y


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

@dataclass
class Tree:
    """Flat array representation; feature == -1 marks a leaf."""
    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def predict_one(self, x) -> float:
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
        return self.value[node]

    def predict(self, X) -> np.ndarray:
        return np.array([self.predict_one(row) for row in X])

    def to_dict(self) -> dict:
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left, "right": self.right, "value": self.value}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(feature=[int(v) for v in d["feature"]],
                   threshold=[float(v) for v in d["threshold"]],
                   left=[int(v) for v in d["left"]],
                   right=[int(v) for v in d["right"]],
                   value=[float(v) for v in d["value"]])


def _best_split(X, targets, weights, idx, features, criterion, min_leaf):
    """Scan candidate thresholds on each feature; return (score, feat, thr).

    Gini uses weighted class sums; mse uses weighted squared error. Ties keep
    the first (lowest feature index, then lowest threshold).
    """
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
        # Candidate split after position i requires a value change there.
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
        else:  # weighted mse via sum of squares decomposition
            cwt2 = np.cumsum(sw * st * st)
            sse_l = cwt2[valid] - sl * sl / wl
            sse_r = (cwt2[-1] - cwt2[valid]) - sr * sr / wr
            score = (sse_l + sse_r) / w_total
        j = int(np.argmin(score))
        lo, hi = sv[valid[j]], sv[valid[j] + 1]
        # The midpoint of adjacent floats can round up to hi, which would send
        # every row left; fall back to lo then, as sklearn does. Summing halves
        # gives the same midpoint as halving the sum (barring subnormals)
        # without overflowing.
        thr = lo / 2.0 + hi / 2.0
        cand = (float(score[j]), f, float(thr if thr < hi else lo))
        if best is None or cand[0] < best[0] - 1e-15:
            best = cand
    return best


def grow_tree(X, targets, weights, leaf_value_fn, max_depth, min_leaf,
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
        split = _best_split(X, targets, weights, idx, feats, criterion, min_leaf)
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

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.feature_count,):
            raise TrainError(f"expected feature vector of length {self.feature_count}, got {x.shape}")
        return x

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(np.asarray(self._check(x))[None, :])[0])

    def predict_proba_batch(self, X) -> np.ndarray:
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
        Xs = (np.asarray(X, dtype=float) - self.mean) / self.std
        return Xs @ self.weights + self.bias

    def predict_proba_batch(self, X) -> np.ndarray:
        return _sigmoid(self.margin_batch(X))

    def _params_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias,
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, params["weights"], params["bias"],
                   params["mean"], params["std"])


class NaiveBayesModel(TrainedModel):
    """Gaussian per-feature likelihoods with a variance floor."""

    kind = "NaiveBayes"

    def __init__(self, feature_count, config, seed, priors=None, means=None, variances=None):
        super().__init__(feature_count, config, seed)
        self.priors = np.array([0.5, 0.5]) if priors is None else np.asarray(priors, dtype=float)
        self.means = means if means is not None else np.zeros((2, feature_count))
        self.variances = variances if variances is not None else np.ones((2, feature_count))

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
        model = cls(X.shape[1], config, seed, priors, means, variances)
        return model

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
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
        return cls(feature_count, config, seed, params["priors"],
                   np.array(params["means"]), np.array(params["variances"]))


class DecisionTreeModel(TrainedModel):
    kind = "DecisionTree"

    def __init__(self, feature_count, config, seed, tree: Tree | None = None):
        super().__init__(feature_count, config, seed)
        self.tree = tree

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])

        def leaf_value(idx):
            w = sw[idx]
            return float((w * y[idx]).sum() / w.sum())

        tree = grow_tree(X, y, sw, leaf_value, config["max_depth"], config["min_leaf"],
                         criterion="gini")
        return cls(X.shape[1], config, seed, tree)

    def predict_proba_batch(self, X) -> np.ndarray:
        return self.tree.predict(np.asarray(X, dtype=float))

    def _params_dict(self) -> dict:
        return {"tree": self.tree.to_dict()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, Tree.from_dict(params["tree"]))


class RandomForestModel(TrainedModel):
    """Bagged Gini trees with per-split feature subsampling; the forest
    probability is the mean of per-tree leaf frequencies."""

    kind = "RandomForest"

    def __init__(self, feature_count, config, seed, trees: list[Tree] | None = None):
        super().__init__(feature_count, config, seed)
        self.trees = trees or []

    @classmethod
    def fit(cls, X, y, config, seed):
        sw = _sample_weights(y, config["class_weight"])
        n, p = X.shape
        if config["max_features"] == "sqrt":
            max_features = max(1, int(math.sqrt(p)))
        elif config["max_features"] is None:
            max_features = p
        else:
            max_features = int(config["max_features"])
        trees = []
        for t in range(config["n_trees"]):
            rng = np.random.default_rng([seed, t])  # per-tree derived seed
            boot = rng.integers(0, n, size=n)
            Xb, yb, wb = X[boot], y[boot], sw[boot]

            def leaf_value(idx, yb=yb, wb=wb):
                w = wb[idx]
                return float((w * yb[idx]).sum() / w.sum())

            trees.append(grow_tree(Xb, yb, wb, leaf_value, config["max_depth"],
                                   config["min_leaf"], criterion="gini",
                                   max_features=max_features, rng=rng))
        return cls(p, config, seed, trees)

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.mean([tree.predict(X) for tree in self.trees], axis=0)

    def _params_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, [Tree.from_dict(d) for d in params["trees"]])


class GradientBoostedTreesModel(TrainedModel):
    """Boosted shallow regression trees on the logistic loss with shrinkage.

    Predictions live in margin (log-odds) space; leaf values are damped
    Newton steps with an L2 term in the denominator.
    """

    kind = "GradientBoostedTrees"

    def __init__(self, feature_count, config, seed, base_margin=0.0, trees=None):
        super().__init__(feature_count, config, seed)
        self.base_margin = float(base_margin)
        self.trees = trees or []

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
        for _round in range(config["rounds"]):
            p = _sigmoid(margin)
            residual = y - p
            hessian = p * (1 - p)

            def leaf_value(idx, residual=residual, hessian=hessian):
                num = float((sw[idx] * residual[idx]).sum())
                den = float((sw[idx] * hessian[idx]).sum()) + l2
                return num / den

            tree = grow_tree(X, residual, sw, leaf_value, config["max_depth"],
                             config["min_leaf"], criterion="mse")
            trees.append(tree)
            margin = margin + lr * tree.predict(X)
            p_new = np.clip(_sigmoid(margin), 1e-12, 1 - 1e-12)
            loss = float(-(sw * (y * np.log(p_new) + (1 - y) * np.log(1 - p_new))).sum() / total)
            if not math.isfinite(loss):
                raise TrainError("non-finite boosting loss; lower the learning rate")
            losses.append(loss)
        model = cls(X.shape[1], config, seed, base, trees)
        model.training_report = {"round_losses": losses}
        return model

    def margin_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        margin = np.full(X.shape[0], self.base_margin)
        for tree in self.trees:
            margin += self.config["learning_rate"] * tree.predict(X)
        return margin

    def predict_proba_batch(self, X) -> np.ndarray:
        return _sigmoid(self.margin_batch(X))

    def _params_dict(self) -> dict:
        return {"base_margin": self.base_margin, "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        return cls(feature_count, config, seed, params["base_margin"],
                   [Tree.from_dict(d) for d in params["trees"]])


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

    def __init__(self, feature_count, config, seed, params=None, mean=None, std=None):
        super().__init__(feature_count, config, seed)
        self.params = params or []
        self.mean = np.zeros(feature_count) if mean is None else np.asarray(mean, dtype=float)
        self.std = np.ones(feature_count) if std is None else np.asarray(std, dtype=float)

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

    def predict_proba_batch(self, X) -> np.ndarray:
        Xs = (np.asarray(X, dtype=float) - self.mean) / self.std
        p, _ = net_forward(self.params, Xs)
        return p

    def _params_dict(self) -> dict:
        return {"layers": [q.tolist() for q in self.params],
                "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def _from_params(cls, feature_count, config, seed, params):
        layers = [np.array(q, dtype=float) for q in params["layers"]]
        return cls(feature_count, config, seed, layers, params["mean"], params["std"])


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


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (LogisticRegressionModel, NaiveBayesModel, DecisionTreeModel,
                RandomForestModel, GradientBoostedTreesModel, FeedForwardNetModel)
}


def train(kind: str, rows, config: dict | None = None, seed: int = 0) -> TrainedModel:
    """Fit one of the six learners on FeatureRows.

    `config` overrides the committed defaults for that kind; the resolved
    values are stored on the model and echoed into reports.
    """
    kind = canonical_kind(kind)
    X, y = rows_to_matrix(rows)
    classes = np.unique(y)
    if len(classes) < 2:
        raise TrainError("training data contains a single class; both labels are required")
    if not set(classes) <= {0.0, 1.0}:
        raise TrainError(f"labels must be 0/1, got {sorted(classes)}")
    if len(rows) < 2:
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
    model = _MODEL_CLASSES[kind]._from_params(
        int(doc["feature_count"]), doc["config"], int(doc["seed"]), doc["params"]
    )
    return model
