"""Combining the learned (crossed) and engineered feature sets.

Three strategies: averaging two classifiers' probabilities
(evaluate.EnsembleTrainer), concatenating the feature vectors before
training a single classifier, and a two-tower fusion network, a
TrainedModel over the learned then the engineered columns. It keeps one
hidden layer per tower, then mixes the concatenated tower outputs through
a joint hidden layer before the sigmoid output; a purely additive head
cannot model cross-set interactions.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import resolved_config
from .errors import TrainError
from .learn import AdamOptimizer, TrainedModel, _sample_weights, _sigmoid, _standardizer


def naive_concat(learned_values, engineered_values) -> np.ndarray:
    parts = [np.asarray(values, dtype=float) for values in (learned_values, engineered_values)]
    if any(part.ndim != 1 for part in parts):
        raise TrainError("naive_concat expects two flat feature vectors")
    return np.concatenate(parts)


def concat_names(learned_names, engineered_names) -> list[str]:
    return list(learned_names) + list(engineered_names)


# --- deep fusion -------------------------------------------------------------

def fusion_forward(params, Xl, Xe):
    """Forward pass; returns (probabilities, cached activations)."""
    Wl, bl, We, be, Wj, bj, wo, bo = params
    hl = np.maximum(Xl @ Wl + bl, 0.0)
    he = np.maximum(Xe @ We + be, 0.0)
    joint_in = np.concatenate([hl, he], axis=1)
    hj = np.maximum(joint_in @ Wj + bj, 0.0)
    p = _sigmoid(hj @ wo + bo)[:, 0]
    return p, (hl, he, joint_in, hj)


def fusion_loss_and_grad(params, Xl, Xe, y, l2=0.0, sample_weight=None):
    """Mean cross-entropy and gradients for the two-tower network."""
    Wl, bl, We, be, Wj, bj, wo, bo = params
    sw = np.ones_like(y) if sample_weight is None else sample_weight
    total = sw.sum()
    p, (hl, he, joint_in, hj) = fusion_forward(params, Xl, Xe)
    eps = 1e-12
    loss = float(-(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))).sum() / total)
    for W in (Wl, We, Wj, wo):
        loss += 0.5 * l2 * float((W * W).sum())
    d_out = ((p - y) * sw / total)[:, None]
    g_wo = hj.T @ d_out + l2 * wo
    g_bo = d_out.sum(axis=0)
    d_hj = (d_out @ wo.T) * (hj > 0.0)
    g_Wj = joint_in.T @ d_hj + l2 * Wj
    g_bj = d_hj.sum(axis=0)
    d_joint = d_hj @ Wj.T
    d_hl = d_joint[:, : hl.shape[1]] * (hl > 0.0)
    d_he = d_joint[:, hl.shape[1]:] * (he > 0.0)
    g_Wl = Xl.T @ d_hl + l2 * Wl
    g_bl = d_hl.sum(axis=0)
    g_We = Xe.T @ d_he + l2 * We
    g_be = d_he.sum(axis=0)
    return loss, [g_Wl, g_bl, g_We, g_be, g_Wj, g_bj, g_wo, g_bo]


def init_fusion_params(dl, de, config, seed):
    rng = np.random.default_rng(seed)
    hl, he, hj = config["learned_width"], config["engineered_width"], config["joint_width"]

    def glorot(fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return [glorot(dl, hl), np.zeros(hl),
            glorot(de, he), np.zeros(he),
            glorot(hl + he, hj), np.zeros(hj),
            glorot(hj, 1), np.zeros(1)]


class DeepFusionModel(TrainedModel):
    """Two-tower network over rows of the learned then the engineered
    features: the first learned_count columns feed the learned tower. One
    standardizer covers every column. Not saved: it has no model file."""

    kind = "DeepFusion"

    def __init__(self, learned_count, engineered_count, config, seed, params, mean, std):
        super().__init__(learned_count + engineered_count, config, seed)
        self.learned_count = learned_count
        self.params, self.mean, self.std = params, mean, std

    def _towers(self, X):
        """X standardized, as contiguous learned and engineered columns (a
        matmul over a strided one-column view can round differently)."""
        Xs = (X - self.mean) / self.std
        return (np.ascontiguousarray(Xs[:, :self.learned_count]),
                np.ascontiguousarray(Xs[:, self.learned_count:]))

    def _proba(self, X) -> np.ndarray:
        p, _ = fusion_forward(self.params, *self._towers(X))
        return p


def deep_fusion_train(learned_X, engineered_X, labels, config: dict | None = None,
                      seed: int = 0) -> DeepFusionModel:
    """Jointly train the fusion net on aligned rows of both feature sets."""
    Xl = np.asarray(learned_X, dtype=float)
    Xe = np.asarray(engineered_X, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(Xl) != len(Xe) or len(Xl) != len(y):
        raise TrainError(f"misaligned fusion inputs: {len(Xl)}/{len(Xe)} rows, {len(y)} labels")
    if len(np.unique(y)) < 2:
        raise TrainError("training data contains a single class; both labels are required")
    resolved = resolved_config("DeepFusion", config)
    X = np.hstack([Xl, Xe])
    model = DeepFusionModel(Xl.shape[1], Xe.shape[1], resolved, seed,
                            init_fusion_params(Xl.shape[1], Xe.shape[1], resolved, seed),
                            *_standardizer(X, resolved["standardize"]))
    Xls, Xes = model._towers(X)
    sw = _sample_weights(y, None)
    opt = AdamOptimizer(model.params, resolved["learning_rate"])
    final_loss = 0.0
    for _epoch in range(resolved["epochs"]):
        loss, grads = fusion_loss_and_grad(model.params, Xls, Xes, y, resolved["l2"], sw)
        if not math.isfinite(loss):
            raise TrainError("non-finite fusion loss; lower the learning rate")
        opt.step(model.params, grads)
        final_loss = loss
    model.training_report = {"final_loss": final_loss}
    return model
