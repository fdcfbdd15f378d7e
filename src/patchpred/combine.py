"""Combining the learned (crossed) and engineered feature sets.

Three strategies: averaging two classifiers' probabilities
(evaluate.EnsembleTrainer), concatenating the feature vectors before
training a single classifier, and a two-tower fusion network, a
TrainedModel over the learned then the engineered columns. It keeps one
ReLU hidden layer per tower and feeds the concatenated tower outputs to a
feed-forward net (learn.net_forward) with one joint hidden layer before the
sigmoid output; a purely additive head cannot model cross-set interactions.
"""

from __future__ import annotations

import numpy as np

from .defaults import resolved_config
from .errors import TrainError
from .learn import (Dataset, TrainedModel, _sample_weights, _standardizer, adam_epochs, glorot_params,
                    net_backward, net_forward)


def naive_concat(learned_values, engineered_values) -> np.ndarray:
    parts = [np.asarray(values, dtype=float) for values in (learned_values, engineered_values)]
    if any(part.ndim != 1 for part in parts):
        raise TrainError("naive_concat expects two flat feature vectors")
    return np.concatenate(parts)


# --- deep fusion -------------------------------------------------------------

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


def init_fusion_params(dl, de, config, seed):
    hl, he, hj = config["learned_width"], config["engineered_width"], config["joint_width"]
    return glorot_params([(dl, hl), (de, he), (hl + he, hj), (hj, 1)], seed)


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


def deep_fusion_train(data: Dataset, config: dict | None = None, seed: int = 0) -> DeepFusionModel:
    """Jointly train the fusion net on a Dataset of JointRows, whose learned
    block comes first; its rows pass Dataset.labeled, as every fit's do."""
    X, y = data.labeled()
    resolved = resolved_config("DeepFusion", config)
    learned = data.blocks["learned"].stop
    engineered = X.shape[1] - learned
    model = DeepFusionModel(learned, engineered, resolved, seed,
                            init_fusion_params(learned, engineered, resolved, seed),
                            *_standardizer(X, resolved["standardize"]))
    Xls, Xes = model._towers(X)
    sw = _sample_weights(y, None)
    model.training_report = adam_epochs(
        model.params, lambda q: fusion_loss_and_grad(q, Xls, Xes, y, resolved["l2"], sw), resolved, "fusion")
    return model
