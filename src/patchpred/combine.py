"""The concatenation helper for the learned (crossed) and engineered feature sets.

Panther combines the two sets three ways: averaging two classifiers'
probabilities (evaluate.EnsembleTrainer), concatenating the feature vectors
before training a single classifier (naive_concat, here), and a two-tower
fusion network (learn.DeepFusionModel, trained by evaluate.FusionTrainer).
"""

from __future__ import annotations

import numpy as np

from .errors import TrainError


def naive_concat(learned_values, engineered_values) -> np.ndarray:
    parts = [np.asarray(values, dtype=float) for values in (learned_values, engineered_values)]
    if any(part.ndim != 1 for part in parts):
        raise TrainError("naive_concat expects two flat feature vectors")
    return np.concatenate(parts)
