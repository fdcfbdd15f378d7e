"""Cross a buggy/patched embedding pair into one learned feature vector.

Layout is fixed: [patched - buggy (n) | patched * buggy (n) | cosine | euclidean],
2n+2 values total. Crossed features are named "B-<i>" by position so that
explanation reports can refer to them stably.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingPair, cosine, euclidean_similarity


@dataclass(frozen=True)
class CrossedVector:
    patch_id: str
    values: np.ndarray  # length 2n+2


def cross(pair: EmbeddingPair) -> CrossedVector:
    buggy = np.asarray(pair.buggy_vec, dtype=float)
    patched = np.asarray(pair.patched_vec, dtype=float)
    sub = patched - buggy
    mul = patched * buggy
    values = np.concatenate([sub, mul, [cosine(buggy, patched)], [euclidean_similarity(buggy, patched)]])
    return CrossedVector(patch_id=pair.patch_id, values=values)


def crossed_dim(n: int) -> int:
    return 2 * n + 2


def feature_names(n: int) -> list[str]:
    return [f"B-{i}" for i in range(crossed_dim(n))]


def is_feature_name(name: str) -> bool:
    """Whether `name` is one that feature_names gives, for some n."""
    return re.fullmatch(r"B-(0|[1-9][0-9]*)", name) is not None
