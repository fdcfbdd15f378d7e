"""Similarity-score machinery: distribution stats, threshold inference,
incorrect-patch filtering, and per-bug top-1 selection.

Thresholds are meant to be inferred on one corpus and applied to a disjoint
one. A score exactly at the threshold counts as retained (boundary
inclusive).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fileio
from .corpus import Label
from .embed import cosine, is_zero_norm
from .errors import EvalError


@dataclass(frozen=True)
class SimilarityStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float

    def to_json_dict(self) -> dict:
        return {"min": self.min, "q1": self.q1, "median": self.median,
                "q3": self.q3, "max": self.max, "mean": self.mean}


class ThresholdStatistic(str, Enum):
    Q1 = "q1"
    MEAN = "mean"
    MEDIAN = "median"
    FIXED = "fixed"


@dataclass(frozen=True)
class ThresholdPolicy:
    statistic: ThresholdStatistic
    value: float


def score_corpus(pairs):
    """Cosine score per embedding pair: (patch_id, score, zero_norm_flag)."""
    if not pairs:
        raise EvalError("no embedding pairs to score")
    out = []
    for pair in pairs:
        flag = is_zero_norm(pair.buggy_vec) or is_zero_norm(pair.patched_vec)
        out.append((pair.patch_id, cosine(pair.buggy_vec, pair.patched_vec), flag))
    return out


def stats(scores) -> SimilarityStats:
    """Quartiles by linear interpolation between closest ranks, plus mean."""
    arr = np.asarray(list(scores), dtype=float)
    if arr.size == 0:
        raise EvalError("cannot compute statistics of an empty score list")
    q1, med, q3 = np.percentile(arr, [25, 50, 75], method="linear")
    return SimilarityStats(
        min=float(arr.min()), q1=float(q1), median=float(med), q3=float(q3),
        max=float(arr.max()), mean=float(arr.mean()),
    )


def resolve_policy(statistic: ThresholdStatistic | str, sim_stats: SimilarityStats | None = None,
                   fixed_value: float | None = None) -> ThresholdPolicy:
    """The policy's threshold; EvalError unless it is a finite number."""
    statistic = ThresholdStatistic(statistic)
    if statistic is ThresholdStatistic.FIXED:
        value = fixed_value
    elif sim_stats is None:
        raise EvalError(f"{statistic.value} threshold policy requires similarity statistics")
    else:
        value = getattr(sim_stats, statistic.value)
    if not fileio.is_number(value):
        raise EvalError(f"{statistic.value} threshold must be a finite number, got {value!r}")
    return ThresholdPolicy(statistic, float(value))


@dataclass
class FilterReport:
    policy: ThresholdPolicy
    verdicts: list[tuple[str, bool]]  # (patch_id, predicted correct)
    plus_cp: int   # truly correct patches retained
    minus_ip: int  # truly incorrect patches filtered out
    plus_recall: float
    minus_recall: float
    n_correct: int
    n_incorrect: int

    def to_json_dict(self) -> dict:
        return {
            "policy": {"statistic": self.policy.statistic.value, "value": self.policy.value},
            "+CP": self.plus_cp,
            "-IP": self.minus_ip,
            "+Recall": self.plus_recall,
            "-Recall": self.minus_recall,
            "n_correct": self.n_correct,
            "n_incorrect": self.n_incorrect,
        }


def filter_by_threshold(scored, policy: ThresholdPolicy) -> FilterReport:
    """Predict correct iff score >= policy.value; report retention recalls.

    `scored` holds (patch_id, score, label) with labels correct/incorrect.
    """
    verdicts = []
    plus_cp = minus_ip = n_correct = n_incorrect = 0
    for patch_id, score, label in scored:
        label = Label(label)
        if label not in (Label.CORRECT, Label.INCORRECT):
            raise EvalError(f"patch {patch_id!r}: filtering requires correct/incorrect labels")
        predicted = score >= policy.value
        verdicts.append((patch_id, predicted))
        if label is Label.CORRECT:
            n_correct += 1
            plus_cp += int(predicted)
        else:
            n_incorrect += 1
            minus_ip += int(not predicted)
    plus_recall = plus_cp / n_correct if n_correct else 0.0
    minus_recall = minus_ip / n_incorrect if n_incorrect else 0.0
    return FilterReport(policy, verdicts, plus_cp, minus_ip, plus_recall, minus_recall,
                        n_correct, n_incorrect)


@dataclass
class Top1Report:
    selected: dict[str, str]  # bug_id -> patch_id picked as correct
    verdicts: list[tuple[str, bool]]
    bugs_with_correct_pick: int
    n_bugs: int
    fraction_correct: float


def top1_per_bug(scored) -> Top1Report:
    """Keep only each bug's highest-scoring patch as correct.

    Ties go to the lexicographically smallest patch_id. `scored` holds
    (patch_id, bug_id, score, label).
    """
    if not scored:
        raise EvalError("no scores for top-1 selection")
    best: dict[str, tuple[float, str]] = {}
    for patch_id, bug_id, score, _label in scored:
        cur = best.get(bug_id)
        if cur is None or score > cur[0] or (score == cur[0] and patch_id < cur[1]):
            best[bug_id] = (score, patch_id)
    selected = {bug: pid for bug, (_s, pid) in best.items()}
    chosen = set(selected.values())
    verdicts = [(patch_id, patch_id in chosen) for patch_id, _b, _s, _l in scored]
    hits = sum(
        1 for patch_id, _bug, _score, label in scored
        if patch_id in chosen and Label(label) is Label.CORRECT
    )
    n_bugs = len(selected)
    return Top1Report(selected, verdicts, hits, n_bugs, hits / n_bugs)
