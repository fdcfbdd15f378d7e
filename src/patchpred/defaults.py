"""Committed default hyperparameters, echoed verbatim into every report."""

import math
from numbers import Integral, Real

from .errors import TrainError

DEFAULT_HYPERPARAMETERS = {
    "LogisticRegression": {
        "learning_rate": 0.1,
        "l2": 1e-3,
        "max_epochs": 500,
        "tol": 1e-6,
        "standardize": True,
        "class_weight": None,
    },
    "NaiveBayes": {
        "var_smoothing": 1e-9,
        "class_weight": None,
    },
    "DecisionTree": {
        "max_depth": 12,
        "min_leaf": 1,
        "class_weight": None,
    },
    "RandomForest": {
        "n_trees": 100,
        "max_depth": 12,
        "min_leaf": 1,
        "max_features": "sqrt",
        "class_weight": None,
    },
    "GradientBoostedTrees": {
        "rounds": 100,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_leaf": 5,
        "l2": 1.0,
        "class_weight": None,
    },
    "FeedForwardNet": {
        "hidden": [64],
        "learning_rate": 0.01,
        "epochs": 200,
        "l2": 0.0,
        "standardize": True,
        "class_weight": None,
    },
    "DeepFusion": {
        "learned_width": 32,
        "engineered_width": 16,
        "joint_width": 16,
        "learning_rate": 0.01,
        "epochs": 300,
        "l2": 0.0,
        "standardize": True,
    },
}

def _int_at_least(low):
    return lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= low


def _number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


# Hyperparameter -> (test, what a valid value is), for every key above.
# max_depth 0 is allowed: it grows a single leaf. var_smoothing 0 is not: a
# column constant within a class would get a zero variance to divide by.
HYPERPARAMETER_CHECKS = {
    "n_trees": (_int_at_least(1), "an integer >= 1"),
    "rounds": (_int_at_least(1), "an integer >= 1"),
    "epochs": (_int_at_least(1), "an integer >= 1"),
    "max_epochs": (_int_at_least(1), "an integer >= 1"),
    "learned_width": (_int_at_least(1), "an integer >= 1"),
    "engineered_width": (_int_at_least(1), "an integer >= 1"),
    "joint_width": (_int_at_least(1), "an integer >= 1"),
    "hidden": (lambda v: isinstance(v, (list, tuple)) and all(map(_int_at_least(1), v)),
               "a list of integers >= 1"),
    "max_depth": (_int_at_least(0), "an integer >= 0"),
    "min_leaf": (_int_at_least(1), "an integer >= 1"),
    "max_features": (lambda v: v is None or v == "sqrt" or _int_at_least(1)(v),
                     '"sqrt", null or an integer >= 1'),
    "learning_rate": (lambda v: _number(v) and v > 0, "a number > 0"),
    "l2": (lambda v: _number(v) and v >= 0, "a number >= 0"),
    "tol": (lambda v: _number(v) and v >= 0, "a number >= 0"),
    "var_smoothing": (lambda v: _number(v) and v > 0, "a number > 0"),
    "standardize": (lambda v: isinstance(v, bool), "true or false"),
    "class_weight": (lambda v: v is None or v == "balanced", 'null or "balanced"'),
}


def resolved_config(kind: str, overrides: dict | None) -> dict:
    base = dict(DEFAULT_HYPERPARAMETERS[kind])
    for key, value in (overrides or {}).items():
        if key not in base:
            raise TrainError(f"unknown {kind} hyperparameter {key!r}; known: {sorted(base)}")
        valid, what = HYPERPARAMETER_CHECKS[key]
        if not valid(value):
            raise TrainError(f"{kind} hyperparameter {key!r} must be {what}, got {value!r}")
        base[key] = value
    return base
