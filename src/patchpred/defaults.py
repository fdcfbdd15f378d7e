"""Committed default hyperparameters, echoed verbatim into every report, and
the checks every learner hyperparameter and embedder setting passes."""

from .errors import TrainError
from .fileio import is_number

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

def integer(low):
    """(test, what passes) for an integer >= low."""
    return lambda v: is_number(v, integer=True) and v >= low, f"an integer >= {low}"


# Setting -> (test, what a valid value is), for every key above and every
# field of embed.EmbedderConfig; numbers as fileio.is_number has them.
# max_depth 0 is allowed: it grows a single leaf. var_smoothing 0 is not: a
# column constant within a class would get a zero variance to divide by.
HYPERPARAMETER_CHECKS = {
    "n": integer(2),
    **dict.fromkeys(("negative_samples", "seed", "max_depth"), integer(0)),
    **dict.fromkeys(("min_token_count", "n_trees", "rounds", "epochs", "max_epochs", "learned_width",
                     "engineered_width", "joint_width", "min_leaf"), integer(1)),
    "hidden": (lambda v: isinstance(v, (list, tuple)) and all(map(integer(1)[0], v)), "a list of integers >= 1"),
    "max_features": (lambda v: v is None or v == "sqrt" or integer(1)[0](v), '"sqrt", null or an integer >= 1'),
    **dict.fromkeys(("learning_rate", "var_smoothing"), (lambda v: is_number(v) and v > 0, "a number > 0")),
    **dict.fromkeys(("l2", "tol"), (lambda v: is_number(v) and v >= 0, "a number >= 0")),
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
