"""Committed default hyperparameters, echoed verbatim into every report."""

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

DEFAULT_EMBEDDER = {
    "n": 64,
    "epochs": 100,
    "negative_samples": 5,
    "learning_rate": 0.025,
    "min_token_count": 1,
    "seed": 0,
}


def resolved_config(kind: str, overrides: dict | None) -> dict:
    base = dict(DEFAULT_HYPERPARAMETERS[kind])
    for key, value in (overrides or {}).items():
        if key not in base:
            raise TrainError(f"unknown {kind} hyperparameter {key!r}; known: {sorted(base)}")
        base[key] = value
    return base
