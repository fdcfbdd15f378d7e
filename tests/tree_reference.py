"""One-row, one-tree walks that the tests hold patchpred's packed forest to.

patchpred walks every tree of a model at once (learn.Forest: one gather
per level for every row and tree). These are the per-node walks it
replaced: a row followed down one tree in Python, the trees summed in a
loop, and covers counted by recursion. They are slow and exist only to
check the package.
"""

from __future__ import annotations

import numpy as np

from patchpred.learn import GradientBoostedTreesModel, RandomForestModel, Tree


def predict_one(tree: Tree, x) -> float:
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.value[node]


def predict(tree: Tree, X) -> np.ndarray:
    return np.array([predict_one(tree, row) for row in X])


def model_output(model, X) -> np.ndarray:
    """A tree model's output for every row of X by a loop over its trees:
    the margin for boosted trees, else the probability."""
    X = np.asarray(X, dtype=float)
    trees = model.trees
    if isinstance(model, GradientBoostedTreesModel):
        margin = np.full(len(X), model.base_margin)
        for tree in trees:
            margin += model.config["learning_rate"] * predict(tree, X)
        return margin
    total = predict(trees[0], X)
    for tree in trees[1:]:
        total += predict(tree, X)
    return total / len(trees) if isinstance(model, RandomForestModel) else total


def cover_counts(tree: Tree, background) -> np.ndarray:
    """How many background rows reach each node of the tree."""
    background = np.asarray(background, dtype=float)
    covers = np.zeros(len(tree.feature))

    def down(node, idx):
        covers[node] = len(idx)
        f = tree.feature[node]
        if f < 0:
            return
        mask = background[idx, f] <= tree.threshold[node]
        down(tree.left[node], idx[mask])
        down(tree.right[node], idx[~mask])

    down(0, np.arange(len(background)))
    return covers
