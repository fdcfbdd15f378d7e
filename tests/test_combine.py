import re
from unittest import mock

import numpy as np
import pytest

from patchpred.combine import naive_concat
from patchpred.corpus import split_by_bug
from patchpred.errors import TrainError
from patchpred.evaluate import EnsembleTrainer, FusionTrainer, JointRow, SingleSetTrainer, crossval
from patchpred.learn import Forest, fusion_loss_and_grad, glorot_params


def ensemble_predictor(kind, X, y):
    """EnsembleTrainer's predictor with column 0 of X as the learned set and
    the other columns as the engineered set, with the rows it scores."""
    rows = [JointRow(f"p{i}", f"b{i}", int(y[i]), learned=X[i, :1], engineered=X[i, 1:])
            for i in range(len(y))]
    return EnsembleTrainer(kind).fit(rows, seed=0), rows


def test_average_probability_examples(blob_data):
    predict, rows = ensemble_predictor("dt", *blob_data)
    learned, engineered = predict.members
    for p_learned, p_engineered, mean in ((0.9, 0.5, 0.7), (0.8, 0.8, 0.8), (0.6, 0.3, 0.45)):
        for member, p in ((learned, p_learned), (engineered, p_engineered)):
            member.forest = Forest.load([{"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                                          "value": [p]}], member.feature_count)
        assert predict(rows[:3]) == pytest.approx([mean] * 3)
    assert predict(rows[:1])[0] < 0.5  # predicted incorrect at the 0.5 cut


def test_ensemble_average_uses_both_models(blob_data):
    X, y = blob_data
    predict, rows = ensemble_predictor("lr", X, y)
    learned, engineered = predict.members
    expected = [0.5 * (learned.predict_proba(x[:1]) + engineered.predict_proba(x[1:])) for x in X]
    assert predict(rows) == pytest.approx(expected)
    assert not np.allclose(learned.predict_proba_batch(X[:, :1]), engineered.predict_proba_batch(X[:, 1:]))
    # symmetry: swapping the two feature sets swaps the members, not the mean
    swapped, swapped_rows = ensemble_predictor("lr", X[:, ::-1], y)
    assert np.array_equal(swapped(swapped_rows), predict(rows))


def test_ensemble_average_within_member_bounds(blob_data):
    X, y = blob_data
    predict, rows = ensemble_predictor("dt", X, y)
    learned, engineered = predict.members
    for x, avg in zip(X[::13], predict(rows[::13])):
        p1, p2 = learned.predict_proba(x[:1]), engineered.predict_proba(x[1:])
        assert min(p1, p2) <= avg <= max(p1, p2)


def test_ensemble_rejects_wrong_feature_length(blob_data):
    predict, rows = ensemble_predictor("lr", *blob_data)
    with pytest.raises(TrainError):
        predict([JointRow("q", "b", 0, learned=np.zeros(3), engineered=np.zeros(1))])
    with pytest.raises(TrainError):
        predict([JointRow("q", "b", 0, learned=np.zeros(1), engineered=np.zeros(2))])


def test_naive_concat_length_and_order():
    learned = np.arange(6, dtype=float)        # n=2 -> 2n+2 = 6 values
    engineered = np.arange(100, 110, dtype=float)
    merged = naive_concat(learned, engineered)
    assert len(merged) == 16
    assert merged[6] == 100.0  # first engineered value right after the learned block


def test_naive_concat_is_lossless_projection():
    rng = np.random.default_rng(0)
    learned, engineered = rng.normal(size=5), rng.normal(size=3)
    merged = naive_concat(learned, engineered)
    assert np.array_equal(merged[:5], learned)
    assert np.array_equal(merged[5:], engineered)


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_fusion_gradient_matches_finite_differences_small_towers(l2):
    rng = np.random.default_rng(2)
    Xl, Xe = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    y = (rng.random(8) < 0.5).astype(float)
    y[:2] = [0, 1]
    # Towers of width 2 over 3 columns each, and a joint layer of width 2.
    layers = [(3, 2), (3, 2), (4, 2), (2, 1)]
    # Evaluate away from zero biases: exact ReLU kinks are nondifferentiable
    # and would make finite differences disagree with any subgradient choice.
    params = [p + rng.normal(scale=0.2, size=p.shape) for p in glorot_params(layers, seed=3)]
    shapes = [p.shape for p in params]

    def unflatten(flat):
        out, pos = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(flat[pos: pos + size].reshape(shape))
            pos += size
        return out

    flat0 = np.concatenate([p.ravel() for p in params])
    _loss, grads = fusion_loss_and_grad(unflatten(flat0), Xl, Xe, y, l2)
    grad_flat = np.concatenate([g.ravel() for g in grads])

    def loss_of(flat):
        return fusion_loss_and_grad(unflatten(flat), Xl, Xe, y, l2)[0]

    numeric = np.zeros_like(flat0)
    for i in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[i] += 1e-6
        down[i] -= 1e-6
        numeric[i] = (loss_of(up) - loss_of(down)) / 2e-6
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(grad_flat - numeric) / denom) < 1e-4


def test_xor_of_sets_needs_combination(xor_rows):
    # Neither feature set alone can beat chance by much; combining them can.
    concat_auc = crossval(xor_rows, SingleSetTrainer("concat", "gbt"), k=10, seed=42)["macro"]["auc"]
    fusion_auc = crossval(xor_rows, FusionTrainer(), k=10, seed=42)["macro"]["auc"]
    learned_auc = crossval(xor_rows, SingleSetTrainer("learned", "gbt"), k=10, seed=42)["macro"]["auc"]
    engineered_auc = crossval(xor_rows, SingleSetTrainer("engineered", "gbt"), k=10, seed=42)["macro"]["auc"]
    assert concat_auc >= 0.85
    assert fusion_auc >= 0.85
    assert learned_auc <= 0.75
    assert engineered_auc <= 0.75


def test_strategies_share_identical_fold_memberships(xor_rows):
    reports = [
        crossval(xor_rows, SingleSetTrainer("learned", "nb"), k=10, seed=42),
        crossval(xor_rows, SingleSetTrainer("concat", "nb"), k=10, seed=42),
        crossval(xor_rows, FusionTrainer({"epochs": 1}), k=10, seed=42),
    ]
    plans = [rep["fold_plan"] for rep in reports]
    assert plans[0] == plans[1] == plans[2]
    fold_of = [{p["patch_id"]: p["fold"] for p in rep["predictions"]} for rep in reports]
    assert fold_of[0] == fold_of[1] == fold_of[2]


BAD_ROWS = {"label-2": "has a label other than 0/1", "unlabeled": "is unlabeled",
            "nan-feature": "has non-finite feature values"}
CHECKED_TRAINERS = {"learned-lr": lambda: SingleSetTrainer("learned", "lr"),
                    "concat-gbt": lambda: SingleSetTrainer("concat", "gbt", {"rounds": 3}),
                    "ensemble-lr": lambda: EnsembleTrainer("lr"),
                    "fusion": lambda: FusionTrainer({"epochs": 3})}


def _rows_with_a_bad_one(case, tested_first):
    """40 rows of 10 bugs and the patch id of the one made bad by `case`:
    a row whose bug fold 0 tests if `tested_first`, else one it fits on."""
    rng = np.random.default_rng(3)
    rows = [JointRow(f"p{i}", f"b{i // 4}", i % 2, learned=rng.normal(size=3), engineered=rng.normal(size=2))
            for i in range(40)]
    first_tested = split_by_bug([row.bug_id for row in rows], 5, 0)[0]
    bad = next(i for i, row in enumerate(rows) if (row.bug_id in first_tested) == tested_first)
    row = rows[bad]
    if case == "nan-feature":
        row.learned[1] = np.nan
    else:
        rows[bad] = JointRow(row.patch_id, row.bug_id, 2 if case == "label-2" else None, row.learned, row.engineered)
    return rows, row.patch_id


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@pytest.mark.parametrize("trainer", sorted(CHECKED_TRAINERS))
def test_every_trainer_refuses_a_bad_row_with_one_message(trainer, case):
    # The bad row's bug is not tested in fold 0, so fold 0 fits on it first.
    rows, patch_id = _rows_with_a_bad_one(case, tested_first=False)
    with pytest.raises(TrainError, match="^" + re.escape(f"patch {patch_id!r} {BAD_ROWS[case]}") + "$"):
        crossval(rows, CHECKED_TRAINERS[trainer](), k=5, seed=0)


@pytest.mark.parametrize("case", ["label-2", "nan-feature", "unlabeled"])
@pytest.mark.parametrize("trainer", sorted(CHECKED_TRAINERS))
def test_crossval_refuses_a_bad_label_in_a_test_split_before_any_fold(trainer, case):
    # Fold 0 tests the bad row: only its metrics would see the label, and
    # its scoring would name a NaN by its row number in the split.
    rows, patch_id = _rows_with_a_bad_one(case, tested_first=True)
    trainer = CHECKED_TRAINERS[trainer]()
    with mock.patch.object(trainer, "fit", side_effect=AssertionError("a fold was fitted")):
        with pytest.raises(TrainError, match="^" + re.escape(f"patch {patch_id!r} {BAD_ROWS[case]}") + "$"):
            crossval(rows, trainer, k=5, seed=0)
