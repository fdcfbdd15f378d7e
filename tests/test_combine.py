import numpy as np
import pytest

from patchpred import combine, learn
from patchpred.combine import (average_probability, deep_fusion_train,
                               fusion_loss_and_grad, init_fusion_params, naive_concat)
from patchpred.errors import TrainError
from patchpred.evaluate import FusionTrainer, SingleSetTrainer, crossval
from patchpred.learn import FeatureRow


def test_average_probability_examples():
    assert average_probability(0.9, 0.5) == pytest.approx(0.7)
    assert average_probability(0.8, 0.8) == pytest.approx(0.8)
    assert average_probability(0.6, 0.3) == pytest.approx(0.45)
    assert average_probability(0.6, 0.3) < 0.5  # predicted incorrect at the 0.5 cut


def test_ensemble_average_uses_both_models(blob_data):
    X, y = blob_data
    rows = [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]
    m1 = learn.train("lr", rows, seed=0)
    m2 = learn.train("nb", rows, seed=0)
    x = X[0]
    expected = 0.5 * (m1.predict_proba(x) + m2.predict_proba(x))
    assert combine.ensemble_average(m1, m2, x, x) == pytest.approx(expected)
    # symmetry
    assert combine.ensemble_average(m1, m2, x, x) == pytest.approx(
        combine.ensemble_average(m2, m1, x, x))


def test_ensemble_average_within_member_bounds(blob_data):
    X, y = blob_data
    rows = [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]
    m1 = learn.train("lr", rows, seed=0)
    m2 = learn.train("dt", rows, seed=0)
    for x in X[::13]:
        p1, p2 = m1.predict_proba(x), m2.predict_proba(x)
        avg = combine.ensemble_average(m1, m2, x, x)
        assert min(p1, p2) <= avg <= max(p1, p2)


def test_ensemble_rejects_wrong_feature_length(blob_data):
    X, y = blob_data
    rows = [FeatureRow(f"p{i}", f"b{i}", X[i], int(y[i])) for i in range(len(y))]
    m1 = learn.train("lr", rows, seed=0)
    m2 = learn.train("nb", rows, seed=0)
    with pytest.raises(TrainError):
        combine.ensemble_average(m1, m2, np.zeros(3), np.zeros(2))


def test_naive_concat_length_and_order():
    learned = np.arange(6, dtype=float)        # n=2 -> 2n+2 = 6 values
    engineered = np.arange(100, 110, dtype=float)
    merged = naive_concat(learned, engineered)
    assert len(merged) == 16
    assert merged[6] == 100.0  # first engineered value right after the learned block
    names = combine.concat_names([f"B-{i}" for i in range(6)], [f"e{i}" for i in range(10)])
    assert names[6] == "e0"


def test_naive_concat_is_lossless_projection():
    rng = np.random.default_rng(0)
    learned, engineered = rng.normal(size=5), rng.normal(size=3)
    merged = naive_concat(learned, engineered)
    assert np.array_equal(merged[:5], learned)
    assert np.array_equal(merged[5:], engineered)


def test_fusion_zero_epochs_is_the_seeded_forward_pass():
    rng = np.random.default_rng(1)
    Xl, Xe = rng.normal(size=(30, 4)), rng.normal(size=(30, 3))
    y = (rng.random(30) < 0.5).astype(float)
    y[:2] = [0, 1]
    m1 = deep_fusion_train(Xl, Xe, y, {"epochs": 0}, seed=9)
    m2 = deep_fusion_train(Xl, Xe, y, {"epochs": 0}, seed=9)
    assert np.array_equal(m1.predict_proba_batch(Xl, Xe), m2.predict_proba_batch(Xl, Xe))
    for a, b in zip(m1.params, init_fusion_params(4, 3, m1.config, 9)):
        assert np.array_equal(a, b)


def test_fusion_gradient_matches_finite_differences_small_towers():
    rng = np.random.default_rng(2)
    Xl, Xe = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    y = (rng.random(8) < 0.5).astype(float)
    y[:2] = [0, 1]
    config = {"learned_width": 2, "engineered_width": 2, "joint_width": 2}
    # Evaluate away from zero biases: exact ReLU kinks are nondifferentiable
    # and would make finite differences disagree with any subgradient choice.
    params = [p + rng.normal(scale=0.2, size=p.shape) for p in init_fusion_params(3, 3, config, seed=3)]
    shapes = [p.shape for p in params]

    def unflatten(flat):
        out, pos = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(flat[pos: pos + size].reshape(shape))
            pos += size
        return out

    flat0 = np.concatenate([p.ravel() for p in params])
    _loss, grads = fusion_loss_and_grad(unflatten(flat0), Xl, Xe, y)
    grad_flat = np.concatenate([g.ravel() for g in grads])

    def loss_of(flat):
        return fusion_loss_and_grad(unflatten(flat), Xl, Xe, y)[0]

    numeric = np.zeros_like(flat0)
    for i in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[i] += 1e-6
        down[i] -= 1e-6
        numeric[i] = (loss_of(up) - loss_of(down)) / 2e-6
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(grad_flat - numeric) / denom) < 1e-4


def test_fusion_misaligned_inputs_error():
    with pytest.raises(TrainError, match="misaligned"):
        deep_fusion_train(np.zeros((4, 2)), np.zeros((3, 2)), np.array([0, 1, 0, 1]))


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
