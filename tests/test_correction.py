import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab.correction import (DegenerateColumnError, corrected_loss, forward_correct,
                                l1_discrepancy, numerical_score_gradient, optimized_classes,
                                softmax, softmax_jacobian, weight_proposed)
from weaklab.labelspace import TransitionMatrix
from weaklab.losses import LossSpec, loss_derivative

from conftest import (SPECS, fd_score_gradient, kernel_weighting, random_case,
                      random_row_stochastic)

T2 = np.array([[0.8, 0.2], [0.2, 0.8]])
U2 = np.array([0.6, 0.4])


def test_softmax_uniform_on_equal_scores():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3))


def test_softmax_hand_value():
    u = softmax([np.log(2), 0.0])
    assert u == pytest.approx([2 / 3, 1 / 3])


def test_softmax_no_overflow():
    u = softmax([1000.0, 0.0])
    assert np.all(np.isfinite(u))
    assert u[0] == pytest.approx(1.0)
    assert u[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_shift_invariance(rng):
    h = rng.standard_normal(6)
    assert np.allclose(softmax(h), softmax(h + 123.4), atol=1e-12)


def test_softmax_grad_hand_value():
    # row j of the Jacobian is the gradient of softmax component j
    jac = softmax_jacobian(np.full(3, 1 / 3))
    assert jac[0] == pytest.approx([2 / 9, -1 / 9, -1 / 9])
    assert jac[1] == pytest.approx([-1 / 9, 2 / 9, -1 / 9])


def test_softmax_grad_saturated_is_zero():
    u = np.array([0.0, 1.0, 0.0])
    assert np.all(softmax_jacobian(u)[1] == 0.0)


def test_softmax_grad_matches_finite_differences(rng):
    for _ in range(50):
        c = int(rng.choice([2, 5, 10]))
        h = rng.standard_normal(c)
        j = int(rng.integers(c))
        exact = softmax_jacobian(softmax(h))[j]
        approx = fd_score_gradient(lambda hh: softmax(hh)[j], h)
        assert np.abs(exact - approx).max() < 1e-8


@given(st.integers(2, 12), st.integers(0))
@settings(max_examples=100)
def test_softmax_grad_components_sum_to_zero(c, seed):
    rng = np.random.default_rng(seed)
    u = softmax(rng.standard_normal(c))
    j = int(rng.integers(c))
    assert abs(softmax_jacobian(u)[j].sum()) < 1e-15


def test_forward_correct_identity_and_uniform():
    u = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(forward_correct(np.eye(3), u), u)
    flat = np.full((3, 3), 1 / 3)
    assert np.allclose(forward_correct(flat, u), np.full(3, 1 / 3))


def test_forward_correct_hand_value():
    assert forward_correct(T2, U2) == pytest.approx([0.56, 0.44])


def test_forward_correct_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_correct(np.eye(3), np.array([0.5, 0.5]))


@given(st.integers(2, 12), st.integers(0))
@settings(max_examples=200)
def test_forward_correct_preserves_simplex(c, seed):
    rng = np.random.default_rng(seed)
    t = random_row_stochastic(rng, c)
    u = softmax(rng.standard_normal(c))
    ut = forward_correct(t, u)
    assert np.all(ut >= 0.0)
    assert abs(ut.sum() - 1.0) <= 1e-9


def test_corrected_loss_identity_reduces_to_plain_loss(rng):
    from weaklab.losses import loss_value
    for spec in SPECS:
        u = softmax(rng.standard_normal(5))
        k = int(rng.integers(5))
        assert corrected_loss(spec, np.eye(5), k, u) == pytest.approx(
            loss_value(spec, u[k]), rel=1e-15)


def test_corrected_loss_hand_value():
    assert corrected_loss(LossSpec("cce"), T2, 0, U2) == pytest.approx(-np.log(0.56))
    assert corrected_loss(LossSpec("cce"), T2, 0, U2) == pytest.approx(0.57982, abs=1e-5)


def test_corrected_loss_mae_zero_at_certain_column():
    # all of u's mass flows to class 0 under this matrix
    t = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert corrected_loss(LossSpec("mae"), t, 0, np.array([0.3, 0.7])) == 0.0


def test_degenerate_column_raises():
    t = np.array([[1.0, 0.0], [1.0, 0.0]])
    u = np.array([0.3, 0.7])
    # the training kernel floors u_tilde_k at PROB_FLOOR; the reference and
    # the diagnostics must reject the column instead
    for fn in (lambda: corrected_loss(LossSpec("cce"), t, 1, u),
               lambda: weight_proposed(LossSpec("cce"), t, 1, u),
               lambda: l1_discrepancy(t, 1, u)):
        with pytest.raises(DegenerateColumnError):
            fn()


@pytest.mark.parametrize("c", [2, 5, 10])
def test_stacked_softmax_and_corrected_loss_equal_row_calls(rng, c):
    t = random_row_stochastic(rng, c)
    scores = 3.0 * rng.standard_normal((2 * c, c))
    probs = softmax(scores)
    for i in range(2 * c):
        assert np.array_equal(probs[i], softmax(scores[i]))
    for spec in SPECS:
        for k in range(c):
            losses = corrected_loss(spec, t, k, probs)
            assert losses.shape == (2 * c,)
            for i in range(2 * c):
                one = corrected_loss(spec, t, k, probs[i])
                assert isinstance(one, float) and losses[i] == one


def test_stacked_corrected_loss_rejects_any_degenerate_row():
    probs = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert corrected_loss(LossSpec("cce"), np.eye(2), 1, probs[0]) == pytest.approx(np.log(2))
    with pytest.raises(DegenerateColumnError):
        corrected_loss(LossSpec("cce"), np.eye(2), 1, probs)


@pytest.mark.parametrize("c", [2, 5, 10])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_numerical_score_gradient_matches_per_component_differences(rng, spec, c):
    for _ in range(25):
        t = random_row_stochastic(rng, c)
        h = rng.standard_normal(c)
        k = int(rng.integers(c))
        per_component = fd_score_gradient(lambda hh: corrected_loss(spec, t, k, softmax(hh)), h)
        np.testing.assert_allclose(numerical_score_gradient(spec, t, k, h), per_component,
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("c", [2, 5, 10])
def test_numerical_score_gradient_is_the_shift_and_concatenate_construction(rng, c):
    # the shifted rows, written in place, are the bits of h + step e^i and h - step e^i
    for spec in SPECS:
        for _ in range(25):
            t = random_row_stochastic(rng, c)
            h = rng.standard_normal(c)
            k = int(rng.integers(c))
            shift = 1e-6 * np.eye(c)
            losses = corrected_loss(spec, t, k, softmax(np.concatenate((h + shift, h - shift))))
            expected = (losses[:c] - losses[c:]) / (2.0 * 1e-6)
            assert np.array_equal(numerical_score_gradient(spec, t, k, h), expected)


def test_weight_proposed_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(400):
        spec, t, k, h = random_case(rng)
        u = softmax(h)
        exact = weight_proposed(spec, t, k, u)
        approx = fd_score_gradient(lambda hh: corrected_loss(spec, t, k, softmax(hh)), h)
        rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(approx), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_weight_proposed_equals_the_per_row_chain_rule_sum(rng, spec):
    # the one vector-matrix product against f'(u_tilde_k) * sum_j T[j, k] * jac[j],
    # added one row at a time
    for _ in range(300):
        _, t, k, h = random_case(rng, specs=[spec])
        u = softmax(h)
        jac = softmax_jacobian(u)
        per_row = np.zeros_like(u)
        for j in range(u.shape[0]):
            per_row += t[j, k] * jac[j]
        per_row *= loss_derivative(spec, float(forward_correct(t, u)[k]))
        got = weight_proposed(spec, t, k, u)
        assert np.abs(got - per_row).max() <= 1e-13 * np.abs(got).max()


def test_weight_proposed_identity_reduction(rng):
    for _ in range(500):
        spec = SPECS[rng.integers(len(SPECS))]
        c = int(rng.choice([2, 5, 10]))
        u = softmax(rng.standard_normal(c))
        k = int(rng.integers(c))
        wp = weight_proposed(spec, np.eye(c), k, u)
        ws = kernel_weighting(spec, np.eye(c)[k], u)
        assert np.abs(wp - ws).max() <= 1e-12


def test_weight_proposed_hand_value():
    w = weight_proposed(LossSpec("cce"), T2, 0, U2)
    assert w == pytest.approx([-0.144 / 0.56, 0.144 / 0.56])
    assert w[0] == pytest.approx(-0.25714, abs=1e-5)


def test_weight_proposed_vanishes_for_confident_supported_prediction(rng):
    # u concentrated on class j with T[j, k] != 0 gives a near-zero weight
    for spec in SPECS:
        t = random_row_stochastic(rng, 5)
        h = np.zeros(5)
        h[2] = 40.0
        u = softmax(h)
        assert u[2] >= 1 - 1e-8
        for k in range(5):
            assert np.linalg.norm(weight_proposed(spec, t, k, u)) <= 1e-6


def test_weights_invariant_to_score_shift(rng):
    # the weighting vectors depend on the scores only through softmax
    for _ in range(20):
        spec, t, k, h = random_case(rng)
        wa = weight_proposed(spec, t, k, softmax(h))
        wb = weight_proposed(spec, t, k, softmax(h + 250.0))
        assert np.allclose(wa, wb, atol=1e-9)


def test_weight_components_sum_to_zero(rng):
    for _ in range(200):
        spec, t, k, h = random_case(rng)
        assert abs(weight_proposed(spec, t, k, softmax(h)).sum()) < 1e-12


def test_gce_closed_form_equals_chain_rule(rng):
    spec = LossSpec("gce", q=0.7)
    for _ in range(500):
        _, t, k, h = random_case(rng, specs=[spec])
        u = softmax(h)
        chain = weight_proposed(spec, t, k, u)
        closed = kernel_weighting(spec, t[:, k], u)
        assert np.abs(chain - closed).max() <= 1e-12


def test_weight_standard_cce_classical_identity(rng):
    u = np.array([0.5, 0.3, 0.2])
    w = kernel_weighting(LossSpec("cce"), np.eye(3)[0], u)
    assert w == pytest.approx([-0.5, 0.3, 0.2])
    # and in general: u - e^k
    for _ in range(20):
        u = softmax(rng.standard_normal(6))
        k = int(rng.integers(6))
        expected = u.copy()
        expected[k] -= 1.0
        assert np.allclose(kernel_weighting(LossSpec("cce"), np.eye(6)[k], u), expected,
                           atol=1e-12)


def test_weight_standard_zero_at_saturation():
    u = np.array([0.0, 0.0, 1.0])
    assert np.all(kernel_weighting(LossSpec("mae"), np.eye(3)[2], u) == 0.0)


def test_weight_standard_matches_finite_differences(rng):
    from weaklab.losses import loss_value
    for spec in SPECS:
        for _ in range(25):
            c = int(rng.choice([2, 5, 10]))
            h = rng.standard_normal(c)
            k = int(rng.integers(c))
            exact = kernel_weighting(spec, np.eye(c)[k], softmax(h))
            approx = fd_score_gradient(lambda hh: loss_value(spec, softmax(hh)[k]), h)
            assert np.linalg.norm(exact - approx) <= 1e-6 * max(1.0, np.linalg.norm(approx))


def test_optimized_classes_hand_values():
    u = np.array([0.5, 0.3, 0.2])
    assert optimized_classes(np.eye(3), 0, u) == {0}
    assert optimized_classes(T2, 0, U2) == {0}  # 0.8 > 0.56 > 0.2
    sat = np.array([0.0, 1.0, 0.0])
    assert optimized_classes(np.eye(3), 1, sat) == set()


def test_optimized_classes_is_negative_weight_set_for_gce(rng):
    spec = LossSpec("gce", q=0.7)
    checked = 0
    while checked < 400:
        _, t, k, h = random_case(rng, specs=[spec])
        u = softmax(h)
        ut = float(forward_correct(t, u)[k])
        if np.abs(t[:, k] - ut).min() < 1e-9 or np.any(u <= 0.0):
            continue  # boundary case: resample
        w = weight_proposed(spec, t, k, u)
        if np.any(w == 0.0):
            continue
        assert {j for j in range(len(u)) if w[j] < 0.0} == optimized_classes(t, k, u)
        checked += 1


def test_column_argmax_always_optimized_argmin_never(rng):
    checked = 0
    while checked < 400:
        _, t, k, h = random_case(rng)
        u = softmax(h)
        ut = float(forward_correct(t, u)[k])
        if np.abs(t[:, k] - ut).min() < 1e-9 or u.max() >= 1 - 1e-8:
            continue
        opt = optimized_classes(t, k, u)
        assert int(t[:, k].argmax()) in opt
        assert int(t[:, k].argmin()) not in opt
        checked += 1


def test_correction_reads_a_transition_matrix_as_its_entries(rng):
    for _ in range(50):
        spec, t, k, h = random_case(rng)
        u = softmax(h)
        m = TransitionMatrix(t)
        assert np.array_equal(forward_correct(m, u), forward_correct(m.entries, u))
        assert np.array_equal(weight_proposed(spec, m, k, u),
                              weight_proposed(spec, m.entries, k, u))
        assert l1_discrepancy(m, k, u) == l1_discrepancy(m.entries, k, u)


def test_correction_imports_nothing_from_model():
    # the per-sample reference must not be able to call the kernel it checks
    source = Path(__file__).resolve().parents[1] / "src" / "weaklab" / "correction.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "no imports found: the parse went wrong"
    assert not any(name == "model" or name.endswith(".model") for name in imported), \
        sorted(imported)
    assert ".losses" in imported


def test_l1_discrepancy_zero_when_distributions_coincide():
    u = np.array([0.0, 1.0, 0.0])
    assert l1_discrepancy(np.eye(3), 1, u) == 0.0


def test_l1_discrepancy_extreme_for_unsupported_prediction():
    # confident prediction on class j with T[j, k] = 0
    t = np.array([
        [0.0, 0.5, 0.5, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.25, 0.25, 0.25],
        [0.25, 0.25, 0.25, 0.25],
    ])
    h = np.zeros(4)
    h[0] = 30.0
    u = softmax(h)
    assert l1_discrepancy(t, 0, u) >= 1.99


def test_l1_discrepancy_bounded(rng):
    for _ in range(2000):
        c = int(rng.choice([2, 5, 10]))
        t = random_row_stochastic(rng, c)
        u = softmax(rng.standard_normal(c) * rng.uniform(0.5, 20.0))
        k = int(rng.integers(c))
        val = l1_discrepancy(t, k, u)
        assert 0.0 <= val <= 2.0
