import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab.losses import FAMILIES, PROB_FLOOR, LossSpec, loss_derivative, loss_value


def finite_difference(spec, uk, step=1e-6):
    return (loss_value(spec, uk + step) - loss_value(spec, uk - step)) / (2 * step)


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("huber")
    with pytest.raises(ValueError):
        LossSpec("gce", q=0.0)
    with pytest.raises(ValueError):
        LossSpec("gce", q=1.5)
    with pytest.raises(ValueError):
        LossSpec("sl", alpha=-1.0)
    with pytest.raises(ValueError):
        LossSpec("sl", A=0.5)


def test_out_of_range_probability_rejected():
    for family in FAMILIES:
        spec = LossSpec(family)
        for bad in (0.0, -0.1, 1.0 + 1e-9):
            with pytest.raises(ValueError, match=r"target-class probability must lie in "
                                                 r"\(0, 1\]"):
                loss_value(spec, bad)


def test_range_check_passes_nan_and_empty():
    # NaN passes so that divergence surfaces as TrainingDiverged, not here
    for family in FAMILIES:
        spec = LossSpec(family)
        assert loss_value(spec, np.array([np.nan, 0.5])).shape == (2,)
        loss_value(spec, np.nan)
        assert loss_value(spec, np.array([])).shape == (0,)
        assert loss_derivative(spec, np.array([])).shape == (0,)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                loss_value(spec, np.array([[0.5, np.nan], [bad, 0.5]]))


def test_floor_clamps_instead_of_checking():
    # values are clamped to [PROB_FLOOR, 1], not rejected, and a NaN still
    # passes through, so that divergence surfaces as TrainingDiverged
    floor = PROB_FLOOR
    uk = np.array([-0.5, 0.0, 1e-15, floor, 0.3, 1.0, 1.0 + 1e-9, 7.0, np.nan])
    clamped = np.array([floor, floor, floor, floor, 0.3, 1.0, 1.0, 1.0, np.nan])
    for family in FAMILIES:
        spec = LossSpec(family)
        got = loss_derivative(spec, uk)
        assert np.array_equal(got, loss_derivative(spec, clamped), equal_nan=True)
        assert np.isnan(got[-1]) or family == "mae"  # mae's derivative is constant
        assert np.isnan(loss_derivative(spec, np.nan)) or family == "mae"
        assert loss_derivative(spec, 0.0) == loss_derivative(spec, floor)
        assert loss_derivative(spec, 3.0) == loss_derivative(spec, 1.0)


def test_out_receives_the_result_and_the_input_is_kept():
    uk = np.array([[0.0], [0.25], [2.0]])
    before = uk.copy()
    for family in FAMILIES:
        spec = LossSpec(family)
        out = np.empty_like(uk)
        assert loss_derivative(spec, uk, out=out) is out
        assert np.array_equal(out, loss_derivative(spec, np.clip(uk, PROB_FLOOR, 1.0)))
        assert np.array_equal(uk, before)
        inside = np.array([0.5, 1.0])
        out = np.empty(2)
        assert loss_derivative(spec, inside, out=out) is out
        assert np.array_equal(out, loss_derivative(spec, inside))


def test_cce_values():
    cce = LossSpec("cce")
    assert loss_value(cce, 1.0) == 0.0
    assert loss_derivative(cce, 1.0) == -1.0
    assert loss_value(cce, 0.5) == pytest.approx(np.log(2))


def test_mae_values():
    mae = LossSpec("mae")
    assert loss_value(mae, 1.0) == 0.0
    assert loss_value(mae, 0.3) == pytest.approx(1.4)
    assert loss_derivative(mae, 0.123) == -2.0
    assert loss_derivative(mae, 0.77) == -2.0


def test_gce_matches_mae_at_q_one():
    gce = LossSpec("gce", q=1.0)
    mae = LossSpec("mae")
    assert loss_value(gce, 0.3) == pytest.approx(0.7)
    assert loss_value(gce, 0.3) == pytest.approx(loss_value(mae, 0.3) / 2)


def test_gce_approaches_cce_at_small_q():
    gce = LossSpec("gce", q=1e-6)
    assert loss_value(gce, 0.5) == pytest.approx(np.log(2), abs=1e-5)
    for uk in np.linspace(0.01, 1.0, 50):
        assert abs(loss_value(gce, uk) - loss_value(LossSpec("cce"), uk)) <= 1e-4


def test_gce_derivative_value():
    gce = LossSpec("gce", q=0.7)
    assert loss_derivative(gce, 0.5) == pytest.approx(-0.5 ** (-0.3))
    assert loss_derivative(gce, 0.5) == pytest.approx(-1.23114, abs=1e-5)


def test_derivative_operands_are_read_only_and_keep_the_bits():
    spec = LossSpec("sl", q=0.3, alpha=0.7, beta=1.3, A=-2.9)
    for operand, value in ((spec.q_minus_one, 0.3 - 1.0), (spec.minus_alpha, -0.7),
                           (spec.beta_times_a, 1.3 * -2.9)):
        assert operand.shape == () and not operand.flags.writeable and operand == value
    # derived from the fields, so they stay out of eq and repr
    assert spec == LossSpec("sl", q=0.3, alpha=0.7, beta=1.3, A=-2.9)
    assert repr(spec) == "LossSpec(family='sl', q=0.3, alpha=0.7, beta=1.3, A=-2.9)"
    u = np.random.default_rng(0).uniform(1e-3, 1.0, 64)
    assert np.array_equal(loss_derivative(spec, u), -0.7 / u + 1.3 * -2.9)
    gce = LossSpec("gce", q=0.3)
    assert np.array_equal(loss_derivative(gce, u), -np.power(u, 0.3 - 1.0))


def test_sl_zero_at_perfect_prediction():
    sl = LossSpec("sl", alpha=1.0, beta=1.0, A=-4.0)
    assert loss_value(sl, 1.0) == 0.0
    assert loss_derivative(sl, 1.0) == pytest.approx(-1.0 + (-4.0))


def test_values_accept_arrays():
    spec = LossSpec("gce", q=0.7)
    u = np.array([0.2, 0.5, 1.0])
    vals = loss_value(spec, u)
    assert vals.shape == (3,)
    assert vals[2] == 0.0


@given(st.sampled_from(FAMILIES), st.floats(1e-3, 1.0 - 1e-3))
@settings(max_examples=300)
def test_derivative_matches_finite_difference(family, uk):
    spec = LossSpec(family)
    exact = loss_derivative(spec, uk)
    approx = finite_difference(spec, uk)
    assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_derivative_matches_finite_difference_random_specs(rng):
    for _ in range(1000):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        spec = LossSpec(family, q=float(rng.uniform(0.1, 1.0)),
                        alpha=float(rng.uniform(0.1, 3.0)),
                        beta=float(rng.uniform(0.1, 3.0)),
                        A=float(-rng.uniform(0.5, 6.0)))
        uk = float(rng.uniform(1e-3, 1.0 - 1e-3))
        exact = loss_derivative(spec, uk)
        approx = finite_difference(spec, uk)
        assert abs(exact - approx) <= 1e-6 * abs(exact)


@given(st.sampled_from(FAMILIES), st.floats(1e-6, 1.0))
@settings(max_examples=300)
def test_loss_nonnegative_and_derivative_negative(family, uk):
    spec = LossSpec(family)
    assert loss_value(spec, uk) >= 0.0
    assert loss_derivative(spec, uk) < 0.0


def test_loss_zero_only_at_one():
    for family in FAMILIES:
        spec = LossSpec(family)
        assert loss_value(spec, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert loss_value(spec, 1.0 - 1e-6) > 0.0
