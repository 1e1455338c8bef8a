"""Classification losses as scalar functions of the target-class probability.

Every supported loss depends on the prediction only through the probability
assigned to the labelled class, so each family reduces to a 1-d function
f(u_k) together with its exact derivative f'(u_k). Families: categorical
cross entropy ("cce"), mean absolute error ("mae"), generalized cross
entropy ("gce", exponent q) and symmetric learning ("sl", a cross-entropy
term plus a reverse term weighted by alpha, beta and a negative log-zero
stand-in A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("cce", "mae", "gce", "sl")

# floor of the clamp to [PROB_FLOOR, 1] that the training kernel asks of
# loss_derivative (its floor= keyword) so that early-training underflow
# cannot give non-finite weights; without floor=, loss_value and
# loss_derivative reject out-of-range input instead of clamping
PROB_FLOOR = 1e-12


def scalar_operand(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, the form of every scalar
    that the training step gives a ufunc: numpy's type promotion costs
    about 0.2 us more per call for a Python float operand than for a
    float64 array."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ONE, _MINUS_ONE = scalar_operand(1.0), scalar_operand(-1.0)


@dataclass(frozen=True)
class LossSpec:
    """Loss family selector plus hyperparameters (only the relevant ones
    are read: q for gce; alpha, beta, A for sl)."""

    family: str
    q: float = 0.7
    alpha: float = 1.0
    beta: float = 1.0
    A: float = -4.0
    # loss_derivative's scalar_operand forms of q - 1, -alpha and beta * A
    q_minus_one: np.ndarray = field(init=False, repr=False, compare=False)
    minus_alpha: np.ndarray = field(init=False, repr=False, compare=False)
    beta_times_a: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}, expected one of "
                             f"{', '.join(FAMILIES)}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.A >= 0:
            raise ValueError("A must be negative")
        for name, value in (("q_minus_one", self.q - 1.0), ("minus_alpha", -self.alpha),
                            ("beta_times_a", self.beta * self.A)):
            object.__setattr__(self, name, scalar_operand(value))


def _check_range(uk):
    # fmin/fmax skip NaN, so a NaN passes (divergence surfaces later as
    # TrainingDiverged) while an out-of-range value beside it still raises
    arr = np.asarray(uk, dtype=np.float64)
    if arr.size and (np.fmin.reduce(arr, axis=None) <= 0.0
                     or np.fmax.reduce(arr, axis=None) > 1.0):
        raise ValueError("target-class probability must lie in (0, 1]")
    return arr


def loss_value(spec: LossSpec, uk):
    """Loss at target-class probability uk; uk may be a scalar or array."""
    u = _check_range(uk)
    if spec.family == "cce":
        out = -np.log(u)
    elif spec.family == "mae":
        out = 2.0 * (1.0 - u)
    elif spec.family == "gce":
        out = (1.0 - u ** spec.q) / spec.q
    else:  # sl
        out = -spec.alpha * np.log(u) - spec.beta * spec.A * (1.0 - u)
    return float(out) if out.ndim == 0 else out


def loss_derivative(spec: LossSpec, uk, floor: float | None = None, out=None):
    """d loss / d uk. Negative everywhere on (0, 1] for every family.

    Without floor, uk must lie in (0, 1] (ValueError otherwise; NaN
    passes). With floor, uk is clamped to [floor, 1] instead of checked,
    NaN still passing through: the training kernel's path, which clamps
    once and checks nothing. out, a float64 array of uk's shape, receives
    the result (and, with floor, the clamped uk first); by default a new
    array is returned, or a float for a scalar uk.
    """
    if floor is None:
        u = _check_range(uk)
        if out is None:
            out = np.empty_like(u)
    else:
        if out is None:
            out = np.empty(np.shape(uk))
        u = np.maximum(uk, floor, out=out)  # maximum and minimum propagate NaN
        np.minimum(u, _ONE, out=u)
    if spec.family == "cce":
        np.divide(_MINUS_ONE, u, out=out)
    elif spec.family == "mae":
        out.fill(-2.0)
    elif spec.family == "gce":
        np.power(u, spec.q_minus_one, out=out)
        np.negative(out, out=out)
    else:  # sl
        np.divide(spec.minus_alpha, u, out=out)
        out += spec.beta_times_a
    return float(out) if out.ndim == 0 else out
