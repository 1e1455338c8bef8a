import numpy as np
import pytest

from weaklab.correction import forward_correct, softmax
from weaklab.losses import LossSpec
from weaklab.model import BatchBuffers, batch_weighting, class_major, forward_batch

SPECS = [LossSpec("cce"), LossSpec("mae"), LossSpec("gce", q=0.7), LossSpec("sl")]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_row_stochastic(rng, c, floor=1e-3):
    """Random row-stochastic matrix with entries bounded away from zero."""
    m = rng.random((c, c)) + floor
    return m / m.sum(axis=1, keepdims=True)


def kernel_weighting(spec, column, u):
    """The training kernel, model.batch_weighting, on one sample u with
    transition column `column` (e^k for the uncorrected loss, T[:, k] for
    the corrected one), written into a fresh one-sample buffer."""
    u = np.asarray(u, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    return batch_weighting(u[:, None], column[:, None], spec, 1.0,
                           BatchBuffers(1, len(u), 0))[:, 0]


def random_case(rng, specs=SPECS, min_ut=1e-3):
    """Random (spec, T, k, h) with the corrected probability bounded away
    from the singularity so finite differences stay accurate."""
    while True:
        spec = specs[rng.integers(len(specs))]
        c = int(rng.choice([2, 5, 10]))
        t = random_row_stochastic(rng, c)
        h = rng.standard_normal(c)
        k = int(rng.integers(c))
        if float(forward_correct(t, softmax(h))[k]) >= min_ut:
            return spec, t, k, h


def fd_score_gradient(fn, h, step=1e-6):
    """Independent central-difference gradient of a scalar fn of the scores."""
    grad = np.zeros_like(h)
    for i in range(h.shape[0]):
        hp, hm = h.copy(), h.copy()
        hp[i] += step
        hm[i] -= step
        grad[i] = (fn(hp) - fn(hm)) / (2 * step)
    return grad


def per_parameter_fd(params, scalar_fn, step=1e-6):
    """Central finite differences of scalar_fn(params) w.r.t. every entry
    of params.flat (the weights and biases are views into it)."""
    flat = params.flat
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = scalar_fn(params)
        flat[i] = orig - step
        fm = scalar_fn(params)
        flat[i] = orig
        grad[i] = (fp - fm) / (2 * step)
    return grad


def scores_of(params, x):
    """Score vector of one sample: forward_batch on a one-sample batch."""
    return forward_batch(params, class_major(x[None, :]),
                         BatchBuffers(1, params.c, params.hidden))[:, 0]
