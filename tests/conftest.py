import numpy as np
import pytest

from weaklab.model import BatchBuffers, batch_weighting


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
    the corrected one), written into a fresh one-row buffer."""
    u = np.asarray(u, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    return batch_weighting(u[None, :], column[None, :], spec, 1.0,
                           BatchBuffers(1, len(u), 0))[0]
