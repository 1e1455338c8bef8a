"""Forward loss correction, one sample at a time: the reference for the
training kernel, and the paper's two diagnostics.

Forward correction replaces the predicted class probabilities u by
u_tilde = T^T u before evaluating the loss, so a model supervised with
weak labels learns the true-label posterior. At gradient level the
corrected per-sample loss contributes f'(u_tilde_k) * sum_j T[j, k] *
grad_h(u_j): a single weak label simultaneously optimises every class j
the source could have flipped into k, weighted by T's k-th column.
Training computes that weighting with one kernel, model.batch_weighting;
weight_proposed is its independent chain-rule reference (a sum of
softmax_grad terms); this module imports nothing from model, so it cannot
call the kernel it checks. optimized_classes and l1_discrepancy are the
diagnostics. Matrices are read with np.asarray: a TransitionMatrix or an
array.
"""

from __future__ import annotations

import numpy as np

from .losses import LossSpec, loss_derivative, loss_value


class DegenerateColumnError(ValueError):
    """Raised when the corrected probability of the given label is zero:
    column k of T has no mass on any class the model deems possible."""


def softmax(scores) -> np.ndarray:
    """Probability vector exp(h_i) / sum_j exp(h_j), max-shifted for stability.

    An (m, c) stack of score rows gives the (m, c) stack of their softmaxes,
    each row equal to the call on that row alone."""
    h = np.asarray(scores, dtype=np.float64)
    shifted = h - h.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(u, j: int) -> np.ndarray:
    """Gradient of softmax component j with respect to the scores:
    u_j * (e^j - u)."""
    u = np.asarray(u, dtype=np.float64)
    g = u[j] * (-u)
    g[j] += u[j]
    return g


def forward_correct(matrix, u) -> np.ndarray:
    """Corrected probabilities u_tilde = T^T u (u_tilde_k = sum_j T[j,k] u_j).

    u may be an (m, c) stack of probability rows; each row is corrected by
    its own matrix-vector product, so it equals the call on that row alone."""
    t = np.asarray(matrix, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != t.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {t.shape[0]}-class, u has {u.shape[-1]}")
    if u.ndim == 1:
        return t.T @ u
    # a stacked matmul runs one matrix-vector product per row; u @ t would
    # be one matrix product, whose summation order differs in the last bit
    return (t.T @ u[..., None])[..., 0]


def corrected_loss(spec: LossSpec, matrix, k: int, u):
    """Loss evaluated at the corrected probability of the given label k.

    A probability vector u gives a float; an (m, c) stack of them gives the
    m losses as an array, and DegenerateColumnError if any row is degenerate.
    """
    ut_k = forward_correct(matrix, u)[..., k]
    if np.any(ut_k <= 0.0):
        raise DegenerateColumnError(f"corrected probability of class {k} is zero")
    if ut_k.ndim == 0:
        return float(loss_value(spec, min(float(ut_k), 1.0)))
    return loss_value(spec, np.minimum(ut_k, 1.0))


def weight_proposed(spec: LossSpec, matrix, k: int, u) -> np.ndarray:
    """Score-gradient of the forward-corrected loss:
    f'(u_tilde_k) * sum_j T[j, k] * softmax_grad(u, j).

    With the identity matrix this is the uncorrected loss's
    f'(u_k) * u_k (e^k - u).
    """
    t = np.asarray(matrix, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    ut_k = float(forward_correct(t, u)[k])
    if ut_k <= 0.0:
        raise DegenerateColumnError(f"corrected probability of class {k} is zero")
    acc = np.zeros_like(u)
    for j in range(u.shape[0]):
        acc += t[j, k] * softmax_grad(u, j)
    fprime = loss_derivative(spec, min(ut_k, 1.0))
    return fprime * acc


def optimized_classes(matrix, k: int, u) -> set:
    """Classes whose score the corrected gradient pushes up:
    { j : u_j > 0 and T[j, k] > u_tilde_k }."""
    t = np.asarray(matrix, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    ut_k = float(forward_correct(t, u)[k])
    return {int(j) for j in range(u.shape[0]) if u[j] > 0.0 and t[j, k] > ut_k}


def l1_discrepancy(matrix, k: int, u) -> float:
    """L1 distance between the prior-true-label distribution implied by
    label k, (T[:,k] * u) / u_tilde_k, and the prediction u. Lies in [0, 2]."""
    t = np.asarray(matrix, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    col_u = t[:, k] * u
    ut_k = float(col_u.sum())
    if ut_k <= 0.0:
        raise DegenerateColumnError(f"corrected probability of class {k} is zero")
    val = float(np.abs(col_u / ut_k - u).sum())
    return min(val, 2.0)


def numerical_score_gradient(spec: LossSpec, matrix, k: int, h,
                             step: float = 1e-6) -> np.ndarray:
    """Central finite differences of corrected_loss(softmax(h)) w.r.t. h.

    The 2c shifted score rows h + step e^i and h - step e^i are evaluated
    as one stack: one softmax and one corrected_loss call. Diagnostic used
    by the CLI gradient validator; the test suite keeps its own
    independent differencer.
    """
    h = np.asarray(h, dtype=np.float64)
    c = h.shape[0]
    shift = step * np.eye(c)
    losses = corrected_loss(spec, matrix, k, softmax(np.concatenate((h + shift, h - shift))))
    return (losses[:c] - losses[c:]) / (2.0 * step)
