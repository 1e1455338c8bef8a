"""Small softmax classifiers with hand-derived backpropagation.

Two architectures: a linear map d -> c, or one ReLU hidden layer
d -> H -> c. Each layer is one (out, in + 1) matrix [W | b], and every
pass is class-major: a batch of m samples is a (d + 1, m) matrix whose
columns are the samples and whose last row is ones, so a layer's
[W | b] @ [x; 1] = W x + b is one product, and the hidden activations
sit in an (H + 1, m) buffer whose last row is ones as well. The backward
pass consumes one score-space weighting vector omega per column and
contracts it against d h / d theta; through the same ones rows its
products give each layer's bias gradient beside its weight gradient.
Training computes omega with one kernel, batch_weighting, from a
per-sample transition column C[:, i] = T_{s_i}[:, y_i] built once before
the epoch loop; the vanilla strategy is the same kernel with one-hot
(identity) columns, so the three strategies share one code path.
correction.weight_proposed, the chain-rule form over softmax_grad, is
its independent per-sample reference.

A minibatch step is about thirty numpy calls on matrices of about
16 x 32, so its cost is call overhead, not arithmetic, and the step
allocates no array of its own. train allocates one workspace per call:
the class-major (d + 1, n) inputs and (c, n) transition columns, built
once; the epoch's permuted copies of them, gathered along axis 1 with
np.take(..., out=, mode="clip") (the indices are a permutation, so
clipping changes none, and the default mode="raise" copies through a
temporary); and one BatchBuffers per batch size (the full one, and the
short last batch's) that the three kernels (forward_batch,
batch_weighting, backward_batch) write into instead of allocating. Every
kernel takes its buffers as a required argument, each array shaped for
exactly the batch it is given; predict_batch makes one ForwardBuffers,
the arrays forward_batch writes, per block. backward_batch reads the
hidden activations that forward_batch left in buf.a. Inside the kernels
every product is ndarray.dot(..., out=): the same BLAS call as np.dot, so
the same bits, without the dispatch np.dot and np.matmul add on these
shapes. The per-sample reductions run over axis 0, the classes: the
softmax denominator and the corrected probability ut are products with
a length-c ones vector, the column maxima a direct np.maximum.reduce.
Each gives a plain (m,) vector that broadcasts over the class rows,
cheaper per call than a (rows, 1) column over row-major scores.
loss_derivative clamps the corrected probability to [PROB_FLOOR, 1] once
instead of range-checking it, and the 1/m mean-loss scale rides on the
per-sample f'. Every scalar that a step
gives a ufunc (the ReLU's 0, the clamp's floor, 1/m, and step's rates)
is a read-only 0-d array made once (losses.scalar_operand).

Parameters, velocity, lookahead point and gradient are each one flat
float64 vector in the layout of ModelParameters. Optimisation is
minibatch SGD with Nesterov momentum: the gradient is evaluated at the
lookahead point look = theta + mu * v, then v <- mu * v - lr * (g + wd *
theta) and theta <- theta + v, each a whole-vector operation. The
velocity buffer holds mu * v, which both formulas read, and step writes
the next lookahead into its own buffer; the bracket is built, in that
order, in a scratch vector that train allocates beside the velocity, so
step allocates nothing. TrainConfig holds the hyperparameters;
step_rates turns the three that step reads into its operands.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .labelspace import check_labels
from .losses import PROB_FLOOR, LossSpec, loss_derivative, scalar_operand

STRATEGIES = ("vanilla", "forward", "proposed")

_ZERO, _PROB_FLOOR = scalar_operand(0.0), scalar_operand(PROB_FLOOR)


class TrainingDiverged(RuntimeError):
    """Parameters became non-finite during training."""


class ModelParameters:
    """One (out, in + 1) matrix [W | b] per layer: the weights W
    (out x in) and the biases b.

    The constructor copies the given weight matrices and bias vectors into
    one flat float64 vector `flat`, laid out layer by layer, each layer's
    [W | b] row-major (row i of W, then b_i). `layers` are the
    (out, in + 1) views of it, and `weights` and `biases` are views of
    those (their first `in` columns, their last column), so writing any of
    them writes `flat`. Gradients and velocities use the same layout; the
    checkpoint (save_params) stores each W row-major and then its b.
    """

    def __init__(self, weights, biases):
        self.flat = np.empty(sum(np.shape(w)[0] * (np.shape(w)[1] + 1) for w in weights))
        self.layers = []
        offset = 0
        for w, b in zip(weights, biases):
            rows, cols = np.shape(w)
            layer = self.flat[offset:offset + rows * (cols + 1)].reshape(rows, cols + 1)
            layer[:, :-1] = w
            layer[:, -1] = b
            self.layers.append(layer)
            offset += layer.size
        self.weights = [layer[:, :-1] for layer in self.layers]
        self.biases = [layer[:, -1] for layer in self.layers]

    @property
    def d(self) -> int:
        return self.weights[0].shape[1]

    @property
    def c(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def hidden(self) -> int:
        """Hidden width, 0 for the linear architecture."""
        return 0 if len(self.weights) == 1 else self.weights[0].shape[0]

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.weights, self.biases)

    def zeros_like(self) -> "ModelParameters":
        return ModelParameters([np.zeros_like(w) for w in self.weights],
                               [np.zeros_like(b) for b in self.biases])

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-6
    seed: int = 0
    strategy: str = "vanilla"
    loss: LossSpec = field(default_factory=lambda: LossSpec("cce"))
    hidden: int = 32

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.hidden < 0:
            raise ValueError(f"hidden must be >= 0, got {self.hidden}")
        # written so that NaN fails each check
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of "
                             f"{', '.join(STRATEGIES)}")


def init_parameters(d: int, c: int, hidden: int, rng: np.random.Generator) -> ModelParameters:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = [(d, c)] if hidden == 0 else [(d, hidden), (hidden, c)]
    weights, biases = [], []
    for fan_in, fan_out in dims:
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParameters(weights, biases)


def class_major(x: np.ndarray) -> np.ndarray:
    """The class-major batch [x^T; 1], (d + 1, m), of m sample rows x, (m, d)."""
    out = np.empty((x.shape[1] + 1, x.shape[0]))
    out[:-1] = x.T
    out[-1] = 1.0
    return out


class ForwardBuffers:
    """Output arrays of forward_batch for a batch of exactly m samples: the
    (H + 1, m) hidden activations a, whose last row is ones (forward_batch
    writes only a_hidden, the first H rows), and the (c, m) scores. Its
    results are these arrays, valid until the next call that is given the
    same buffers.
    """

    def __init__(self, m: int, c: int, hidden: int):
        self.a = np.empty((hidden + 1, m))
        self.a[hidden] = 1.0
        self.a_hidden = self.a[:hidden]
        self.scores = np.empty((c, m))


class BatchBuffers(ForwardBuffers):
    """Output arrays of the minibatch kernels for a batch of exactly m
    samples; a batch of another size takes its own BatchBuffers.

    Beyond the ForwardBuffers: _softmax_columns writes the column maxima
    and then the column sums into col; batch_weighting writes tu, ut,
    fprime and omega; backward_batch reads a and writes dh and mask. dh is
    (H + 1, m): its first H rows, dh_hidden, are the hidden delta, and its
    last row is unused. The (m,) class sums are products with class_ones
    (length c).
    """

    def __init__(self, m: int, c: int, hidden: int):
        super().__init__(m, c, hidden)
        self.dh = np.empty((hidden + 1, m))
        self.dh_hidden = self.dh[:hidden]
        self.mask = np.empty((hidden, m))
        self.tu = np.empty((c, m))
        self.omega = np.empty((c, m))
        self.col = np.empty(m)
        self.ut = np.empty(m)
        self.fprime = np.empty(m)
        self.class_ones = np.ones(c)


def forward_batch(params: ModelParameters, x: np.ndarray,
                  buf: ForwardBuffers) -> np.ndarray:
    """Scores buf.scores, (c, m), of a class-major float64 batch x,
    (d + 1, m) with a last row of ones; buf holds m samples and also
    receives the hidden activations, in buf.a."""
    layers = params.layers
    a = x  # the input of the output layer
    if len(layers) == 2:
        z = layers[0].dot(x, out=buf.a_hidden)
        np.maximum(z, _ZERO, out=z)
        a = buf.a
    return layers[-1].dot(a, out=buf.scores)


def backward_batch(params: ModelParameters, x: np.ndarray, delta: np.ndarray,
                   out: ModelParameters, buf: BatchBuffers) -> ModelParameters:
    """Contract the weighting vectors in the columns of delta, (c, m),
    against d h / d theta and sum over the samples (scale delta by 1/m
    first for a mean-loss gradient); linear in delta. Written into out,
    which is returned. x and buf are the batch and buffers of the
    forward_batch call that made delta's scores: the hidden activations
    are read from buf.a, and buf receives the hidden delta and the ReLU
    mask. The ones rows of x and buf.a make each product's last column a
    bias gradient."""
    layers = params.layers
    hidden = len(layers) == 2
    delta.dot((buf.a if hidden else x).T, out=out.layers[-1])
    if hidden:
        layers[1].T.dot(delta, out=buf.dh)  # [W1 | b1]^T delta; row H is unused
        d_hidden = buf.dh_hidden
        # a = max(z, 0) >= 0, so sign(a) is the 0/1 derivative of the ReLU
        # at the pre-activation z
        d_hidden *= np.sign(buf.a_hidden, out=buf.mask)
        d_hidden.dot(x.T, out=out.layers[0])
    return out


def step_rates(config: TrainConfig) -> tuple:
    """(momentum, learning rate, weight decay) of config as the read-only
    0-d arrays that step takes."""
    return tuple(scalar_operand(value) for value in
                 (config.momentum, config.learning_rate, config.weight_decay))


def step(params: ModelParameters, grads: ModelParameters, velocity: np.ndarray,
         scratch: np.ndarray, look: np.ndarray, rates: tuple) -> None:
    """One SGD update with Nesterov momentum, in place on flat vectors,
    with the momentum mu, learning rate lr and weight decay wd in rates
    (step_rates): v <- mu * v - lr * (g + wd * theta), theta <- theta + v.
    velocity holds mu * v before and after; grads holds the gradient at
    the lookahead point theta + mu * v, and look receives the next one.
    velocity, scratch and look are flat vectors of the parameter size; the
    bracket is built in scratch, in the formula's order, so nothing is
    allocated.
    """
    mu, lr, wd = rates
    update = np.multiply(params.flat, wd, out=scratch)
    update += grads.flat
    update *= lr
    velocity -= update  # now v
    params.flat += velocity
    velocity *= mu
    np.add(params.flat, velocity, out=look)


# most rows per forward pass in predict_batch: one block's arrays take about
# a quarter megabyte at hidden 32 whatever the input size; a multiple of 8,
# the column step of the BLAS kernel (see predict_batch)
PREDICT_BLOCK_ROWS = 512


def predict_batch(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Argmax class per row of x, (n, d); ties break toward the lowest index.

    Runs forward_batch on blocks of PREDICT_BLOCK_ROWS rows that start
    at multiples of PREDICT_BLOCK_ROWS, the last one shorter, so memory
    stays bounded on large inputs; one block's buffers are alive at a
    time. The scores, and so in a near-tie the argmax, can differ from one
    whole-input pass's in the last bit. On the OpenBLAS build this was
    measured with, a product rounds its last (columns mod 8) columns
    differently from the rest when that remainder is 1 to 4, and numpy
    runs a one-column product as a matrix-vector product, which rounds
    differently again. With blocks of 512, the scores of a whole pass came
    out bit for bit at hidden 0, 8 and 32 for 1, 7, 8, 9, 511, 512, 1250
    and 3000 rows, but not when the last block held one row (513 and 1025
    rows), nor at hidden 64 with 1250 rows.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, max(n, 1), PREDICT_BLOCK_ROWS):  # an empty input makes one pass
        stop = min(start + PREDICT_BLOCK_ROWS, n)
        _predict_block(params, x[start:stop], out[start:stop])
    return out


def _predict_block(params: ModelParameters, x: np.ndarray, out: np.ndarray) -> None:
    """Argmax class of each row of x into out, through buffers that live
    only for this call."""
    scores = forward_batch(params, class_major(x), ForwardBuffers(len(x), params.c,
                                                                  params.hidden))
    scores.argmax(axis=0, out=out)


def _softmax_columns(scores: np.ndarray, buf: BatchBuffers) -> np.ndarray:
    """Softmax of each column of scores, (c, m), computed in place; buf
    holds m samples, and its col receives the column maxima and then the
    column sums."""
    col = np.maximum.reduce(scores, axis=0, out=buf.col)
    scores -= col
    np.exp(scores, out=scores)
    buf.class_ones.dot(scores, out=col)
    scores /= col
    return scores


def transition_columns(labels: np.ndarray, source_ids: np.ndarray, c: int,
                       matrices=None) -> np.ndarray:
    """Per-sample columns C[:, i] = T_{s_i}[:, y_i], shape (c, n).

    matrices maps source id -> TransitionMatrix or c x c array, each read
    with np.asarray; None gives one-hot columns, the identity columns of
    the uncorrected loss. Raises ValueError naming the source id when a
    source in source_ids has no matrix or one that is not c x c.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if matrices is None:
        return np.eye(c)[:, labels]
    source_ids = np.asarray(source_ids, dtype=np.int64)
    cols = np.empty((c, labels.shape[0]))
    for s in np.unique(source_ids):
        s = int(s)
        try:
            m = matrices[s]
        except KeyError:
            raise ValueError(f"no transition matrix for source id {s}") from None
        entries = np.asarray(m, dtype=np.float64)
        if entries.shape != (c, c):
            raise ValueError(f"transition matrix of source id {s} has shape "
                             f"{entries.shape}, expected {c} x {c}")
        sel = source_ids == s
        cols[:, sel] = entries[:, labels[sel]]
    return cols


def batch_weighting(u: np.ndarray, cols: np.ndarray, spec: LossSpec, scale,
                    buf: BatchBuffers) -> np.ndarray:
    """Per-sample score-space weighting vectors for a batch:
    omega_i = scale * f'(ut_i) * (C_i * u_i - ut_i * u_i), ut_i = C_i . u_i,
    with sample i in column i.

    u is the (c, m) softmax output and cols the matching columns of
    transition_columns; scale = 1/m gives the mean-loss weighting.
    loss_derivative clamps ut to [PROB_FLOOR, 1] before evaluating f', so
    early-training underflow cannot produce non-finite weights. buf holds
    m samples, must not hold u or cols, and receives omega.
    """
    tu = np.multiply(cols, u, out=buf.tu)
    ut = buf.class_ones.dot(tu, out=buf.ut)
    fprime = loss_derivative(spec, ut, floor=_PROB_FLOOR, out=buf.fprime)
    fprime *= scale
    omega = np.multiply(ut, u, out=buf.omega)
    np.subtract(tu, omega, out=omega)
    omega *= fprime
    return omega


def train(features: np.ndarray, labels: np.ndarray, source_ids: np.ndarray,
          c: int, config: TrainConfig, matrices=None,
          epoch_callback=None) -> ModelParameters:
    """Train a classifier on weak-labelled data.

    matrices maps source id -> TransitionMatrix or c x c array and is
    required unless the strategy is vanilla, which ignores it and trains
    with identity columns. epoch_callback is invoked as
    callback(epoch, params) after each epoch (epochs count from 1).
    Bit-deterministic given (config, inputs).

    Raises ValueError when there are no rows, when labels or source_ids
    do not have one entry per feature row, or on a label outside [0, c).
    Overflow in an epoch's steps is not warned about: it leaves the
    parameters non-finite, which raises TrainingDiverged.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if n == 0:
        raise ValueError("training data is empty")
    for what, values in (("labels", labels), ("source ids", source_ids)):
        if len(values) != n:
            raise ValueError(f"{n} feature rows but {len(values)} {what}")
    labels = check_labels(labels, c, "labels")
    if config.strategy != "vanilla" and matrices is None:
        raise ValueError(f"strategy {config.strategy!r} needs per-source transition matrices")
    cols = transition_columns(labels, source_ids, c,
                              None if config.strategy == "vanilla" else matrices)
    inputs = class_major(features)

    rng = np.random.default_rng(config.seed)
    params = init_parameters(d, c, config.hidden, rng)
    grads = params.zeros_like()
    velocity, scratch = np.zeros_like(params.flat), np.empty_like(params.flat)
    look = params.copy()  # the lookahead theta + mu * v, at v = 0
    rates = step_rates(config)

    # the workspace: the epoch's permuted samples, and per minibatch its
    # views of them, the buffers of its size (one set per distinct size)
    # and 1/m
    bs = config.batch_size
    xs, cs = np.empty((d + 1, n)), np.empty((c, n))
    starts = range(0, n, bs)
    sizes = [min(bs, n - start) for start in starts]
    buffers = {m: (BatchBuffers(m, c, config.hidden), scalar_operand(1.0 / m))
               for m in set(sizes)}
    batches = [(xs[:, start:start + m], cs[:, start:start + m]) + buffers[m]
               for start, m in zip(starts, sizes)]

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        # order is a permutation, so clipping changes no index; the default
        # mode="raise" would copy through a temporary buffer
        np.take(inputs, order, axis=1, out=xs, mode="clip")
        np.take(cols, order, axis=1, out=cs, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):
            for xb, cb, buf, scale in batches:
                scores = forward_batch(look, xb, buf)
                u = _softmax_columns(scores, buf)
                omega = batch_weighting(u, cb, config.loss, scale, buf)
                backward_batch(look, xb, omega, grads, buf)
                step(params, grads, velocity, scratch, look.flat, rates)
        if not params.all_finite():
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        if epoch_callback is not None:
            epoch_callback(epoch, params)
    return params


_ARCH_LINEAR, _ARCH_HIDDEN = 0, 1


def save_params(path, params: ModelParameters) -> None:
    """Flat binary checkpoint: little-endian int32 header (arch, d, H, c)
    followed by little-endian float64 arrays per layer: W row-major, then b."""
    arch = _ARCH_LINEAR if params.hidden == 0 else _ARCH_HIDDEN
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4i", arch, params.d, params.hidden, params.c))
        for w, b in zip(params.weights, params.biases):
            fh.write(w.astype("<f8", copy=False).tobytes())
            fh.write(b.astype("<f8", copy=False).tobytes())


def load_params(path) -> ModelParameters:
    """Read a save_params checkpoint.

    Raises ValueError naming the file when the arch code is not 0 or 1,
    d or c is not positive, hidden is nonzero for arch 0 or not positive
    for arch 1, or the file is not exactly the header's byte length.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than the 16-byte checkpoint header")
    arch, d, hidden, c = struct.unpack_from("<4i", data)
    if arch not in (_ARCH_LINEAR, _ARCH_HIDDEN):
        raise ValueError(f"{path}: arch code {arch}, expected {_ARCH_LINEAR} (linear) "
                         f"or {_ARCH_HIDDEN} (one hidden layer)")
    if d <= 0 or c <= 0:
        raise ValueError(f"{path}: d = {d} and c = {c} must be positive")
    if arch == _ARCH_LINEAR and hidden != 0:
        raise ValueError(f"{path}: hidden = {hidden}, expected 0 for arch 0")
    if arch == _ARCH_HIDDEN and hidden <= 0:
        raise ValueError(f"{path}: hidden = {hidden}, expected a positive width for arch 1")
    dims = [(c, d)] if arch == _ARCH_LINEAR else [(hidden, d), (c, hidden)]
    size = 16 + 8 * sum(rows * cols + rows for rows, cols in dims)
    if len(data) != size:
        raise ValueError(f"{path}: {len(data)} bytes, expected {size} for arch {arch}, "
                         f"d = {d}, hidden = {hidden}, c = {c}")
    flat = np.frombuffer(data, dtype="<f8", offset=16)
    weights, biases = [], []
    offset = 0
    for rows, cols in dims:
        weights.append(flat[offset:offset + rows * cols].reshape(rows, cols))
        offset += rows * cols
        biases.append(flat[offset:offset + rows])
        offset += rows
    return ModelParameters(weights, biases)
