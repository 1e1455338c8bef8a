"""Small softmax classifiers with hand-derived backpropagation.

Two architectures: a linear map d -> c, or one ReLU hidden layer
d -> H -> c. Each layer is one (out, in + 1) matrix [W | b], and every
pass is class-major: a batch of m samples is a (d + 1, m) matrix whose
columns are the samples and whose last row is ones, so a layer's
[W | b] @ [x; 1] = W x + b is one product, and the hidden activations
sit in an (H + 1, m) buffer whose last row is ones as well. The backward
pass consumes one score-space weighting vector omega per column and
contracts it against d h / d theta, reading the batch row-major, (m,
d + 1), with a last column of ones; through the ones its products give
each layer's bias gradient beside its weight gradient.
Training computes omega with one kernel, batch_weighting, from a
per-sample transition column T_{s_i}[:, y_i], built once before the
epoch loop as row i of an (n, c) array (transition_columns); the
vanilla strategy is the same kernel with one-hot (identity) columns, so
every strategy shares one code path.
correction.weight_proposed, the chain-rule form through the softmax
Jacobian, is its independent per-sample reference.

A minibatch step is about thirty numpy calls on matrices of about
16 x 32, so its cost is call overhead, not arithmetic. train allocates
one workspace per call, a Minibatches: the samples' row-major [x, 1]
rows, (n, d + 1), and transition columns, (n, c), built once; the
epoch's permuted copies of them, gathered along axis 0 with
np.take(..., out=, mode="clip") (the indices are a permutation, so
clipping changes none, and the default mode="raise" copies through a
temporary) into one buffer, the columns first; two flat buffers, filled
from those by one block-transposing copy each per epoch; and one
BatchBuffers per batch size (the full one, and the short last batch's)
that the three kernels (forward_batch, batch_weighting, backward_batch)
write into instead of allocating. Every operand of a step is one
C-contiguous block in the layout its product wants: forward_batch takes
the batch's class-major (d + 1, m) block of the inputs buffer,
backward_batch its row-major (m, d + 1) rows of the permuted rows for
the input-layer gradient, and batch_weighting its (c, m) block of the
columns buffer. These are the arrays that numpy itself builds from
strided views of one (d + 1, n) or (c, n) epoch array, copying each
(for the gradient, its transpose) into a C-contiguous temporary before
dot calls BLAS, or running it through np.multiply's buffered iterator;
so BLAS makes the same calls on the same arrays as with such views, with
the same bits, and no copy is made. The gradient does not multiply by
the transpose of the class-major block: that F-order operand takes
BLAS's transposed path, which rounds differently. The step allocates no
array of its own; what remains is the iterator buffer numpy takes for
each of the four ufuncs that broadcast a per-sample (m,) vector over the
class rows (the softmax shift and scale, ut * u and omega *= fprime),
3.7 KB each at c 10 and m 32. A kernel takes the arrays it touches:
forward_batch and backward_batch a ModelParameters' layers, step its
flat vectors, which train looks up once per call, as it does the
kernels and the loss; and its buffers, each shaped for exactly the
batch it is given. Every product is ndarray.dot, the BLAS call of
np.dot (so the same bits) without the dispatch np.dot and np.matmul add
on these shapes, and every ufunc is read through a module-level name
(_multiply = np.multiply). Both take out positionally, which numpy
parses faster than out=, but for np.maximum and np.minimum: numpy 2.4
deprecates a positional out there, and such a call is over twice as
slow and warns. The per-sample reductions run over axis 0, the classes
(the softmax denominator and ut are ones-vector products, the column
maxima np.maximum.reduce): an (m,) vector broadcasts over the class rows
more cheaply than a (rows, 1) column over row-major scores.
loss_derivative clamps ut to [PROB_FLOOR, 1] once instead of
range-checking it; the 1/m mean-loss scale rides on the per-sample f'.
Every scalar a step gives a ufunc (the ReLU's 0, the clamp's floor, 1/m,
step's rates) is a read-only 0-d array made once by scalar_operand.

Parameters, velocity, lookahead point and gradient are each one flat
float64 vector in the layout of ModelParameters. Optimisation is
minibatch SGD with Nesterov momentum: the gradient is evaluated at the
lookahead look = theta + mu * v, then v <- mu * v - lr * (g + wd *
theta) and theta <- theta + v, whole-vector operations that step makes
without allocating. TrainConfig holds the hyperparameters; step_rates
turns the three that step reads into its operands.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .labelspace import check_labels, check_rows, check_whole
from .losses import LossSpec, loss_derivative, scalar_operand

STRATEGIES = ("vanilla", "proposed")

_ZERO = scalar_operand(0.0)
_multiply, _subtract, _add, _exp, _sign = np.multiply, np.subtract, np.add, np.exp, np.sign
_maximum, _max_reduce = np.maximum, np.maximum.reduce


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
        for name in ("epochs", "batch_size", "hidden"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
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
    fprime and omega; backward_batch reads a through its transpose a_t
    and writes dh and mask. dh is (H + 1, m): its first H rows, dh_hidden,
    are the hidden delta, and its last row is unused. The (m,) class sums
    are products with class_ones (length c).
    """

    def __init__(self, m: int, c: int, hidden: int):
        super().__init__(m, c, hidden)
        self.a_t = self.a.T
        self.dh = np.empty((hidden + 1, m))
        self.dh_hidden = self.dh[:hidden]
        self.mask = np.empty((hidden, m))
        self.tu = np.empty((c, m))
        self.omega = np.empty((c, m))
        self.col = np.empty(m)
        self.ut = np.empty(m)
        self.fprime = np.empty(m)
        self.class_ones = np.ones(c)


def forward_batch(layers: list, x: np.ndarray, buf: ForwardBuffers) -> np.ndarray:
    """Scores buf.scores, (c, m), that the layers of a ModelParameters give
    a class-major float64 batch x, (d + 1, m) with a last row of ones; buf
    holds m samples and also receives the hidden activations, in buf.a."""
    a = x  # the input of the output layer
    if len(layers) == 2:
        z = layers[0].dot(x, buf.a_hidden)
        _maximum(z, _ZERO, out=z)
        a = buf.a
    return layers[-1].dot(a, buf.scores)


def backward_batch(layers: list, x_rows: np.ndarray, delta: np.ndarray, out_layers: list,
                   buf: BatchBuffers) -> None:
    """Contract the weighting vectors in the columns of delta, (c, m),
    against d h / d theta at a ModelParameters' layers and sum over the
    samples (scale delta by 1/m first for a mean-loss gradient); linear in
    delta. Written into out_layers, those of another. x_rows, (m, d + 1),
    is the batch of the forward_batch call that made delta's scores,
    row-major: the transpose of its x, with a last column of ones. buf
    holds that call's buffers: the hidden activations are read from buf.a,
    and buf receives the hidden delta and the ReLU mask. The ones column
    of x_rows and the ones row of buf.a make each product's last column a
    bias gradient."""
    hidden = len(layers) == 2
    delta.dot(buf.a_t if hidden else x_rows, out_layers[-1])
    if hidden:
        layers[1].T.dot(delta, buf.dh)  # [W1 | b1]^T delta; row H is unused
        d_hidden = buf.dh_hidden
        # a = max(z, 0) >= 0, so sign(a) is the 0/1 derivative of the ReLU
        # at the pre-activation z
        d_hidden *= _sign(buf.a_hidden, buf.mask)
        d_hidden.dot(x_rows, out_layers[0])


def step_rates(config: TrainConfig) -> tuple:
    """(momentum, learning rate, weight decay) of config as the read-only
    0-d arrays that step takes."""
    return tuple(scalar_operand(value) for value in
                 (config.momentum, config.learning_rate, config.weight_decay))


def step(theta: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
         scratch: np.ndarray, look: np.ndarray, rates: tuple) -> None:
    """One SGD update with Nesterov momentum, in place on a ModelParameters'
    flat vector theta, with the momentum mu, learning rate lr and weight
    decay wd in rates (step_rates): v <- mu * v - lr * (g + wd * theta),
    theta <- theta + v. velocity holds mu * v before and after; grads holds
    the gradient at the lookahead point theta + mu * v, and look receives
    the next one. All five are flat vectors of the parameter size; the
    bracket is built in scratch, in the formula's order, so nothing is
    allocated."""
    mu, lr, wd = rates
    update = _multiply(theta, wd, scratch)
    update += grads
    update *= lr
    velocity -= update  # now v
    theta += velocity
    velocity *= mu
    _add(theta, velocity, look)


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
        block = slice(start, start + PREDICT_BLOCK_ROWS)
        forward_batch(params.layers, class_major(x[block]), ForwardBuffers(
            len(x[block]), params.c, params.hidden)).argmax(axis=0, out=out[block])
    return out


def _softmax_columns(scores: np.ndarray, buf: BatchBuffers) -> np.ndarray:
    """Softmax of each column of scores, (c, m), computed in place; buf
    holds m samples, and its col receives the column maxima and then the
    column sums."""
    col = _max_reduce(scores, 0, None, buf.col)
    scores -= col
    _exp(scores, scores)
    buf.class_ones.dot(scores, col)
    scores /= col
    return scores


def transition_columns(labels: np.ndarray, source_ids: np.ndarray, c: int,
                       matrices=None) -> np.ndarray:
    """Per-sample transition columns as the rows that Minibatches takes:
    row i is T_{s_i}[:, y_i], shape (n, c).

    matrices maps source id -> TransitionMatrix or c x c array, each read
    with np.asarray; None gives one-hot columns, the identity columns of
    the uncorrected loss. Raises ValueError naming the source id when a
    source in source_ids has no matrix or one that is not c x c.
    """
    if matrices is None:
        return np.eye(c)[labels]
    rows = np.empty((labels.shape[0], c))
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
        rows[sel] = entries.T[labels[sel]]
    return rows


def batch_weighting(u: np.ndarray, cols: np.ndarray, spec: LossSpec, scale,
                    buf: BatchBuffers) -> np.ndarray:
    """Per-sample score-space weighting vectors for a batch:
    omega_i = scale * f'(ut_i) * (C_i * u_i - ut_i * u_i), ut_i = C_i . u_i,
    with sample i in column i.

    u is the (c, m) softmax output and cols the matching (c, m) columns,
    the transposed rows of transition_columns; scale = 1/m gives the
    mean-loss weighting.
    loss_derivative clamps ut to [PROB_FLOOR, 1] before evaluating f', so
    early-training underflow cannot produce non-finite weights. buf holds
    m samples, must not hold u or cols, and receives omega.
    """
    tu = _multiply(cols, u, buf.tu)
    ut = buf.class_ones.dot(tu, buf.ut)
    fprime = loss_derivative(spec, ut, buf.fprime)
    fprime *= scale
    omega = _multiply(ut, u, buf.omega)
    _subtract(tu, omega, omega)
    omega *= fprime
    return omega


class Minibatches:
    """train's epoch workspace: n samples, and their permuted copy in
    minibatches of batch_size, the last one shorter, laid out so that
    every operand of a step is one C-contiguous block.

    Built from the features, (n, d), and the samples' transition columns
    as rows, (n, c); it copies the features once into the row-major [x, 1]
    rows, (n, d + 1), and keeps the columns, copying them only when they
    are not C-contiguous float64. load(order) then writes the samples in
    that order into three buffers: rows, (n, d + 1), whose rows start to
    start + m are a batch's row-major x_rows for backward_batch; inputs,
    flat, which holds each batch's class-major (d + 1, m) block for
    forward_batch in turn; and columns, flat, each batch's (c, m)
    transition columns for batch_weighting. The permuted (n, c) columns
    pass through the buffer of rows on their way to columns, before the
    rows are gathered, so they take no buffer of their own. batches lists
    per minibatch (x, x_rows, cols, buf, scale): its views of the three
    buffers, the BatchBuffers of its size (one per distinct size) and 1/m.
    """

    def __init__(self, features: np.ndarray, col_rows: np.ndarray, batch_size: int,
                 hidden: int):
        n, d = features.shape
        c = col_rows.shape[1]
        self.batch_size = batch_size
        self._rows = np.empty((n, d + 1))
        self._rows[:, :d] = features
        self._rows[:, d] = 1.0
        self._cols = np.ascontiguousarray(col_rows, dtype=np.float64)
        gathered = np.empty(n * max(d + 1, c))
        self.rows = gathered[:n * (d + 1)].reshape(n, d + 1)
        self._gathered_cols = gathered[:n * c].reshape(n, c)
        self.inputs, self.columns = np.empty(n * (d + 1)), np.empty(n * c)
        starts = range(0, n, batch_size)
        sizes = [min(batch_size, n - start) for start in starts]
        buffers = {m: (BatchBuffers(m, c, hidden), scalar_operand(1.0 / m)) for m in set(sizes)}
        self.batches = [(self.inputs[start * (d + 1):(start + m) * (d + 1)].reshape(d + 1, m),
                         self.rows[start:start + m],
                         self.columns[start * c:(start + m) * c].reshape(c, m)) + buffers[m]
                        for start, m in zip(starts, sizes)]

    def load(self, order: np.ndarray) -> None:
        """Lay out the samples in the order of the permutation order."""
        # order is a permutation, so clipping changes no index; the default
        # mode="raise" would copy through a temporary buffer
        np.take(self._cols, order, axis=0, out=self._gathered_cols, mode="clip")
        _transpose_blocks(self._gathered_cols, self.columns, self.batch_size)
        np.take(self._rows, order, axis=0, out=self.rows, mode="clip")
        _transpose_blocks(self.rows, self.inputs, self.batch_size)


def _transpose_blocks(rows: np.ndarray, flat: np.ndarray, size: int) -> None:
    """Write each block of size consecutive rows of rows, (n, w), the last
    block shorter, transposed into flat: the m rows from row start become
    the C-contiguous (w, m) array at offset start * w."""
    n, w = rows.shape
    k, tail = divmod(n, size)
    full = k * size
    np.copyto(flat[:full * w].reshape(k, w, size),
              rows[:full].reshape(k, size, w).transpose(0, 2, 1))
    np.copyto(flat[full * w:].reshape(w, tail), rows[full:].T)


def train(features: np.ndarray, labels: np.ndarray, source_ids: np.ndarray,
          c: int, config: TrainConfig, matrices=None,
          epoch_callback=None) -> ModelParameters:
    """Train a classifier on weak-labelled data.

    The vanilla strategy trains with identity columns; proposed corrects
    each row with its source's matrix, matrices mapping source id ->
    TransitionMatrix or c x c array. epoch_callback is invoked as
    callback(epoch, params) after each epoch (epochs count from 1).
    Bit-deterministic given (config, inputs).

    Raises ValueError when there are no rows, when labels or source_ids
    do not have one entry per feature row, on a label outside [0, c) and
    on a label or source id that is not a whole number, naming the row.
    Overflow in an epoch's steps is not warned about: it leaves the
    parameters non-finite, which raises TrainingDiverged.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if n == 0:
        raise ValueError("training data is empty")
    for what, values in (("labels", labels), ("source ids", source_ids)):
        check_rows(what, n, values, what)
    labels = check_labels(labels, c, "labels")
    source_ids = check_whole(source_ids, "source ids", "source id")
    if config.strategy != "vanilla" and matrices is None:
        raise ValueError(f"strategy {config.strategy!r} needs per-source transition matrices")
    col_rows = transition_columns(labels, source_ids, c,
                                  None if config.strategy == "vanilla" else matrices)
    minibatches = Minibatches(features, col_rows, config.batch_size, config.hidden)

    rng = np.random.default_rng(config.seed)
    params = init_parameters(d, c, config.hidden, rng)
    grads, look = params.zeros_like(), params.copy()  # look: theta + mu * v, at v = 0
    theta, velocity, scratch = params.flat, np.zeros_like(params.flat), np.empty_like(params.flat)
    # bound per call, not at import, so that a wrapper set on a kernel's name sees every call
    forward, softmax, weighting, backward, update = (
        forward_batch, _softmax_columns, batch_weighting, backward_batch, step)
    spec, rates = config.loss, step_rates(config)
    look_layers, grad_layers, grad, lookahead = look.layers, grads.layers, grads.flat, look.flat

    for epoch in range(1, config.epochs + 1):
        minibatches.load(rng.permutation(n))
        with np.errstate(over="ignore", invalid="ignore"):
            for xb, x_rows, cb, buf, scale in minibatches.batches:
                omega = weighting(softmax(forward(look_layers, xb, buf), buf), cb, spec, scale, buf)
                backward(look_layers, x_rows, omega, grad_layers, buf)
                update(theta, grad, velocity, scratch, lookahead, rates)
        if not params.all_finite():
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        if epoch_callback is not None:
            epoch_callback(epoch, params)
    return params


_ARCH_LINEAR, _ARCH_HIDDEN = 0, 1


def _check_finite(path, params: ModelParameters) -> ModelParameters:
    """params; ValueError naming path and the first layer that holds a
    non-finite weight or bias."""
    for i, layer in enumerate(params.layers, start=1):
        if not np.isfinite(layer).all():
            raise ValueError(f"{path}: layer {i} of {len(params.layers)} holds a non-finite "
                             f"weight or bias")
    return params


def save_params(path, params: ModelParameters) -> None:
    """Flat binary checkpoint: little-endian int32 header (arch, d, H, c)
    followed by little-endian float64 arrays per layer: W row-major, then b.

    Parameters that are not all finite raise ValueError, as in load_params,
    before the path is opened."""
    _check_finite(path, params)
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
    for arch 1, or the file is not exactly the header's byte length; and
    naming the layer, too, when a weight or bias is not finite.
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
    return _check_finite(path, ModelParameters(weights, biases))
