"""Small softmax classifiers with hand-derived backpropagation.

Two architectures: a linear map d -> c, or one ReLU hidden layer
d -> H -> c. Every pass is batched (rows are samples; a single sample is
a one-row batch). The backward pass consumes one score-space weighting
vector omega per row and contracts it against d h / d theta. Training
computes omega with one kernel, batch_weighting, from a per-sample
transition column C[i] = T_{s_i}[:, y_i] built once before the epoch
loop; the vanilla strategy is the same kernel with one-hot (identity)
columns, so the three strategies share one code path.
correction.weight_proposed, the chain-rule form over softmax_grad, is
its independent per-sample reference.

A minibatch step is a few dozen numpy calls on matrices of about 32 x 16,
so its cost is call overhead, not arithmetic, and the step allocates
nothing. train allocates one workspace per call: the epoch's permuted
features and columns, gathered with np.take(..., out=, mode="clip") (the
rows are a permutation, so clipping changes no index, and the default
mode="raise" copies through a temporary), and a BatchBuffers of
batch-size arrays that the three kernels (forward_batch,
batch_weighting, backward_batch) write into instead of allocating; the
short last batch uses leading-row views of it. Every kernel takes its
buffers as a required argument, so each has one calling convention;
predict_batch makes one BatchBuffers per call and cuts it to each
block. Inside the kernels the products are np.dot(..., out=), which
dispatches faster than np.matmul on these shapes and gives the same
bits; the bias gradients are matrix-vector products with a ones vector;
the row maxima and sums call np.maximum.reduce and np.add.reduce
directly rather than the ndarray methods that wrap them; the
architecture is read from len(weights) or the activation cache;
loss_derivative clamps the corrected probability to [PROB_FLOOR, 1] once
instead of range-checking it, and the 1/m mean-loss scale rides on the
per-row f'.

Parameters, velocity, lookahead point and gradient are each one flat
float64 vector with per-layer views (ModelParameters). Optimisation is
minibatch SGD with Nesterov momentum: the gradient is evaluated at the
lookahead point look = theta + mu * v, written into its own buffer, then
v <- mu * v - lr * (g + wd * theta) and theta <- theta + v, each a
whole-vector operation; the bracket is built, in that order, in a
scratch vector that train allocates beside the velocity, so step
allocates nothing. TrainConfig holds the hyperparameters step reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .labelspace import check_labels
from .losses import PROB_FLOOR, LossSpec, loss_derivative

STRATEGIES = ("vanilla", "forward", "proposed")


class TrainingDiverged(RuntimeError):
    """Parameters became non-finite during training."""


class ModelParameters:
    """Weight matrices (out x in) and bias vectors, one pair per layer.

    The constructor copies them into one flat float64 vector `flat`, laid
    out layer by layer as W (row-major) then b, the checkpoint order;
    `weights` and `biases` are views into it, so writing to either side
    writes to both. Gradients and velocities use the same layout.
    """

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=np.float64) for pair in zip(weights, biases)
                  for a in pair]
        self.flat = np.empty(sum(a.size for a in arrays))
        views = []
        offset = 0
        for a in arrays:
            view = self.flat[offset:offset + a.size].reshape(a.shape)
            view[...] = a
            views.append(view)
            offset += a.size
        self.weights = views[0::2]
        self.biases = views[1::2]

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
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")


def init_parameters(d: int, c: int, hidden: int, rng: np.random.Generator) -> ModelParameters:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = [(d, c)] if hidden == 0 else [(d, hidden), (hidden, c)]
    weights, biases = [], []
    for fan_in, fan_out in dims:
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParameters(weights, biases)


class BatchBuffers:
    """Output arrays of the minibatch kernels for batches of `rows` rows.

    forward_batch writes a and scores; _softmax_rows uses the column
    col; batch_weighting writes tu, ut, fprime and omega; backward_batch
    writes dh and mask and sums rows through ones. A kernel's results are
    views of these arrays, valid until the next call that is given the
    same buffers.
    """

    def __init__(self, rows: int, c: int, hidden: int):
        self.a = np.empty((rows, hidden))
        self.mask = np.empty((rows, hidden))
        self.dh = np.empty((rows, hidden))
        self.scores = np.empty((rows, c))
        self.tu = np.empty((rows, c))
        self.omega = np.empty((rows, c))
        self.col = np.empty((rows, 1))
        self.ut = np.empty((rows, 1))
        self.fprime = np.empty((rows, 1))
        self.ones = np.ones(rows)

    def head(self, rows: int) -> "BatchBuffers":
        """The same buffers cut to their leading rows, for a short batch."""
        view = object.__new__(BatchBuffers)
        view.__dict__.update({name: arr[:rows] for name, arr in vars(self).items()})
        return view


def forward_batch(params: ModelParameters, x: np.ndarray, buf: BatchBuffers):
    """Scores for a batch (n, d); also returns the activation cache.
    buf holds n rows and receives the activations and scores."""
    x = np.asarray(x, dtype=np.float64)
    weights, biases = params.weights, params.biases
    if len(weights) == 1:
        scores = np.dot(x, weights[0].T, out=buf.scores)
        scores += biases[0]
        return scores, (x,)
    a = np.dot(x, weights[0].T, out=buf.a)
    a += biases[0]
    np.maximum(a, 0.0, out=a)
    scores = np.dot(a, weights[1].T, out=buf.scores)
    scores += biases[1]
    return scores, (x, a)


def backward_batch(params: ModelParameters, cache, delta: np.ndarray,
                   out: ModelParameters, buf: BatchBuffers) -> ModelParameters:
    """Contract the weighting vectors in the rows of delta against d h /
    d theta and sum over the rows (scale delta by 1/m first for a
    mean-loss gradient); linear in delta. Written into out, which is
    returned. buf holds len(delta) rows and receives the hidden delta
    and the ReLU mask."""
    if len(cache) == 1:
        (x,) = cache
        np.dot(delta.T, x, out=out.weights[0])
        np.dot(buf.ones, delta, out=out.biases[0])
        return out
    x, a = cache
    d_hidden = np.dot(delta, params.weights[1], out=buf.dh)
    # a = max(z, 0) >= 0, so sign(a) is the 0/1 derivative of the ReLU at
    # the pre-activation z
    d_hidden *= np.sign(a, out=buf.mask)
    np.dot(d_hidden.T, x, out=out.weights[0])
    np.dot(buf.ones, d_hidden, out=out.biases[0])
    np.dot(delta.T, a, out=out.weights[1])
    np.dot(buf.ones, delta, out=out.biases[1])
    return out


def step(params: ModelParameters, grads: ModelParameters, velocity: np.ndarray,
         scratch: np.ndarray, config: TrainConfig) -> None:
    """One SGD update, in place on the flat buffers, with the learning
    rate lr, momentum mu and weight decay wd of config:
    v <- mu * v - lr * (g + wd * theta), theta <- theta + v. velocity and
    scratch are flat vectors of the parameter size; the gradient is
    expected at the lookahead point theta + mu * v. The bracket is built
    in scratch, in the formula's order, so nothing is allocated.
    """
    update = np.multiply(params.flat, config.weight_decay, out=scratch)
    update += grads.flat
    update *= config.learning_rate
    velocity *= config.momentum
    velocity -= update
    params.flat += velocity


# most rows per forward pass in predict_batch: the (rows, H) activations of
# one block stay near 1 MB whatever the input size, at full speed
PREDICT_BLOCK_ROWS = 4096


def predict_batch(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties break toward the lowest index.

    Runs forward_batch on the fewest blocks of at most PREDICT_BLOCK_ROWS
    rows, sized within one row of each other, so memory stays bounded on
    large inputs. Even sizes leave no small tail block, for which BLAS may
    take a kernel that rounds differently from the whole-input product.
    One BatchBuffers of the largest block's rows serves every block.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    blocks = max(1, -(-n // PREDICT_BLOCK_ROWS))  # an empty input makes one pass
    bounds = [i * n // blocks for i in range(blocks + 1)]
    buf = BatchBuffers(-(-n // blocks), params.c, params.hidden)
    out = np.empty(n, dtype=np.int64)
    for start, stop in zip(bounds, bounds[1:]):
        scores, _ = forward_batch(params, x[start:stop], buf.head(stop - start))
        scores.argmax(axis=1, out=out[start:stop])
    return out


def _softmax_rows(scores: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in scores; col, an (n, 1)
    array, receives the row maxima and then the row sums."""
    col = np.maximum.reduce(scores, axis=1, keepdims=True, out=col)
    scores -= col
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=1, keepdims=True, out=col)
    return scores


def transition_columns(labels: np.ndarray, source_ids: np.ndarray, c: int,
                       matrices=None) -> np.ndarray:
    """Per-sample column matrix C[i] = T_{s_i}[:, y_i], shape (n, c).

    matrices maps source id -> TransitionMatrix or c x c array, each read
    with np.asarray; None gives one-hot rows, the identity columns of the uncorrected loss.
    Raises ValueError naming the source id when a source in source_ids
    has no matrix or one that is not c x c.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if matrices is None:
        return np.eye(c)[labels]
    source_ids = np.asarray(source_ids, dtype=np.int64)
    cols = np.empty((labels.shape[0], c))
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
        cols[sel] = entries.T[labels[sel]]
    return cols


def batch_weighting(u: np.ndarray, cols: np.ndarray, spec: LossSpec, scale: float,
                    buf: BatchBuffers) -> np.ndarray:
    """Per-sample score-space weighting vectors for a batch:
    omega_i = scale * f'(ut_i) * (C_i * u_i - ut_i * u_i), ut_i = C_i . u_i.

    u is the (n, c) softmax output and cols the matching rows of
    transition_columns; scale = 1/n gives the mean-loss weighting.
    loss_derivative clamps ut to [PROB_FLOOR, 1] before evaluating f', so
    early-training underflow cannot produce non-finite weights. buf holds
    n rows, must not hold u or cols, and receives omega.
    """
    tu = np.multiply(cols, u, out=buf.tu)
    ut = np.add.reduce(tu, axis=1, keepdims=True, out=buf.ut)
    fprime = loss_derivative(spec, ut, floor=PROB_FLOOR, out=buf.fprime)
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

    rng = np.random.default_rng(config.seed)
    params = init_parameters(d, c, config.hidden, rng)
    look = params.zeros_like()
    grads = params.zeros_like()
    velocity, scratch = np.zeros_like(params.flat), np.empty_like(params.flat)

    # the workspace: the epoch's permuted rows, and per minibatch its views
    # of them, its buffers (leading rows for a short last batch) and 1/m
    bs = config.batch_size
    xs, cs = np.empty((n, d)), np.empty((n, c))
    full = BatchBuffers(min(bs, n), c, config.hidden)
    batches = []
    for start in range(0, n, bs):
        m = min(bs, n - start)
        buf = full if m == bs else full.head(m)
        batches.append((xs[start:start + m], cs[start:start + m], buf, 1.0 / m))

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        # order is a permutation, so clipping changes no index; the default
        # mode="raise" would copy through a temporary buffer
        np.take(features, order, axis=0, out=xs, mode="clip")
        np.take(cols, order, axis=0, out=cs, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):
            for xb, cb, buf, scale in batches:
                np.multiply(velocity, config.momentum, out=look.flat)
                look.flat += params.flat
                scores, cache = forward_batch(look, xb, buf)
                u = _softmax_rows(scores, buf.col)
                omega = batch_weighting(u, cb, config.loss, scale, buf)
                backward_batch(look, cache, omega, grads, buf)
                step(params, grads, velocity, scratch, config)
        if not params.all_finite():
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        if epoch_callback is not None:
            epoch_callback(epoch, params)
    return params


_ARCH_LINEAR, _ARCH_HIDDEN = 0, 1


def save_params(path, params: ModelParameters) -> None:
    """Flat binary checkpoint: little-endian int32 header (arch, d, H, c)
    followed by row-major float64 arrays per layer (W then b)."""
    arch = _ARCH_LINEAR if params.hidden == 0 else _ARCH_HIDDEN
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4i", arch, params.d, params.hidden, params.c))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


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
