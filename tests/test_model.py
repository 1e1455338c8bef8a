import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from weaklab import model
from weaklab.correction import corrected_loss, softmax, weight_proposed
from weaklab.labelspace import TransitionMatrix
from weaklab.losses import PROB_FLOOR, LossSpec, loss_value
from weaklab.model import (BatchBuffers, ModelParameters, TrainConfig, TrainingDiverged,
                           _softmax_rows, backward_batch, batch_weighting, forward_batch,
                           init_parameters, load_params, predict_batch,
                           save_params, step, train, transition_columns)

from conftest import SPECS, per_parameter_fd, random_row_stochastic, scores_of


def make_params(rng, d, c, hidden):
    return init_parameters(d, c, hidden, rng)


def fresh_buffers(params, rows):
    return BatchBuffers(rows, params.c, params.hidden)


def one_row_gradient(params, x, omega):
    """backward_batch on a one-row batch, as a flat gradient vector."""
    buf = fresh_buffers(params, 1)
    _, cache = forward_batch(params, x[None, :], buf)
    return backward_batch(params, cache, np.asarray(omega)[None, :], params.zeros_like(),
                          buf).flat


def optimizer_vectors(params):
    """The flat velocity (zero) and scratch vectors that train gives step."""
    return np.zeros_like(params.flat), np.empty_like(params.flat)


def test_forward_zero_params_gives_uniform():
    params = ModelParameters([np.zeros((4, 3))], [np.zeros(4)])
    h = scores_of(params, np.array([1.0, -2.0, 0.5]))
    assert np.all(h == 0.0)
    assert np.allclose(softmax(h), 0.25)


def test_forward_linear_identity_block():
    w = np.zeros((3, 3))
    np.fill_diagonal(w, 1.0)
    params = ModelParameters([w], [np.zeros(3)])
    x = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(scores_of(params, x), x)


def test_forward_matches_straight_line_reimplementation(rng):
    params = make_params(rng, 7, 4, 5)
    x = rng.standard_normal(7)
    z = params.weights[0] @ x + params.biases[0]
    expected = params.weights[1] @ np.where(z > 0, z, 0.0) + params.biases[1]
    assert np.allclose(scores_of(params, x), expected, atol=1e-14)

    lin = make_params(rng, 7, 4, 0)
    assert np.allclose(scores_of(lin, x), lin.weights[0] @ x + lin.biases[0], atol=1e-14)


def test_forward_rejects_wrong_length(rng):
    params = make_params(rng, 5, 3, 0)
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((1, 4)), fresh_buffers(params, 1))


def test_backward_zero_omega_gives_zero_grads(rng):
    params = make_params(rng, 6, 4, 8)
    assert np.all(one_row_gradient(params, rng.standard_normal(6), np.zeros(4)) == 0.0)


def test_backward_linear_in_omega(rng):
    params = make_params(rng, 6, 4, 8)
    x = rng.standard_normal(6)
    w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
    ga = one_row_gradient(params, x, w1)
    gb = one_row_gradient(params, x, w2)
    assert np.allclose(ga + gb, one_row_gradient(params, x, w1 + w2), atol=1e-12)


@pytest.mark.parametrize("hidden", [0, 6])
def test_backward_matches_parameter_finite_differences(rng, hidden):
    # every strategy x loss combination, against an independent differencer
    for spec in SPECS:
        for strategy in ("vanilla", "corrected"):
            for _ in range(8):
                d, c = 5, 4
                params = make_params(rng, d, c, hidden)
                x = rng.standard_normal(d)
                k = int(rng.integers(c))
                t = random_row_stochastic(rng, c)

                u = softmax(scores_of(params, x))
                if strategy == "vanilla":
                    def scalar_fn(p):
                        return loss_value(spec, softmax(scores_of(p, x))[k])
                    omega = weight_proposed(spec, np.eye(c), k, u)
                else:
                    def scalar_fn(p):
                        return corrected_loss(spec, t, k, softmax(scores_of(p, x)))
                    omega = weight_proposed(spec, t, k, u)

                exact = one_row_gradient(params, x, omega)
                approx = per_parameter_fd(params, scalar_fn)
                rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(approx), 1e-12)
                assert rel <= 1e-5


def test_step_plain_sgd_when_momentum_zero(rng):
    params = make_params(rng, 3, 2, 0)
    before = params.copy()
    config = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    grads = ModelParameters([np.ones((2, 3))], [np.ones(2)])
    step(params, grads, *optimizer_vectors(params), config)
    assert np.allclose(params.weights[0], before.weights[0] - 0.1)
    assert np.allclose(params.biases[0], before.biases[0] - 0.1)


def test_step_velocity_approaches_geometric_limit(rng):
    params = make_params(rng, 3, 2, 0)
    config = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    velocity = params.zeros_like()  # per-layer views of the flat velocity
    scratch = np.empty_like(params.flat)
    g = ModelParameters([np.full((2, 3), 2.0)], [np.full(2, 2.0)])
    # v_t = -lr * g * (1 - mu^t) / (1 - mu), limit magnitude lr * g / (1 - mu)
    for t in range(1, 30):
        step(params, g, velocity.flat, scratch, config)
        expected = -0.1 * 2.0 * (1 - 0.9 ** t) / (1 - 0.9)
        assert np.allclose(velocity.weights[0], expected, rtol=1e-12)
    assert abs(velocity.weights[0][0, 0]) < 0.1 * 2.0 / (1 - 0.9)


def test_step_noop_on_zero_gradient(rng):
    params = make_params(rng, 3, 2, 0)
    before = params.copy()
    config = TrainConfig(learning_rate=0.5, momentum=0.9, weight_decay=0.0)
    step(params, params.zeros_like(), *optimizer_vectors(params), config)
    assert np.array_equal(params.weights[0], before.weights[0])
    assert np.array_equal(params.biases[0], before.biases[0])


def test_step_applies_weight_decay(rng):
    params = ModelParameters([np.full((2, 2), 10.0)], [np.zeros(2)])
    config = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    step(params, params.zeros_like(), *optimizer_vectors(params), config)
    # g = 0 + 0.5 * 10 = 5, theta <- 10 - 0.1 * 5
    assert np.allclose(params.weights[0], 9.5)


@pytest.mark.parametrize("hidden", [0, 32])
@pytest.mark.parametrize("strategy", ["vanilla", "forward", "proposed"])
def test_trained_gradient_matches_per_sample_oracle(rng, strategy, hidden):
    # the batched chain train() runs (transition_columns, batch_weighting,
    # backward_batch, with the 1/m scale and one set of buffers reused for
    # every loss) on one minibatch, against the mean over its rows of the
    # chain-rule reference weight_proposed contracted one row at a time
    d, c, m, sources = 6, 5, 16, 3
    if strategy == "vanilla":
        mats = {s: np.eye(c) for s in range(sources)}
    elif strategy == "forward":
        single = random_row_stochastic(rng, c)
        mats = {s: single for s in range(sources)}
    else:
        mats = {s: random_row_stochastic(rng, c) for s in range(sources)}
    look = make_params(rng, d, c, hidden)
    x = rng.standard_normal((m, d))
    labels = rng.integers(c, size=m)
    src = rng.integers(sources, size=m)
    cols = transition_columns(labels, src, c, None if strategy == "vanilla" else mats)
    buf = BatchBuffers(m, c, hidden)
    for spec in SPECS:
        scores, cache = forward_batch(look, x, buf)
        omega = batch_weighting(_softmax_rows(scores, buf.col), cols, spec, 1.0 / m, buf)
        batched = backward_batch(look, cache, omega, look.zeros_like(), buf).flat
        oracle = np.mean([one_row_gradient(look, x[i], weight_proposed(
            spec, mats[src[i]], labels[i], softmax(scores_of(look, x[i]))))
            for i in range(m)], axis=0)
        assert np.linalg.norm(batched - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("hidden", [0, 4])
def test_vanilla_is_proposed_with_identity_matrices(rng, hidden):
    feats, labels = _toy_training_data(rng)
    src = rng.integers(3, size=len(labels))
    # 300 rows: batches of 32 and of 7 end in a short one, 1000 makes one batch
    for batch_size in (32, 7, 1000):
        cfg = TrainConfig(epochs=3, hidden=hidden, seed=4, batch_size=batch_size)
        vanilla = train(feats, labels, src, 3, cfg)
        proposed = train(feats, labels, src, 3, replace(cfg, strategy="proposed"),
                         matrices={s: np.eye(3) for s in range(3)})
        assert np.array_equal(vanilla.flat, proposed.flat)


def buffered_step(params, x, cols, spec, buf):
    """One minibatch through the kernels, writing into buf: (omega, gradient)."""
    scores, cache = forward_batch(params, x, buf)
    omega = batch_weighting(_softmax_rows(scores, buf.col), cols, spec, 1.0 / len(x), buf)
    return omega, backward_batch(params, cache, omega, params.zeros_like(), buf)


def fresh_step(params, x, cols, spec):
    """buffered_step into a new BatchBuffers made for this one batch."""
    return buffered_step(params, x, cols, spec, fresh_buffers(params, len(x)))


@pytest.mark.parametrize("hidden", [0, 32])
def test_reused_buffers_equal_fresh_buffers(rng, hidden):
    # consecutive batches through one set of buffers, one of them a short
    # batch in their leading rows, bit-equal to calls given fresh buffers: a
    # kernel reading a value left over from the previous batch would show
    # here (a buffer shared within one call shows in the plain-formula test)
    d, c, bs = 16, 10, 32
    buf = BatchBuffers(bs, c, hidden)
    for m, spec in [(bs, LossSpec("gce", q=0.7)), (bs, LossSpec("sl")), (11, LossSpec("cce")),
                    (bs, LossSpec("mae"))]:
        params = make_params(rng, d, c, hidden)
        x = rng.standard_normal((m, d))
        cols = random_row_stochastic(rng, c)[:, rng.integers(c, size=m)].T.copy()
        omega, grad = buffered_step(params, x, cols, spec, buf if m == bs else buf.head(m))
        assert np.shares_memory(omega, buf.omega)
        expected_omega, expected_grad = fresh_step(params, x, cols, spec)
        assert np.array_equal(omega, expected_omega)
        assert np.array_equal(grad.flat, expected_grad.flat)


def plain_loss_derivative(spec, u):
    if spec.family == "cce":
        return -1.0 / u
    if spec.family == "mae":
        return np.full_like(u, -2.0)
    if spec.family == "gce":
        return -(u ** (spec.q - 1.0))
    return -spec.alpha / u + spec.beta * spec.A


def plain_train(features, labels, source_ids, c, config, matrices):
    """train written from its formulas alone, calling none of model's
    kernels: @ products, the .max() and .sum() methods, fancy-index gathers
    and the allocating update v = mu*v - lr*(g + wd*theta), in the
    operation order the kernels use (bias sums as ones @ delta, the 1/m
    scale on f', the ReLU derivative as a 0/1 factor)."""
    cols = np.array([np.asarray(matrices[s], dtype=np.float64)[:, y]
                     for s, y in zip(source_ids, labels)])
    rng = np.random.default_rng(config.seed)
    params = init_parameters(features.shape[1], c, config.hidden, rng)
    theta, v = params.flat.copy(), np.zeros_like(params.flat)
    look = params.copy()
    n, bs, mu = len(labels), config.batch_size, config.momentum
    for _ in range(config.epochs):
        order = rng.permutation(n)
        xs, cs = features[order], cols[order]
        for start in range(0, n, bs):
            x, cb = xs[start:start + bs], cs[start:start + bs]
            m = len(x)
            look.flat[:] = theta + mu * v
            w, b = look.weights, look.biases
            a = x if config.hidden == 0 else np.maximum(x @ w[0].T + b[0], 0.0)
            scores = a @ w[-1].T + b[-1]
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            u = e / e.sum(axis=1, keepdims=True)
            ut = (cb * u).sum(axis=1, keepdims=True)
            fprime = plain_loss_derivative(config.loss, np.minimum(np.maximum(ut, PROB_FLOOR), 1.0))
            omega = (cb * u - ut * u) * (fprime * (1.0 / m))
            ones = np.ones(m)
            grads = [omega.T @ a, ones @ omega]
            if config.hidden:
                dh = (omega @ w[1]) * (a > 0)
                grads = [dh.T @ x, ones @ dh] + grads
            g = np.concatenate([part.ravel() for part in grads])
            v = mu * v - config.learning_rate * (g + config.weight_decay * theta)
            theta = theta + v
    return theta


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
@pytest.mark.parametrize("hidden", [0, 32])
def test_train_equals_the_plain_formulas(rng, hidden, spec):
    # pins every output bit of train to the formulas: a kernel rewrite
    # (other products, reductions, gathers or update order) that moves a
    # bit fails here, which a reference built on the kernels cannot show
    feats, labels = _toy_training_data(rng, n=301)
    src = rng.integers(3, size=301)
    mats = {s: random_row_stochastic(rng, 3) for s in range(3)}
    cfg = TrainConfig(epochs=2, hidden=hidden, seed=6, strategy="proposed", loss=spec)
    assert len(labels) % cfg.batch_size != 0
    trained = train(feats, labels, src, 3, cfg, matrices=mats)
    assert np.array_equal(trained.flat, plain_train(feats, labels, src, 3, cfg, mats))


def test_step_allocates_nothing(rng):
    params = make_params(rng, 16, 10, 32)
    config = TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=1e-6)
    velocity, scratch = optimizer_vectors(params)
    grads = make_params(rng, 16, 10, 32)
    tracemalloc.start()
    try:
        for _ in range(500):
            step(params, grads, velocity, scratch, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes


@pytest.mark.parametrize("rows, labels, sources, message", [
    (0, [], [], "^training data is empty"),
    (4, [0, 1, 2], [0, 0, 0, 0], "^4 feature rows but 3 labels"),
    (4, [0, 1, 2, 0, 1], [0, 0, 0, 0], "^4 feature rows but 5 labels"),
    (4, [0, -1, 2, 0], [0, 0, 0, 0], r"^labels, row 1: label -1 outside \[0, 3\)"),
    (4, [0, 1, 2, 3], [0, 0, 0, 0], r"^labels, row 3: label 3 outside \[0, 3\)"),
    (4, [0, 1, 2, 0], [0, 1, 1], "^4 feature rows but 3 source ids"),
], ids=["no_rows", "short_labels", "long_labels", "negative_label", "label_c",
        "short_source_ids"])
@pytest.mark.parametrize("strategy", ["vanilla", "proposed"])
def test_train_rejects_input_it_would_mis_train_on(rows, labels, sources, message, strategy):
    mats = {0: np.eye(3), 1: np.full((3, 3), 1 / 3)}
    with pytest.raises(ValueError, match=message):
        train(np.zeros((rows, 2)), np.array(labels, dtype=np.int64),
              np.array(sources, dtype=np.int64), 3,
              TrainConfig(epochs=1, strategy=strategy), matrices=mats)


def test_train_names_a_source_without_a_transition_matrix(rng):
    feats, labels = _toy_training_data(rng)
    src = rng.integers(3, size=len(labels))
    cfg = TrainConfig(epochs=1, strategy="proposed")
    with pytest.raises(ValueError, match="no transition matrix for source id 1"):
        train(feats, labels, src, 3, cfg, matrices={0: np.eye(3), 2: np.eye(3)})


def test_train_names_a_source_whose_transition_matrix_has_the_wrong_shape(rng):
    feats, labels = _toy_training_data(rng)
    src = rng.integers(3, size=len(labels))
    mats = {0: np.eye(3), 1: np.eye(3), 2: np.eye(4)}
    with pytest.raises(ValueError, match=r"source id 2 has shape \(4, 4\), expected 3 x 3"):
        train(feats, labels, src, 3, TrainConfig(epochs=1, strategy="forward"), matrices=mats)


@pytest.mark.parametrize("strategy", ["forward", "proposed"])
def test_train_reads_a_transition_matrix_as_its_entries(rng, strategy):
    feats, labels = _toy_training_data(rng)
    src = rng.integers(3, size=len(labels))
    mats = {s: TransitionMatrix(random_row_stochastic(rng, 3)) for s in range(3)}
    cfg = TrainConfig(epochs=2, hidden=4, seed=3, strategy=strategy)
    trained = train(feats, labels, src, 3, cfg, matrices=mats)
    arrays = {s: m.entries for s, m in mats.items()}
    assert np.array_equal(trained.flat, train(feats, labels, src, 3, cfg, matrices=arrays).flat)


def test_parameter_views_share_the_flat_buffer(rng):
    params = make_params(rng, 3, 2, 4)
    assert params.flat.size == 4 * 3 + 4 + 2 * 4 + 2
    params.flat[:] = np.arange(params.flat.size)
    assert params.weights[0][1, 0] == 3.0 and params.biases[0][0] == 12.0
    assert params.weights[1][0, 0] == 16.0 and params.biases[1][1] == 25.0
    copy = params.copy()
    copy.weights[1][0, 0] = -1.0
    assert params.flat[16] == 16.0


def test_predict_tie_break_and_shift_invariance(rng):
    params = ModelParameters([np.zeros((3, 2))], [np.array([3.0, 1.0, 2.0])])
    assert predict_batch(params, np.zeros((1, 2)))[0] == 0
    params.biases[0][:] = 0.0
    assert predict_batch(params, np.zeros((1, 2)))[0] == 0  # uniform scores: lowest index wins
    params2 = make_params(rng, 4, 3, 0)
    x = rng.standard_normal((1, 4))
    base = predict_batch(params2, x)[0]
    params2.biases[0] += 7.5  # shifting all scores cannot change the argmax
    assert predict_batch(params2, x)[0] == base


@pytest.mark.parametrize("hidden", [0, 32])
def test_predict_batch_blocks_equal_one_whole_pass(rng, hidden):
    params = make_params(rng, 16, 10, hidden)
    b = model.PREDICT_BLOCK_ROWS
    x = rng.standard_normal((2 * b + 3, 16))
    for n in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        scores, _ = forward_batch(params, x[:n], fresh_buffers(params, n))
        preds = predict_batch(params, x[:n])
        assert preds.dtype == np.int64 and preds.shape == (n,)
        assert np.array_equal(preds, scores.argmax(axis=1))
    with pytest.raises(ValueError):
        predict_batch(params, np.zeros((0, 15)))  # the wrong width, even with no rows


def test_predict_batch_memory_is_bounded(rng):
    # one whole-input pass holds (n, H) activations: about 95 MB here
    params = make_params(rng, 16, 10, 32)
    x = rng.standard_normal((200_000, 16))
    tracemalloc.start()
    try:
        preds = predict_batch(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    scores, _ = forward_batch(params, x[:1000], fresh_buffers(params, 1000))
    assert np.array_equal(preds[:1000], scores.argmax(axis=1))


def _toy_training_data(rng, n=300):
    means = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    labels = rng.integers(3, size=n)
    feats = means[labels] + 0.3 * rng.standard_normal((n, 2))
    return feats, labels


def test_train_learns_separable_data(rng):
    feats, labels = _toy_training_data(rng)
    cfg = TrainConfig(epochs=20, hidden=0, seed=1, learning_rate=0.1)
    params = train(feats, labels, np.zeros(len(labels), dtype=np.int64), 3, cfg)
    assert np.mean(predict_batch(params, feats) == labels) >= 0.99


def test_train_bit_deterministic(rng):
    feats, labels = _toy_training_data(rng)
    src = np.zeros(len(labels), dtype=np.int64)
    cfg = TrainConfig(epochs=5, hidden=4, seed=7)
    snaps = []
    for _ in range(2):
        trace = []
        params = train(feats, labels, src, 3, cfg,
                       epoch_callback=lambda ep, p: trace.append(p.copy()))
        snaps.append(trace)
    for pa, pb in zip(*snaps):
        for wa, wb in zip(pa.weights, pb.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(pa.biases, pb.biases):
            assert np.array_equal(ba, bb)


def test_train_proposed_strategy_needs_matrices(rng):
    feats, labels = _toy_training_data(rng)
    cfg = TrainConfig(epochs=1, strategy="proposed")
    with pytest.raises(ValueError):
        train(feats, labels, np.zeros(len(labels), dtype=np.int64), 3, cfg)


def test_train_diverges_raises(rng):
    feats, labels = _toy_training_data(rng)
    cfg = TrainConfig(epochs=5, hidden=0, learning_rate=1e9, weight_decay=1e9)
    with pytest.raises(TrainingDiverged):
        train(feats, labels, np.zeros(len(labels), dtype=np.int64), 3, cfg)


def test_train_shift_invariance_of_weighting(rng):
    # adding a constant score offset (via biases after training) leaves
    # predictions unchanged; weight vectors depend on u only
    feats, labels = _toy_training_data(rng)
    cfg = TrainConfig(epochs=3, hidden=0, seed=2)
    params = train(feats, labels, np.zeros(len(labels), dtype=np.int64), 3, cfg)
    preds = predict_batch(params, feats)
    params.biases[0] += 42.0
    assert np.array_equal(predict_batch(params, feats), preds)


@pytest.mark.parametrize("hidden", [0, 5])
def test_params_binary_round_trip(tmp_path, rng, hidden):
    params = make_params(rng, 6, 4, hidden)
    path = tmp_path / "model.params"
    save_params(path, params)
    loaded = load_params(path)
    assert loaded.d == params.d and loaded.c == params.c and loaded.hidden == params.hidden
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)
    # header: arch code, d, hidden, c as little-endian int32
    raw = path.read_bytes()
    arch = int.from_bytes(raw[0:4], "little")
    assert arch == (0 if hidden == 0 else 1)
    assert int.from_bytes(raw[4:8], "little") == 6
    assert int.from_bytes(raw[8:12], "little") == hidden
    assert int.from_bytes(raw[12:16], "little") == 4


@pytest.mark.parametrize("header, tail, message", [
    ((7, 6, 0, 4), 0, "arch code 7, expected 0"),
    ((0, 0, 0, 4), 0, "d = 0 and c = 4 must be positive"),
    ((0, 6, 0, -4), 0, "must be positive"),
    ((0, 6, 5, 4), 0, "hidden = 5, expected 0 for arch 0"),
    ((1, 6, 0, 4), 0, "hidden = 0, expected a positive width"),
    ((0, 6, 0, 4), -8, "232 bytes, expected 240"),
    ((0, 6, 0, 4), 8, "248 bytes, expected 240"),
], ids=["arch", "zero_d", "negative_c", "hidden_for_linear", "no_hidden_for_arch1",
        "truncated", "trailing_bytes"])
def test_load_params_rejects_bad_checkpoints(tmp_path, rng, header, tail, message):
    path = tmp_path / "model.params"
    save_params(path, make_params(rng, 6, 4, 0))  # 16 + 8 * (4 * 6 + 4) = 240 bytes
    raw = path.read_bytes()
    raw = struct.pack("<4i", *header) + raw[16:]
    raw = raw[:tail] if tail < 0 else raw + bytes(tail)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"model.params: .*{message}"):
        load_params(path)


def test_load_params_rejects_a_file_shorter_than_the_header(tmp_path):
    path = tmp_path / "model.params"
    path.write_bytes(bytes(10))
    with pytest.raises(ValueError, match="10 bytes, shorter than the 16-byte"):
        load_params(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(strategy="backward")
    for field, value, message in [
            ("learning_rate", 0.0, "learning_rate must be finite and > 0, got 0.0"),
            ("learning_rate", -1.0, "learning_rate must be finite and > 0, got -1.0"),
            ("learning_rate", float("nan"), "learning_rate must be finite and > 0, got nan"),
            ("learning_rate", float("inf"), "learning_rate must be finite and > 0, got inf"),
            ("momentum", 1.0, r"momentum must lie in \[0, 1\), got 1.0"),
            ("momentum", -0.1, r"momentum must lie in \[0, 1\), got -0.1"),
            ("momentum", float("nan"), r"momentum must lie in \[0, 1\), got nan"),
            ("weight_decay", -1e-6, "weight_decay must be finite and >= 0, got -1e-06"),
            ("weight_decay", float("nan"), "weight_decay must be finite and >= 0, got nan")]:
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})
    # the boundary values that are allowed
    TrainConfig(momentum=0.0, weight_decay=0.0)
