import tracemalloc

import numpy as np
import pytest

from weaklab.datagen import (Dataset, SourceBlock, build_multisource, generate_blobs,
                             load_dataset, save_dataset)
from weaklab.estimation import (confusion_counts, estimate_per_source, estimate_single,
                                estimate_transition, train_baseline)
from weaklab.harness import overall_accuracy
from weaklab.labelspace import SourceSpec, TemplateKind, identity_matrix, make_template
from weaklab.model import ModelParameters, TrainConfig


def oracle_params(blobs: Dataset) -> ModelParameters:
    """Nearest-mean classifier from the generator's own means; at small
    spread this predicts the true labels essentially always."""
    return ModelParameters([blobs.means.copy()], [np.zeros(blobs.c)])


def oracle_setup(n_weak, eta, kind=TemplateKind.MIXED_CLASS_DEPENDENT, seed=11, spread=0.1):
    blobs = generate_blobs(10, 16, int(np.ceil((n_weak + 500) / 8)), spread,
                           np.random.default_rng(seed))
    t = make_template(kind, 10, eta)
    specs = [SourceSpec(0, identity_matrix(10), 500), SourceSpec(1, t, n_weak)]
    ms, test = build_multisource(blobs, specs, seed)
    return blobs, t, ms, test


def test_train_baseline_reaches_high_accuracy_on_separable_data():
    blobs = generate_blobs(10, 16, 200, 0.05, np.random.default_rng(1))
    specs = [SourceSpec(0, identity_matrix(10), 800)]
    ms, test = build_multisource(blobs, specs, 1)
    blk = ms.block(0)
    clean = Dataset(blk.features, blk.labels, 10)
    params = train_baseline(clean, TrainConfig(epochs=20, seed=1))
    assert overall_accuracy(params, test) >= 0.95


def test_train_baseline_deterministic():
    blobs = generate_blobs(5, 8, 50, 0.2, np.random.default_rng(2))
    clean = Dataset(blobs.features, blobs.labels, 5)
    cfg = TrainConfig(epochs=3, seed=9)
    a = train_baseline(clean, cfg)
    b = train_baseline(clean, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_train_baseline_validation():
    blobs = generate_blobs(5, 8, 10, 0.2, np.random.default_rng(2))
    clean = Dataset(blobs.features, blobs.labels, 5)
    # train rejects a non-vanilla strategy given no transition matrices
    with pytest.raises(ValueError, match="strategy 'proposed' needs per-source transition"):
        train_baseline(clean, TrainConfig(strategy="proposed"))
    with pytest.raises(ValueError):
        train_baseline(Dataset(np.empty((0, 8)), np.empty(0, dtype=int), 5), TrainConfig())


def test_confusion_counts_oracle_on_clean_source():
    blobs, _, ms, _ = oracle_setup(2000, 0.3)
    blk = ms.block(0)
    counts = confusion_counts(oracle_params(blobs), [blk], 10)
    assert counts.sum() == len(blk)
    assert np.all(counts == np.diag(np.diag(counts)))  # diagonal only


def test_confusion_counts_oracle_on_weak_source_matches_template():
    blobs, t, ms, _ = oracle_setup(20_000, 0.3)
    blk = ms.block(1)
    counts = confusion_counts(oracle_params(blobs), [blk], 10)
    assert counts.sum() == len(blk)
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(freq - t.entries).max() <= 0.03


@pytest.mark.parametrize("shape, blocks, message", [
    ((3, 2), [(1, 4, [0, 2, 1, 4])], r"^source 1, row 3: label 4 outside \[0, 3\)"),
    ((3, 2), [(1, 4, [0, -1, 1, 2])], r"^source 1, row 1: label -1 outside \[0, 3\)"),
    ((3, 2), [(1, 4, [0, 1, 2])], r"^source 1, row 3: 4 feature rows but 3 labels"),
    ((3, 2), [(1, 2, [0, 1, 2])], r"^source 1, row 2: 2 feature rows but 3 labels"),
    ((3, 2), [(1, 0, [])], "^source data is empty"),
    ((3, 2), [(0, 0, []), (1, 0, [])], "^source data is empty"),
    ((3, 2), [(0, 2, [0, 1]), (2, 3, [0, 3, 1])], r"^source 2, row 1: label 3 outside \[0, 3\)"),
    ((2, 2), [(1, 4, [0, 1, 2, 0])], "^baseline predicts 2 classes, expected c = 3"),
    ((5, 2), [(1, 4, [0, 1, 2, 0])], "^baseline predicts 5 classes, expected c = 3"),
    ((3, 4), [(0, 2, [0, 1]), (2, 3, [0, 2, 1])],
     "^source 0: 2 features per row, but the baseline takes 4"),
], ids=["label_c_plus_1", "negative_label", "short_labels", "long_labels", "empty",
        "all_blocks_empty", "row_within_second_block", "baseline_of_fewer_classes",
        "baseline_of_more_classes", "baseline_of_another_width"])
def test_confusion_counts_rejects_bad_labels(shape, blocks, message):
    # a zero linear model predicts class 0 for every row; label 4 on such a
    # row would land in cell (1, 1) of the flat c x c count
    classes, width = shape
    params = ModelParameters([np.zeros((classes, width))], [np.zeros(classes)])
    blocks = [SourceBlock(sid, np.zeros((rows, 2)), np.array(labels, dtype=np.int64))
              for sid, rows, labels in blocks]
    with pytest.raises(ValueError, match=message):
        confusion_counts(params, blocks, 3)


def test_estimate_transition_identity_counts():
    t = estimate_transition(1000.0 * np.eye(2), smoothing=0.5)
    assert np.abs(t.entries - np.eye(2)).max() <= 1e-3
    exact = estimate_transition(7.0 * np.eye(4), smoothing=0.0)
    assert np.array_equal(exact.entries, np.eye(4))


def test_estimate_transition_plain_normalisation():
    counts = np.array([[8.0, 2.0], [5.0, 5.0]])
    t = estimate_transition(counts, smoothing=0.0)
    assert t.entries[0] == pytest.approx([0.8, 0.2])
    assert t.entries[1] == pytest.approx([0.5, 0.5])


def test_estimate_transition_zero_row_falls_back_to_identity():
    counts = np.array([[0.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    t = estimate_transition(counts, smoothing=0.5)
    assert np.array_equal(t.entries[0], [1.0, 0.0, 0.0])
    assert np.array_equal(t.entries[2], [0.0, 0.0, 1.0])


def test_estimate_transition_row_stochastic_for_random_counts(rng):
    for _ in range(100):
        c = int(rng.integers(2, 8))
        counts = rng.integers(0, 50, size=(c, c)).astype(float)
        t = estimate_transition(counts, smoothing=float(rng.choice([0.0, 0.5, 2.0])))
        assert np.all(t.entries >= 0.0)
        assert np.allclose(t.entries.sum(axis=1), 1.0, atol=1e-12)


def test_full_pipeline_recovers_template():
    blobs, t, ms, _ = oracle_setup(20_000, 0.3)
    est = estimate_per_source(oracle_params(blobs), ms)
    assert set(est) == {1}
    assert np.abs(est[1].entries - t.entries).max() <= 0.03


def test_estimation_error_shrinks_with_sample_size():
    errs = {}
    for n in (2000, 20_000):
        blobs, t, ms, _ = oracle_setup(n, 0.3, seed=13)
        est = estimate_per_source(oracle_params(blobs), ms, smoothing=0.0)
        errs[n] = np.abs(est[1].entries - t.entries).max()
    assert errs[2000] >= 2.0 * errs[20_000]


def test_estimate_single_mixture_identity():
    # clean source is 1/10 of the pool, weak source 9/10: the pooled matrix
    # approaches 0.1 * I + 0.9 * T
    blobs = generate_blobs(10, 16, 2600, 0.1, np.random.default_rng(15))
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.4)
    specs = [SourceSpec(0, identity_matrix(10), 2000), SourceSpec(1, t, 18_000)]
    ms, _ = build_multisource(blobs, specs, 15)
    single = estimate_single(oracle_params(blobs), ms, smoothing=0.0)
    expected = 0.1 * np.eye(10) + 0.9 * t.entries
    assert np.abs(single.entries - expected).max() <= 0.03


def test_estimate_single_clean_only_is_identity():
    blobs, _, _, _ = oracle_setup(2000, 0.3)
    specs = [SourceSpec(0, identity_matrix(10), 2000)]
    ms, _ = build_multisource(blobs, specs, 11)
    single = estimate_single(oracle_params(blobs), ms, smoothing=0.0)
    assert np.array_equal(single.entries, np.eye(10))


def test_estimate_single_on_a_loaded_file_does_not_copy_the_rows(tmp_path):
    # the prep layout: 10k clean + 3 x 50k weak rows, saved and reloaded, so
    # the blocks are slices of one buffer, and they are counted one by one
    blobs = generate_blobs(10, 16, 20_000, 0.3, np.random.default_rng(21))
    specs = [SourceSpec(0, identity_matrix(10), 10_000)] + [
        SourceSpec(i, make_template(kind, 10, 0.4), 50_000) for i, kind in enumerate(
            (TemplateKind.UNIFORM, TemplateKind.LAND_COVER_CHANGE,
             TemplateKind.INTERCLASS_SIMILARITY), start=1)]
    ms, _ = build_multisource(blobs, specs, 21)
    save_dataset(tmp_path / "data.txt", ms)
    loaded = load_dataset(tmp_path / "data.txt")
    assert len(loaded) == 160_000 and len(loaded.sources) == 4
    baseline = ModelParameters([blobs.means.copy()], [np.zeros(10)])
    tracemalloc.start()
    try:
        single = estimate_single(baseline, loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # a stacked copy of the (160k, 16) features alone is 20.5 MB
    copied = confusion_counts(baseline, [SourceBlock(0, *loaded.stacked()[:2])], 10)
    assert np.array_equal(single.entries, estimate_transition(copied).entries)
