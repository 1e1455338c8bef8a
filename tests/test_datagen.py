import dataclasses
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_DATASET_FILES, VALID_DATASET, dataset_bytes
from weaklab import datagen
from weaklab.datagen import (DATASET_MAGIC, Dataset, MultisourceDataset, SourceBlock,
                             as_clean_dataset, build_multisource, corruption_report,
                             generate_blobs, load_dataset, save_dataset, source_specs,
                             split_sizes)
from weaklab.labelspace import (MAX_CLASSES, SourceSpec, TemplateKind, identity_matrix,
                                make_template)
from weaklab.model import TrainConfig, train
from weaklab.harness import overall_accuracy


def clean_specs(count):
    return [SourceSpec(0, identity_matrix(10), count)]


def test_generate_blobs_shapes_and_determinism():
    a = generate_blobs(10, 16, 50, 0.3, np.random.default_rng(5))
    b = generate_blobs(10, 16, 50, 0.3, np.random.default_rng(5))
    assert a.features.shape == (500, 16)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.bincount(a.labels).tolist() == [50] * 10
    assert np.allclose(np.linalg.norm(a.means, axis=1), 1.0)


def reference_blobs(c, d, n_per_class, spread, rng):
    """The one-expression generator: means[labels] + spread * noise."""
    directions = rng.standard_normal((d, c))
    means = (directions / np.linalg.norm(directions, axis=0)).T
    labels = np.repeat(np.arange(c), n_per_class)
    return means, labels, means[labels] + spread * rng.standard_normal((labels.shape[0], d))


@settings(max_examples=80, deadline=None)
@given(c=st.integers(2, 6), d=st.integers(2, 5), n_per_class=st.integers(1, 7),
       spread=st.floats(1e-6, 1e3), seed=st.integers(0, 2**32 - 1))
def test_generate_blobs_matches_the_reference_bytes(c, d, n_per_class, spread, seed):
    got = generate_blobs(c, d, n_per_class, spread, np.random.default_rng(seed))
    means, labels, features = reference_blobs(c, d, n_per_class, spread,
                                              np.random.default_rng(seed))
    assert got.features.dtype == features.dtype and got.features.shape == features.shape
    assert got.features.tobytes() == features.tobytes()
    assert got.labels.dtype == labels.dtype and got.labels.tobytes() == labels.tobytes()
    assert got.means.tobytes() == means.tobytes()


def test_generate_blobs_memory_is_its_output():
    # the reference expression held the gathered means and the scaled noise
    # beside the output: about twice the feature bytes
    tracemalloc.start()
    try:
        blobs = generate_blobs(10, 16, 5000, 0.3, np.random.default_rng(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * blobs.features.nbytes


def test_generate_blobs_validation():
    rng = np.random.default_rng(0)
    for bad in ((1, 16, 10, 0.3), (10, 1, 10, 0.3), (10, 16, 0, 0.3), (10, 16, 10, 0.0),
                (10, 16, 10, float("nan")), (10, 16, 10, float("inf"))):
        with pytest.raises(ValueError):
            generate_blobs(*bad, rng)
    with pytest.raises(ValueError, match=f"classes must be <= {MAX_CLASSES}, got 1000000"):
        generate_blobs(1_000_000, 16, 10, 0.3, rng)


def test_tiny_spread_is_linearly_separable():
    blobs = generate_blobs(10, 16, 100, 1e-3, np.random.default_rng(3))
    ms, test = build_multisource(blobs, clean_specs(800), 3)
    blk = ms.block(0)
    params = train(blk.features, blk.labels, np.zeros(len(blk), dtype=np.int64), 10,
                   TrainConfig(epochs=15, hidden=0, seed=3))
    assert overall_accuracy(params, test) >= 0.999


def test_default_spread_reference_accuracy_band():
    # full-clean reference of a well-trained linear model at the default
    # spread 0.30, measured once over seeds {0, 1, 2}: [0.898, 0.907, 0.932]
    refs = []
    for seed in (0, 1, 2):
        blobs = generate_blobs(10, 16, 625, 0.30, np.random.default_rng(seed))
        ms, test = build_multisource(blobs, clean_specs(5000), seed)
        blk = ms.block(0)
        params = train(blk.features, blk.labels, np.zeros(len(blk), dtype=np.int64), 10,
                       TrainConfig(epochs=30, hidden=0, seed=seed))
        refs.append(overall_accuracy(params, test))
    assert 0.90 <= np.mean(refs) <= 0.97


def test_split_sizes_and_disjointness():
    blobs = generate_blobs(10, 4, 100, 0.3, np.random.default_rng(1))
    specs = [SourceSpec(0, identity_matrix(10), 100),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.3), 400)]
    ms, test = build_multisource(blobs, specs, 1)
    assert len(test) == 200  # 0.2 * 1000 exactly
    assert len(ms.block(0)) == 100 and len(ms.block(1)) == 400
    train_bytes = {ms.block(s).features[i].tobytes()
                   for s in (0, 1) for i in range(len(ms.block(s)))}
    test_bytes = {test.features[i].tobytes() for i in range(len(test))}
    assert len(train_bytes) == 500  # no instance labelled by two sources
    assert not (train_bytes & test_bytes)


def test_split_remainder_goes_to_train():
    blobs = generate_blobs(10, 4, 101, 0.3, np.random.default_rng(1))  # m = 1010
    ms, test = build_multisource(blobs, clean_specs(10), 1)
    assert len(test) == 202  # floor(0.2 * 1010)


def test_oversubscription_rejected():
    blobs = generate_blobs(10, 4, 100, 0.3, np.random.default_rng(1))
    with pytest.raises(ValueError):
        build_multisource(blobs, clean_specs(801), 1)
    build_multisource(blobs, clean_specs(800), 1)


def test_clean_only_labels_unchanged():
    blobs = generate_blobs(10, 4, 100, 0.3, np.random.default_rng(2))
    ms, _ = build_multisource(blobs, clean_specs(500), 2)
    report = corruption_report(ms, blobs)
    assert np.array_equal(report[0], np.eye(10))


def test_single_weak_source_flip_fraction():
    blobs = generate_blobs(10, 4, 6500, 0.3, np.random.default_rng(4))
    specs = [SourceSpec(0, identity_matrix(10), 500),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.3), 50_000)]
    ms, _ = build_multisource(blobs, specs, 4)
    lookup = {blobs.features[i].tobytes(): blobs.labels[i] for i in range(len(blobs))}
    blk = ms.block(1)
    true = np.array([lookup[blk.features[i].tobytes()] for i in range(len(blk))])
    flipped = np.mean(true != blk.labels)
    assert abs(flipped - 0.3) < 0.02


def test_corruption_report_matches_template():
    blobs = generate_blobs(10, 4, 2600, 0.3, np.random.default_rng(6))
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.3)
    specs = [SourceSpec(0, identity_matrix(10), 500), SourceSpec(1, t, 20_000)]
    ms, _ = build_multisource(blobs, specs, 6)
    report = corruption_report(ms, blobs)
    assert np.abs(report[1] - t.entries).max() <= 0.03
    sums = report[1].sum(axis=1)
    assert np.allclose(sums[sums > 0], 1.0)


def test_same_seed_same_bytes():
    blobs = generate_blobs(10, 4, 200, 0.3, np.random.default_rng(7))
    specs = [SourceSpec(0, identity_matrix(10), 100),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.2), 500)]
    ms1, t1 = build_multisource(blobs, specs, 7)
    ms2, t2 = build_multisource(blobs, specs, 7)
    assert np.array_equal(ms1.block(1).labels, ms2.block(1).labels)
    assert np.array_equal(ms1.block(1).features, ms2.block(1).features)
    assert np.array_equal(t1.features, t2.features)


@pytest.mark.parametrize("ids, message", [
    ([0, 1, 1], "source id 1: given twice; an id names one source"),
    ([0, 2, 1, 0], "source id 0: given twice; an id names one source"),
    ([0, -1], "source ids, row 1: source id -1 below 0"),
    ([0, 1.5], "source ids, row 1: source id 1.5 is not a whole number"),
    ([0, np.nan], "source ids, row 1: source id nan is not a whole number"),
    # an int past uint64 makes an object array, which the int64 cast overflows on
    ([2 ** 70], "source ids, row 0: source id 1180591620717411303424 past int64"),
], ids=["repeated", "repeated_later", "negative", "fraction", "nan", "past_int64"])
def test_a_source_id_names_one_source(ids, message):
    blocks = [SourceBlock(sid, np.zeros((1, 2)), np.zeros(1, dtype=np.int64)) for sid in ids]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultisourceDataset(blocks, 2, 2)


def test_a_dataset_refuses_a_label_that_is_not_whole():
    # a cast would read [0.7, 1.9] as [0, 1]; whole floats are kept as int64
    with pytest.raises(ValueError, match=r"^source 1, row 0: label 0\.7 is not a whole number$"):
        MultisourceDataset([SourceBlock(1, np.zeros((2, 2)), np.array([0.7, 1.9]))], 2, 2)
    ms = MultisourceDataset([SourceBlock(1, np.zeros((2, 2)), np.array([1.0, 0.0]))], 2, 2)
    assert ms.block(1).labels.dtype == np.int64 and ms.block(1).labels.tolist() == [1, 0]


def test_build_multisource_refuses_two_sources_of_one_id():
    # the two would share one transition-matrix estimate
    blobs = generate_blobs(4, 3, 50, 0.3, np.random.default_rng(9))
    specs = [SourceSpec(0, identity_matrix(4), 30),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 4, 0.1), 60),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 4, 0.6), 60)]
    with pytest.raises(ValueError, match="^source id 1: given twice"):
        build_multisource(blobs, specs, 9)


def test_requires_clean_first():
    blobs = generate_blobs(10, 4, 100, 0.3, np.random.default_rng(1))
    weak = SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.2), 10)
    with pytest.raises(ValueError):
        build_multisource(blobs, [weak], 1)


def test_dataset_file_round_trip(tmp_path):
    blobs = generate_blobs(4, 3, 30, 0.3, np.random.default_rng(8))
    specs = [SourceSpec(0, identity_matrix(4), 40),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 4, 0.4), 50)]
    ms, _ = build_multisource(blobs, specs, 8)
    path = tmp_path / "data.bin"
    save_dataset(path, ms)
    data = path.read_bytes()
    assert data[:32] == struct.pack("<8s3q", DATASET_MAGIC, 4, 3, 90)
    assert len(data) == 32 + 90 * 8 * (3 + 3)
    back = load_dataset(path)
    assert back.c == 4 and back.d == 3 and len(back) == 90
    for s in (0, 1):
        assert np.array_equal(back.block(s).features, ms.block(s).features)
        assert np.array_equal(back.block(s).labels, ms.block(s).labels)
        assert np.array_equal(back.block(s).origin, ms.block(s).origin)
    clean = as_clean_dataset(back)
    assert isinstance(clean, Dataset) and len(clean) == 90


def reference_save(path, ms):
    """The one-value-at-a-time writer whose bytes save_dataset must keep."""
    rows = [(blk, i) for blk in ms.sources for i in range(len(blk))]
    path.write_bytes(dataset_bytes(
        ms.c, ms.d, [blk.source_id for blk, _ in rows], [blk.labels[i] for blk, i in rows],
        [-1 if blk.origin is None else blk.origin[i] for blk, i in rows],
        [blk.features[i] for blk, i in rows]))


FLOATS = st.floats(allow_nan=False, width=64)
# values a writer could get wrong: sign of zero, infinity, the smallest subnormal
SPECIAL_FLOATS = st.sampled_from([-0.0, np.inf, 1e-05, 5e-324])


@st.composite
def multisource_datasets(draw, floats=FLOATS):
    c = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    blocks = []
    for sid in sorted(ids):
        size = draw(st.integers(0, 6))  # empty blocks included
        feats = draw(st.lists(st.lists(floats, min_size=d, max_size=d),
                              min_size=size, max_size=size))
        labels = draw(st.lists(st.integers(0, c - 1), min_size=size, max_size=size))
        origin = draw(st.none() | st.lists(st.integers(-1, 99), min_size=size, max_size=size))
        blocks.append(SourceBlock(sid, np.array(feats, dtype=np.float64).reshape(size, d),
                                  np.array(labels, dtype=np.int64),
                                  None if origin is None else np.array(origin, dtype=np.int64)))
    return MultisourceDataset(blocks, c, d)


@settings(max_examples=60, deadline=None)
@given(ms=multisource_datasets(st.one_of(FLOATS, SPECIAL_FLOATS)))
def test_dataset_file_matches_reference_writer_and_round_trips(ms):
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "data.bin", Path(tmp) / "ref.bin"
        reference_save(ref, ms)
        save_dataset(path, ms)
        back = load_dataset(path)
        assert path.read_bytes() == ref.read_bytes()
    assert (back.c, back.d, len(back)) == (ms.c, ms.d, len(ms))
    kept = [b for b in ms.sources if len(b)]
    assert [b.source_id for b in back.sources] == [b.source_id for b in kept]
    for a, b in zip(back.sources, kept):
        assert a.features.tobytes() == b.features.tobytes()  # -0.0 and inf included
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.origin, np.full(len(b), -1) if b.origin is None else b.origin)


# entries a caller may hand the constructors: whole and not, in range and not
ROUGH_LABELS = st.integers(-1, 3) | st.sampled_from([0.0, 1.0, 0.7, -0.0, np.nan, np.inf])
ROUGH_IDS = st.integers(-1, 4) | st.sampled_from([1.0, 2.0, 1.5, np.nan])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_dataset_the_constructors_accept_round_trips(data):
    # the contract that replaces save_dataset's own row checks: what
    # SourceBlock and MultisourceDataset accept, load_dataset reads back as
    # it was given, with -1 for a missing origin
    c = data.draw(st.integers(1, MAX_CLASSES), label="c")
    d = data.draw(st.integers(1, 3), label="d")
    handed = []  # (source id, labels, origins, feature bytes) as handed to SourceBlock
    try:
        blocks = []
        for _ in range(data.draw(st.integers(0, 3), label="sources")):
            rows = data.draw(st.integers(0, 3), label="rows")
            count = st.sampled_from([rows, rows, rows, max(rows - 1, 0), rows + 1])
            n = data.draw(count, label="labels per block")
            labels = data.draw(st.lists(ROUGH_LABELS, min_size=n, max_size=n), label="labels")
            n = data.draw(count, label="origins per block")
            origin = data.draw(st.none() | st.lists(st.integers(-2, 99), min_size=n, max_size=n),
                               label="origin")
            width = data.draw(st.sampled_from([d, d, d, d + 1]), label="width")
            feats = data.draw(st.lists(FLOATS | SPECIAL_FLOATS, min_size=rows * width,
                                       max_size=rows * width), label="features")
            blocks.append(SourceBlock(data.draw(ROUGH_IDS, label="id"),
                                      np.array(feats, dtype=np.float64).reshape(rows, width),
                                      np.array(labels), None if origin is None else
                                      np.array(origin, dtype=np.int64)))
            handed.append((blocks[-1].source_id, labels, origin, blocks[-1].features.tobytes()))
        ms = MultisourceDataset(blocks, c, d)
    except ValueError:
        return  # refused when built: nothing to write
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(Path(tmp) / "data.bin", ms)
        back = load_dataset(Path(tmp) / "data.bin")
    kept = sorted((g for g in handed if g[1]), key=lambda g: g[0])  # an empty source has no rows
    assert (back.c, back.d, len(back)) == (c, d, sum(len(g[1]) for g in kept))
    assert [b.source_id for b in back.sources] == [g[0] for g in kept]
    for b, (_, labels, origin, feats) in zip(back.sources, kept):
        assert b.labels.tolist() == labels
        assert b.origin.tolist() == ([-1] * len(labels) if origin is None else origin)
        assert b.features.tobytes() == feats


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_copied_rows_match_the_reference_writer(data):
    # save -> load -> as_clean_dataset -> build_multisource -> save, as
    # `weaklab corrupt` runs: every output row is the input row at its
    # origin, and the file holds the bytes of the reference writer
    ms = data.draw(multisource_datasets(st.one_of(FLOATS, SPECIAL_FLOATS)))
    pool, _ = split_sizes(len(ms))
    clean = data.draw(st.integers(0, pool))
    specs = [SourceSpec(0, identity_matrix(ms.c), clean),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, ms.c, 0.5),
                        data.draw(st.integers(0, pool - clean)))]
    seed = data.draw(st.integers(0, 2**32 - 1))
    with tempfile.TemporaryDirectory() as tmp:
        first, copied, ref = (Path(tmp) / name for name in ("first.bin", "copied.bin", "ref.bin"))
        save_dataset(first, ms)
        rows = as_clean_dataset(load_dataset(first))
        out, _ = build_multisource(rows, specs, seed)
        save_dataset(copied, out)
        reference_save(ref, out)
        assert copied.read_bytes() == ref.read_bytes()
        back = load_dataset(copied)
    for blk in back.sources:
        assert blk.features.tobytes() == rows.features[blk.origin].tobytes()
        if blk.source_id == 0:
            assert np.array_equal(blk.labels, rows.labels[blk.origin])


def test_copied_rows_memory_is_bounded(tmp_path):
    # save_dataset writes each block's own arrays: joining the blocks
    # (ms.stacked()) would copy every feature, 5.1 MB here
    blobs = generate_blobs(10, 16, 5000, 0.3, np.random.default_rng(13))
    path = tmp_path / "clean.bin"
    save_dataset(path, MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)], 10, 16))
    specs = source_specs(10, 5000, [(TemplateKind.UNIFORM, 0.3, 35000)], len(blobs))
    ms, _ = build_multisource(as_clean_dataset(load_dataset(path)), specs, 13)
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "weak.bin", ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(ms)  # one block's source ids, 8 bytes a row
    assert [len(b) for b in load_dataset(tmp_path / "weak.bin").sources] == [5000, 35000]


def test_the_same_dataset_saves_to_the_same_bytes_at_the_path_given(tmp_path):
    blobs = generate_blobs(4, 3, 30, 0.3, np.random.default_rng(8))
    ms, _ = build_multisource(blobs, source_specs(4, 40, [(TemplateKind.UNIFORM, 0.4, 50)], 120), 8)
    save_dataset(tmp_path / "a.txt", ms)
    save_dataset(str(tmp_path / "b.txt"), ms)
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]  # no suffix added
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def _block(sid=1, rows=3, width=2, labels=None, origin=None):
    """A block of zero features, zero labels unless given, and origins if given."""
    return SourceBlock(sid, np.zeros((rows, width)),
                       np.zeros(rows, dtype=np.int64) if labels is None else np.array(labels),
                       None if origin is None else np.array(origin))


@pytest.mark.parametrize("build, message", [
    (lambda: MultisourceDataset([_block(labels=[0, 1])], 2, 2),
     "source 1, row 2: 3 feature rows but 2 labels"),
    (lambda: MultisourceDataset([_block(origin=[0, 1, 2, 3])], 2, 2),
     "source 1, row 3: 3 feature rows but 4 origins"),
    (lambda: MultisourceDataset([_block(0), _block(1, width=3)], 2, 2),
     "source 1: 3 features per row, the dataset has d = 2"),
    (lambda: MultisourceDataset([_block(labels=[0, 5, 1])], 2, 2),
     "source 1, row 1: label 5 outside [0, 2)"),
    (lambda: MultisourceDataset([_block(labels=[0, -1, 1])], 2, 2),
     "source 1, row 1: label -1 outside [0, 2)"),
    (lambda: MultisourceDataset([_block(origin=[-1, 0, -2])], 2, 2),
     "source 1, row 2: origin -2 below -1"),
    # a fractional origin would be truncated in the file
    (lambda: MultisourceDataset([_block(origin=[-1, 0.5, 1.7])], 2, 2),
     "source 1, row 1: origin 0.5 is not a whole number"),
    (lambda: MultisourceDataset([_block(origin=[0, 1, np.nan])], 2, 2),
     "source 1, row 2: origin nan is not a whole number"),
    (lambda: MultisourceDataset([], 0, 2), "data.bin: header c = 0 classes, expected 1 to "
                                           f"{MAX_CLASSES}"),
    (lambda: MultisourceDataset([_block(width=0)], 2, 0), "data.bin: header d = 0 features per "
                                                          "row, expected at least 1 and few "
                                                          "enough for an array row"),
], ids=["short_labels", "long_origins", "width", "label_c", "negative_label",
        "origin_below_minus_one", "fractional_origin", "nan_origin", "zero_c", "zero_d"])
def test_save_dataset_refuses_what_load_dataset_would(tmp_path, build, message):
    # a block or dataset that load_dataset would refuse is refused when it is
    # built; a header the file cannot hold, by save_dataset before it opens
    # the path, so a refused dataset leaves no file behind
    path = tmp_path / "data.bin"
    if message.startswith("data.bin:"):
        ms = build()
        with pytest.raises(ValueError) as err:
            save_dataset(path, ms)
    else:
        with pytest.raises(ValueError) as err:
            build()
    assert str(err.value).removeprefix(f"{tmp_path}/") == message
    assert os.listdir(tmp_path) == []


def test_a_block_cannot_be_reassigned_after_its_dataset_checked_it(tmp_path):
    # a reassigned label would reach a file that load_dataset refuses
    ms = MultisourceDataset([_block(labels=[0, 1, 1])], 2, 2)
    for name, value in [("labels", np.array([0, 7, 1])), ("origin", np.arange(3)),
                        ("features", np.ones((3, 2))), ("source_id", 0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ms.sources[0], name, value)
    save_dataset(tmp_path / "data.bin", ms)
    assert load_dataset(tmp_path / "data.bin").sources[0].labels.tolist() == [0, 1, 1]


def test_valid_fixture_loads(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(VALID_DATASET)
    ms = load_dataset(path)
    assert [len(b) for b in ms.sources] == [2, 2]
    assert ms.block(0).labels.tolist() == [0, 2] and ms.block(1).labels.tolist() == [1, 0]
    assert ms.block(0).origin.tolist() == [4, 0] and ms.block(1).origin.tolist() == [-1, 2]
    assert ms.block(1).features.tobytes() == np.array([[-0.0, 2.5], [7.0, 8.0]]).tobytes()


@pytest.mark.parametrize("data, message", [case[1:] for case in BAD_DATASET_FILES],
                         ids=[case[0] for case in BAD_DATASET_FILES])
def test_load_dataset_names_the_bad_line(tmp_path, data, message):
    # the file and the field, with the row of a bad row value
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}{message}"


def test_load_dataset_names_a_bad_line_past_the_first_block(tmp_path):
    # the row named is the file's, also where the file's blocks are not in
    # source-id order (row 7 is source 1's second row, the fifth by id)
    src = np.repeat([2, 0, 1], 3)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    labels[7] = 3
    path = tmp_path / "data.bin"
    write_rows(path, 3, src, labels, np.zeros((9, 2)))
    with pytest.raises(ValueError, match=r"data.bin, row 7: label 3 outside \[0, 3\)$"):
        load_dataset(path)


def test_load_dataset_refuses_a_huge_n_before_allocating(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(struct.pack("<8s3q", DATASET_MAGIC, 3, 2, 10**12).ljust(100, b"\0"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="100 bytes, but the header's n = 1000000000000 rows"):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_load_dataset_refuses_a_pipe():
    # a pipe's length is unknown until it has been read
    read_end, write_end = os.pipe()
    os.write(write_end, VALID_DATASET)
    os.close(write_end)
    try:
        with pytest.raises(ValueError, match=f"^/dev/fd/{read_end}: not a regular file"):
            load_dataset(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_load_dataset_room_check_is_exact_at_the_shortest_rows(tmp_path):
    # d = 1: the shortest rows, 4 x 8 = 32 bytes each
    path = tmp_path / "data.bin"
    rows = dataset_bytes(2, 1, [0] * 3, [1] * 3, [-1] * 3, [[5.0]] * 3)
    path.write_bytes(rows)
    assert len(load_dataset(path).block(0)) == 3
    for data in (rows[:-1], rows + b"\0"):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"data.bin: {len(data)} bytes, but the header's "
                                             f"n = 3 rows of d = 1 features take 128$"):
            load_dataset(path)


def test_load_dataset_rejects_every_truncation(tmp_path):
    # every proper prefix of a small saved file
    saved = tmp_path / "saved.bin"
    save_dataset(saved, MultisourceDataset([
        SourceBlock(0, np.array([[0.5, -1.25], [1e-05, 3.0]]), np.array([0, 2]), np.array([4, 0])),
        SourceBlock(1, np.array([[-0.0, 2.5], [7.0, 8.0]]), np.array([1, 0]))], 3, 2))
    data = saved.read_bytes()
    path = tmp_path / "data.bin"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"^{path}: {cut} bytes, (shorter than the 32-byte "
                                             f"header|but the header's n = 4 rows)"):
            load_dataset(path)


def test_stacked_view_consistent():
    blobs = generate_blobs(4, 3, 50, 0.3, np.random.default_rng(9))
    specs = [SourceSpec(0, identity_matrix(4), 30),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 4, 0.4), 60)]
    ms, _ = build_multisource(blobs, specs, 9)
    feats, labels, src = ms.stacked()
    assert feats.shape == (90, 3)
    assert np.bincount(src).tolist() == [30, 60]
    assert np.array_equal(feats[30:], ms.block(1).features)
    assert np.array_equal(labels[30:], ms.block(1).labels)


def write_rows(path, c, src, labels, features, origin=None):
    """A dataset file with rows in the given order (any source order)."""
    origin = np.full(len(src), -1) if origin is None else origin
    path.write_bytes(dataset_bytes(c, features.shape[1], src, labels, origin, features))


def first_row_of_a_repeated_run(src):
    """The first row whose source id an earlier run of other ids held, or None."""
    seen = set()
    for i, sid in enumerate(src.tolist()):
        if i and sid != src[i - 1] and sid in seen:
            return i
        seen.add(sid)
    return None


def mask_reference(src, labels, features, origin):
    """(source id, features, labels, origin) per source by boolean masks,
    as load_dataset built its blocks before they became views."""
    return [(int(s), features[src == s], labels[src == s], origin[src == s])
            for s in np.unique(src)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.sampled_from(["as_drawn", "sorted", "grouped_descending"]))
def test_load_dataset_blocks_are_views_of_one_buffer(data, order):
    n = data.draw(st.integers(0, 12))
    d = data.draw(st.integers(1, 3))
    src = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    if order != "as_drawn":  # grouped files, ids ascending or descending
        src = np.sort(src) if order == "sorted" else np.sort(src)[::-1].copy()
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                      dtype=np.int64)
    origin = np.array(data.draw(st.lists(st.integers(-1, 99), min_size=n, max_size=n)),
                      dtype=np.int64)
    features = np.array(data.draw(st.lists(st.floats(allow_nan=False, width=64),
                                           min_size=n * d, max_size=n * d))).reshape(n, d)
    again = first_row_of_a_repeated_run(src)
    assert again is None or order == "as_drawn"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.bin"
        write_rows(path, 3, src, labels, features, origin)
        if again is not None:  # the ids interleave: refused, whatever the features
            with pytest.raises(ValueError) as err:
                load_dataset(path)
            assert str(err.value) == (f"{path}, row {again}: source id {src[again]} again after "
                                      f"another source's rows: each source's rows must be one run")
            return
        ms = load_dataset(path)
    ref = mask_reference(src, labels, features, origin)
    assert [b.source_id for b in ms.sources] == [sid for sid, _, _, _ in ref]
    for blk, (_, feats, labs, orig) in zip(ms.sources, ref):
        assert blk.features.tobytes() == feats.tobytes()
        assert blk.labels.dtype == np.int64 and np.array_equal(blk.labels, labs)
        assert blk.origin.dtype == np.int64 and np.array_equal(blk.origin, orig)
    for blk in ms.sources:  # slices of one (n, d) and one (n,) array each
        for field in ("features", "labels", "origin"):
            part, first = getattr(blk, field), getattr(ms.sources[0], field)
            assert part.base is first.base and np.shares_memory(part, part.base)
    if ms.sources:
        assert ms.sources[0].features.base.shape == (n, d)


def test_load_dataset_keeps_a_grouped_file_in_place(tmp_path):
    rng = np.random.default_rng(3)
    src = np.repeat([2, 0, 1], [3, 4, 2])
    features = rng.standard_normal((9, 2))
    write_rows(tmp_path / "data.bin", 3, src, np.zeros(9, dtype=np.int64), features)
    ms = load_dataset(tmp_path / "data.bin")
    assert [b.source_id for b in ms.sources] == [0, 1, 2]
    # each block is the slice of its file rows in one (9, 2) buffer
    base = ms.block(2).features.base
    assert base.shape == (9, 2) and np.array_equal(base, features)
    assert all(b.features.base is base and np.shares_memory(b.features, base)
               for b in ms.sources)
    assert np.array_equal(ms.block(0).features, features[3:7])
    assert np.array_equal(ms.block(2).features, features[:3])


def test_stacked_joins_the_blocks_in_source_order(tmp_path):
    rng = np.random.default_rng(4)
    features = rng.standard_normal((9, 2))
    labels = rng.integers(3, size=9)
    for order in ([0, 1, 2], [2, 0, 1]):
        src = np.repeat(order, [3, 4, 2])
        write_rows(tmp_path / "data.bin", 3, src, labels, features)
        ms = load_dataset(tmp_path / "data.bin")
        feats, labs, ids = ms.stacked()
        assert np.array_equal(feats, np.concatenate([b.features for b in ms.sources]))
        assert np.array_equal(labs, np.concatenate([b.labels for b in ms.sources]))
        assert ids.dtype == np.int64 and np.array_equal(ids, np.sort(src))
    feats, labs, ids = MultisourceDataset([], 3, 2).stacked()
    assert feats.shape == (0, 2) and feats.dtype == np.float64
    assert labs.shape == ids.shape == (0,) and labs.dtype == ids.dtype == np.int64


def test_as_clean_dataset_of_one_source_is_a_view():
    blk = SourceBlock(0, np.ones((3, 2)), np.array([0, 1, 0]))
    clean = as_clean_dataset(MultisourceDataset([blk], 2, 2))
    assert clean.features is blk.features and clean.labels is blk.labels


def readme_snippet(marker):
    """The README's python code block that holds marker."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    return next(block for block in blocks if marker in block)


def test_readme_text_conversion_snippet_runs(tmp_path, monkeypatch):
    # the README's conversion of a text file, run on one in the text format
    # of earlier versions with sources out of order
    src = np.array([1, 0, 1, 2, 0])
    labels = np.array([2, 0, 1, 1, 2])
    features = np.random.default_rng(5).standard_normal((5, 3))
    monkeypatch.chdir(tmp_path)
    with open("dataset.txt", "w") as fh:
        fh.write("3 3 5\n")
        for s, label, row in zip(src, labels, features):
            fh.write(f"{s} {label} {' '.join(map(repr, row.tolist()))}\n")
    exec(readme_snippet("np.loadtxt"), {})
    ms = load_dataset("dataset.bin")
    assert (ms.c, ms.d) == (3, 3) and [blk.source_id for blk in ms.sources] == [0, 1, 2]
    for blk in ms.sources:
        rows = src == blk.source_id
        assert blk.features.tobytes() == features[rows].tobytes()
        assert np.array_equal(blk.labels, labels[rows]) and (blk.origin == -1).all()


def dict_report(ms, original):
    """The feature-bytes dictionary and per-row loop that corruption_report
    used before it matched rows by origin; the two agree while the
    original holds no row twice."""
    lookup = {original.features[i].tobytes(): int(original.labels[i])
              for i in range(len(original))}
    report = {}
    for blk in ms.sources:
        counts = np.zeros((ms.c, ms.c))
        for i in range(len(blk)):
            counts[lookup[blk.features[i].tobytes()], blk.labels[i]] += 1
        sums = counts.sum(axis=1, keepdims=True)
        report[blk.source_id] = np.divide(counts, sums, out=np.zeros_like(counts),
                                          where=sums > 0)
    return report


@settings(max_examples=80, deadline=None)
@given(data=st.data(), block_rows=st.integers(1, 3))
def test_corruption_report_matches_dict_reference(data, block_rows):
    c = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 3))
    # few distinct values, so rows share values; 0.0 and -0.0 rows are one
    # row for unique=, so no row is held twice by its bytes either
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf])
    rows = data.draw(st.lists(st.tuples(*[values] * d), min_size=1, max_size=20, unique=True))
    m = len(rows)
    original = Dataset(np.array(rows, dtype=np.float64).reshape(m, d),
                       np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=m,
                                                   max_size=m)), dtype=np.int64), c)
    blocks = []
    for sid in range(data.draw(st.integers(1, 3))):
        drawn = data.draw(st.lists(st.integers(0, m - 1), max_size=12))
        labels = data.draw(st.lists(st.integers(0, c - 1), min_size=len(drawn),
                                    max_size=len(drawn)))
        blocks.append(SourceBlock(sid, original.features[drawn].reshape(len(drawn), d),
                                  np.array(labels, dtype=np.int64),
                                  np.array(drawn, dtype=np.int64)))
    ms = MultisourceDataset(blocks, c, d)
    with mock.patch.object(datagen, "BLOCK_ROWS", block_rows):
        got = corruption_report(ms, original)
    want = dict_report(ms, original)
    assert list(got) == list(want)
    for sid in want:
        assert got[sid].tobytes() == want[sid].tobytes()


def test_corruption_report_matches_a_duplicate_row_to_its_own_origin():
    # the original holds one feature row twice, as classes 0 and 1; matched
    # by bytes, both block rows took the label of the last duplicate
    original = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]), 2)
    blk = SourceBlock(1, original.features.copy(), np.array([0, 0]), np.array([0, 1]))
    report = corruption_report(MultisourceDataset([blk], 2, 2), original)
    assert report[1].tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert dict_report(MultisourceDataset([blk], 2, 2), original)[1].tolist() == [[0.0, 0.0],
                                                                                  [1.0, 0.0]]


def test_corruption_report_names_a_row_missing_from_the_original():
    original = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), 2)
    clean = SourceBlock(0, original.features[:1], np.array([0]), np.array([0]))
    for blk, message in [
            (SourceBlock(3, original.features[::-1], np.array([1, 1]), np.array([1, -1])),
             "source 3, row 1: origin -1, not one of the original dataset's 2 rows"),
            (SourceBlock(2, original.features, np.array([1, 1])),  # no origins at all
             "source 2, row 0: origin -1, not one of the original dataset's 2 rows"),
            (SourceBlock(3, original.features, np.array([1, 1]), np.array([0, 2])),
             "source 3, row 1: origin 2, not one of the original dataset's 2 rows"),
            # bits are compared: -0.0 is not 0.0
            (SourceBlock(1, np.array([[2.0, 3.0], [-0.0, 1.0]]), np.array([1, 1]),
                         np.array([1, 0])),
             "source 1, row 1: features differ from the original dataset's row 0, its origin")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            corruption_report(MultisourceDataset([clean, blk], 2, 2), original)
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="source 0, row 0: origin 0, not one of the "
                                         "original dataset's 0 rows$"):
        corruption_report(MultisourceDataset([clean], 2, 2), empty)
    assert corruption_report(MultisourceDataset([], 2, 2), empty) == {}


def test_corruption_report_names_a_differing_row_in_a_later_block():
    # with blocks of 3 rows, row 4 is the second row of the second block:
    # -0.0 there against the original's 0.0 is named by its global row
    original = Dataset(np.zeros((7, 2)), np.zeros(7, dtype=np.int64), 2)
    features = np.zeros((7, 2))
    features[4, 1] = -0.0
    blk = SourceBlock(4, features, np.zeros(7, dtype=np.int64), np.arange(7)[::-1].copy())
    with mock.patch.object(datagen, "BLOCK_ROWS", 3):
        with pytest.raises(ValueError, match=r"^source 4, row 4: features differ from the "
                                             r"original dataset's row 2, its origin$"):
            corruption_report(MultisourceDataset([blk], 2, 2), original)
        features[4, 1] = 0.0
        report = corruption_report(MultisourceDataset([blk], 2, 2), original)
    assert report[4].tolist() == [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("labels, origin, message", [
    ([0, 1], [0, 1, 0], "source 1, row 2: 3 feature rows but 2 labels"),
    ([0, 1, 0, 1], [0, 1, 0], "source 1, row 3: 3 feature rows but 4 labels"),
    ([0, 1, 0], [0, 1], "source 1, row 2: 3 feature rows but 2 origins"),
    ([0, 1, 0], [0], "source 1, row 1: 3 feature rows but 1 origins"),  # once broadcast
    ([0, 1, 0], [0, 1, 0, 1], "source 1, row 3: 3 feature rows but 4 origins"),
], ids=["short_labels", "long_labels", "short_origins", "one_origin", "long_origins"])
def test_corruption_report_refuses_a_length_mismatch(labels, origin, message):
    # corruption_report takes only built blocks, and the block refuses the
    # mismatch when it is built
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SourceBlock(1, np.zeros((3, 2)), np.array(labels, dtype=np.int64),
                    np.array(origin, dtype=np.int64))


def test_corruption_report_rejects_bad_widths_and_labels():
    original = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), 2)
    wide = SourceBlock(1, np.zeros((1, 3)), np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="source 1: 3 features per row, the original has 2"):
        corruption_report(MultisourceDataset([wide], 2, 3), original)
    # a label outside [0, c) is refused when the dataset is built
    bad = SourceBlock(1, original.features.copy(), np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError, match=r"source 1, row 1: label 2 outside \[0, 2\)"):
        MultisourceDataset([bad], 2, 2)


def test_corruption_report_memory_is_bounded():
    # the dictionary of 128-byte row keys and the per-row loop peaked at about
    # 42 MB; gathering the original rows of the 150k-row block at once would
    # hold 19.2 MB, and gathering them a column at a time peaked at 3.2 MB
    blobs = generate_blobs(10, 16, 20_000, 0.3, np.random.default_rng(12))
    specs = [SourceSpec(0, identity_matrix(10), 10_000),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.3), 150_000)]
    ms, _ = build_multisource(blobs, specs, 12)
    tracemalloc.start()
    try:
        report = corruption_report(ms, blobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert np.array_equal(report[0], np.eye(10))
    assert np.abs(report[1] - make_template(TemplateKind.UNIFORM, 10, 0.3).entries).max() < 0.01
