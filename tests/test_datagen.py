import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import datagen
from weaklab.datagen import (Dataset, MultisourceDataset, SourceBlock, as_clean_dataset,
                             build_multisource, corruption_report, generate_blobs,
                             load_dataset, save_dataset)
from weaklab.labelspace import SourceSpec, TemplateKind, identity_matrix, make_template
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


def test_generate_blobs_validation():
    rng = np.random.default_rng(0)
    for bad in ((1, 16, 10, 0.3), (10, 1, 10, 0.3), (10, 16, 0, 0.3), (10, 16, 10, 0.0)):
        with pytest.raises(ValueError):
            generate_blobs(*bad, rng)


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


def test_requires_clean_first():
    blobs = generate_blobs(10, 4, 100, 0.3, np.random.default_rng(1))
    weak = SourceSpec(1, make_template(TemplateKind.UNIFORM, 10, 0.2), 10)
    with pytest.raises(ValueError):
        build_multisource(blobs, [weak], 1)


def test_dataset_text_round_trip(tmp_path):
    blobs = generate_blobs(4, 3, 30, 0.3, np.random.default_rng(8))
    specs = [SourceSpec(0, identity_matrix(4), 40),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 4, 0.4), 50)]
    ms, _ = build_multisource(blobs, specs, 8)
    path = tmp_path / "data.txt"
    save_dataset(path, ms)
    header = path.read_text().splitlines()[0]
    assert header == "4 3 90"
    back = load_dataset(path)
    assert back.c == 4 and back.d == 3 and len(back) == 90
    for s in (0, 1):
        assert np.array_equal(back.block(s).features, ms.block(s).features)
        assert np.array_equal(back.block(s).labels, ms.block(s).labels)
    clean = as_clean_dataset(back)
    assert isinstance(clean, Dataset) and len(clean) == 90


def reference_save(path, ms):
    """The one-value-at-a-time writer whose bytes save_dataset must keep."""
    with open(path, "w") as fh:
        fh.write(f"{ms.c} {ms.d} {len(ms)}\n")
        for blk in ms.sources:
            for i in range(len(blk)):
                feats = " ".join(repr(float(v)) for v in blk.features[i])
                fh.write(f"{blk.source_id} {int(blk.labels[i])} {feats}\n")


@st.composite
def multisource_datasets(draw):
    c = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    floats = st.floats(allow_nan=False, width=64)
    blocks = []
    for sid in sorted(ids):
        size = draw(st.integers(0, 6))  # empty blocks included
        feats = draw(st.lists(st.lists(floats, min_size=d, max_size=d),
                              min_size=size, max_size=size))
        labels = draw(st.lists(st.integers(0, c - 1), min_size=size, max_size=size))
        blocks.append(SourceBlock(sid, np.array(feats, dtype=np.float64).reshape(size, d),
                                  np.array(labels, dtype=np.int64)))
    return MultisourceDataset(blocks, c, d)


@settings(max_examples=60, deadline=None)
@given(ms=multisource_datasets(), block_rows=st.integers(1, 4))
def test_dataset_text_matches_reference_writer_and_round_trips(ms, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "data.txt", Path(tmp) / "ref.txt"
        reference_save(ref, ms)
        with mock.patch.object(datagen, "IO_BLOCK_ROWS", block_rows):
            save_dataset(path, ms)
            back = load_dataset(path)
        assert path.read_bytes() == ref.read_bytes()
    assert (back.c, back.d, len(back)) == (ms.c, ms.d, len(ms))
    kept = [b for b in ms.sources if len(b)]
    assert [b.source_id for b in back.sources] == [b.source_id for b in kept]
    for a, b in zip(back.sources, kept):
        assert a.features.tobytes() == b.features.tobytes()  # -0.0 and inf included
        assert np.array_equal(a.labels, b.labels)


# c = 3, d = 2, n = 4; line 1 is the header, rows are lines 2-5
VALID = "3 2 4\n0 0 0.5 -1.25\n0 2 1e-05 3.0\n1 1 -0.0 2.5\n1 0 7.0 8.0\n"


def test_valid_fixture_loads(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(VALID)
    ms = load_dataset(path)
    assert [len(b) for b in ms.sources] == [2, 2]
    assert ms.block(0).labels.tolist() == [0, 2]


@pytest.mark.parametrize("text, line, message", [
    ("3 2\n", 1, "not three integers"),
    ("3 2 x\n", 1, "not three integers"),
    ("3 0 4\n", 1, "d >= 1"),
    (VALID.replace("0 2 1e-05 3.0", "0 2 1e-05"), 3, "expected 4 fields"),
    (VALID.replace("0 2 1e-05 3.0", "0 2 1e-05 3.0 4.0"), 3, "found 5"),
    (VALID.replace("\n1 1 -0.0", "\n\n1 1 -0.0"), 4, "found 0"),
    (VALID.replace("1 1 -0.0", "1 3.5 -0.0"), 4, "label '3.5' is not an integer"),
    (VALID.replace("1 1 -0.0", "a 1 -0.0"), 4, "source id 'a' is not an integer"),
    (VALID.replace("1 1 -0.0", "1 1 zero"), 4, "unreadable row"),
    (VALID.replace("1 1 -0.0", "1 3 -0.0"), 4, r"label outside \[0, 3\): 3"),
    (VALID.replace("1 1 -0.0", "1 -1 -0.0"), 4, r"label outside \[0, 3\): -1"),
    (VALID.replace("1 1 -0.0", "-1 1 -0.0"), 4, "negative source id"),
    (VALID + "1 0 1.0 1.0\n", 6, "more rows than the header's n = 4"),
    (VALID.replace("3 2 4", "3 2 5"), 6, "file ends after 4 rows"),
    (VALID[:-1], 5, "does not end with a newline"),
], ids=["short_header", "bad_header", "zero_d", "dropped_field", "extra_field", "blank_line",
        "float_label", "bad_source", "bad_feature", "label_c", "negative_label",
        "negative_source", "extra_row", "missing_row", "truncated_row"])
def test_load_dataset_names_the_bad_line(tmp_path, text, line, message):
    path = tmp_path / "data.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"data.txt, line {line}: .*{message}"):
        load_dataset(path)


@settings(max_examples=80, deadline=None)
@given(cut=st.integers(0, len(VALID) - 1))
def test_load_dataset_rejects_every_truncation(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        path.write_text(VALID[:cut])
        with pytest.raises(ValueError, match="data.txt, line"):
            load_dataset(path)


def test_load_dataset_names_a_bad_line_past_the_first_block(tmp_path):
    rows = "".join(f"0 1 {i}.5\n" for i in range(9))
    path = tmp_path / "data.txt"
    path.write_text("2 1 9\n" + rows.replace("0 1 6.5", "0 1 6.5 1.0"))
    with mock.patch.object(datagen, "IO_BLOCK_ROWS", 4):
        with pytest.raises(ValueError, match="line 8: expected 3 fields"):
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
