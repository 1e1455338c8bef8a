import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import datagen
from weaklab.datagen import (Dataset, MultisourceDataset, SourceBlock, as_clean_dataset,
                             build_multisource, corruption_report, generate_blobs,
                             load_dataset, save_dataset, source_specs, split_sizes)
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


FLOATS = st.floats(allow_nan=False, width=64)
# values whose repr is easy to get wrong: sign of zero, exponent forms, the
# smallest subnormal
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block_rows=st.integers(1, 4))
def test_copied_rows_match_the_reference_writer(data, block_rows):
    # save -> load -> as_clean_dataset -> build_multisource -> save copies
    # every row's tokens; the bytes are those of formatting its floats
    ms = data.draw(multisource_datasets(st.one_of(FLOATS, SPECIAL_FLOATS)))
    pool, _ = split_sizes(len(ms))
    clean = data.draw(st.integers(0, pool))
    specs = [SourceSpec(0, identity_matrix(ms.c), clean),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, ms.c, 0.5),
                        data.draw(st.integers(0, pool - clean)))]
    seed = data.draw(st.integers(0, 2**32 - 1))
    with tempfile.TemporaryDirectory() as tmp:
        first, copied, ref = (Path(tmp) / name for name in ("first.txt", "copied.txt", "ref.txt"))
        with mock.patch.object(datagen, "IO_BLOCK_ROWS", block_rows):
            save_dataset(first, ms)
            out, _ = build_multisource(as_clean_dataset(load_dataset(first)), specs, seed)
            save_dataset(copied, out)
        reference_save(ref, out)
        assert copied.read_bytes() == ref.read_bytes()
    # rows read from a file carry their text; a file without rows has none
    assert all(blk.text is not None for blk in out.sources) == (len(ms) > 0)


def test_rows_read_from_a_file_carry_their_line_spans(tmp_path):
    path = tmp_path / "data.txt"
    # sources interleave, so the loader reorders the rows and their spans
    path.write_bytes(b"3 1 4\n1 0 0.5\n0 2 -1.25\r\n1 1 7\n0 0 1e-05\n")
    ms = load_dataset(path)
    data = path.read_bytes()
    for blk in ms.sources:
        assert blk.text.path == str(path) and blk.text.size == len(data)
        assert not blk.features.flags.writeable
        lines = [data[a:b] for a, b in blk.text.spans.tolist()]
        assert [float(line.split()[2]) for line in lines] == blk.features[:, 0].tolist()
    assert [data[a:b] for a, b in ms.block(0).text.spans.tolist()] == [b"0 2 -1.25\r\n",
                                                                       b"0 0 1e-05\n"]
    clean = as_clean_dataset(ms)
    assert np.array_equal(clean.text.spans, np.concatenate([b.text.spans for b in ms.sources]))
    specs = [SourceSpec(0, identity_matrix(3), 1),
             SourceSpec(1, make_template(TemplateKind.UNIFORM, 3, 0.2), 2)]
    out, test = build_multisource(clean, specs, 0)
    for blk in out.sources:  # each row keeps the span of its own line
        assert [float(data[a:b].split()[2]) for a, b in blk.text.spans.tolist()] == \
            blk.features[:, 0].tolist()
        assert not blk.features.flags.writeable
    assert test.text is None
    # rows made in memory have no text, and a block of them none once joined
    made = SourceBlock(2, np.zeros((1, 1)), np.array([0]))
    assert made.text is None and made.features.flags.writeable
    assert as_clean_dataset(MultisourceDataset([*ms.sources, made], 3, 1)).text is None
    with pytest.raises(ValueError, match="data.txt: 2 row spans for 1 rows"):
        SourceBlock(0, np.zeros((1, 1)), np.array([0]), ms.block(0).text)


def test_rows_of_a_non_ascii_separator_are_formatted_again(tmp_path, monkeypatch):
    # U+00A0 and U+2003 separate fields for the loader but not for bytes.split;
    # the block of 2 rows that holds them is written with repr, the other
    # block is copied
    path, out = tmp_path / "clean.txt", tmp_path / "weak.txt"
    path.write_text("3 2 3\n0\u00a01 0.5 2\n0 2\u2003-1 3\n0 0 4 5\n", encoding="utf-8")
    monkeypatch.setattr(datagen, "IO_BLOCK_ROWS", 2)
    save_dataset(out, load_dataset(path))
    assert out.read_text() == "3 2 3\n0 1 0.5 2.0\n0 2 -1.0 3.0\n0 0 4 5\n"


def test_save_dataset_refuses_a_source_file_changed_since_it_was_read(tmp_path):
    path, out = tmp_path / "clean.txt", tmp_path / "weak.txt"
    path.write_text(VALID)
    ms = load_dataset(path)
    info = path.stat()
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))  # same size, later mtime
    with pytest.raises(ValueError, match=r"clean.txt: changed since its rows were read "
                                         r"\(size 59 -> 59 bytes") as err:
        save_dataset(out, ms)
    assert "\n" not in str(err.value) and not out.exists()
    ms = load_dataset(path)
    path.write_text(VALID.replace("7.0", "7.5"))  # the same size again, a new mtime
    with pytest.raises(ValueError, match="clean.txt: changed since its rows were read"):
        save_dataset(out, ms)
    ms = load_dataset(path)
    path.write_text(VALID + "\n")
    with pytest.raises(ValueError, match=r"clean.txt: changed .*\(size 59 -> 60 bytes"):
        save_dataset(out, ms)


@pytest.mark.parametrize("dest", ["clean.txt", "link.txt"])
def test_save_dataset_refuses_to_write_over_the_file_it_copies_from(tmp_path, dest):
    path = tmp_path / "clean.txt"
    path.write_text(VALID)
    (tmp_path / "link.txt").symlink_to(path)
    ms = load_dataset(path)
    with pytest.raises(ValueError, match=f"{dest} is the file .*clean.txt whose rows it would "
                                         f"copy; writing it would truncate them first") as err:
        save_dataset(tmp_path / dest, ms)
    assert "\n" not in str(err.value) and path.read_text() == VALID


def test_copied_rows_memory_is_bounded(tmp_path):
    # holding every row's text (13 MB), or the spans of all rows at once as
    # Python ints (3 MB or more), would exceed one block of text plus the spans
    blobs = generate_blobs(10, 16, 5000, 0.3, np.random.default_rng(13))
    path = tmp_path / "clean.txt"
    save_dataset(path, MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)], 10, 16))
    specs = source_specs(10, 5000, [(TemplateKind.UNIFORM, 0.3, 35000)], len(blobs))
    ms, _ = build_multisource(as_clean_dataset(load_dataset(path)), specs, 13)
    longest = max(int(np.max(np.diff(blk.text.spans, axis=1))) for blk in ms.sources)
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "weak.txt", ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < datagen.IO_BLOCK_ROWS * longest + 16 * len(ms)
    assert [len(b) for b in load_dataset(tmp_path / "weak.txt").sources] == [5000, 35000]


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
    # one row more than the file holds: rows longer than the shortest pass the
    # room check, so the reading finds the missing one
    (VALID.replace("3 2 4", "3 2 5"), 6, "file ends after 4 rows"),
    (VALID[:-1], 5, "does not end with a newline"),
    # numpy would ask for 745 GiB and 1.46 TiB before reading a row
    ("10 16 99999999999\n0 1 0.5\n", 1, "asks for 99999999999 rows of 18 fields"),
    ("10 99999999999 2\n0 1 0.5\n", 1, "asks for 2 rows of 100000000001 fields"),
    # no rows pass the room check, but no numpy row dtype holds that many features
    ("10 99999999999 0\n", 1, "d = 99999999999 features per row are too many"),
    (f"{MAX_CLASSES + 1} 2 0\n", 1, f"c = {MAX_CLASSES + 1} classes, above the limit"),
], ids=["short_header", "bad_header", "zero_d", "dropped_field", "extra_field", "blank_line",
        "float_label", "bad_source", "bad_feature", "label_c", "negative_label",
        "negative_source", "extra_row", "missing_row", "truncated_row", "huge_n", "huge_d",
        "huge_d_no_rows", "too_many_classes"])
def test_load_dataset_names_the_bad_line(tmp_path, text, line, message):
    path = tmp_path / "data.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"data.txt, line {line}: .*{message}"):
        load_dataset(path)


def test_load_dataset_room_check_is_exact_at_the_shortest_rows(tmp_path):
    path = tmp_path / "data.txt"
    rows = "0 1 5\n" * 3  # d = 1: the shortest rows, 2(d + 2) = 6 bytes each
    path.write_text("2 1 3\n" + rows)
    assert len(load_dataset(path).block(0)) == 3
    path.write_text("2 1 4\n" + rows)
    with pytest.raises(ValueError, match="data.txt, line 1: header '2 1 4' asks for 4 rows "
                                         "of 3 fields, at least 24 bytes, but 18 bytes"):
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


def write_rows(path, c, src, labels, features):
    """A dataset text file with rows in the given order (any source order)."""
    with open(path, "w") as fh:
        fh.write(f"{c} {features.shape[1]} {len(src)}\n")
        for s, label, row in zip(src, labels, features):
            fh.write(f"{s} {label} {' '.join(map(repr, row.tolist()))}\n")


def mask_reference(src, labels, features):
    """(source id, features, labels) per source by boolean masks, as
    load_dataset built its blocks before they became views."""
    return [(int(s), features[src == s], labels[src == s]) for s in np.unique(src)]


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
    features = np.array(data.draw(st.lists(st.floats(allow_nan=False, width=64),
                                           min_size=n * d, max_size=n * d))).reshape(n, d)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        write_rows(path, 3, src, labels, features)
        with mock.patch.object(datagen, "IO_BLOCK_ROWS", 4):
            ms = load_dataset(path)
    ref = mask_reference(src, labels, features)
    assert [b.source_id for b in ms.sources] == [sid for sid, _, _ in ref]
    for blk, (_, feats, labs) in zip(ms.sources, ref):
        assert blk.features.tobytes() == feats.tobytes()
        assert blk.labels.dtype == np.int64 and np.array_equal(blk.labels, labs)
    for blk in ms.sources:  # slices of one (n, d) and one (n,) array
        assert blk.features.base is ms.sources[0].features.base
        assert blk.labels.base is ms.sources[0].labels.base
        assert np.shares_memory(blk.features, blk.features.base)
    if ms.sources:
        assert ms.sources[0].features.base.shape == (n, d)


def test_load_dataset_keeps_a_grouped_file_in_place(tmp_path):
    rng = np.random.default_rng(3)
    src = np.repeat([2, 0, 1], [3, 4, 2])
    features = rng.standard_normal((9, 2))
    write_rows(tmp_path / "data.txt", 3, src, np.zeros(9, dtype=np.int64), features)
    ms = load_dataset(tmp_path / "data.txt")
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
        write_rows(tmp_path / "data.txt", 3, src, labels, features)
        ms = load_dataset(tmp_path / "data.txt")
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


def dict_report(ms, original):
    """The feature-bytes dictionary and per-row loop that corruption_report
    used before it sorted the original (last duplicate wins)."""
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
@given(data=st.data(), block_rows=st.integers(1, 4))
def test_corruption_report_matches_dict_reference(data, block_rows):
    c = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 20))
    # few distinct values, so rows repeat (with different labels) and 0.0 and
    # -0.0 rows must stay apart
    values = st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf])
    features = np.array(data.draw(st.lists(values, min_size=m * d, max_size=m * d)))
    original = Dataset(features.reshape(m, d),
                       np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=m,
                                                   max_size=m)), dtype=np.int64), c)
    blocks = []
    for sid in range(data.draw(st.integers(1, 3))):
        rows = data.draw(st.lists(st.integers(0, m - 1), max_size=12))
        labels = data.draw(st.lists(st.integers(0, c - 1), min_size=len(rows),
                                    max_size=len(rows)))
        blocks.append(SourceBlock(sid, original.features[rows].reshape(len(rows), d),
                                  np.array(labels, dtype=np.int64)))
    ms = MultisourceDataset(blocks, c, d)
    with mock.patch.object(datagen, "MATCH_BLOCK_ROWS", block_rows):
        got = corruption_report(ms, original)
    want = dict_report(ms, original)
    assert list(got) == list(want)
    for sid in want:
        assert got[sid].tobytes() == want[sid].tobytes()


def test_corruption_report_names_a_row_missing_from_the_original():
    original = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), 2)
    weak = SourceBlock(3, np.array([[2.0, 3.0], [-0.0, 1.0]]), np.array([1, 1]))
    ms = MultisourceDataset([SourceBlock(0, original.features[:1], np.array([0])), weak], 2, 2)
    with pytest.raises(ValueError, match="source 3, row 1: features not found in the original"):
        corruption_report(ms, original)  # -0.0 is not 0.0: bytes are matched exactly
    # all-zero bytes sort before every row of the original
    below = SourceBlock(1, np.array([[2.0, 3.0], [0.0, 0.0]]), np.array([1, 1]))
    with pytest.raises(ValueError, match="source 1, row 1: features not found"):
        corruption_report(MultisourceDataset([below], 2, 2), original)
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="source 0, row 0: features not found in the original"):
        corruption_report(ms, empty)
    assert corruption_report(MultisourceDataset([], 2, 2), empty) == {}


def test_corruption_report_rejects_bad_widths_and_labels():
    original = Dataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), 2)
    wide = SourceBlock(1, np.zeros((1, 3)), np.array([0]))
    with pytest.raises(ValueError, match="source 1: 3 features per row, the original has 2"):
        corruption_report(MultisourceDataset([wide], 2, 3), original)
    bad = SourceBlock(1, original.features.copy(), np.array([0, 2]))
    with pytest.raises(ValueError, match=r"source 1, row 1: label 2 outside \[0, 2\)"):
        corruption_report(MultisourceDataset([bad], 2, 2), original)


def test_corruption_report_memory_is_bounded():
    # the dictionary of 128-byte row keys and the per-row loop peaked at about 42 MB
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
    assert peak < 15e6
    assert np.array_equal(report[0], np.eye(10))
    assert np.abs(report[1] - make_template(TemplateKind.UNIFORM, 10, 0.3).entries).max() < 0.01
