import struct

import numpy as np
import pytest

from weaklab.correction import forward_correct, softmax
from weaklab.datagen import DATASET_MAGIC
from weaklab.labelspace import MAX_CLASSES
from weaklab.losses import LossSpec
from weaklab.model import BatchBuffers, batch_weighting, class_major, forward_batch

SPECS = [LossSpec("cce"), LossSpec("mae"), LossSpec("gce", q=0.7), LossSpec("sl")]


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
    the corrected one), written into a fresh one-sample buffer."""
    u = np.asarray(u, dtype=np.float64)
    column = np.asarray(column, dtype=np.float64)
    return batch_weighting(u[:, None], column[:, None], spec, 1.0,
                           BatchBuffers(1, len(u), 0))[:, 0]


def random_case(rng, specs=SPECS, min_ut=1e-3):
    """Random (spec, T, k, h) with the corrected probability bounded away
    from the singularity so finite differences stay accurate."""
    while True:
        spec = specs[rng.integers(len(specs))]
        c = int(rng.choice([2, 5, 10]))
        t = random_row_stochastic(rng, c)
        h = rng.standard_normal(c)
        k = int(rng.integers(c))
        if float(forward_correct(t, softmax(h))[k]) >= min_ut:
            return spec, t, k, h


def fd_score_gradient(fn, h, step=1e-6):
    """Independent central-difference gradient of a scalar fn of the scores."""
    grad = np.zeros_like(h)
    for i in range(h.shape[0]):
        hp, hm = h.copy(), h.copy()
        hp[i] += step
        hm[i] -= step
        grad[i] = (fn(hp) - fn(hm)) / (2 * step)
    return grad


def per_parameter_fd(params, scalar_fn, step=1e-6):
    """Central finite differences of scalar_fn(params) w.r.t. every entry
    of params.flat (the weights and biases are views into it)."""
    flat = params.flat
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = scalar_fn(params)
        flat[i] = orig - step
        fm = scalar_fn(params)
        flat[i] = orig
        grad[i] = (fp - fm) / (2 * step)
    return grad


def scores_of(params, x):
    """Score vector of one sample: forward_batch on a one-sample batch."""
    return forward_batch(params.layers, class_major(x[None, :]),
                         BatchBuffers(1, params.c, params.hidden))[:, 0]


def blob_means(c, d, rng):
    """The class means that generate_blobs draws first from rng: c seeded
    random unit directions in d dimensions, one per row."""
    directions = rng.standard_normal((d, c))
    return (directions / np.linalg.norm(directions, axis=0)).T


def dataset_bytes(c, d, src, labels, origin, features, n=None, magic=DATASET_MAGIC):
    """A dataset file packed one value at a time, independently of
    save_dataset: the header (magic, c, d, n; n the row count unless
    given), then the labels, source ids and origins as int64 and the
    features row by row as float64, all little-endian."""
    ints = [struct.pack("<q", int(v)) for field in (labels, src, origin) for v in field]
    floats = [struct.pack("<d", float(v)) for row in features for v in row]
    return (struct.pack("<8s3q", magic, c, d, len(src) if n is None else n)
            + b"".join(ints + floats))


def _patched(data, offset, value):
    """data with the bytes at offset replaced by value."""
    return data[:offset] + value + data[offset + len(value):]


# c = 3, d = 2, n = 4; bytes 0-31 are the header (magic, c, d, n at 0, 8,
# 16, 24), then row i's label at 32 + 8i, source id at 64 + 8i, origin at
# 96 + 8i and features from 128 + 16i
VALID_DATASET = dataset_bytes(3, 2, [0, 0, 1, 1], [0, 2, 1, 0], [4, 0, -1, 2],
                              [[0.5, -1.25], [1e-05, 3.0], [-0.0, 2.5], [7.0, 8.0]])
# the same rows in the dataset text of earlier versions
LEGACY_TEXT = b"3 2 4\n0 0 0.5 -1.25\n0 2 1e-05 3.0\n1 1 -0.0 2.5\n1 0 7.0 8.0\n"
_q = struct.Struct("<q").pack


def _header(c, d, n):
    return struct.pack("<8s3q", DATASET_MAGIC, c, d, n)


def _wrong_magic(case_id, data):
    """A refusal case of a file whose magic is wrong: refused for that,
    whatever follows it."""
    return case_id, data, f": magic {data[:8]!r}, expected {DATASET_MAGIC!r}: not a weaklab " \
                          f"dataset file (earlier versions wrote text)"


def _size_error(size, n, d):
    return f": {size} bytes, but the header's n = {n} rows of d = {d} features take " \
           f"{32 + 8 * n * (3 + d)}"


# (id, file bytes, the message after the file name) of every refusal of
# load_dataset. The ids of the earlier text reader's line errors are kept:
# each is the binary file with the same fault, and where the fault was one
# only text can have, the old text file itself, which the magic refuses.
BAD_DATASET_FILES = [
    ("short_header", VALID_DATASET[:20], ": 20 bytes, shorter than the 32-byte header (magic, "
                                         "c, d, n)"),
    _wrong_magic("bad_header", _patched(VALID_DATASET, 0, b"WEAKLAB\x02")),
    _wrong_magic("legacy_text", LEGACY_TEXT),
    ("zero_c", _patched(VALID_DATASET, 8, _q(0)), f": header c = 0 classes, expected 1 to "
                                                  f"{MAX_CLASSES}"),
    ("too_many_classes", _header(MAX_CLASSES + 1, 2, 0),
     f": header c = {MAX_CLASSES + 1} classes, expected 1 to {MAX_CLASSES}"),
    ("zero_d", _patched(VALID_DATASET, 16, _q(0)), ": header d = 0 features per row, expected "
                                                   "at least 1 and few enough for an array row"),
    # no rows, but numpy cannot make an array row of 2**62 float64 values
    ("huge_d_no_rows", _header(10, 2**62, 0), f": header d = {2**62} features per row, expected "
                                              f"at least 1 and few enough for an array row"),
    ("negative_n", _patched(VALID_DATASET, 24, _q(-1)), ": header n = -1 rows, expected at "
                                                        "least 0"),
    # a writer that left out the origins, or added a field
    ("dropped_field", VALID_DATASET[:96] + VALID_DATASET[128:], _size_error(160, 4, 2)),
    ("extra_field", VALID_DATASET + bytes(32), _size_error(224, 4, 2)),
    ("extra_row", _patched(VALID_DATASET, 24, _q(3)), _size_error(192, 3, 2)),
    ("missing_row", _patched(VALID_DATASET, 24, _q(5)), _size_error(192, 5, 2)),
    ("truncated_row", VALID_DATASET[:-3], _size_error(189, 4, 2)),
    # numpy would ask for 16 TB and 1.6 TB before reading a row
    ("huge_n", _header(10, 16, 99999999999) + bytes(8), _size_error(40, 99999999999, 16)),
    ("huge_d", _header(10, 99999999999, 2) + bytes(8), _size_error(40, 2, 99999999999)),
    ("label_c", _patched(VALID_DATASET, 48, _q(3)), ", row 2: label 3 outside [0, 3)"),
    ("negative_label", _patched(VALID_DATASET, 48, _q(-1)), ", row 2: label -1 outside [0, 3)"),
    ("float_label", _patched(VALID_DATASET, 48, struct.pack("<d", 1.0)),
     ", row 2: label 4607182418800017408 outside [0, 3)"),
    ("negative_source", _patched(VALID_DATASET, 80, _q(-1)), ", row 2: source id -1 below 0"),
    ("bad_source", _patched(VALID_DATASET, 80, struct.pack("<d", -1.0)),
     ", row 2: source id -4616189618054758400 below 0"),
    ("origin_below_minus_one", _patched(VALID_DATASET, 120, _q(-2)), ", row 3: origin -2 below -1"),
    # source ids [0, 1, 0, 1]: source 0 again after source 1's rows
    ("interleaved_source", _patched(_patched(VALID_DATASET, 72, _q(1)), 80, _q(0)),
     ", row 2: source id 0 again after another source's rows: each source's rows must be one "
     "run"),
    _wrong_magic("blank_line", LEGACY_TEXT.replace(b"\n1 1", b"\n\n1 1")),
    _wrong_magic("bad_feature", LEGACY_TEXT.replace(b"1 1 -0.0", b"1 1 zero")),
    _wrong_magic("not_utf8_header", LEGACY_TEXT.replace(b"3 2 4", b"3 2 4\xff", 1)),
    _wrong_magic("not_utf8_row", LEGACY_TEXT.replace(b"0 2 1e-05", b"0 2 1e-05\xff")),
    _wrong_magic("not_utf8_cr_line_ends",
                 LEGACY_TEXT.replace(b"\n", b"\r").replace(b"7.0", b"7.\xc30")),
]
