"""Synthetic clean data, multisource weak-label corruption, and the dataset file.

generate_blobs supplies a clean classification dataset (Gaussian blobs
around class means on a sphere); build_multisource shuffles it, splits off
a test set, assigns disjoint chunks of the training pool to the configured
sources and resamples each weak source's labels through its transition
matrix. Same seed, same bytes. Every row it hands out keeps its origin,
its index in the dataset it was drawn from, where corruption_report
finds its true label. save_dataset and load_dataset keep a multisource
dataset in one binary file, laid out as save_dataset describes, in which
each source's rows form one run.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .labelspace import (MAX_CLASSES, SourceSpec, check_labels, check_rows, check_whole,
                         identity_matrix, make_template, refuse_rows, sample_weak_labels)


@dataclass(eq=False)
class Dataset:
    """A plain labelled dataset: features (n, d) and integer labels (n,);
    origin, when known, each row's index in the dataset it was drawn from."""

    features: np.ndarray
    labels: np.ndarray
    c: int
    means: np.ndarray | None = None  # class means when synthetically generated
    origin: np.ndarray | None = None

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(eq=False, frozen=True)
class SourceBlock:
    """Instances assigned to one source, with that source's labels; origin,
    when known, each row's index in the dataset it was drawn from (-1 for
    a row of a file that does not know it). Other than one label, and one
    whole origin >= -1 if any, per feature row raises ValueError naming the
    row. Frozen: in-place writes to its arrays are the caller's responsibility."""

    source_id: int
    features: np.ndarray
    labels: np.ndarray
    origin: np.ndarray | None = None

    def __post_init__(self) -> None:
        where = f"source {self.source_id}"
        check_rows(where, len(self), self.labels, "labels")
        if self.origin is not None:
            check_rows(where, len(self), self.origin, "origins")
            check_whole(self.origin, where, "origin", low=-1)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(eq=False)
class MultisourceDataset:
    """Union of per-source sample blocks over a shared feature space; a
    source id not whole, negative or given twice raises ValueError naming
    it, and a block's width other than d or label outside [0, c), naming
    the source (and row). A block keeps the labels check_labels returns."""

    sources: list
    c: int
    d: int

    def __post_init__(self) -> None:
        check_whole([blk.source_id for blk in self.sources], "source ids", "source id")
        seen = set()
        for blk in self.sources:
            sid = blk.source_id
            if sid in seen:
                raise ValueError(f"source id {sid}: given twice; an id names one source")
            seen.add(sid)
            if blk.features.shape[1] != self.d:
                raise ValueError(f"source {sid}: {blk.features.shape[1]} features per row, the "
                                 f"dataset has d = {self.d}")
            object.__setattr__(blk, "labels", check_labels(blk.labels, self.c, f"source {sid}"))

    def block(self, source_id: int) -> SourceBlock:
        for blk in self.sources:
            if blk.source_id == source_id:
                return blk
        raise KeyError(f"no source {source_id}")

    def stacked(self):
        """(features, labels, source_ids) over all sources, in source order:
        a single block's own arrays, new arrays joining several, or empty
        (0, d) float64 and (0,) int64 arrays when there is no source."""
        if not self.sources:
            return np.empty((0, self.d)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        joined = (lambda parts: parts[0]) if len(self.sources) == 1 else np.concatenate
        feats = joined([b.features for b in self.sources])
        labs = joined([b.labels for b in self.sources])
        src = np.repeat(np.array([b.source_id for b in self.sources], dtype=np.int64),
                        [len(b) for b in self.sources])
        return feats, labs, src

    def __len__(self) -> int:
        return sum(len(b) for b in self.sources)


def check_blobs(classes: int, dim: int, n_per_class: int, spread: float) -> None:
    """Raise ValueError naming the first of generate_blobs' arguments that
    is out of range: classes below 2 or above MAX_CLASSES, dim below 2,
    n_per_class below 1, or a spread that is not finite and > 0."""
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if classes > MAX_CLASSES:
        raise ValueError(f"classes must be <= {MAX_CLASSES}, got {classes}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 0.0 < spread < np.inf:  # written so that NaN fails
        raise ValueError(f"spread must be finite and > 0, got {spread}")


def generate_blobs(c: int, d: int, n_per_class: int, spread: float,
                   rng: np.random.Generator) -> Dataset:
    """Isotropic Gaussian blobs around seeded class means on the unit sphere.

    Means are seeded random unit directions, so some class pairs sit
    closer than others; features are mean + spread * standard normal
    noise. Labels are the generating component. Arguments out of range
    raise ValueError through check_blobs.

    The noise is drawn into the features array and scaled and shifted in
    place, so the call allocates no feature-sized temporary; the bits
    equal means[labels] + spread * noise, since IEEE addition and
    multiplication commute.
    """
    check_blobs(c, d, n_per_class, spread)
    directions = rng.standard_normal((d, c))
    means = (directions / np.linalg.norm(directions, axis=0)).T
    labels = np.repeat(np.arange(c), n_per_class)
    features = rng.standard_normal((labels.shape[0], d))
    features *= spread
    features.reshape(c, n_per_class, d)[...] += means[:, None, :]  # class j's rows are block j
    return Dataset(features, labels, c, means=means)


def split_sizes(m: int) -> tuple[int, int]:
    """(training pool, test set) rows of an m-row dataset: floor(0.2 m) test rows."""
    test = int(np.floor(0.2 * m))
    return m - test, test


def _fitting_pool(specs: list, m: int) -> int:
    """The training pool of an m-row dataset; ValueError unless the specs fit it."""
    pool, test = split_sizes(m)
    wanted = sum(spec.count for spec in specs)
    if wanted > pool:
        raise ValueError(f"{len(specs)} sources request {wanted} instances, but the training "
                         f"pool has {pool}: {m} rows, less {test} test rows")
    return pool


def source_specs(c: int, clean_count: int, weak: list, m: int) -> list:
    """Clean source 0, a template source per weak (kind, eta, count), checked to fit m rows."""
    specs = [SourceSpec(0, identity_matrix(c), clean_count)] + [
        SourceSpec(i, make_template(kind, c, eta), count)
        for i, (kind, eta, count) in enumerate(weak, start=1)]
    _fitting_pool(specs, m)
    return specs


def build_multisource(dataset: Dataset, specs: list, seed: int):
    """Split a clean dataset and corrupt it into per-source weak-label blocks.

    The dataset is shuffled with the seed and split 80/20 into a training
    pool and a test set (test size floor(0.2 m), remainder to the pool).
    Sources draw disjoint consecutive chunks of the shuffled pool, so no
    instance is labelled by two sources; every source s >= 1 redraws its
    labels from its transition matrix rows. Each block's and the test
    set's origin holds the dataset rows they drew. Returns
    (MultisourceDataset, test Dataset).
    """
    if not specs or specs[0].id != 0:
        raise ValueError("specs[0] must be the clean source (id 0)")
    m = len(dataset)
    m_train = _fitting_pool(specs, m)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    pool = perm[:m_train]
    test_idx = perm[m_train:]

    blocks = []
    cursor = 0
    for spec in specs:
        idx = pool[cursor:cursor + spec.count]
        cursor += spec.count
        feats = dataset.features[idx]
        true = dataset.labels[idx]
        labs = true.copy() if spec.id == 0 else sample_weak_labels(spec.matrix, true, rng)
        blocks.append(SourceBlock(spec.id, feats, labs, idx))
    ms = MultisourceDataset(blocks, dataset.c, dataset.d)
    test = Dataset(dataset.features[test_idx], dataset.labels[test_idx].copy(), dataset.c,
                   origin=test_idx)
    return ms, test


def _bits(values: np.ndarray) -> np.ndarray:
    """Float64 values as int64 bit patterns of the same shape, so that -0.0
    and 0.0 differ and a NaN equals itself."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


# rows that corruption_report compares per step: bounds the working
# memory it holds beyond its inputs and outputs, whatever the row count
BLOCK_ROWS = 4096


def corruption_report(ms: MultisourceDataset, original: Dataset) -> dict:
    """Per-source empirical flip matrices (true label -> assigned label).

    Rows are normalised to frequencies; rows of classes a source never saw
    stay all-zero. A block row's true label is the original's at its
    origin, so a feature row the original holds twice is matched to the
    one it was drawn from. Its features must equal that row's bit for bit,
    checked BLOCK_ROWS rows at a time against the original rows gathered
    for them: memory beyond the arrays of a block's length is one such
    block of rows, whatever the row count.

    Raises ValueError naming the source id (and block row) of a block of
    another width than the original's, a row whose origin (-1 when it has
    none) is not a row of the original or whose features differ from that
    row's, and an original label outside [0, c) (the dataset checked its own).
    """
    c = ms.c
    report = {}
    for blk in ms.sources:
        where = f"source {blk.source_id}"
        if blk.features.shape[1] != original.d:
            raise ValueError(f"{where}: {blk.features.shape[1]} features per row, the original "
                             f"has {original.d}")
        origin = np.full(len(blk), -1) if blk.origin is None else blk.origin
        refuse_rows(where, (origin < 0) | (origin >= len(original)),
                    f"origin {{}}, not one of the original dataset's {len(original)} rows", origin)
        for start in range(0, len(blk), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            drawn = original.features.take(origin[rows], axis=0)
            differs = (_bits(drawn) != _bits(blk.features[rows])).any(axis=1)
            if differs.any():
                i = start + int(np.argmax(differs))
                raise ValueError(f"{where}, row {i}: features differ from the original "
                                 f"dataset's row {int(origin[i])}, its origin")
        true = check_labels(original.labels[origin], c, f"{where} (label in the original)")
        counts = np.bincount(true * c + blk.labels, minlength=c * c).reshape(c, c)
        sums = counts.sum(axis=1, keepdims=True)
        report[blk.source_id] = np.divide(counts, sums, out=np.zeros((c, c)), where=sums > 0)
    return report


DATASET_MAGIC = b"WEAKLAB\x01"  # the last byte is the format version
_HEADER = struct.Struct("<8s3q")  # magic, then c, d, n as int64


def save_dataset(path, ms: MultisourceDataset) -> None:
    """Write ms to exactly path: a header (DATASET_MAGIC, then c, d and n
    as int64), the n rows' int64 labels, source ids and origins (-1 for a
    block without origin), then their row-major float64 features, all
    little-endian. Each field holds one block's rows after another, in
    ms.sources order, from the blocks' own arrays. Same dataset, same bytes.

    The dataset refused the rows load_dataset would when it was built; a c
    or d the header cannot hold raises ValueError naming path before opening it.
    """
    _check_header(path, ms.c, ms.d)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, ms.c, ms.d, len(ms)))
        for blk in ms.sources:
            fh.write(np.ascontiguousarray(blk.labels, dtype="<i8"))
        for blk in ms.sources:
            fh.write(np.full(len(blk), blk.source_id, dtype="<i8"))
        for blk in ms.sources:
            origin = -1 if blk.origin is None else blk.origin
            fh.write(np.ascontiguousarray(np.broadcast_to(origin, len(blk)), dtype="<i8"))
        for blk in ms.sources:
            fh.write(np.ascontiguousarray(blk.features, dtype="<f8"))


def _check_header(path, c: int, d: int) -> None:
    """Raise ValueError naming path for a c or d that a dataset file's
    header must not hold: c outside [1, MAX_CLASSES], d below 1 or too
    large for an array row."""
    if not 1 <= c <= MAX_CLASSES:
        raise ValueError(f"{path}: header c = {c} classes, expected 1 to {MAX_CLASSES}")
    if not 1 <= d <= np.iinfo(np.intp).max // 8:  # bytes of one float64 row
        raise ValueError(f"{path}: header d = {d} features per row, expected at least 1 "
                         f"and few enough for an array row")


def _read(fh, path, dtype: str, shape) -> np.ndarray:
    """The next array of dtype and shape in fh."""
    values = np.empty(shape, dtype=dtype)
    if fh.readinto(values) != values.nbytes:
        raise ValueError(f"{path}: the file ended early; it changed while it was read")
    return values


def load_dataset(path) -> MultisourceDataset:
    """Read a file that save_dataset wrote.

    Each source's rows form one run of the file. They go into one (n, d)
    feature array and one label and one origin array, each read once;
    each source's block is a view of its run, and the blocks are listed
    in source-id order, whatever their order in the file.

    Raises ValueError naming the file and the field at fault for a magic
    other than DATASET_MAGIC (as in the text files of earlier versions), a
    short header, a c outside [1, MAX_CLASSES], a d below 1 or too large
    for an array row, an n below 0, and, before any array is allocated, a
    file that is not regular or not exactly as long as the header's rows;
    naming the row, too, for a label outside [0, c), a negative source id,
    an origin below -1 and a source id again after another source's rows.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if not DATASET_MAGIC.startswith(head[:8]):  # a short file may hold part of it
            raise ValueError(f"{path}: magic {head[:8]!r}, expected {DATASET_MAGIC!r}: not a "
                             f"weaklab dataset file (earlier versions wrote text)")
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: {len(head)} bytes, shorter than the {_HEADER.size}-byte "
                             f"header (magic, c, d, n)")
        _, c, d, n = _HEADER.unpack(head)
        _check_header(path, c, d)
        if n < 0:
            raise ValueError(f"{path}: header n = {n} rows, expected at least 0")
        info, expected = os.fstat(fh.fileno()), _HEADER.size + 8 * n * (3 + d)
        if not stat.S_ISREG(info.st_mode):
            raise ValueError(f"{path}: not a regular file: its length is unknown before reading")
        if info.st_size != expected:
            raise ValueError(f"{path}: {info.st_size} bytes, but the header's n = {n} rows of "
                             f"d = {d} features take {expected}")
        labels, src, origin = (_read(fh, path, "<i8", n) for _ in range(3))
        check_labels(labels, c, path)
        starts = np.flatnonzero(np.diff(src, prepend=-1))  # each run's first row, if ids >= 0
        again = np.zeros(n, dtype=bool)  # the first row of each run after an id's first
        again[starts] = True
        again[starts[np.unique(src[starts], return_index=True)[1]]] = False
        check_whole(src, path, "source id")
        check_whole(origin, path, "origin", low=-1)
        refuse_rows(path, again, "source id {} again after another source's rows: each "
                    "source's rows must be one run", src)
        features = _read(fh, path, "<f8", (n, d))
    bounds = np.append(starts, n).tolist()
    blocks = sorted((SourceBlock(int(src[a]), features[a:b], labels[a:b], origin[a:b])
                     for a, b in zip(bounds, bounds[1:])), key=lambda blk: blk.source_id)
    return MultisourceDataset(blocks, c, d)


def as_clean_dataset(ms: MultisourceDataset) -> Dataset:
    """Flatten a multisource dataset into a plain one, trusting its labels;
    a single source's arrays are used as they are, without a copy."""
    features, labels, _ = ms.stacked()
    return Dataset(features, labels, ms.c)
