"""Synthetic clean data and multisource weak-label corruption.

generate_blobs supplies a clean classification dataset (Gaussian blobs
around class means on a sphere); build_multisource shuffles it, splits off
a test set, assigns disjoint chunks of the training pool to the configured
sources and resamples each weak source's labels through its transition
matrix. Same seed, same bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .labelspace import SourceSpec, TransitionMatrix, check_labels, sample_weak_labels


@dataclass(eq=False)
class Dataset:
    """A plain labelled dataset: features (n, d) and integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray
    c: int
    means: np.ndarray | None = None  # class means when synthetically generated

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(eq=False)
class SourceBlock:
    """Instances assigned to one source, with that source's labels."""

    source_id: int
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(eq=False)
class MultisourceDataset:
    """Union of per-source sample blocks over a shared feature space."""

    sources: list
    c: int
    d: int

    def block(self, source_id: int) -> SourceBlock:
        for blk in self.sources:
            if blk.source_id == source_id:
                return blk
        raise KeyError(f"no source {source_id}")

    def stacked(self):
        """(features, labels, source_ids) over all sources, in source order:
        a single block's own arrays, or new arrays joining several."""
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
    is out of range: classes or dim below 2, n_per_class below 1, or a
    spread that is not finite and > 0."""
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
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
    """
    check_blobs(c, d, n_per_class, spread)
    directions = rng.standard_normal((d, c))
    means = (directions / np.linalg.norm(directions, axis=0)).T
    labels = np.repeat(np.arange(c), n_per_class)
    features = means[labels] + spread * rng.standard_normal((labels.shape[0], d))
    return Dataset(features, labels, c, means=means)


def build_multisource(dataset: Dataset, specs: list, seed: int):
    """Split a clean dataset and corrupt it into per-source weak-label blocks.

    The dataset is shuffled with the seed and split 80/20 into a training
    pool and a test set (test size floor(0.2 m), remainder to the pool).
    Sources draw disjoint consecutive chunks of the shuffled pool, so no
    instance is labelled by two sources; every source s >= 1 redraws its
    labels from its transition matrix rows. Returns (MultisourceDataset,
    test Dataset).
    """
    if not specs or specs[0].id != 0:
        raise ValueError("specs[0] must be the clean source (id 0)")
    m = len(dataset)
    m_test = int(np.floor(0.2 * m))
    m_train = m - m_test
    total = sum(s.count for s in specs)
    if total > m_train:
        raise ValueError(f"sources request {total} instances but the training pool has {m_train}")

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
        blocks.append(SourceBlock(spec.id, feats, labs))
    ms = MultisourceDataset(blocks, dataset.c, dataset.d)
    test = Dataset(dataset.features[test_idx], dataset.labels[test_idx].copy(), dataset.c)
    return ms, test


def _row_keys(features: np.ndarray) -> np.ndarray:
    """Each float64 row as one np.void scalar of its bytes (a view when the
    rows are contiguous), so rows sort and compare by exact bytes."""
    f = np.ascontiguousarray(features, dtype=np.float64)
    return f.view(np.dtype((np.void, f.itemsize * f.shape[1]))).reshape(-1)


# rows whose matches _last_match confirms per step: bounds the keys it
# gathers (8 d bytes per row) whatever the block size
MATCH_BLOCK_ROWS = 4096


def _last_match(keys: np.ndarray, order: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Index in keys of the last key equal to each of found, -1 where
    there is none; order is the stable argsort of keys."""
    # equal keys sit in index order, so the one before the right insertion
    # point is the last; below the smallest key it is -1
    last = np.searchsorted(keys, found, side="right", sorter=order) - 1
    if len(keys):
        for start in range(0, len(found), MATCH_BLOCK_ROWS):
            part = slice(start, start + MATCH_BLOCK_ROWS)
            index = order[last[part]]  # a -1 picks a key that cannot match
            last[part] = np.where(keys[index] == found[part], index, -1)
    return last


def corruption_report(ms: MultisourceDataset, original: Dataset) -> dict:
    """Per-source empirical flip matrices (true label -> assigned label).

    Rows are normalised to frequencies; rows of classes a source never saw
    stay all-zero. Instances are matched back to the original dataset by
    exact feature bytes, which is reliable because corruption never touches
    features; a row the original holds more than once takes the label of
    its last occurrence. The original's rows are sorted once (a stable
    argsort of their byte keys) and each block row is found by binary
    search, so memory grows with the row count, not with rows x width.

    Raises ValueError naming the source id (and block row) of a block
    whose rows are wider or narrower than the original's, of the first
    instance that is not in the original, or of one whose label (or
    original label) lies outside [0, c).
    """
    keys = _row_keys(original.features)
    order = np.argsort(keys, kind="stable")
    c = ms.c
    report = {}
    for blk in ms.sources:
        found = _row_keys(blk.features)
        if found.dtype != keys.dtype:
            raise ValueError(f"source {blk.source_id}: {blk.features.shape[1]} features per "
                             f"row, the original has {original.features.shape[1]}")
        match = _last_match(keys, order, found)
        if np.any(match < 0):
            raise ValueError(f"source {blk.source_id}, row {int(np.argmax(match < 0))}: "
                             f"features not found in the original dataset")
        labels = check_labels(blk.labels, c, f"source {blk.source_id}")
        true = check_labels(original.labels[match], c,
                            f"source {blk.source_id} (label in the original)")
        counts = np.bincount(true * c + labels, minlength=c * c).reshape(c, c)
        sums = counts.sum(axis=1, keepdims=True)
        report[blk.source_id] = np.divide(counts, sums, out=np.zeros((c, c)), where=sums > 0)
    return report


# rows formatted or parsed per block; larger blocks are no faster and
# hold more transient Python objects (peak memory)
IO_BLOCK_ROWS = 1024


def save_dataset(path, ms: MultisourceDataset) -> None:
    """Text form: header `c d n`, then `source_id label f_1 ... f_d` per line,
    each feature as repr of the float (shortest round-tripping digits)."""
    with open(path, "w") as fh:
        fh.write(f"{ms.c} {ms.d} {len(ms)}\n")
        for blk in ms.sources:
            for start in range(0, len(blk), IO_BLOCK_ROWS):
                stop = start + IO_BLOCK_ROWS
                labels = blk.labels[start:stop].astype(np.int64, copy=False).tolist()
                rows = blk.features[start:stop].tolist()
                fh.write("".join([f"{blk.source_id} {label} {' '.join(map(repr, row))}\n"
                                  for label, row in zip(labels, rows)]))


def _bad_line(path, lineno: int, what: str) -> ValueError:
    return ValueError(f"{path}, line {lineno}: {what}")


def _parse_header(path, line: str):
    parts = line.split()
    try:
        c, d, n = (int(v) for v in parts)
    except ValueError:
        raise _bad_line(path, 1, f"header {line.strip()!r} is not three integers `c d n`") from None
    if c < 1 or d < 1 or n < 0:
        raise _bad_line(path, 1, f"header {line.strip()!r} needs c >= 1, d >= 1, n >= 0")
    return c, d, n


def _check_row(path, lineno: int, line: str, row_type: np.dtype) -> None:
    parts = line.split()
    d = row_type["features"].shape[0]
    if len(parts) != d + 2:
        raise _bad_line(path, lineno, f"expected {d + 2} fields (source id, label and "
                        f"{d} features), found {len(parts)}")
    for name, text in (("source id", parts[0]), ("label", parts[1])):
        if not text.lstrip("+-").isdigit():
            raise _bad_line(path, lineno, f"{name} {text!r} is not an integer")
    try:
        np.loadtxt([line], dtype=row_type, comments=None)
    except ValueError as exc:
        raise _bad_line(path, lineno, f"unreadable row ({exc})") from None


def load_dataset(path) -> MultisourceDataset:
    """Read the text form written by save_dataset.

    The rows go into one (n, d) feature array and one label array; each
    source's block is a slice of them (a view), in source-id order. Files
    whose sources interleave are first reordered once by source id,
    keeping the file order within each source.

    Raises ValueError naming the file and the 1-based line when the header
    is not three integers `c d n`, a row has other than d + 2 fields or
    lacks its final newline, a source id or label is not an integer, a
    label lies outside [0, c), a source id is negative, or the file holds
    other than n rows.
    """
    with open(path) as fh:
        c, d, n = _parse_header(path, fh.readline())
        src = np.empty(n, dtype=np.int64)
        labels = np.empty(n, dtype=np.int64)
        features = np.empty((n, d))
        row_type = np.dtype([("source", np.int64), ("label", np.int64),
                             ("features", np.float64, (d,))])
        start = 0
        while start < n:
            lines = list(itertools.islice(fh, min(IO_BLOCK_ROWS, n - start)))
            if not lines:
                break
            if not lines[-1].endswith("\n"):
                raise _bad_line(path, start + 1 + len(lines), "row does not end with a "
                                "newline (truncated file?)")
            try:
                block = np.loadtxt(lines, dtype=row_type, comments=None, ndmin=1)
            except ValueError:
                block = None
            if block is None or len(block) != len(lines):  # loadtxt skips blank lines
                # rare error path: find and name the bad line; the header is line 1
                for offset, line in enumerate(lines):
                    _check_row(path, start + 2 + offset, line, row_type)
                raise _bad_line(path, start + 2, "unreadable block of rows")
            stop = start + len(lines)
            src[start:stop] = block["source"]
            labels[start:stop] = block["label"]
            features[start:stop] = block["features"]
            start = stop
        if start < n:
            raise _bad_line(path, start + 2, f"file ends after {start} rows, but the "
                            f"header's n is {n}")
        if fh.readline():
            raise _bad_line(path, n + 2, f"more rows than the header's n = {n}")
    for values, ok, what in ((labels, (labels >= 0) & (labels < c), f"label outside [0, {c})"),
                             (src, src >= 0, "negative source id")):
        if not ok.all():
            i = int(np.argmin(ok))
            raise _bad_line(path, i + 2, f"{what}: {int(values[i])}")
    starts = _run_starts(src)
    if len(np.unique(src[starts])) < len(starts):  # a source id in two runs
        order = np.argsort(src, kind="stable")  # file order kept within a source
        src, labels, features = src[order], labels[order], features[order]
        starts = _run_starts(src)
    bounds = np.append(starts, n).tolist()
    blocks = sorted((SourceBlock(int(src[a]), features[a:b], labels[a:b])
                     for a, b in zip(bounds, bounds[1:])), key=lambda blk: blk.source_id)
    return MultisourceDataset(blocks, c, d)


def _run_starts(src: np.ndarray) -> np.ndarray:
    """First row of every run of equal source ids (ids are nonnegative)."""
    return np.flatnonzero(np.diff(src, prepend=-1))


def as_clean_dataset(ms: MultisourceDataset) -> Dataset:
    """Flatten a multisource dataset into a plain one, trusting its labels;
    a single source's arrays are used as they are, without a copy."""
    return Dataset(*ms.stacked()[:2], ms.c)
