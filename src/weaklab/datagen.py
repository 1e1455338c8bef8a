"""Synthetic clean data and multisource weak-label corruption.

generate_blobs supplies a clean classification dataset (Gaussian blobs
around class means on a sphere); build_multisource shuffles it, splits off
a test set, assigns disjoint chunks of the training pool to the configured
sources and resamples each weak source's labels through its transition
matrix. Same seed, same bytes.

save_dataset and load_dataset keep datasets as text. Rows read from a
file remember where their lines lie in it (RowText), and as_clean_dataset
and build_multisource carry that along into the sources, so save_dataset
writes such a row by copying its feature tokens from the file instead of
formatting its floats again.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
from dataclasses import dataclass, replace

import numpy as np

from .labelspace import (MAX_CLASSES, SourceSpec, check_labels, identity_matrix, make_template,
                         sample_weak_labels)


@dataclass(eq=False, frozen=True)
class RowText:
    """Where rows read from a dataset text file lie in that file.

    path is the file's absolute path, size and mtime_ns its stat when it
    was read, and spans an (n, 2) int64 array of the [start, stop) byte
    range of each row's line, indexed like the rows' features.
    """

    path: str
    size: int
    mtime_ns: int
    spans: np.ndarray

    @property
    def reading(self) -> tuple:
        """The file and its state when read: rows with one reading share a file."""
        return self.path, self.size, self.mtime_ns


def _take(text: RowText | None, index) -> RowText | None:
    """The text of the rows at index (a slice or an index array), if any."""
    return None if text is None else replace(text, spans=text.spans[index])


def _attach_text(features: np.ndarray, text: RowText | None) -> None:
    """Check that text, if any, has one span per row, and make the
    features read-only: save_dataset writes the file's tokens for them,
    so a changed value would not be written."""
    if text is not None:
        if text.spans.shape != (len(features), 2):
            raise ValueError(f"{text.path}: {len(text.spans)} row spans for "
                             f"{len(features)} rows")
        features.setflags(write=False)


@dataclass(eq=False)
class Dataset:
    """A plain labelled dataset: features (n, d) and integer labels (n,);
    text when its rows were read from a file (their features read-only)."""

    features: np.ndarray
    labels: np.ndarray
    c: int
    means: np.ndarray | None = None  # class means when synthetically generated
    text: RowText | None = None

    def __post_init__(self):
        _attach_text(self.features, self.text)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(eq=False)
class SourceBlock:
    """Instances assigned to one source, with that source's labels; text
    when the rows were read from a file (their features read-only)."""

    source_id: int
    features: np.ndarray
    labels: np.ndarray
    text: RowText | None = None

    def __post_init__(self):
        _attach_text(self.features, self.text)

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
    """
    check_blobs(c, d, n_per_class, spread)
    directions = rng.standard_normal((d, c))
    means = (directions / np.linalg.norm(directions, axis=0)).T
    labels = np.repeat(np.arange(c), n_per_class)
    features = means[labels] + spread * rng.standard_normal((labels.shape[0], d))
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
    labels from its transition matrix rows. The sources' rows keep the
    text of rows read from a file; the test set has none. Returns
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
        blocks.append(SourceBlock(spec.id, feats, labs, _take(dataset.text, idx)))
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


# rows formatted, copied or parsed per block; larger blocks are no faster
# and hold more transient Python objects (peak memory)
IO_BLOCK_ROWS = 1024


def save_dataset(path, ms: MultisourceDataset) -> None:
    """Text form: header `c d n`, then `source_id label f_1 ... f_d` per line.

    A row made in memory is written with each feature as repr of the float
    (shortest round-tripping digits). A row read from a file (a block with
    text) is written as its source id and label followed by its own
    feature tokens in that file, read back with os.pread a block at a
    time, when every line of the block holds single-spaced ASCII fields
    and ends in LF; any other block (tabs, runs of blanks, CR line ends,
    non-ASCII) is written with repr like rows made in memory. A file that
    save_dataset wrote holds the repr of each float, so its rows are
    rewritten byte for byte.

    Raises ValueError naming the file when a file whose rows are copied
    changed (size or mtime) since it was read, or when path is that file,
    which opening path for writing would truncate before its rows are read.
    """
    with contextlib.ExitStack() as stack:
        files = {}  # RowText.reading -> descriptor of that file
        for text in (blk.text for blk in ms.sources if blk.text is not None):
            if text.reading not in files:
                files[text.reading] = _open_source(text, path, stack)
        with open(path, "wb") as fh:
            fh.write(f"{ms.c} {ms.d} {len(ms)}\n".encode())
            for blk in ms.sources:
                fd = None if blk.text is None else files[blk.text.reading]
                for start in range(0, len(blk), IO_BLOCK_ROWS):
                    fh.write(_rows_text(blk, slice(start, start + IO_BLOCK_ROWS), fd, ms.d))


def _rows_text(blk: SourceBlock, rows: slice, fd: int | None, d: int) -> bytes:
    """The lines of blk's rows: copied from the file fd that blk's text
    lies in when _copied_rows can, else with the repr of each feature."""
    labels = blk.labels[rows].astype(np.int64, copy=False).tolist()
    if fd is not None:
        text = _copied_rows(fd, blk.text.spans[rows], blk.source_id, labels, d)
        if text is not None:
            return text
    feats = blk.features[rows].tolist()
    return "".join([f"{blk.source_id} {label} {' '.join(map(repr, row))}\n"
                    for label, row in zip(labels, feats)]).encode()


def _open_source(text: RowText, dest, stack: contextlib.ExitStack) -> int:
    """A descriptor of the file text was read from, open until stack
    closes; ValueError unless that file is unchanged and is not dest."""
    fd = stack.enter_context(open(text.path, "rb")).fileno()
    info = os.fstat(fd)
    if (info.st_size, info.st_mtime_ns) != (text.size, text.mtime_ns):
        raise ValueError(f"{text.path}: changed since its rows were read (size {text.size} -> "
                         f"{info.st_size} bytes, mtime_ns {text.mtime_ns} -> "
                         f"{info.st_mtime_ns}); its rows cannot be copied")
    try:
        same = os.path.samestat(os.stat(dest), info)
    except OSError:  # no such file yet, or not reachable
        same = False
    if same:
        raise ValueError(f"{dest} is the file {text.path} whose rows it would copy; writing it "
                         f"would truncate them first")
    return fd


def _single_spaced(text: bytes, rows: int, d: int) -> bool:
    """Whether text is `rows` lines of d + 2 ASCII fields, each line its
    fields joined by single spaces and ended by LF."""
    if not text.isascii():
        return False
    b = np.frombuffer(text, dtype=np.uint8)
    at = np.flatnonzero(b <= 32)  # spaces, LFs and all other whitespace and control bytes
    if len(at) != rows * (d + 2) or np.any(np.diff(at) == 1):  # no two in a row
        return False
    line = np.array([32] * (d + 1) + [10], dtype=np.uint8)  # d + 1 spaces, then LF
    return bool((b[at].reshape(rows, d + 2) == line).all())


def _copied_rows(fd: int, spans: np.ndarray, source_id: int, labels: list, d: int):
    """Lines `source_id label f_1 ... f_d`, one per label, with the feature
    tokens of the file lines at spans (one (start, stop) row per label);
    None unless those tokens are single-spaced ASCII ending in LF."""
    text = b"".join([b"%d %d %s" % (source_id, label,
                                    os.pread(fd, stop - at, at).split(None, 2)[-1])
                     for label, at, stop in zip(labels, spans[:, 0].tolist(),
                                                spans[:, 1].tolist())])
    return text if _single_spaced(text, len(labels), d) else None


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
    if c > MAX_CLASSES:
        raise _bad_line(path, 1, f"header {line.strip()!r}: c = {c} classes, above the limit "
                        f"of {MAX_CLASSES}")
    return c, d, n


def _row_type(path, header: str, d: int) -> np.dtype:
    """The dtype of one row of d features; a d too large for a numpy
    dtype is refused at line 1."""
    try:
        return np.dtype([("source", np.int64), ("label", np.int64),
                         ("features", np.float64, (d,))])
    except ValueError as exc:
        raise _bad_line(path, 1, f"header {header.strip()!r}: d = {d} features per row are "
                        f"too many ({exc})") from None


def _check_room(path, info: os.stat_result, header: str, d: int, n: int) -> None:
    """Reject a header whose n rows cannot fit in the rest of a regular
    file (info is its stat), before its arrays are allocated: a row of
    d + 2 fields takes at least 2(d + 2) bytes, one character per field
    and one per separator or newline."""
    rest = info.st_size - len(header.encode())
    if stat.S_ISREG(info.st_mode) and n * 2 * (d + 2) > rest:
        raise _bad_line(path, 1, f"header {header.strip()!r} asks for {n} rows of {d + 2} "
                        f"fields, at least {n * 2 * (d + 2)} bytes, but {rest} bytes follow it")


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
    """Read the text form written by save_dataset, as UTF-8.

    Lines may end in LF, CR LF or CR, and fields may be split by any
    whitespace. The rows go into one (n, d) feature array and one label
    array; each source's block is a slice of them (a view), in source-id
    order. Files whose sources interleave are first reordered once by
    source id, keeping the file order within each source. The blocks of a
    regular file carry the RowText of their rows (the byte span of each
    row's line), and their features are read-only.

    Raises ValueError naming the file and the 1-based line when the header
    is not three integers `c d n`, a row has other than d + 2 fields or
    lacks its final newline, a source id or label is not an integer, a
    label lies outside [0, c), a source id is negative, or the file holds
    other than n rows. A header c above MAX_CLASSES, a regular file too
    short to hold the header's n rows, or a header d too large for a row
    dtype, is refused at line 1, before any array is allocated.
    """
    # newline="": lines split at \n, \r\n and \r, each ending kept, so
    # the encoded lengths of the lines are their byte spans
    with open(path, encoding="utf-8", newline="") as fh:
        info = os.fstat(fh.fileno())
        header = fh.readline()
        c, d, n = _parse_header(path, header)
        _check_room(path, info, header, d, n)
        row_type = _row_type(path, header, d)
        src = np.empty(n, dtype=np.int64)
        labels = np.empty(n, dtype=np.int64)
        features = np.empty((n, d))
        line_bytes = np.empty(n, dtype=np.int64)
        start = 0
        while start < n:
            lines = list(itertools.islice(fh, min(IO_BLOCK_ROWS, n - start)))
            if not lines:
                break
            if not lines[-1].endswith(("\n", "\r")):
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
            line_bytes[start:stop] = np.fromiter(map(len, map(str.encode, lines)), np.int64,
                                                 len(lines))
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
    text = None
    if stat.S_ISREG(info.st_mode):  # only a regular file can be read again at an offset
        stops = np.cumsum(line_bytes) + len(header.encode())
        text = RowText(os.path.abspath(path), info.st_size, info.st_mtime_ns,
                       np.stack([stops - line_bytes, stops], axis=1))
    starts = _run_starts(src)
    if len(np.unique(src[starts])) < len(starts):  # a source id in two runs
        order = np.argsort(src, kind="stable")  # file order kept within a source
        src, labels, features, text = src[order], labels[order], features[order], _take(text, order)
        starts = _run_starts(src)
    bounds = np.append(starts, n).tolist()
    blocks = sorted((SourceBlock(int(src[a]), features[a:b], labels[a:b], _take(text, slice(a, b)))
                     for a, b in zip(bounds, bounds[1:])), key=lambda blk: blk.source_id)
    return MultisourceDataset(blocks, c, d)


def _run_starts(src: np.ndarray) -> np.ndarray:
    """First row of every run of equal source ids (ids are nonnegative)."""
    return np.flatnonzero(np.diff(src, prepend=-1))


def as_clean_dataset(ms: MultisourceDataset) -> Dataset:
    """Flatten a multisource dataset into a plain one, trusting its labels;
    a single source's arrays are used as they are, without a copy. The
    rows keep their text when every block has text from one reading of
    one file."""
    features, labels, _ = ms.stacked()
    texts = [blk.text for blk in ms.sources]
    text = None
    if texts and all(t is not None and t.reading == texts[0].reading for t in texts):
        text = texts[0] if len(texts) == 1 else replace(
            texts[0], spans=np.concatenate([t.spans for t in texts]))
    return Dataset(features, labels, ms.c, text=text)
