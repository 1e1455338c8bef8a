"""Transition-matrix algebra for weak labelling sources.

A labelling source is characterised by a row-stochastic transition matrix
T where T[j, k] is the probability that an instance whose true class is j
receives label k. A clean source has the identity matrix. This module
builds the parametric template family used by the synthetic benchmarks,
computes matrix diagnostics (balanced error rate, mean row entropy,
diagonal dominance), draws weak labels from the matrix rows and reads
and writes matrices as text.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

ROW_SUM_TOL = 1e-9

# the most classes any input may ask for: a c x c float64 matrix of them
# takes 8 MB, where an unchecked count could ask for terabytes
MAX_CLASSES = 1000


class TemplateKind(Enum):
    """Error-pattern families for synthetic weak sources.

    MIXED_CLASS_DEPENDENT, LAND_COVER_CHANGE and INTERCLASS_SIMILARITY are
    fixed 10-class layouts; UNIFORM works for any class count, and at eta 0
    is the identity.
    """

    MIXED_CLASS_DEPENDENT = "mixed"
    UNIFORM = "uniform"
    LAND_COVER_CHANGE = "landcover"
    INTERCLASS_SIMILARITY = "interclass"


@dataclass(eq=False)
class TransitionMatrix:
    """Row-stochastic c x c matrix of label-flip probabilities."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {e.shape}")
        # written so that NaN fails the range check
        if not np.all((e >= 0.0) & (e <= 1.0)):
            raise ValueError("transition matrix entries must be finite and lie in [0, 1]")
        row_sums = e.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.abs(row_sums - 1.0).max())
            raise ValueError(f"transition matrix rows must sum to 1 (max deviation {worst:g})")
        e.setflags(write=False)
        self.entries = e

    def __array__(self, dtype=None, copy=None):
        """The entries, so np.asarray reads a TransitionMatrix as its array."""
        return np.array(self.entries, dtype=dtype, copy=copy)

    @property
    def c(self) -> int:
        return self.entries.shape[0]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.entries, np.eye(self.c)))


@dataclass(eq=False)
class SourceSpec:
    """A labelling source: index, transition matrix, sample count.

    Source 0 is by convention the clean source and must carry the identity
    matrix; weak sources have positive indices.
    """

    id: int
    matrix: TransitionMatrix
    count: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"source id {self.id} below 0")
        if self.id == 0 and not self.matrix.is_identity():
            raise ValueError("source 0 is the clean source and must have the identity matrix")
        if self.count < 0:
            raise ValueError("source count must be nonnegative")


def identity_matrix(c: int) -> TransitionMatrix:
    return TransitionMatrix(np.eye(c))


# Off-diagonal layouts of the fixed 10-class templates. Each affected row
# maps to a list of (target class, share of the row's off-diagonal mass);
# rows not listed stay clean. The off-diagonal mass of an affected row is
# eta divided by the template's eta limit (the fraction of affected rows),
# which makes the balanced error rate of the matrix equal to eta.
_MIXED_TARGETS = {
    0: [(5, 0.5), (6, 0.5)],
    1: [(2, 1.0)],
    2: [(5, 1.0)],
    3: [(0, 0.5), (1, 0.5)],
    4: [(5, 0.5), (7, 0.5)],
    5: [(2, 1.0)],
    6: [(0, 0.5), (5, 0.5)],
    7: [(1, 0.5), (4, 0.5)],
}

_LANDCOVER_TARGETS = {
    0: [(1, 0.5), (5, 0.5)],
    3: [(1, 0.5), (2, 0.5)],
    4: [(0, 1 / 3), (1, 1 / 3), (5, 1 / 3)],
    5: [(2, 1.0)],
    6: [(1, 0.5), (2, 0.5)],
    7: [(1, 1 / 3), (2, 1 / 3), (5, 1 / 3)],
}

_INTERCLASS_TARGETS = {
    0: [(3, 1 / 3), (5, 1 / 3), (6, 1 / 3)],
    1: [(2, 0.5), (3, 0.5)],
    2: [(1, 1.0)],
    3: [(0, 1 / 3), (1, 1 / 3), (6, 1 / 3)],
    4: [(7, 1.0)],
    5: [(0, 0.5), (6, 0.5)],
    6: [(0, 1 / 3), (3, 1 / 3), (5, 1 / 3)],
    7: [(4, 1.0)],
    8: [(9, 1.0)],
    9: [(8, 1.0)],
}

_TARGETS = {
    TemplateKind.MIXED_CLASS_DEPENDENT: _MIXED_TARGETS,
    TemplateKind.LAND_COVER_CHANGE: _LANDCOVER_TARGETS,
    TemplateKind.INTERCLASS_SIMILARITY: _INTERCLASS_TARGETS,
}

# at eta = limit the diagonal of every affected row reaches zero
_ETA_LIMIT = {TemplateKind.UNIFORM: 1.0} | {kind: len(targets) / 10
                                            for kind, targets in _TARGETS.items()}


def make_template(kind: TemplateKind, c: int, eta: float) -> TransitionMatrix:
    """Build a template transition matrix with balanced error rate eta.

    Raises ValueError if eta falls outside the range where the template's
    diagonal stays nonnegative, or if c is unsupported for the kind or
    above MAX_CLASSES.
    """
    if c < 2:
        raise ValueError("templates need at least 2 classes")
    if c > MAX_CLASSES:
        raise ValueError(f"templates take at most {MAX_CLASSES} classes, got {c}")
    if not 0.0 <= eta < _ETA_LIMIT[kind]:  # written so that NaN fails
        raise ValueError(f"eta = {eta:g} outside [0, {_ETA_LIMIT[kind]:g}) for {kind.value}")
    if kind is TemplateKind.UNIFORM:
        m = np.full((c, c), eta / (c - 1))
        np.fill_diagonal(m, 1.0 - eta)
        return TransitionMatrix(m)
    if c != 10:
        raise ValueError(f"{kind.value} template is defined only for c = 10")
    mass = eta / _ETA_LIMIT[kind]
    m = np.eye(c)
    for row, shares in _TARGETS[kind].items():
        m[row, row] = 1.0 - mass
        for target, share in shares:
            m[row, target] = share * mass
    return TransitionMatrix(m)


def balanced_error_rate(matrix: TransitionMatrix) -> float:
    """1 minus the mean diagonal entry: the class-balanced flip probability."""
    return float(1.0 - np.trace(matrix.entries) / matrix.c)


def mean_row_entropy(matrix: TransitionMatrix) -> float:
    """Mean Shannon entropy of the rows in nats, with 0 * log 0 = 0."""
    p = matrix.entries[matrix.entries > 0]
    return float(-(p * np.log(p)).sum() / matrix.c)


def satisfies_diagonal_dominance(matrix: TransitionMatrix) -> bool:
    """True iff every diagonal entry strictly exceeds all entries in its row."""
    e = matrix.entries
    diag = np.diag(e)
    off = e.copy()
    np.fill_diagonal(off, -np.inf)
    return bool(np.all(diag > off.max(axis=1)))


@contextmanager
def refused_at(prefix: str):
    """Re-raise a ValueError of the block as a ValueError reading `prefix message`,
    the one way a caller tells where a refusal comes from."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{prefix} {err}") from None


def check_rows(where: str, rows: int, values, what: str) -> None:
    """Raise ValueError unless values holds one entry per feature row, naming
    `where`, the first row that only one of the two has, and `what` they are."""
    if len(values) != rows:
        raise ValueError(f"{where}, row {min(len(values), rows)}: {rows} feature rows but "
                         f"{len(values)} {what}")


def refuse_rows(where: str, bad: np.ndarray, what: str, values) -> None:
    """Raise ValueError naming `where`, the first row bad marks and what.format(its value)."""
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{where}, row {row}: " + what.format(values[row]))


def check_whole(values, what: str, name: str, low: int = 0) -> np.ndarray:
    """The values as an int64 array (an int64 array itself, not a copy); raises
    ValueError naming `what`, the first row and its value (as `name`) where the raw
    value is below low (a NaN is not), else where it is not whole or past int64."""
    given, values = values, np.asarray(values)
    refuse_rows(what, values < low, f"{name} {{}} below {low}", values)
    with np.errstate(invalid="ignore"):  # the values that the cast warns of are refused below
        try:
            ints = values.astype(np.int64, copy=False)
        except OverflowError:  # an int past uint64 makes values an object array
            ints = np.minimum(values, 2 ** 63 - 1).astype(np.int64)
    bad = ints != values
    if bad.any():
        row = int(np.argmax(bad))
        # a list's own element: [1, 2**63] reads as float64, which rounds the integer
        value = values[row] if isinstance(given, np.ndarray) else given[row]
        fault = "past int64" if isinstance(value, (int, np.integer)) else "is not a whole number"
        raise ValueError(f"{what}, row {row}: {name} {value} {fault}")
    return ints


def check_labels(labels, c: int, what: str) -> np.ndarray:
    """The labels as check_whole returns them; raises ValueError naming
    `what` and the first row whose label is outside [0, c) or not whole."""
    labels = np.asarray(labels)  # compared before the cast, which would truncate or wrap
    refuse_rows(what, (labels < 0) | (labels >= c), f"label {{}} outside [0, {c})", labels)
    return check_whole(labels, what, "label")


# rows whose (rows, c) comparison sample_weak_labels makes per step:
# bounds its working memory beyond the output whatever the row count
SAMPLE_BLOCK_ROWS = 4096


def sample_weak_labels(matrix: TransitionMatrix, true_labels: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw one weak label per true label from the matrix rows.

    One uniform u per row, drawn in a single call; the label is the
    number of cumulative row probabilities <= u, capped at c - 1. The
    counts are made in blocks of SAMPLE_BLOCK_ROWS rows and written over
    the draws they were made from, so the int64 result shares the
    draws' buffer and the call allocates nothing else of the row count.
    """
    c = matrix.c
    labels = check_labels(true_labels, c, "true labels")
    cum = np.cumsum(matrix.entries, axis=1)
    u = rng.random(labels.shape[0])
    drawn = u.view(np.int64)
    for start in range(0, len(u), SAMPLE_BLOCK_ROWS):
        part = slice(start, start + SAMPLE_BLOCK_ROWS)
        below = cum[labels[part]] <= u[part, None]  # made before drawn[part] is written
        below.sum(axis=1, out=drawn[part])
    return np.minimum(drawn, c - 1, out=drawn)


def format_matrix(matrix: TransitionMatrix) -> str:
    """Plain-text form: first line c, then c rows of c probabilities."""
    lines = [str(matrix.c)]
    for row in matrix.entries:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _numbered_lines(text: str):
    """(1-based number, line) of each line of text, split only at LF, CR LF
    and CR like the package's other text readers (str.splitlines would also
    split at \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029)."""
    return enumerate(io.StringIO(text, newline=""), start=1)


def parse_matrix(text: str, source: str = "matrix") -> TransitionMatrix:
    """Read the format_matrix text form. Raises ValueError naming `source`
    (the file, for load_matrix) and the 1-based line when the first line is
    not a positive class count c, a row does not hold c numbers, or there
    are other than c rows; naming `source` alone when TransitionMatrix does."""
    lines = [(i, ln) for i, ln in _numbered_lines(text) if ln.strip()]
    if not lines:
        raise ValueError(f"{source}: empty, expected a class count line")
    lineno, first = lines[0]
    try:
        c = int(first)
    except ValueError:
        raise ValueError(f"{source}, line {lineno}: class count {first.strip()!r} "
                         "is not an integer") from None
    if c < 1:
        raise ValueError(f"{source}, line {lineno}: class count {c} is not positive")
    if len(lines) != c + 1:
        raise ValueError(f"{source}: expected {c} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, ln in lines[1:]:
        fields = ln.split()
        if len(fields) != c:
            raise ValueError(f"{source}, line {lineno}: expected {c} numbers, "
                             f"found {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ValueError(f"{source}, line {lineno}: {ln.strip()!r} holds a "
                             "non-number") from None
    with refused_at(f"{source}:"):
        return TransitionMatrix(np.array(rows))


def save_matrix(path, matrix: TransitionMatrix) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(matrix))


def check_utf8(path, lineno: int, line: str) -> None:
    """Raise ValueError naming the file, the 1-based line and the byte if
    line, read with errors="surrogateescape", holds a byte that is not UTF-8
    (every text reader of the package reads its files this way)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as err:  # the escapes of bad bytes are lone surrogates
        raise ValueError(f"{path}, line {lineno}: byte 0x{ord(line[err.start]) - 0xDC00:02x} is "
                         f"not UTF-8 text") from None


def load_matrix(path) -> TransitionMatrix:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    for lineno, line in _numbered_lines(text):  # the lines parse_matrix counts
        check_utf8(path, lineno, line)
    return parse_matrix(text, str(path))
