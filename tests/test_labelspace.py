import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import labelspace
from weaklab.labelspace import (MAX_CLASSES, SourceSpec, TemplateKind, TransitionMatrix,
                                balanced_error_rate, check_labels, check_whole,
                                format_matrix, identity_matrix,
                                load_matrix, make_template, mean_row_entropy, parse_matrix,
                                sample_weak_labels,
                                satisfies_diagonal_dominance, save_matrix)

TEN_CLASS_KINDS = [TemplateKind.MIXED_CLASS_DEPENDENT, TemplateKind.LAND_COVER_CHANGE,
                   TemplateKind.INTERCLASS_SIMILARITY]
ETA_LIMITS = {TemplateKind.MIXED_CLASS_DEPENDENT: 0.8,
              TemplateKind.UNIFORM: 1.0,
              TemplateKind.LAND_COVER_CHANGE: 0.6,
              TemplateKind.INTERCLASS_SIMILARITY: 1.0}


def test_transition_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[0.5, 0.4], [0.2, 0.8]]))
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        TransitionMatrix(np.ones((2, 3)) / 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            TransitionMatrix(np.array([[bad, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            TransitionMatrix(np.full((3, 3), bad))


def test_source_zero_must_be_clean():
    with pytest.raises(ValueError):
        SourceSpec(0, make_template(TemplateKind.UNIFORM, 4, 0.1), 10)
    assert SourceSpec(0, identity_matrix(4), 10).count == 10
    # worded as check_whole words a source id below 0 for train and the dataset
    with pytest.raises(ValueError, match=r"^source id -1 below 0$"):
        SourceSpec(-1, identity_matrix(4), 10)


def test_uniform_template_layout():
    t = make_template(TemplateKind.UNIFORM, 10, 0.2)
    assert t.entries[0, 0] == pytest.approx(0.8)
    off = t.entries[~np.eye(10, dtype=bool)]
    assert np.allclose(off, 0.2 / 9)
    # at eta 0 it is exactly the identity, the clean source's matrix
    for c in (2, 5, 10):
        assert np.array_equal(make_template(TemplateKind.UNIFORM, c, 0.0).entries, np.eye(c))


def test_mixed_template_layout_at_eta_04():
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.4)
    # eight affected rows with diagonal 1 - eta/0.8, two untouched rows
    diag = np.diag(t.entries)
    assert np.allclose(diag[:8], 0.5)
    assert diag[8] == 1.0 and diag[9] == 1.0
    # row 1 (second row) puts all its off-mass on a single class
    assert t.entries[1, 2] == pytest.approx(0.5)
    assert t.entries[1].sum() == pytest.approx(1.0)


def test_template_eta_range_rejected():
    for kind, limit in ETA_LIMITS.items():
        with pytest.raises(ValueError):
            make_template(kind, 10, limit)
        with pytest.raises(ValueError):
            make_template(kind, 10, -0.1)
    with pytest.raises(ValueError):
        make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 9, 0.2)
    for kind in ETA_LIMITS:
        with pytest.raises(ValueError, match="eta"):
            make_template(kind, 10, float("nan"))


def test_template_class_count_is_bounded():
    assert make_template(TemplateKind.UNIFORM, MAX_CLASSES, 0.1).c == MAX_CLASSES
    # refused before the c x c matrix (8 TB here) is allocated
    for eta in (0.1, 0.0):
        with pytest.raises(ValueError, match=f"at most {MAX_CLASSES} classes, got 1000000"):
            make_template(TemplateKind.UNIFORM, 1_000_000, eta)


@given(st.sampled_from(list(ETA_LIMITS)), st.floats(0.0, 0.999))
@settings(max_examples=200)
def test_templates_row_stochastic_and_ber_matches(kind, frac):
    eta = frac * ETA_LIMITS[kind] * 0.999
    t = make_template(kind, 10, eta)
    assert np.all(t.entries >= 0.0) and np.all(t.entries <= 1.0)
    assert np.allclose(t.entries.sum(axis=1), 1.0, atol=1e-9)
    assert balanced_error_rate(t) == pytest.approx(eta, abs=1e-12)


def test_balanced_error_rate_hand_values():
    assert balanced_error_rate(identity_matrix(7)) == 0.0
    assert balanced_error_rate(make_template(TemplateKind.UNIFORM, 10, 0.3)) == pytest.approx(0.3, abs=1e-12)
    # eight rows contribute diagonal 0.5, two rows contribute 1:
    # 1 - (8 * 0.5 + 2) / 10 = 0.4
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.4)
    assert balanced_error_rate(t) == pytest.approx(0.4, abs=1e-12)


def test_mean_row_entropy_values():
    assert mean_row_entropy(identity_matrix(6)) == 0.0
    t = make_template(TemplateKind.UNIFORM, 10, 0.5)
    expected = -0.5 * np.log(0.5) - 9 * (0.5 / 9) * np.log(0.5 / 9)
    assert mean_row_entropy(t) == pytest.approx(expected, rel=1e-12)
    assert mean_row_entropy(t) == pytest.approx(1.792, abs=5e-4)


def test_entropy_zero_iff_one_hot_rows():
    perm = np.eye(5)[[4, 2, 0, 1, 3]]
    assert mean_row_entropy(TransitionMatrix(perm)) == 0.0
    t = make_template(TemplateKind.UNIFORM, 5, 0.01)
    assert mean_row_entropy(t) > 0.0


def test_uniform_errors_have_higher_entropy_than_mixed():
    for eta in (0.1, 0.2, 0.3, 0.4, 0.5):
        uni = mean_row_entropy(make_template(TemplateKind.UNIFORM, 10, eta))
        mix = mean_row_entropy(make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, eta))
        assert uni > mix


DOMINANCE_THRESHOLDS = {
    TemplateKind.MIXED_CLASS_DEPENDENT: 0.4,
    TemplateKind.UNIFORM: 0.9,
    TemplateKind.LAND_COVER_CHANGE: 0.3,
    TemplateKind.INTERCLASS_SIMILARITY: 0.5,
}


def test_dominance_thresholds_exact():
    assert satisfies_diagonal_dominance(identity_matrix(3))
    for kind, threshold in DOMINANCE_THRESHOLDS.items():
        assert satisfies_diagonal_dominance(make_template(kind, 10, threshold - 1e-9))
        assert not satisfies_diagonal_dominance(make_template(kind, 10, threshold))


def test_dominance_flip_point_by_bisection():
    for kind, threshold in DOMINANCE_THRESHOLDS.items():
        lo, hi = 0.0, ETA_LIMITS[kind] * 0.999
        assert satisfies_diagonal_dominance(make_template(kind, 10, lo))
        assert not satisfies_diagonal_dominance(make_template(kind, 10, hi))
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if satisfies_diagonal_dominance(make_template(kind, 10, mid)):
                lo = mid
            else:
                hi = mid
        assert abs(hi - threshold) <= 1e-9


def test_sample_weak_label_identity_is_noop(rng):
    labels = np.arange(8).repeat(10)
    assert np.array_equal(sample_weak_labels(identity_matrix(8), labels, rng), labels)


def test_sample_weak_label_water_rows_never_flip(rng):
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.4)
    labels = np.full(1000, 8)
    assert np.all(sample_weak_labels(t, labels, rng) == 8)
    labels = np.full(1000, 9)
    assert np.all(sample_weak_labels(t, labels, rng) == 9)


def test_sample_weak_label_flip_fraction(rng):
    t = make_template(TemplateKind.UNIFORM, 10, 0.2)
    labels = np.full(100_000, 3)
    drawn = sample_weak_labels(t, labels, rng)
    assert abs(np.mean(drawn != 3) - 0.2) < 0.01


def test_sample_weak_label_empirical_distribution(rng):
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.3)
    n = 100_000
    drawn = sample_weak_labels(t, np.full(n, 1), rng)
    freq = np.bincount(drawn, minlength=10) / n
    assert np.abs(freq - t.entries[1]).max() < 0.01


def test_sample_weak_label_rejects_bad_label(rng):
    with pytest.raises(ValueError):
        sample_weak_labels(identity_matrix(4), np.array([4]), rng)
    with pytest.raises(ValueError):
        sample_weak_labels(identity_matrix(4), np.array([-1]), rng)


@pytest.mark.parametrize("labels, message", [
    ([0, 0.7, 1.9], "labels, row 1: label 0.7 is not a whole number"),
    ([1, np.nan], "labels, row 1: label nan is not a whole number"),
    ([np.inf, 0], "labels, row 0: label inf outside [0, 2)"),
    ([0, -np.inf], "labels, row 1: label -inf outside [0, 2)"),
    ([1e30], "labels, row 0: label 1e+30 outside [0, 2)"),
    ([0, 5], "labels, row 1: label 5 outside [0, 2)"),
    ([-1, 0], "labels, row 0: label -1 outside [0, 2)"),
], ids=["fraction", "nan", "inf", "minus_inf", "past_int64", "label_c", "negative"])
def test_check_labels_refuses_what_the_cast_would_change(labels, message):
    # a cast to int64 would truncate 0.7 to 0 and turn NaN into a number;
    # the refusal raises no numpy cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            check_labels(np.array(labels), 2, "labels")
    assert str(err.value) == message


def test_check_labels_takes_whole_floats_and_keeps_an_int64_array():
    got = check_labels(np.array([1.0, 0.0, -0.0]), 2, "labels")
    assert got.dtype == np.int64 and got.tolist() == [1, 0, 0]
    labels = np.array([0, 1, 1])
    assert check_labels(labels, 2, "labels") is labels  # not copied


@pytest.mark.parametrize("values, message", [
    ([0, 0.2, 1.7], "source ids, row 1: source id 0.2 is not a whole number"),
    ([0, -1], "source ids, row 1: source id -1 below 0"),
    ([np.nan], "source ids, row 0: source id nan is not a whole number"),
    ([2.0 ** 63], "source ids, row 0: source id 9.223372036854776e+18 is not a whole number"),
], ids=["fraction", "negative", "nan", "past_int64"])
def test_check_whole_names_the_row_and_the_value(values, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            check_whole(np.array(values), "source ids", "source id")
    assert str(err.value) == message
    assert check_whole(np.array([3.0, 0.0]), "source ids", "source id").tolist() == [3, 0]


def test_check_whole_names_an_integer_past_int64():
    # the list reads as float64, so the row's own element is named, not 9.22e+18
    with pytest.raises(ValueError) as err:
        check_whole([1, 2 ** 63], "source ids", "source id")
    assert str(err.value) == "source ids, row 1: source id 9223372036854775808 past int64"


def test_sampling_deterministic_given_seed():
    t = make_template(TemplateKind.UNIFORM, 10, 0.4)
    labels = np.arange(10).repeat(50)
    a = sample_weak_labels(t, labels, np.random.default_rng(42))
    b = sample_weak_labels(t, labels, np.random.default_rng(42))
    assert np.array_equal(a, b)


def reference_weak_labels(matrix, labels, rng):
    """The one-expression sampler: count cum[labels] <= u over all rows at once."""
    cum = np.cumsum(matrix.entries, axis=1)
    u = rng.random(labels.shape[0])
    return np.minimum((cum[labels] <= u[:, None]).sum(axis=1), matrix.c - 1)


@settings(max_examples=80, deadline=None)
@given(c=st.integers(2, 6), n=st.integers(0, 20), seed=st.integers(0, 2**32 - 1),
       block_rows=st.integers(1, 3))
def test_sample_weak_labels_matches_the_reference_bytes(c, n, seed, block_rows):
    rng = np.random.default_rng(seed)
    # rows with zeros, so some cumulative sums repeat, and rounding can leave
    # the last one below 1, where the cap at c - 1 acts
    entries = rng.random((c, c)) * (rng.random((c, c)) < 0.6) + np.eye(c)
    matrix = TransitionMatrix(entries / entries.sum(axis=1, keepdims=True))
    labels = rng.integers(0, c, n)
    with mock.patch.object(labelspace, "SAMPLE_BLOCK_ROWS", block_rows):
        got = sample_weak_labels(matrix, labels, np.random.default_rng(seed + 1))
    want = reference_weak_labels(matrix, labels, np.random.default_rng(seed + 1))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sample_weak_labels_memory_is_its_output_and_a_block():
    # the reference expression held an (n, c) float and an (n, c) bool array:
    # 13.5 MB beside the 1.2 MB output at 150k rows and 10 classes
    t = make_template(TemplateKind.MIXED_CLASS_DEPENDENT, 10, 0.4)
    bound = labelspace.SAMPLE_BLOCK_ROWS * t.c * 16  # the block's comparison, whatever n
    for n in (150_000, 600_001):
        labels = np.random.default_rng(n).integers(0, 10, n)
        tracemalloc.start()
        try:
            drawn = sample_weak_labels(t, labels, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= drawn.nbytes + bound
        want = reference_weak_labels(t, labels, np.random.default_rng(3))
        assert drawn.tobytes() == want.tobytes()


def test_matrix_text_round_trip(tmp_path):
    t = make_template(TemplateKind.LAND_COVER_CHANGE, 10, 0.25)
    text = format_matrix(t)
    assert text.splitlines()[0] == "10"
    back = parse_matrix(text)
    assert np.array_equal(back.entries, t.entries)
    path = tmp_path / "t.txt"
    save_matrix(path, t)
    assert np.array_equal(load_matrix(path).entries, t.entries)


@pytest.mark.parametrize("text, message", [
    ("3\n0.5 0.5 0\n0 1\n0 0 1\n", "line 3: expected 3 numbers, found 2"),
    ("2\n1 0\n0 x\n", "line 3: '0 x' holds a non-number"),
    ("two\n1 0\n0 1\n", "line 1: class count 'two' is not an integer"),
    ("0\n", "line 1: class count 0 is not positive"),
    ("2\n1 0\n", "expected 2 matrix rows, found 1"),
    ("\n", "empty"),
], ids=["ragged_row", "non_number", "bad_count", "zero_count", "missing_row", "empty"])
def test_parse_matrix_names_the_bad_line(text, message):
    with pytest.raises(ValueError, match=message):
        parse_matrix(text)


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_matrix_lines_break_only_at_lf_crlf_and_cr(tmp_path, sep):
    # inside a line these are blanks between fields, as str.split reads them
    assert parse_matrix(f"2\n0.5{sep}0.5\n0 1\n").entries.tolist() == [[0.5, 0.5], [0, 1]]
    with pytest.raises(ValueError, match="line 3: expected 2 numbers, found 3"):
        parse_matrix(f"2\n1 0\n0 1{sep}x\n")
    path = tmp_path / "t.txt"
    path.write_bytes(b"2\r\n1 0\r0 1" + sep.encode() + b"\xff\n")
    with pytest.raises(ValueError, match="t.txt, line 3: byte 0xff is not UTF-8 text"):
        load_matrix(path)


def test_load_matrix_names_the_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("2\n\n1 0\n0 1 0\n")
    with pytest.raises(ValueError, match="t.txt, line 4: expected 2 numbers, found 3"):
        load_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("2\n0.5 0.4\n0 1\n", "rows must sum to 1 (max deviation 0.1)"),
    ("2\n1.5 -0.5\n0 1\n", "entries must be finite and lie in [0, 1]"),
], ids=["row_sum", "out_of_range"])
def test_load_matrix_names_the_file_of_a_bad_matrix(tmp_path, text, message):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: transition matrix {message}"


@pytest.mark.parametrize("data, message", [
    (b"2\n1 0\n0 \xff1\n", "line 3: byte 0xff is not UTF-8 text"),
    # read as UTF-8 whatever the locale's encoding
    ("2\n1 0\n0 1\u00e9\n".encode(), "line 3: '0 1\u00e9' holds a non-number"),
], ids=["not_utf8", "utf8"])
def test_load_matrix_reads_utf8(tmp_path, data, message):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"t.txt, {message}"):
        load_matrix(path)
