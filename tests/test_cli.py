import struct

import numpy as np
import pytest

from conftest import BAD_DATASET_FILES, dataset_bytes
from weaklab import correction, estimation, harness
from weaklab.cli import _parse_corrupt_spec, main
from weaklab.datagen import (DATASET_MAGIC, MultisourceDataset, SourceBlock, build_multisource,
                             generate_blobs, load_dataset, save_dataset)
from weaklab.labelspace import (MAX_CLASSES, SourceSpec, TemplateKind, format_matrix,
                                identity_matrix, make_template)

RUN_CONFIG = """
[dataset]
classes = 5
dim = 4
n_per_class = 75
spread = 0.25

[sources]
clean_count = 40
weak = uniform:x3
etas = 0.2

[train]
epochs = 3
batch_size = 16
learning_rate = 0.1
hidden = 0

[run]
seeds = 0
combos = vanilla:cce proposed:cce
"""


def test_gen_template_stdout(capsys):
    assert main(["gen-template", "--kind", "uniform", "--eta", "0.2", "--classes", "10"]) == 0
    out = capsys.readouterr().out
    t = np.loadtxt(out.splitlines(), skiprows=1, ndmin=2)
    expected = make_template(TemplateKind.UNIFORM, 10, 0.2)
    assert np.array_equal(t, expected.entries)


def test_gen_template_to_file(tmp_path):
    path = tmp_path / "t.txt"
    assert main(["gen-template", "--kind", "mixed", "--eta", "0.4",
                 "--classes", "10", "--out", str(path)]) == 0
    t = np.loadtxt(path, skiprows=1, ndmin=2)
    assert t[0, 0] == pytest.approx(0.5)
    # the bytes of every run's T_hat_*.txt: save_matrix writes both
    assert path.read_bytes() == format_matrix(
        make_template(TemplateKind("mixed"), 10, 0.4)).encode()


def test_gen_template_offers_no_identity_kind(capsys):
    # uniform at eta 0 is the identity, so the kind has one name
    with pytest.raises(SystemExit) as exc:
        main(["gen-template", "--kind", "identity", "--eta", "0"])
    assert exc.value.code == 2
    assert "argument --kind: invalid choice: 'identity'" in capsys.readouterr().err
    assert [kind.value for kind in TemplateKind] == ["mixed", "uniform", "landcover", "interclass"]


def test_gen_template_rejects_bad_eta(capsys):
    assert main(["gen-template", "--kind", "mixed", "--eta", "0.9"]) == 2
    assert capsys.readouterr().err == "weaklab gen-template: eta = 0.9 outside [0, 0.8) for mixed\n"
    assert main(["gen-template", "--kind", "uniform", "--eta", "nan", "--classes", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "weaklab gen-template: eta = nan outside [0, 1) for uniform\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("[dataset]\nspread = nan\n", "exp.ini, line 2: [dataset] spread must be finite and > 0, "
     "got nan\n"),
    ("[train]\nepochs = 0\n", "exp.ini, line 2: [train] epochs must be >= 1, got 0\n"),
    ("[run]\nseeds = -1\n", "exp.ini, line 2: [run] seeds must be >= 0, got -1\n"),
    # about several keys, so the file alone
    ("[sources]\netas = 0.1 0.9\n", "exp.ini: [sources] clean_count, weak, etas at eta 0.9, "
     "[dataset] classes 10 x n_per_class 625: eta = 0.9 outside [0, 0.8) for mixed\n"),
    (None, "No such file or directory"),
    ("[train]\nepochs = 3\nhidden = 0\nepochs = 4\n",
     "exp.ini, line 4: [train] epochs given twice"),
    ("epochs = 3\n[train]\n", "exp.ini, line 1: 'epochs = 3' comes before any [section] header"),
    ("[train]\nepochs 3\n",
     "exp.ini, line 2: 'epochs 3' is not a [section] header or a key = value line"),
    (b"[train]\nepochs = 3\n\xff\n", "exp.ini, line 3: byte 0xff is not UTF-8 text"),
    ("[train]\nepochs: 5\n",
     "exp.ini, line 2: 'epochs: 5' is not a [section] header or a key = value line"),
    ("[run]\nseeds = 5\n  7 8\n",
     "exp.ini, line 3: '7 8' is not a [section] header or a key = value line"),
    ("[run]\nseeds = 4\n\n  9\n",
     "exp.ini, line 4: '9' is not a [section] header or a key = value line"),
    ("[train] extra words\nepochs = 7\n",
     "exp.ini, line 1: '[train] extra words' is not a [section] header or a key = value line"),
    ("[train]\nlearning_rat = 5.0\n", "exp.ini, line 2: unknown key 'learning_rat'"),
    # int(round(inf)) would end the run with an OverflowError traceback and exit 1
    ("[sources]\nweak = mixed:xinf\n",
     "exp.ini, line 2: [sources] weak token 'mixed:xinf': multiplier must be finite and > 0, "
     "got inf\n"),
    # every refused weak token is named with its line; an old size gets its new spelling
    ("[sources]\nweak = mixed:9\n", "exp.ini, line 2: [sources] weak token 'mixed:9': expected "
     "kind:xM, as in mixed:x9\n"),
    ("[sources]\nweak = mixed\n", "exp.ini, line 2: [sources] weak token 'mixed': expected "
     "kind:xM, as in mixed:x1\n"),
    # a finite multiplier whose product with clean_count overflows: round(inf) again
    ("[sources]\nweak = mixed:x1e308\n", "exp.ini, line 2: [sources] weak token 'mixed:x1e+308': "
     "1e+308 x clean_count 500 overflows\n"),
    ("[sources]\nweak = mixed:x0\n", "exp.ini, line 2: [sources] weak token 'mixed:x0': "
     "multiplier must be finite and > 0, got 0\n"),
    ("[sources]\nweak = mixed:xnan\n", "exp.ini, line 2: [sources] weak token 'mixed:xnan': "
     "multiplier must be finite and > 0, got nan\n"),
    ("[sources]\nclean_count = 500\nweak = mixed:x0.0001\n", "exp.ini, line 3: [sources] weak "
     "token 'mixed:x0.0001': round(0.0001 x clean_count 500) = 0 rows, need at least 1\n"),
    # a run config takes each eta from [sources] etas, so its token has no eta
    ("[sources]\nweak = mixed:0.3:0\n", "exp.ini, line 2: [sources] weak token 'mixed:0.3:0': "
     "expected kind:xM; each eta comes from [sources] etas\n"),
    ("[sources]\nweak = mixed:0.3:2.5\n", "exp.ini, line 2: [sources] weak token "
     "'mixed:0.3:2.5': expected kind:xM; each eta comes from [sources] etas\n"),
    ("[run]\ncombos = proposed@tru:cce\n",
     "exp.ini, line 2: [run] combos token 'proposed@tru:cce': unknown strategy 'proposed@tru'"),
    ("[run]\ncombos = propsed:cce\n",
     "exp.ini, line 2: [run] combos token 'propsed:cce': unknown strategy 'propsed', expected "
     "one of vanilla, forward, proposed, forward@true, proposed@true\n"),
    ("[run]\ncombos = proposed:xce\n",
     "exp.ini, line 2: [run] combos token 'proposed:xce': unknown loss family 'xce', expected "
     "one of cce, mae, gce, sl\n"),
    # -0 and 0 are one eta to the sweep, which would train its models twice
    ("[sources]\netas = 0 -0\n", "exp.ini, line 2: [sources] etas: 0 given twice\n"),
], ids=["dataset", "train", "negative_seed", "eta_outside_template", "missing_file",
        "repeated_key", "key_before_header", "line_without_equals", "not_utf8", "colon",
        "continuation", "continuation_after_blank", "text_after_header", "unknown_key", "infinite_multiplier", "old_size", "bare_kind",
        "overflowing_multiplier", "zero_multiplier", "nan_multiplier", "rounds_to_0",
        "eta_and_zero_rows", "eta_and_fractional_rows", "true_suffix", "unknown_strategy",
        "unknown_family", "negative_zero_eta"])
def test_run_reports_a_bad_config_in_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.ini"
    if text is not None:
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("weaklab run: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_run_reports_sizes_too_large_to_allocate_in_one_line(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array it cannot allocate
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                          "and data type float64")
    monkeypatch.setattr(harness, "generate_blobs", allocate)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("weaklab run: Unable to allocate 7.28 TiB for an array with shape "
                            "(1000000000000,) and data type float64\n")
    assert captured.out == "" and not out.exists()


def test_run_rejects_sources_beyond_the_training_pool_before_training(tmp_path, capsys,
                                                                     monkeypatch):
    # 5 x 75 rows leave a training pool of 300; 40 clean + 9 x 40 weak is 400
    trained = []
    for module in (harness, estimation):
        monkeypatch.setattr(module, "train", lambda *args, **kwargs: trained.append(args))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG.replace("weak = uniform:x3", "weak = uniform:x9"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"weaklab run: {cfg}: [sources] clean_count, weak, etas at eta 0.2, "
                            "[dataset] classes 5 x n_per_class 75: 2 sources request 400 "
                            "instances, but the training pool has 300: 375 rows, less 75 test "
                            "rows\n")
    assert captured.out == ""
    assert not out.exists() and trained == []


def test_run_refuses_an_out_directory_that_is_not_empty_before_training(tmp_path, capsys,
                                                                       monkeypatch):
    # a 2-seed run and then a 1-seed run into one directory used to leave
    # runs/seed1/ beside a report.csv of seed 0 alone
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG.replace("seeds = 0", "seeds = 0 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    capsys.readouterr()
    trained = []
    for module in (harness, estimation):
        monkeypatch.setattr(module, "train", lambda *args, **kwargs: trained.append(args))
    cfg.write_text(RUN_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"weaklab run: output directory {out} exists and is not empty; "
                            f"a run writes only into a new or empty directory\n")
    assert captured.out == "" and trained == []
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == first
    # an empty directory is as good as a new one
    monkeypatch.undo()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(empty)]) == 0
    assert (empty / "report.csv").exists()


def test_validate_gradients_passes(capsys):
    assert main(["validate-gradients", "--cases", "60", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_gradients_fails_with_absurd_tolerance(capsys):
    assert main(["validate-gradients", "--cases", "20", "--tolerance", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_validate_gradients_rejects_fewer_than_one_case(capsys, value):
    # zero cases used to print "PASS: 0 cases" and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["validate-gradients", "--cases", value])
    assert exc.value.code == 2
    assert f"argument --cases: must be > 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_validate_gradients_rejects_a_tolerance_that_is_not_positive(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate-gradients", "--cases", "5", "--tolerance", value])
    assert exc.value.code == 2
    assert f"argument --tolerance: must be > 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate-gradients", "--cases", "5"],
    ["corrupt", "--load-dataset", "clean.txt", "--spec", "sources.ini",
     "--emit-dataset", "weak.txt"],
], ids=["validate_gradients", "corrupt"])
@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(capsys, argv, value):
    # a negative seed used to end in numpy's ValueError from default_rng,
    # naming neither the flag nor the command
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"weaklab {argv[0]}: error: argument --seed: " in err
    assert ("must be >= 0, got -1" if value == "-1" else f"invalid int value: '{value}'") in err


@pytest.mark.parametrize("seed", [8, 10, 42, 71, 310])
def test_validate_gradients_passes_on_near_zero_gradients(capsys, seed):
    # each of these seeds draws a case whose gradient norm is under 3e-4,
    # where finite-difference round-off alone exceeds 1e-6 relative
    assert main(["validate-gradients", "--cases", "1000", "--seed", str(seed)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_gradients_catches_a_relative_error_of_1e_4(monkeypatch, capsys):
    exact = correction.weight_proposed
    monkeypatch.setattr(correction, "weight_proposed", lambda *args: 1.0001 * exact(*args))
    assert main(["validate-gradients", "--cases", "1000", "--seed", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("seed, worst", [(0, {"3.899e-08", "3.417e-08"}),
                                         (301, {"4.764e-08", "3.715e-08"}),
                                         (305, {"4.820e-08"})], ids=["0", "301", "305"])
def test_validate_gradients_prints_the_same_line(capsys, seed, worst):
    # pins the cases' random stream and the printed format. forward_correct's
    # matrix-vector products run in BLAS, whose kernel decides the last bits of
    # the finite differences: the first value is the default OpenBLAS kernel's
    # on an AVX-512 core, the second OPENBLAS_CORETYPE=Haswell's
    assert main(["validate-gradients", "--cases", "1000", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out in {f"PASS: 1000 cases, max relative gradient error {value} "
                                       "(tolerance 1e-06)\n" for value in worst}


def test_corrupt_round_trip(tmp_path, capsys):
    blobs = generate_blobs(10, 4, 200, 0.3, np.random.default_rng(3))
    clean_ms, _ = build_multisource(blobs, [SourceSpec(0, identity_matrix(10), 1600)], 3)
    src_path = tmp_path / "clean.txt"
    save_dataset(src_path, clean_ms)

    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 100\nweak = uniform:0.3:900\n")
    out_path = tmp_path / "weak.txt"
    assert main(["corrupt", "--load-dataset", str(src_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path), "--seed", "5"]) == 0
    ms = load_dataset(out_path)
    assert len(ms.block(0)) == 100
    assert len(ms.block(1)) == 900
    # roughly the requested corruption level on the weak block
    lookup = {blobs.features[i].tobytes(): blobs.labels[i] for i in range(len(blobs))}
    blk = ms.block(1)
    true = np.array([lookup[blk.features[i].tobytes()] for i in range(len(blk))])
    assert abs(np.mean(true != blk.labels) - 0.3) < 0.05


# a spec the reader would refuse, so a refusal that names another file
# shows that it came before the spec was read
UNREAD_SPEC = "[sources]\nclean_count = 0\n"


@pytest.mark.parametrize("emit, other", [
    ("clean.txt", "--load-dataset file clean.txt; writing it would replace the input"),
    ("./clean.txt", "--load-dataset file clean.txt; writing it would replace the input"),
    ("sub/../clean.txt", "--load-dataset file clean.txt; writing it would replace the input"),
    ("link.txt", "--load-dataset file clean.txt; writing it would replace the input"),
    ("spec.ini", "--spec file spec.ini; writing it would replace the spec"),
    ("./spec.ini", "--spec file spec.ini; writing it would replace the spec"),
    ("spec_link.ini", "--spec file spec.ini; writing it would replace the spec"),
], ids=["clean.txt", "./clean.txt", "sub/../clean.txt", "link.txt", "spec.ini", "./spec.ini",
        "spec_link.ini"])
def test_corrupt_refuses_to_overwrite_its_input(tmp_path, monkeypatch, capsys, emit, other):
    blobs = generate_blobs(5, 2, 4, 0.3, np.random.default_rng(0))
    monkeypatch.chdir(tmp_path)
    save_dataset("clean.txt", MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)],
                                                 5, 2))
    (tmp_path / "spec.ini").write_text(UNREAD_SPEC)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(tmp_path / "clean.txt")
    (tmp_path / "spec_link.ini").symlink_to(tmp_path / "spec.ini")
    before = {name: (tmp_path / name).read_bytes() for name in ("clean.txt", "spec.ini")}
    assert main(["corrupt", "--load-dataset", "clean.txt", "--spec", "spec.ini",
                 "--emit-dataset", emit]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"weaklab corrupt: --emit-dataset {emit} is the {other}\n"
    assert captured.out == ""
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clean.txt", "link.txt", "spec.ini", "spec_link.ini", "sub"]


def test_corrupt_overwrites_another_existing_file(tmp_path, capsys):
    blobs = generate_blobs(5, 2, 40, 0.3, np.random.default_rng(0))
    clean_path = tmp_path / "clean.txt"
    save_dataset(clean_path, MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)],
                                                5, 2))
    before = clean_path.read_bytes()
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 10\nweak = uniform:0.3:20\n")
    out_path = tmp_path / "weak.txt"
    out_path.write_text("an older file\n")
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path)]) == 0
    assert [len(b) for b in load_dataset(out_path).sources] == [10, 20]
    assert clean_path.read_bytes() == before


def corrupt_input(tmp_path):
    """A clean dataset file of 5 x 40 generated blobs (one source, no
    origins), the blobs and a spec path."""
    blobs = generate_blobs(5, 2, 40, 0.3, np.random.default_rng(0))
    clean_path = tmp_path / "clean.bin"
    save_dataset(clean_path, MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)],
                                                5, 2))
    return clean_path, blobs, tmp_path / "sources.ini"


def test_corrupt_emit_test_writes_the_rows_no_source_drew(tmp_path, capsys):
    # 200 rows: the sources take the whole 160-row pool, the test split 40
    clean_path, blobs, spec_path = corrupt_input(tmp_path)
    spec_path.write_text("[sources]\nclean_count = 40\nweak = uniform:0.3:70 uniform:0.2:50\n")
    out_path, test_path = tmp_path / "weak.bin", tmp_path / "test.bin"
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path), "--emit-test", str(test_path),
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out == (f"wrote {out_path} (source 0: 40, source 1: 70, "
                                       f"source 2: 50)\nwrote {test_path} (test split: 40)\n")
    ms, test = load_dataset(out_path), load_dataset(test_path)
    assert [b.source_id for b in test.sources] == [0] and (test.c, test.d) == (5, 2)
    split = test.block(0)
    origins = [split.origin] + [blk.origin for blk in ms.sources]
    assert sorted(np.concatenate(origins).tolist()) == list(range(len(blobs)))  # disjoint, all
    assert split.features.tobytes() == blobs.features[split.origin].tobytes()
    assert np.array_equal(split.labels, blobs.labels[split.origin])  # true labels
    _, expected = build_multisource(blobs, [SourceSpec(0, identity_matrix(5), 160)], 3)
    assert np.array_equal(split.origin, expected.origin)  # the split of the same shuffle


@pytest.mark.parametrize("emit_test, other", [
    ("clean.bin", "--load-dataset file clean.bin; writing it would replace the input"),
    ("./clean.bin", "--load-dataset file clean.bin; writing it would replace the input"),
    ("link.bin", "--load-dataset file clean.bin; writing it would replace the input"),
    ("sources.ini", "--spec file sources.ini; writing it would replace the spec"),
    ("./sources.ini", "--spec file sources.ini; writing it would replace the spec"),
    ("spec_link.ini", "--spec file sources.ini; writing it would replace the spec"),
    # weak.bin does not exist yet: the paths are compared
    ("weak.bin", "--emit-dataset file weak.bin; writing it would replace the corrupted dataset"),
    ("sub/../weak.bin", "--emit-dataset file weak.bin; writing it would replace the corrupted "
                        "dataset"),
], ids=["input", "input_dot", "input_link", "spec", "spec_dot", "spec_link", "output",
        "output_dotdot"])
def test_corrupt_refuses_an_emit_test_that_is_its_input_or_output(tmp_path, monkeypatch, capsys,
                                                                  emit_test, other):
    monkeypatch.chdir(tmp_path)
    corrupt_input(tmp_path)[2].write_text(UNREAD_SPEC)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.bin").symlink_to(tmp_path / "clean.bin")
    (tmp_path / "spec_link.ini").symlink_to(tmp_path / "sources.ini")
    before = {name: (tmp_path / name).read_bytes() for name in ("clean.bin", "sources.ini")}
    assert main(["corrupt", "--load-dataset", "clean.bin", "--spec", "sources.ini",
                 "--emit-dataset", "weak.bin", "--emit-test", emit_test]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"weaklab corrupt: --emit-test {emit_test} is the {other}\n"
    assert captured.out == ""
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clean.bin", "link.bin", "sources.ini", "spec_link.ini", "sub"]


def test_corrupt_twice_writes_the_same_bytes(tmp_path, capsys):
    clean_path, _, spec_path = corrupt_input(tmp_path)
    spec_path.write_text("[sources]\nclean_count = 20\nweak = uniform:0.3:100\n")
    runs = []
    for run in ("a", "b"):
        out, test = tmp_path / f"weak_{run}.txt", tmp_path / f"test_{run}.txt"
        assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                     "--emit-dataset", str(out), "--emit-test", str(test), "--seed", "7"]) == 0
        runs.append((out.read_bytes(), test.read_bytes()))
    assert runs[0] == runs[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "clean.bin", "sources.ini", "test_a.txt", "test_b.txt", "weak_a.txt", "weak_b.txt"]


def test_corrupt_reads_both_sizes_as_one_dataset(tmp_path, capsys):
    # x5 of clean_count 20 is the 100 rows that `weaklab run` would size it to
    clean_path, _, spec_path = corrupt_input(tmp_path)
    runs = []
    for size in ("100", "x5"):
        spec_path.write_text(f"[sources]\nclean_count = 20\nweak = uniform:0.3:{size}\n")
        out, test = tmp_path / f"weak_{size}.bin", tmp_path / f"test_{size}.bin"
        assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                     "--emit-dataset", str(out), "--emit-test", str(test), "--seed", "7"]) == 0
        runs.append((out.read_bytes(), test.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("weak, message", [
    ("uniform:x5", "line 3: [sources] weak token 'uniform:x5': expected kind:eta:size"),
    ("uniform:0.3:x0.01", "line 3: [sources] weak token 'uniform:0.3:x0.01': round(0.01 x "
                          "clean_count 20) = 0 rows, need at least 1"),
    ("mixed:0.3:x1e308", "line 3: [sources] weak token 'mixed:0.3:x1e+308': 1e+308 x "
                         "clean_count 20 overflows"),
    ("identity:0:500", "line 3: [sources] weak token 'identity:0:500': unknown template kind "
                       "'identity', expected one of mixed, uniform, landcover, interclass"),
], ids=["no_eta", "rounds_to_0", "overflowing_multiplier", "identity_kind"])
def test_corrupt_reports_a_bad_weak_token_in_one_line(tmp_path, capsys, weak, message):
    clean_path, _, spec_path = corrupt_input(tmp_path)
    spec_path.write_text(f"[sources]\nclean_count = 20\nweak = {weak}\n")
    out = tmp_path / "weak.bin"
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"weaklab corrupt: {spec_path}, {message}\n"
    assert captured.out == "" and not out.exists()


def test_run_command_writes_report(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "curves.csv").exists()
    text = (out / "report.csv").read_text()
    assert text.splitlines()[0].startswith("strategy,loss,eta")
    assert "proposed,cce,0.2" in text


def test_run_table_lines_up_the_longest_strategy_token(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG.replace("epochs = 3", "epochs = 1")
                   .replace("combos = vanilla:cce proposed:cce",
                            "combos = vanilla:cce proposed@true:cce forward:cce"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert [row.split()[0] for row in rows] == ["baseline", "vanilla", "proposed@true", "forward"]
    assert len({row.index(" eta=") for row in rows}) == 1, rows


def test_run_records_a_diverged_baseline_and_goes_on(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG.replace("learning_rate = 0.1", "learning_rate = 1e200")
                   .replace("seeds = 0", "seeds = 0 1"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = (out / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [(r["strategy"], r["n_failed"]) for r in rows if r["seed"] == "all"] == [
        ("baseline", "2"), ("vanilla", "2"), ("proposed", "2")]
    # no baseline, so no checkpoint and no estimates
    assert not list(out.rglob("*.params")) and not list(out.rglob("T_hat_*.txt"))
    assert (out / "estimates.csv").read_text() == "seed,eta,source,mean_row_l1,max_abs_error\n"


def test_run_command_deterministic(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(RUN_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


def test_corrupt_reports_a_repeated_spec_key_in_one_line(tmp_path, capsys):
    # the spec is read before the dataset, so its error comes first
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 100\nclean_count = 200\n")
    assert main(["corrupt", "--load-dataset", str(tmp_path / "clean.txt"), "--spec",
                 str(spec_path), "--emit-dataset", str(tmp_path / "weak.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"weaklab corrupt: {spec_path}, line 3: [sources] clean_count "
                            f"given twice\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["gen-template", "corrupt", "run"])
def test_a_class_count_above_the_limit_is_one_error_line(tmp_path, capsys, command):
    # unchecked, each would ask numpy for a 10^6 x 10^6 matrix (7.28 TiB)
    clean_path, cfg = tmp_path / "clean.bin", tmp_path / "exp.ini"
    clean_path.write_bytes(struct.pack("<8s3q", DATASET_MAGIC, 1000000, 2, 0))
    (tmp_path / "sources.ini").write_text("[sources]\nclean_count = 1\n")
    cfg.write_text("[dataset]\nclasses = 1000000\n")
    argv, message = {
        "gen-template": (["--kind", "uniform", "--eta", "0.1", "--classes", "1000000"],
                         f"templates take at most {MAX_CLASSES} classes, got 1000000"),
        "corrupt": (["--load-dataset", str(clean_path), "--spec", str(tmp_path / "sources.ini"),
                     "--emit-dataset", str(tmp_path / "weak.bin")],
                    f"{clean_path}: header c = 1000000 classes, expected 1 to {MAX_CLASSES}"),
        "run": (["--config", str(cfg), "--out", str(tmp_path / "out")],
                f"{cfg}, line 2: [dataset] classes must be <= {MAX_CLASSES}, got 1000000"),
    }[command]
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"weaklab {command}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("data, message", [case[1:] for case in BAD_DATASET_FILES],
                         ids=[case[0] for case in BAD_DATASET_FILES])
def test_corrupt_refuses_a_header_the_file_cannot_hold(tmp_path, capsys, data, message):
    # every refusal of the reader, huge_n and huge_d among them, is one line
    clean_path = tmp_path / "clean.bin"
    clean_path.write_bytes(data)
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 1\nweak = uniform:0.3:1\n")
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(tmp_path / "weak.bin")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"weaklab corrupt: {clean_path}{message}\n"
    assert captured.out == "" and not (tmp_path / "weak.bin").exists()


def test_corrupt_names_the_spec_keys_and_the_file_when_the_pool_is_short(tmp_path, capsys):
    # 5 classes x 4 rows: 16 for the training pool, 4 for the test set
    blobs = generate_blobs(5, 2, 4, 0.3, np.random.default_rng(0))
    clean_path = tmp_path / "clean.txt"
    save_dataset(clean_path, MultisourceDataset([SourceBlock(0, blobs.features, blobs.labels)],
                                                5, 2))
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 10\nweak = uniform:0.3:7\n")
    out_path = tmp_path / "weak.txt"
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"weaklab corrupt: {spec_path}: [sources] clean_count, weak with "
                            f"{clean_path}: 2 sources request 17 instances, but the training "
                            f"pool has 16: 20 rows, less 4 test rows\n")
    assert captured.out == "" and not out_path.exists()


@pytest.mark.parametrize("weak, message", [
    ("uniform:0.3:1", "2 sources request 2 instances, but the training pool has 0: 0 rows, "
                      "less 0 test rows"),
    ("mixed:0.9:1", "eta = 0.9 outside [0, 0.8) for mixed"),
], ids=["pool", "eta_range"])
def test_corrupt_names_the_spec_and_the_file_of_sources_for_a_header_only_file(tmp_path, capsys,
                                                                               weak, message):
    clean_path = tmp_path / "clean.bin"
    clean_path.write_bytes(struct.pack("<8s3q", DATASET_MAGIC, 10, 16, 0))
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text(f"[sources]\nclean_count = 1\nweak = {weak}\n")
    out_path = tmp_path / "weak.txt"
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"weaklab corrupt: {spec_path}: [sources] clean_count, weak with "
                            f"{clean_path}: {message}\n")
    assert captured.out == "" and not out_path.exists()


def test_corrupt_accepts_a_file_too_small_for_a_test_split(tmp_path, capsys):
    # 4 rows leave floor(0.8) = 0 test rows, an --emit-test file without rows
    clean_path = tmp_path / "clean.bin"
    clean_path.write_bytes(dataset_bytes(2, 1, [0] * 4, [0, 1, 0, 1], [-1] * 4,
                                         [[0.5], [1.5], [2.5], [3.5]]))
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text("[sources]\nclean_count = 1\nweak = uniform:0.5:3\n")
    out_path, test_path = tmp_path / "weak.bin", tmp_path / "test.bin"
    assert main(["corrupt", "--load-dataset", str(clean_path), "--spec", str(spec_path),
                 "--emit-dataset", str(out_path), "--emit-test", str(test_path)]) == 0
    assert capsys.readouterr().out == (f"wrote {out_path} (source 0: 1, source 1: 3)\n"
                                       f"wrote {test_path} (test split: 0)\n")
    test = load_dataset(test_path)
    assert (test.c, test.d, test.sources) == (2, 1, [])


@pytest.mark.parametrize("weak, message", [
    ("mixed:0.3", r"'mixed:0.3': expected kind:eta:size$"),
    # a corrupt spec has no eta axis to take
    ("mixed:x9", r"'mixed:x9': expected kind:eta:size$"),
    ("mixd:0.3:900", r"'mixd:0.3:900': unknown template kind 'mixd', expected one of mixed"),
], ids=["field_count", "no_eta", "unknown_kind"])
def test_corrupt_spec_names_the_bad_token(tmp_path, weak, message):
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text(f"[sources]\nclean_count = 100\nweak = uniform:0.3:900 {weak}\n")
    with pytest.raises(ValueError, match=message):
        _parse_corrupt_spec(spec_path)


@pytest.mark.parametrize("text, message", [
    ("[sources]\nclean_cout = 5\nweak = uniform:0.3:900\n",
     r"unknown key 'clean_cout' in section \[sources\], expected one of clean_count, weak"),
    ("[source]\nclean_count = 5\n", r"unknown config section \[source\]"),
    ("", r"missing the \[sources\] section"),
    ("[sources]\nweak = uniform:0.3:900\n", r"missing \[sources\] clean_count"),
    ("[sources]\nclean_count = 0\n", r"\[sources\] clean_count value 0 is below 1"),
    ("[sources]\nclean_count = 5\nweak = uniform:0.3:0\n",
     r"\[sources\] weak token 'uniform:0.3:0': value 0 is below 1"),
], ids=["key", "section", "missing_sources", "missing_clean_count", "zero_clean_count",
        "zero_weak_count"])
def test_corrupt_spec_rejects_unknown_names(tmp_path, text, message):
    spec_path = tmp_path / "sources.ini"
    spec_path.write_text(text)
    with pytest.raises(ValueError, match=message):
        _parse_corrupt_spec(spec_path)
