import numpy as np
import pytest

from weaklab import correction
from weaklab.cli import _parse_corrupt_spec, main
from weaklab.datagen import build_multisource, generate_blobs, load_dataset, save_dataset
from weaklab.labelspace import SourceSpec, TemplateKind, identity_matrix, make_template, parse_matrix

RUN_CONFIG = """
[dataset]
classes = 5
dim = 4
n_per_class = 75
spread = 0.25

[sources]
clean_count = 40
weak = uniform:3
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
    t = parse_matrix(out)
    expected = make_template(TemplateKind.UNIFORM, 10, 0.2)
    assert np.array_equal(t.entries, expected.entries)


def test_gen_template_to_file(tmp_path):
    path = tmp_path / "t.txt"
    assert main(["gen-template", "--kind", "mixed", "--eta", "0.4",
                 "--classes", "10", "--out", str(path)]) == 0
    t = parse_matrix(path.read_text())
    assert t.entries[0, 0] == pytest.approx(0.5)


def test_gen_template_rejects_bad_eta(capsys):
    assert main(["gen-template", "--kind", "mixed", "--eta", "0.9"]) == 2
    assert capsys.readouterr().err == "weaklab gen-template: eta = 0.9 outside [0, 0.8) for mixed\n"
    assert main(["gen-template", "--kind", "uniform", "--eta", "nan", "--classes", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "weaklab gen-template: eta = nan outside [0, 1) for uniform\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("[dataset]\nspread = nan\n", "[dataset] spread must be finite and > 0, got nan"),
    ("[train]\nepochs = 0\n", "[train] epochs"),
    (None, "No such file or directory"),
], ids=["dataset", "train", "missing_file"])
def test_run_reports_a_bad_config_in_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "exp.ini"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("weaklab run: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


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


@pytest.mark.parametrize("weak, message", [
    ("mixed:0.3", r"'mixed:0.3': expected kind:eta:count"),
    ("mixd:0.3:900", r"'mixd:0.3:900': unknown template kind 'mixd', expected one of mixed"),
], ids=["field_count", "unknown_kind"])
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
