import configparser
import re
import tempfile
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weaklab import harness
from weaklab.datagen import SourceBlock
from weaklab.estimation import estimate_single
from weaklab.cli import CORRUPT_SPEC_SCHEMA
from weaklab.harness import (CONFIG_SCHEMA, CSV_HEADER, Cell, ExperimentConfig, ReportRow,
                             RunReport, WeakSource, emit_csv, load_config, overall_accuracy,
                             read_ini, run_experiment, write_run_dir)
from weaklab.labelspace import TemplateKind, make_template
from weaklab.model import ModelParameters, TrainConfig, TrainingDiverged


def tiny_config(**overrides):
    defaults = dict(
        classes=5, dim=4, n_per_class=75, spread=0.25, clean_count=40,
        weak_sources=[WeakSource(TemplateKind.UNIFORM, 3.0)],
        etas=[0.2], seeds=[0, 1],
        combinations=[("vanilla", "cce"), ("proposed", "cce")],
        train=TrainConfig(epochs=4, batch_size=16, hidden=0, learning_rate=0.1),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_overall_accuracy_counting():
    params = ModelParameters([np.eye(2)], [np.zeros(2)])  # predicts argmax feature
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 0])
    assert overall_accuracy(params, SourceBlock(0, feats, labels)) == 0.75
    assert overall_accuracy(params, SourceBlock(0, feats, np.array([0, 0, 1, 1]))) == 1.0
    with pytest.raises(ValueError):
        overall_accuracy(params, SourceBlock(0, np.empty((0, 2)), np.empty(0, dtype=int)))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(seeds=[])
    with pytest.raises(ValueError):
        tiny_config(combinations=[])
    # a config built in Python is checked as a file's is, at construction
    with pytest.raises(ValueError, match=r"^\[run\] combos token 'propsed:cce': unknown "
                                         r"strategy 'propsed', expected one of vanilla"):
        tiny_config(combinations=[("vanilla", "cce"), ("propsed", "cce")])
    # the sweep sets each model's seed and strategy, so neither may be set here
    with pytest.raises(ValueError, match=r"^\[train\] seed is set per model from \[run\] seeds"):
        tiny_config(train=TrainConfig(epochs=4, seed=1))
    with pytest.raises(ValueError,
                       match=r"^\[train\] strategy is set per model from \[run\] combos"):
        tiny_config(train=TrainConfig(epochs=4, strategy="proposed"))
    # 5 x 75 rows leave a pool of 300: 40 clean + 3 x 40 weak fit, 40 + 7 x 40 do not
    tiny_config(weak_sources=[WeakSource(TemplateKind.UNIFORM, 6.5)])
    with pytest.raises(ValueError, match=r"^\[sources\] clean_count, weak, etas at eta 0.2, "
                                         r"\[dataset\] classes 5 x n_per_class 75: 2 sources "
                                         r"request 320 instances, but the training pool has 300: "
                                         r"375 rows, less 75 test rows$"):
        tiny_config(weak_sources=[WeakSource(TemplateKind.UNIFORM, 7.0)])
    # with no weak source every combination would train the baseline's model
    with pytest.raises(ValueError, match=r"^\[sources\] weak: need at least one weak source"):
        tiny_config(weak_sources=[])
    # a WeakSource built in Python gets the checks of a file's token, without the line:
    # a run sweeps each source's eta and sizes it by clean_count
    for source, message in [
            (WeakSource(TemplateKind.UNIFORM, 0.0), "token 'uniform:x0': multiplier must be "
                                                    "finite and > 0, got 0"),
            (WeakSource(TemplateKind.UNIFORM, 3.0, 0.1), "token 'uniform:0.1:x3': expected "
                                                         "kind:xM"),
            (WeakSource(TemplateKind.UNIFORM, None, 0.1, 1500), "token 'uniform:0.1:1500': "
                                                                "expected kind:xM"),
            (WeakSource(TemplateKind.UNIFORM, None, rows=1500), "token 'uniform:1500': "
                                                                "expected kind:xM")]:
        with pytest.raises(ValueError, match=f"^{re.escape('[sources] weak ' + message)}$"):
            tiny_config(weak_sources=[source])
    # a source has exactly one size
    for multiplier, rows in [(None, None), (9.0, 100)]:
        with pytest.raises(ValueError, match=r"^weak kind uniform: need one of multiplier and "
                                             r"rows$"):
            WeakSource(TemplateKind.UNIFORM, multiplier, 0.1, rows)


@pytest.mark.parametrize("key, value, shown", [
    ("classes", 5.0, "[dataset] classes: 5.0"),
    ("dim", 16.0, "[dataset] dim: 16.0"),
    ("n_per_class", 75.5, "[dataset] n_per_class: 75.5"),
    ("clean_count", 40.0, "[sources] clean_count: 40.0"),
    ("baseline_epoch_cap", 2.5, "[run] baseline_epoch_cap: 2.5"),
    ("seeds", [0, 0.5], "[run] seeds: 0.5"),
    ("seeds", [np.float64(1.0)], "[run] seeds: 1.0"),
], ids=["classes", "dim", "n_per_class", "clean_count", "baseline_epoch_cap", "seed",
        "numpy_float_seed"])
def test_a_count_that_is_not_an_integer_is_refused_at_construction(key, value, shown):
    # a file's value is refused by typed(int); a Python caller's would fail
    # only inside run_experiment, naming no key
    with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not an integer$"):
        tiny_config(**{key: value})
    # a numpy integer is an integer
    tiny_config(classes=np.int64(5), dim=np.int64(4), seeds=[np.int64(0)],
                baseline_epoch_cap=np.int64(2))


def test_run_experiment_report_shape():
    report = run_experiment(tiny_config())
    assert [r.strategy for r in report.rows] == ["baseline", "vanilla", "proposed"]
    row = report.rows[1]
    assert row.eta == 0.2 and row.source_layout == "uniform:x3"
    assert len(row.per_seed) == 2
    assert row.mean_oa == pytest.approx(np.mean([sr.best_oa for sr in row.per_seed]))
    assert row.std_oa == pytest.approx(np.std([sr.best_oa for sr in row.per_seed], ddof=1))
    assert row.dominance_ok is True
    assert report.rows[0].eta is None and report.rows[0].dominance_ok is None
    assert set(report.estimates) == {(0, 0.2), (1, 0.2)}
    assert set(report.estimates[(0, 0.2)]) == {1, "single"}
    assert set(report.baselines) == {0, 1}


def test_run_experiment_identity_weak_source_reduction():
    # with a perfectly clean weak source and the true (identity) matrices,
    # both corrected objectives coincide with the vanilla one, epoch by epoch
    combos = [(s, "cce") for s in ("vanilla", "proposed@true", "forward@true")]
    cfg = tiny_config(etas=[0.0], seeds=[0, 1], combinations=combos)
    report = run_experiment(cfg)
    for seed in cfg.seeds:
        van, prop, fwd = (cell.curve for cell in report.cells
                          if cell.eta == 0.0 and cell.seed == seed)
        assert van and van == prop == fwd


@pytest.mark.parametrize("matrices", ["", "@true"], ids=["estimated", "true"])
def test_run_experiment_goes_on_past_a_diverged_baseline(monkeypatch, matrices):
    trained, fit = [], harness.train

    def train(features, labels, source_ids, c, config, **kwargs):
        if not source_ids.any():  # the baseline, on the clean source alone, diverges
            raise TrainingDiverged("non-finite parameters after epoch 1")
        trained.append(config.strategy)  # the TrainConfig strategy of each other model
        return fit(features, labels, source_ids, c, config, **kwargs)
    monkeypatch.setattr(harness, "train", train)
    combos = [(s, "cce") for s in ("vanilla", "proposed" + matrices, "forward" + matrices)]
    report = run_experiment(tiny_config(seeds=[0], combinations=combos))
    failed = {cell.strategy: cell.failed for cell in report.cells}
    # without a baseline there is no T-hat, so only the true matrices can correct
    corrected_fails = not matrices
    assert failed == {"baseline": True, "vanilla": False,
                      "proposed" + matrices: corrected_fails,
                      "forward" + matrices: corrected_fails}
    # a model given matrices trains as proposed, forward's one shared matrix
    # too; the T-hat models never reach train
    assert trained == (["vanilla"] if corrected_fails else ["vanilla", "proposed", "proposed"])
    assert report.baselines == {} and report.estimates == {} and report.errors == []


def test_every_combo_strategy_names_its_matrices():
    # _strategy_matrices is the one table of a token's matrices: each token
    # has an entry, and each entry is a token
    c, src = 3, np.array([0, 1, 1, 2])
    estimated = {1: np.eye(c), 2: np.eye(c), "single": np.eye(c)}
    true = {1: np.full((c, c), 1 / c), 2: np.full((c, c), 1 / c), "single": np.eye(c)}
    table = harness._strategy_matrices(estimated, true, src, c)
    assert sorted(table) == sorted(harness.COMBO_STRATEGIES)
    assert table["vanilla"] is None
    assert table["proposed"][1] is estimated[1] and table["proposed@true"][1] is true[1]
    assert table["forward@true"] == {s: true["single"] for s in (0, 1, 2)}
    assert sorted(harness._strategy_matrices({}, true, src, c)) == [
        "forward@true", "proposed@true", "vanilla"]


def test_true_tokens_leave_the_estimates_as_they_are(tmp_path):
    # an @true model trains beside the T-hat models and writes no matrix:
    # estimates.csv and the T_hat files hold the estimate, byte for byte
    combos = [("vanilla", "cce"), ("proposed", "cce")]
    for name, extra in (("plain", []), ("true", [("proposed@true", "cce"),
                                                 ("forward@true", "cce")])):
        report = run_experiment(tiny_config(combinations=combos + extra))
        write_run_dir(report, tmp_path / name)
    plain, true = tmp_path / "plain", tmp_path / "true"
    files = sorted(p.relative_to(plain) for p in plain.rglob("*")
                   if p.name == "estimates.csv" or p.name.startswith("T_hat_"))
    assert len(files) == 1 + 2 * 2  # estimates.csv, and 2 seeds x (source 1, single)
    assert files == sorted(p.relative_to(true) for p in true.rglob("*")
                           if p.name == "estimates.csv" or p.name.startswith("T_hat_"))
    for name in files:
        assert (plain / name).read_bytes() == (true / name).read_bytes(), name


STRATEGY_NAMES = "expected one of vanilla, forward, proposed, forward@true, proposed@true"


@pytest.mark.parametrize("strategy, family, message", [
    ("propsed", "cce", f"unknown strategy 'propsed', {STRATEGY_NAMES}"),
    ("proposed", "xce", "unknown loss family 'xce', expected one of cce, mae, gce, sl"),
    # vanilla takes no matrices, and no other suffix exists
    ("vanilla@true", "cce", f"unknown strategy 'vanilla@true', {STRATEGY_NAMES}"),
    ("proposed@tru", "cce", f"unknown strategy 'proposed@tru', {STRATEGY_NAMES}"),
    ("proposed@true@true", "cce", f"unknown strategy 'proposed@true@true', {STRATEGY_NAMES}"),
], ids=["propsed", "xce", "vanilla@true", "proposed@tru", "proposed@true@true"])
def test_a_bad_combos_name_gets_one_message(tmp_path, strategy, family, message):
    # a Python-built config and a file give the same text; the file's names its line
    message = f"[run] combos token '{strategy}:{family}': {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_config(combinations=[(strategy, family)])
    path = tmp_path / "exp.ini"
    path.write_text(f"[run]\nseeds = 0\ncombos = vanilla:cce {strategy}:{family}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 3: {message}')}$"):
        load_config(path)


def test_the_removed_true_matrices_key_is_refused(tmp_path):
    # the true matrices are a combos token now, so the run-wide switch is gone
    path = tmp_path / "exp.ini"
    path.write_text("[run]\nseeds = 0\nestimated_vs_true_matrices = false\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: unknown key "
                                         f"'estimated_vs_true_matrices' in section \\[run\\]"):
        load_config(path)


@pytest.mark.parametrize("diverges", [False, True], ids=["trained", "diverged"])
def test_train_cell_returns_what_fit_returns(monkeypatch, diverges):
    oas = iter([0.5, 0.75, 0.625, 0.75])
    monkeypatch.setattr(harness, "overall_accuracy", lambda params, test: next(oas))

    def fit(size, epoch_callback):
        params = np.zeros(size)
        for epoch in range(1, 5):
            params += 1.0  # one buffer, as train updates in place
            epoch_callback(epoch, params)
        if diverges:
            raise TrainingDiverged("non-finite parameters after epoch 4")
        return params

    monkeypatch.setattr(harness, "train", fit)
    cell, params = harness._train_cell(("vanilla", "cce", 0.2, 3), None, 2)
    if diverges:
        assert cell == Cell("vanilla", "cce", 0.2, 3, []) and params is None
    else:
        assert cell == Cell("vanilla", "cce", 0.2, 3, [(1, 0.5), (2, 0.75), (3, 0.625),
                                                        (4, 0.75)])
        assert params.tolist() == [4.0, 4.0]  # the last epoch's, not the best epoch's


def test_no_test_label_reaches_training(monkeypatch):
    # the test split only scores models: permuting its labels moves the
    # curves, but not one bit of a trained model or of T-hat
    config = tiny_config(seeds=[0], combinations=[("proposed", "cce")],
                         train=TrainConfig(epochs=20, batch_size=16, hidden=0,
                                           learning_rate=0.1))
    split, fit = harness.build_multisource, harness.train

    def run(shuffle):
        def build_multisource(*args):
            ms, test = split(*args)
            if shuffle:
                labels = np.random.default_rng(1).permutation(test.labels)
                test = replace(test, labels=labels)
            return ms, test

        trained = []

        def train(*args, **kwargs):
            params = fit(*args, **kwargs)
            trained.append(params.flat.tobytes())
            return params
        monkeypatch.setattr(harness, "build_multisource", build_multisource)
        monkeypatch.setattr(harness, "train", train)
        report = run_experiment(config)
        estimates = {key: {s: m.entries.tobytes() for s, m in mats.items()}
                     for key, mats in report.estimates.items()}
        baselines = {seed: p.flat.tobytes() for seed, p in report.baselines.items()}
        return trained, estimates, baselines, [cell.curve for cell in report.cells]

    plain, shuffled = run(False), run(True)
    assert len(plain[0]) == 2 and set(plain[2]) == {0}  # the baseline and the proposed model
    assert plain[:3] == shuffled[:3]
    assert plain[3] != shuffled[3]  # the permuted labels did reach the scores


def test_a_cell_depends_only_on_its_own_seed_eta_and_combination():
    # a Cell's curve and its (seed, eta)'s T-hat come out the same in a
    # sweep over a subset of the seeds, etas and combinations, given in
    # another order: no model reads what the rest of the sweep trained
    combos = [("vanilla", "cce"), ("proposed", "gce"), ("forward", "cce"),
              ("proposed@true", "cce")]
    full = run_experiment(tiny_config(etas=[0.2, 0.3, 0.4], seeds=[0, 1], combinations=combos))
    part = run_experiment(tiny_config(etas=[0.4, 0.2], seeds=[1],
                                      combinations=combos[:0:-1]))

    def curves(report):
        return {(cell.strategy, cell.loss_family, cell.eta, cell.seed): cell.curve
                for cell in report.cells}

    def estimates(report):
        return {key: {s: m.entries.tobytes() for s, m in mats.items()}
                for key, mats in report.estimates.items()}

    whole, subset = curves(full), curves(part)
    assert len(subset) == 1 + 2 * 3  # the baseline, and 3 combinations at 2 etas
    assert all(curve for curve in subset.values())
    assert subset == {key: whole[key] for key in subset}
    assert estimates(part) == {key: mats for key, mats in estimates(full).items()
                               if key in part.estimates}
    assert part.baselines[1].flat.tobytes() == full.baselines[1].flat.tobytes()


def test_one_draw_per_seed_and_eta_trains_every_model(monkeypatch):
    # each (seed, eta) draws its sources once, and every model, the baseline
    # too, is trained by harness.train on a draw's rows
    config = tiny_config(etas=[0.2, 0.4], seeds=[0, 1])
    split, fit = harness.build_multisource, harness.train
    draws, trained = [], []

    def build_multisource(blobs, specs, seed):
        ms, test = split(blobs, specs, seed)
        draws.append((seed, [(s.id, s.count, s.matrix.entries.tobytes()) for s in specs], test))
        return ms, test

    def train(features, labels, source_ids, c, config, **kwargs):
        params = fit(features, labels, source_ids, c, config, **kwargs)
        trained.append((np.unique(source_ids).tolist(), config.seed, params))
        return params
    monkeypatch.setattr(harness, "build_multisource", build_multisource)
    monkeypatch.setattr(harness, "train", train)
    report = run_experiment(config)
    assert [draw[:2] for draw in draws] == [
        (seed, [(s.id, s.count, s.matrix.entries.tobytes()) for s in config.sources(eta)])
        for seed in config.seeds for eta in config.etas]
    assert len(trained) == len(report.cells) == 2 * (1 + 2 * 2)
    baselines = [(seed, params) for ids, seed, params in trained if ids == [0]]
    assert [seed for seed, _ in baselines] == config.seeds
    for seed, params in baselines:
        # the baseline's Cell scores the parameters of that call on its seed's test split
        cell = next(cell for cell in report.cells if cell.strategy == "baseline" and
                    cell.seed == seed)
        test = next(test for s, _, test in draws if s == seed)
        assert report.baselines[seed] is params
        assert cell.curve[-1] == (config.train.epochs, overall_accuracy(params, test))


def test_the_pooled_matrices_cover_the_training_pool(monkeypatch):
    # without the clean source, forward's one matrix, true or estimated, is
    # the weak source's alone: the noise of the labels the models train on
    config = tiny_config(seeds=[0], combinations=[("forward@true", "cce")],
                         use_clean_in_training=False)
    split, fit = harness.build_multisource, harness.train
    draws, taken = [], []

    def build_multisource(*args):
        draws.append(split(*args))
        return draws[-1]

    def train(*args, matrices=None, **kwargs):
        taken.append(matrices)
        return fit(*args, matrices=matrices, **kwargs)
    monkeypatch.setattr(harness, "build_multisource", build_multisource)
    monkeypatch.setattr(harness, "train", train)
    report = run_experiment(config)
    template = make_template(TemplateKind.UNIFORM, 5, 0.2).entries
    forward, = (matrices for matrices in taken if matrices is not None)
    assert list(forward) == [1] and forward[1].entries.tobytes() == template.tobytes()
    ms, _ = draws[-1]
    weak = estimate_single(report.baselines[0], replace(ms, sources=[ms.block(1)]),
                           config.smoothing)
    assert report.estimates[(0, 0.2)]["single"].entries.tobytes() == weak.entries.tobytes()


def test_negative_zero_eta_writes_the_run_directory_of_zero(tmp_path):
    for name, eta in (("minus", -0.0), ("plus", 0.0)):
        config = tiny_config(etas=[eta], seeds=[0], train=TrainConfig(epochs=2, hidden=0))
        assert str(config.etas) == "[0.0]"
        write_run_dir(run_experiment(config), tmp_path / name)
    minus, plus = tmp_path / "minus", tmp_path / "plus"
    files = sorted(p.relative_to(plus) for p in plus.rglob("*") if p.is_file())
    assert Path("runs/seed0/eta0/T_hat_single.txt") in files
    assert files == sorted(p.relative_to(minus) for p in minus.rglob("*") if p.is_file())
    for name in files:
        assert (minus / name).read_bytes() == (plus / name).read_bytes(), name


def test_cell_best_epoch_is_the_first_of_tied_maxima():
    cell = Cell("vanilla", "cce", 0.2, 0, [(1, 0.5), (2, 0.75), (3, 0.625), (4, 0.75)])
    assert not cell.failed
    assert (cell.best_oa, cell.best_epoch) == (0.75, 2)
    diverged = Cell("vanilla", "cce", 0.2, 0, [])
    assert diverged.failed
    assert np.isnan(diverged.best_oa) and diverged.best_epoch is None


def test_best_oa_is_running_maximum(tmp_path):
    # report.csv's best_oa and best_epoch are the first maximum of curves.csv
    write_run_dir(run_experiment(tiny_config()), tmp_path)
    _, rows = _all_rows(tmp_path / "report.csv")
    curves = [line.split(",") for line in (tmp_path / "curves.csv").read_text().splitlines()[1:]]
    for r in (r for r in rows if r["seed"] != "all"):
        curve = [(int(ep), float(oa)) for s, f, e, seed, ep, oa in curves
                 if (s, f, e, seed) == (r["strategy"], r["loss"], r["eta"], r["seed"])]
        best = max(oa for _, oa in curve)
        assert float(r["best_oa"]) == best
        assert int(r["best_epoch"]) == next(ep for ep, oa in curve if oa == best)


def test_dominance_flag_tracks_template():
    report = run_experiment(tiny_config(etas=[0.95], seeds=[0]))
    assert report.row("vanilla", "cce", 0.95).dominance_ok is False


def test_curves_structure():
    cfg = tiny_config(seeds=[0])
    report = run_experiment(cfg)
    [baseline] = [cell for cell in report.cells if cell.strategy == "baseline"]
    assert len(baseline.curve) == cfg.train.epochs
    [vanilla] = [cell for cell in report.cells if cell.strategy == "vanilla"]
    assert [ep for ep, _ in vanilla.curve] == list(range(1, cfg.train.epochs + 1))
    # every trained model once, in training order, and each row holds its own
    assert [(cell.strategy, cell.seed) for cell in report.cells] == [
        ("baseline", 0), ("vanilla", 0), ("proposed", 0)]
    assert [cell for row in report.rows for cell in row.per_seed] == report.cells


def test_emit_csv_empty_report(tmp_path):
    path = tmp_path / "report.csv"
    emit_csv(RunReport([], [], [], {}, {}), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_aggregate_std(tmp_path):
    curves = [[(1, 0.5), (2, 0.8), (3, 0.90), (4, 0.90)], [(4, 0.92)], [(1, 0.9), (2, 0.94)]]
    row = ReportRow("vanilla", "cce", 0.1, "uniform:x3",
                    [Cell("vanilla", "cce", 0.1, seed, curve) for seed, curve in enumerate(curves)],
                    True)
    assert row.mean_oa == pytest.approx(0.92)
    assert row.std_oa == pytest.approx(float(np.std([0.90, 0.92, 0.94], ddof=1)))
    path = tmp_path / "report.csv"
    emit_csv(RunReport([row], [], [], {}, {}), path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "vanilla,cce,0.1,uniform:x3,0,0.9,3,,,,true"
    assert lines[4] == "vanilla,cce,0.1,uniform:x3,all,,,0.92,0.02,0,true"


def test_emit_csv_deterministic(tmp_path):
    cfg = tiny_config(seeds=[0])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), a)
    emit_csv(run_experiment(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_run_dir_layout(tmp_path):
    cfg = tiny_config(seeds=[0])
    report = run_experiment(cfg)
    out = tmp_path / "run"
    write_run_dir(report, out)
    # each file once: checkpoints and matrices only under runs/
    assert {p.name for p in out.iterdir()} == {"report.csv", "curves.csv", "estimates.csv",
                                               "runs"}
    assert {p.name for p in (out / "runs" / "seed0").iterdir()} == {"baseline.params", "eta0.2"}
    cell = out / "runs" / "seed0" / "eta0.2"
    assert {p.name for p in cell.iterdir()} == {"T_hat_source1.txt", "T_hat_single.txt"}
    t = np.loadtxt(cell / "T_hat_source1.txt", skiprows=1, ndmin=2)
    assert np.array_equal(t, report.estimates[(0, 0.2)][1].entries)
    # a second report never lands beside the first
    files = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    with pytest.raises(ValueError, match=f"output directory {re.escape(str(out))} exists and "
                                         f"is not empty"):
        write_run_dir(report, out)
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files


def test_estimates_csv_equals_a_recomputation_from_the_saved_matrices(tmp_path):
    # two weak sources, two etas and seeds given out of order: the rows come
    # by seed, then eta, then source, and each pair of numbers is the error
    # of the saved T_hat against make_template (for `single`, against the
    # count-weighted blend of the sources' true matrices, clean included)
    cfg = tiny_config(seeds=[1, 0], etas=[0.1, 0.3],
                      weak_sources=[WeakSource(TemplateKind.UNIFORM, 3.0),
                                    WeakSource(TemplateKind.UNIFORM, 1.5)])
    write_run_dir(run_experiment(cfg), tmp_path)
    counts = [cfg.clean_count] + [w.count(cfg.clean_count) for w in cfg.weak_sources]
    expected = ["seed,eta,source,mean_row_l1,max_abs_error"]
    for seed, eta in product(sorted(cfg.seeds), cfg.etas):
        true = [np.eye(cfg.classes)] + [make_template(w.kind, cfg.classes, eta).entries
                                        for w in cfg.weak_sources]
        true.append(sum((n / sum(counts)) * t for n, t in zip(counts, true)))
        cell = tmp_path / "runs" / f"seed{seed}" / f"eta{eta:g}"
        files = ["T_hat_source1.txt", "T_hat_source2.txt", "T_hat_single.txt"]
        for source, name, truth in zip(["1", "2", "single"], files, true[1:]):
            diff = np.abs(np.loadtxt(cell / name, skiprows=1, ndmin=2) - truth)
            expected.append(f"{seed},{eta:g},{source},{diff.sum(axis=1).mean():.6g},"
                            f"{diff.max():.6g}")
    assert (tmp_path / "estimates.csv").read_text().splitlines() == expected


def _all_rows(path):
    """The rows of an emitted report.csv as dicts by column: the `all` rows
    keyed by (strategy, eta), and every row."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return {(r["strategy"], r["eta"]): r for r in rows if r["seed"] == "all"}, rows


def test_divergent_combination_recorded_as_failure(tmp_path):
    cfg = tiny_config(seeds=[0],
                      train=TrainConfig(epochs=3, batch_size=16, hidden=0,
                                        learning_rate=1e12, weight_decay=1e12))
    report = run_experiment(cfg)
    row = report.row("vanilla", "cce", 0.2)
    assert row.per_seed[0].failed
    assert row.mean_oa is None
    assert row.n_failed == 1
    emit_csv(report, tmp_path / "diverged.csv")
    aggregates, rows = _all_rows(tmp_path / "diverged.csv")
    assert aggregates[("vanilla", "0.2")]["n_failed"] == "1"
    assert aggregates[("vanilla", "0.2")]["mean_oa"] == ""
    assert all(r["n_failed"] == "" for r in rows if r["seed"] != "all")

    emit_csv(run_experiment(tiny_config(seeds=[0])), tmp_path / "healthy.csv")
    aggregates, rows = _all_rows(tmp_path / "healthy.csv")
    assert aggregates[("vanilla", "0.2")]["n_failed"] == "0"
    assert all(r["n_failed"] == "0" for r in aggregates.values())
    assert all(r["n_failed"] == "" for r in rows if r["seed"] != "all")


def test_use_clean_in_training_flag_changes_data():
    with_clean = run_experiment(tiny_config(seeds=[0]))
    without = run_experiment(tiny_config(seeds=[0], use_clean_in_training=False))
    a = with_clean.row("vanilla", "cce", 0.2)
    b = without.row("vanilla", "cce", 0.2)
    assert a.per_seed[0].best_oa != b.per_seed[0].best_oa or \
        a.per_seed[0].best_epoch != b.per_seed[0].best_epoch


CONFIG_TEXT = """
[dataset]
classes = 5
dim = 4
n_per_class = 75
spread = 0.25

[sources]
clean_count = 40
weak = uniform:x3
etas = 0.1 0.3

[loss]
family = gce
q = 0.5
alpha = 2.0
beta = 0.5
A = -2.0

[train]
epochs = 4
batch_size = 16
learning_rate = 0.1
momentum = 0.8
weight_decay = 0.0
hidden = 0

[run]
seeds = 0 1
combos = vanilla:cce proposed:gce
use_clean_in_training = true
baseline_epoch_cap = 2
smoothing = 0.25
"""


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.classes == 5 and cfg.dim == 4 and cfg.n_per_class == 75
    assert cfg.spread == 0.25 and cfg.clean_count == 40
    assert cfg.weak_sources[0].kind is TemplateKind.UNIFORM
    assert cfg.weak_sources[0].multiplier == 3.0
    assert cfg.etas == [0.1, 0.3]
    assert cfg.seeds == [0, 1]
    assert cfg.train.epochs == 4 and cfg.train.momentum == 0.8 and cfg.train.hidden == 0
    assert cfg.train.loss.family == "gce" and cfg.train.loss.q == 0.5
    assert cfg.train.loss.alpha == 2.0 and cfg.train.loss.A == -2.0
    assert cfg.combinations == [("vanilla", "cce"), ("proposed", "gce")]
    assert cfg.baseline_epoch_cap == 2 and cfg.smoothing == 0.25
    assert cfg.use_clean_in_training is True


def test_loss_hyperparameters_reach_every_combination(tmp_path):
    # [loss] q reaches the gce model and leaves the cce models as they were;
    # the baseline trains with [loss] family cce, so the T-hat is the same
    curves = []
    for q in ("0.5", "0.9"):
        path = tmp_path / f"q{q}.ini"
        path.write_text(CONFIG_TEXT.replace("family = gce", "family = cce")
                        .replace("q = 0.5", f"q = {q}").replace("seeds = 0 1", "seeds = 0")
                        .replace("etas = 0.1 0.3", "etas = 0.3"))
        report = run_experiment(load_config(path))
        curves.append({(cell.strategy, cell.loss_family): cell.curve for cell in report.cells})
    assert curves[0][("baseline", "cce")] == curves[1][("baseline", "cce")]
    assert curves[0][("vanilla", "cce")] == curves[1][("vanilla", "cce")]
    assert curves[0][("proposed", "gce")] != curves[1][("proposed", "gce")]


def test_load_config_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[dataset]\nclasses = 10\n")
    cfg = load_config(path)
    assert cfg.spread == 0.30
    assert cfg.train.epochs == 60
    assert cfg.combinations == [("vanilla", "cce"), ("proposed", "cce")]
    assert cfg.combinations == ExperimentConfig().combinations


def test_a_run_config_sweeps_every_eta(tmp_path):
    # a source of its own eta, or of a row count, is a corrupt spec's token, not a run's
    path = tmp_path / "exp.ini"
    for weak in ("uniform:0.1:x3", "uniform:0.1:1500", "uniform:0.1:0", "uniform:-0:x3"):
        path.write_text(f"[sources]\nweak = {weak} mixed:x3\netas = 0.2 0.4\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 2: \\[sources\\] weak "
                                             f"token '{weak}': expected kind:xM; each eta comes "
                                             f"from \\[sources\\] etas$"):
            load_config(path)


# a float of at most 6 significant digits, which `:g` prints exactly
SIX_DIGITS = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 999999), st.integers(-9, 3))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(TemplateKind), eta=st.none() | st.just(0.0) | SIX_DIGITS,
       size=st.one_of(SIX_DIGITS.map(lambda m: f"x{m!r}"),
                      st.builds(lambda m, k: str(m * 10 ** k), st.integers(1, 999999),
                                st.integers(0, 6))))
def test_a_weak_token_parses_back_from_its_spelling(kind, eta, size):
    # a run config's token is kind:xM, a corrupt spec's kind:eta:size
    assume(eta is not None or size.startswith("x"))
    text = kind.value + ("" if eta is None else f":{eta!r}") + f":{size}"
    parse = (CONFIG_SCHEMA if eta is None else CORRUPT_SPEC_SCHEMA)["sources"]["weak"]
    source, = parse(text)
    assert source == (WeakSource(kind, float(size[1:]), eta) if size.startswith("x")
                      else WeakSource(kind, None, eta, int(size)))
    assert parse(source.token) == [source]


def test_load_config_rejects_source_weight(tmp_path):
    # a third token field (a per-source weight) would never reach training
    path = tmp_path / "exp.ini"
    path.write_text("[sources]\nweak = uniform:x3 mixed:x9:2\n")
    with pytest.raises(ValueError, match=r"line 2: \[sources\] weak token 'mixed:x9:2': expected "
                                         r"kind:xM; each eta comes from \[sources\] etas$"):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("[train]\nlearning_rat = 5.0\n", r"'learning_rat' in section \[train\]"),
    ("[sourcez]\nweak = mixed:x9\n", r"section \[sourcez\]"),
    ("[DEFAULT]\nepochs = 3\n", r"section \[DEFAULT\]"),
    ("[sources]\nweak = uniform:x3 mixd:x9\n", r"'mixd:x9'.*expected one of mixed, uniform"),
    ("[run]\ncombos = vanilla:cce propsed:cce\n",
     r"\[run\] combos token 'propsed:cce': unknown strategy 'propsed', expected one of vanilla"),
    ("[run]\ncombos = proposed\n", r"\[run\] combos token 'proposed': expected strategy:family"),
    ("[run]\ncombos = proposed:xce\n",
     r"\[run\] combos token 'proposed:xce': unknown loss family 'xce', expected one of cce"),
    ("[train]\nseed = 0\n", r"'seed' in section \[train\]"),
    ("[train]\nstrategy = proposed\n", r"'strategy' in section \[train\]"),
    ("[dataset]\nclasses = ten\n", r"\[dataset\] classes value 'ten' is not of type int"),
    ("[run]\nuse_clean_in_training = maybe\n",
     r"\[run\] use_clean_in_training value 'maybe' is not of type bool"),
    ("[sources]\netas = 0.1 x\n", r"\[sources\] etas value 'x' is not of type float"),
    ("[sources]\nweak = mixed:xnine\n",
     r"\[sources\] weak token 'mixed:xnine': value 'nine' is not of type float"),
    ("[loss]\nfamily = xce\n",
     r"exp\.ini, line 2: \[loss\] family unknown loss family 'xce', expected one of cce, mae, "
     r"gce, sl$"),
    ("[train]\nhidden = -1\n", r"\[train\] hidden must be >= 0, got -1"),
    # 500 + 3 x 500 + 5 x 500 rows fit the pool of 5000, so only the eta is at fault
    ("[sources]\nweak = uniform:x3 mixed:x5\netas = 0.1 0.85\n",
     r"exp\.ini: \[sources\] clean_count, weak, etas at eta 0.85, \[dataset\] classes 10 x "
     r"n_per_class 625: eta = 0.85 outside \[0, 0.8\) for mixed$"),
    ("[dataset]\nclasses = 5\n",
     r"exp\.ini: \[sources\] clean_count, weak, etas at eta 0.1, \[dataset\] classes 5 x "
     r"n_per_class 625: mixed template is defined only for c = 10$"),
    ("[sources]\nweak = uniform:x0\n",
     r"exp\.ini, line 2: \[sources\] weak token 'uniform:x0': multiplier must be finite and > 0, "
     r"got 0$"),
    ("[sources]\nweak = mixed:x9 uniform:x-1\n",
     r"exp\.ini, line 2: \[sources\] weak token 'uniform:x-1': multiplier must be finite and "
     r"> 0, got -1$"),
    ("[sources]\nweak = uniform:x0.0001\n",
     r"exp\.ini, line 2: \[sources\] weak token 'uniform:x0.0001': round\(0.0001 x clean_count "
     r"500\) = 0 rows, need at least 1$"),
    ("[sources]\nweak = mixed:xinf\n",
     r"exp\.ini, line 2: \[sources\] weak token 'mixed:xinf': multiplier must be finite and > 0, "
     r"got inf$"),
    # a size error names the token as parsed: 1e400 is inf
    ("[sources]\nweak = mixed:x1e400\n",
     r"exp\.ini, line 2: \[sources\] weak token 'mixed:xinf': multiplier must be finite and > 0, "
     r"got inf$"),
    ("[sources]\nweak = uniform:x3 mixed:xnan\n",
     r"exp\.ini, line 2: \[sources\] weak token 'mixed:xnan': multiplier must be finite and > 0, "
     r"got nan$"),
    ("[loss]\nalpha = nan\n", r"exp\.ini, line 2: \[loss\] alpha must be finite and > 0, got nan$"),
    ("[loss]\nalpha = 0\n", r"exp\.ini, line 2: \[loss\] alpha must be finite and > 0, got 0.0$"),
    ("[loss]\nbeta = inf\n", r"exp\.ini, line 2: \[loss\] beta must be finite and > 0, got inf$"),
    ("[loss]\nA = nan\n", r"exp\.ini, line 2: \[loss\] A must be finite and < 0, got nan$"),
    ("[loss]\nA = -inf\n", r"exp\.ini, line 2: \[loss\] A must be finite and < 0, got -inf$"),
    ("[loss]\nq = nan\n", r"exp\.ini, line 2: \[loss\] q must lie in \(0, 1\], got nan$"),
    ("[train]\nlearning_rate = -1\n", r"\[train\] learning_rate must be finite and > 0, got -1"),
    ("[train]\nlearning_rate = nan\n", r"\[train\] learning_rate must be finite and > 0, got nan"),
    ("[train]\nmomentum = 1\n", r"\[train\] momentum must lie in \[0, 1\), got 1"),
    ("[train]\nweight_decay = nan\n", r"\[train\] weight_decay must be finite and >= 0, got nan"),
    ("[sources]\netas = nan\n",
     r"exp\.ini: \[sources\] clean_count, weak, etas at eta nan, \[dataset\] classes 10 x "
     r"n_per_class 625: eta = nan outside \[0, 0.8\) for mixed$"),
    ("[sources]\netas =\n", r"exp\.ini, line 2: \[sources\] etas: need at least one eta"),
    ("[sources]\nweak =\n", r"exp\.ini, line 2: \[sources\] weak: need at least one weak source"),
    ("[run]\nsmoothing = nan\n",
     r"exp\.ini, line 2: \[run\] smoothing must be finite and >= 0, got nan"),
    ("[run]\nsmoothing = -0.4\n",
     r"exp\.ini, line 2: \[run\] smoothing must be finite and >= 0, got -0.4"),
    ("[run]\nsmoothing = inf\n",
     r"exp\.ini, line 2: \[run\] smoothing must be finite and >= 0, got inf"),
    ("[dataset]\nscale = 1.0\n", r"'scale' in section \[dataset\]"),
    ("[dataset]\nspread = nan\n",
     r"exp\.ini, line 2: \[dataset\] spread must be finite and > 0, got nan"),
    ("[dataset]\ndim = 1\n", r"exp\.ini, line 2: \[dataset\] dim must be >= 2, got 1"),
    ("[run]\nseeds = 0 1 0\n", r"exp\.ini, line 2: \[run\] seeds: 0 given twice"),
    ("[sources]\netas = 0.2 0.2\n", r"exp\.ini, line 2: \[sources\] etas: 0.2 given twice"),
    ("[sources]\netas = 0.2 0.3 0.2000001\n",
     r"exp\.ini, line 2: \[sources\] etas: 0.2 given twice"),
    ("[sources]\netas = 0 -0\n", r"exp\.ini, line 2: \[sources\] etas: 0 given twice"),
    ("[run]\ncombos = vanilla:cce proposed:cce vanilla:cce\n",
     r"exp\.ini, line 2: \[run\] combos: vanilla:cce given twice"),
    ("[sources]\nclean_count = 0\n",
     r"exp\.ini, line 2: \[sources\] clean_count must be >= 1, got 0"),
    ("[sources]\nclean_count = -5\n",
     r"exp\.ini, line 2: \[sources\] clean_count must be >= 1, got -5"),
    # clean_count is at fault, not the size it would scale
    ("[sources]\nclean_count = 0\nweak = mixed:x9\n",
     r"exp\.ini, line 2: \[sources\] clean_count must be >= 1, got 0"),
    ("[run]\nseeds = 0 -1\n", r"exp\.ini, line 2: \[run\] seeds must be >= 0, got -1"),
    ("[run]\nbaseline_epoch_cap = -3\n",
     r"exp\.ini, line 2: \[run\] baseline_epoch_cap must be >= 0"),
    ("[dataset]\nclasses = 2\nn_per_class = 2\ndim = 2\n[sources]\nclean_count = 1\n"
     "weak = uniform:x1\n",
     r"exp\.ini, line 2: \[dataset\] classes 2 x n_per_class 2 = 4 rows leave 0 test rows$"),
], ids=["key", "section", "default_section", "template_kind", "combos_strategy",
        "combos_no_family", "combos_family", "dead_seed", "dead_strategy", "int_value",
        "bool_value", "float_list_value", "weak_multiplier", "loss_family", "negative_hidden",
        "eta_range",
        "ten_class_kind", "zero_multiplier", "negative_multiplier", "multiplier_rounds_to_0",
        "infinite_multiplier", "overflowing_multiplier", "nan_multiplier", "nan_alpha",
        "zero_alpha", "infinite_beta", "nan_A", "minus_infinite_A", "nan_q",
        "negative_learning_rate", "nan_learning_rate", "momentum_of_1", "nan_weight_decay",
        "nan_eta", "empty_etas", "empty_weak", "nan_smoothing", "negative_smoothing", "infinite_smoothing",
        "removed_scale", "nan_spread", "dim_of_1", "repeated_seed", "repeated_eta",
        "etas_printed_alike", "negative_zero_eta", "repeated_combo", "zero_clean_count",
        "negative_clean_count", "zero_clean_count_with_weak", "negative_seed",
        "negative_baseline_epoch_cap", "empty_test_split"])
def test_load_config_rejects_unknown_names(tmp_path, text, message):
    # every refusal starts with the file, so that no key gets past the locator
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}")


# each value parses to its own text, so the reader and configparser are
# compared on the raw values
TOY_SCHEMA = {"alpha": {"n": str, "Mixed_Case": str, "x": str},
              "beta": {"words": str, "y": str}, "gamma": {"z": str}}
BLANKS = st.text(" \t", max_size=2)
# what follows a comment mark: any text that does not end a line
COMMENT = st.builds(lambda blank, mark, text: blank + mark + text, BLANKS, st.sampled_from("#;"),
                    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                            max_size=8))
# values hold blanks and the marks of comments, keys and headers
VALUE = st.text(st.sampled_from("ab09.:=%#;[] \t"), max_size=10)


@st.composite
def ini_texts(draw):
    """A file in the documented grammar over TOY_SCHEMA: headers and
    key = value lines at the start of their lines, with blanks around `=`,
    inline comments, and blank and comment lines between them."""
    def filler():
        return draw(st.lists(st.one_of(BLANKS, COMMENT), max_size=2))

    def inline():
        return draw(st.one_of(st.just(""), COMMENT.map(lambda text: " " + text)))

    lines = filler()
    for section in draw(st.lists(st.sampled_from(list(TOY_SCHEMA)), unique=True)):
        lines += [f"[{section}]{draw(BLANKS)}{inline()}", *filler()]
        for key in draw(st.lists(st.sampled_from(list(TOY_SCHEMA[section])), unique=True)):
            lines += [f"{key}{draw(BLANKS)}={draw(BLANKS)}{draw(VALUE)}{draw(BLANKS)}{inline()}",
                      *filler()]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(text=ini_texts())
def test_read_ini_reads_the_documented_grammar_as_configparser_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.ini"
        path.write_bytes(text.encode("utf-8"))
        # the configparser settings the reader replaces, but with ; folded
        # into #: given two inline prefixes, configparser advances each by
        # one occurrence a round and stops at the first round with a hit,
        # so it can miss the first comment (see the test below); with one
        # prefix it scans in order
        oracle = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        oracle.optionxform = str
        with open(path, encoding="utf-8") as fh:
            oracle.read_file(line.replace(";", "#") for line in fh)
        assert ({name: {key: value.replace(";", "#") for key, value in keys.items()}
                 for name, keys in read_ini(path, TOY_SCHEMA, {}).items()}
                == {name: dict(oracle[name]) for name in oracle.sections()})


@pytest.mark.parametrize("line, value", [
    ("z=# # ;", "#"),
    ("z = a;; ;c #d", "a;;"),
    ("z = a## #c ;d", "a##"),
])
def test_read_ini_ends_a_value_at_its_first_comment(tmp_path, line, value):
    # configparser with inline_comment_prefixes=(";", "#") reads these as
    # '# #', 'a;; ;c' and 'a## #c'
    path = tmp_path / "toy.ini"
    path.write_text(f"[gamma]\n{line}\n")
    lines = {}
    assert read_ini(path, TOY_SCHEMA, lines) == {"gamma": {"z": value}}
    assert lines == {("gamma", "z"): f"{path}, line 2"}


def test_bool_values_take_the_configparser_spellings():
    assert harness.BOOLEANS == configparser.ConfigParser.BOOLEAN_STATES
    for text in ("On", "NO", "tRuE", "0", "Yes", "OFF"):
        assert harness.typed(bool)(text) is harness.BOOLEANS[text.lower()]


@pytest.mark.parametrize("text, line, message", [
    ("[train]\nepochs = 3\n\n[sourcez]\n", 4,
     "unknown config section [sourcez], expected one of [dataset], [sources], [loss], [train], "
     "[run]"),
    ("[DEFAULT]\nepochs = 3\n", 1,
     "unknown config section [DEFAULT], expected one of [dataset], [sources], [loss], [train], "
     "[run]"),
    ("# rates\n[train]\nlearning_rat = 5.0\n", 3,
     "unknown key 'learning_rat' in section [train], expected one of epochs, batch_size, "
     "learning_rate, momentum, weight_decay, hidden"),
    ("[dataset]\r\nclasses = ten ; words\r\n", 2,
     "[dataset] classes value 'ten' is not of type int"),
    ("[run]\n[train]\n[run]\n", 3, "section [run] given twice"),
], ids=["section", "default_section", "key", "value", "repeated_section"])
def test_read_ini_names_the_line_of_every_error(tmp_path, text, line, message):
    path = tmp_path / "exp.ini"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as err:
        read_ini(path, CONFIG_SCHEMA, {})
    assert str(err.value) == f"{path}, line {line}: {message}"


def test_read_ini_reads_indented_lines(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("  [train]\n\tepochs = 7   # seven\n  [run] ; seeds\n  seeds = 3\n")
    cfg = load_config(path)
    assert cfg.train.epochs == 7 and cfg.seeds == [3]


def test_readme_config_table_lists_the_allowed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        m = re.match(r"\| `\[(\w+)\]` \| (.*) \|$", line)
        if m:
            table[m.group(1)] = tuple(re.findall(r"`(\w+)`", m.group(2)))
    assert table == {section: tuple(keys) for section, keys in CONFIG_SCHEMA.items()}
