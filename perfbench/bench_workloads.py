"""The weaklab benchmark workloads.

Each workload makes its inputs from the workload seed in `setup`, runs one
operation per `run` call through weaklab's public entry points only, and
checks the outputs in `record` (untimed). Operations repeat within a run,
so every workload needs at least two of them for its repeat checks.

- sweep: `weaklab run` on configs/single_source_sweep.ini, one seed per
  operation (1 baseline + 5 etas x 3 strategies, cce, 60 epochs, 5000
  training rows). The north-star workload.
- train_one: one proposed-strategy gce `train` call with per-epoch test
  accuracy, on 500 clean rows plus three weak sources (uniform, landcover,
  interclass; 1500 rows each, eta 0.4). A single model, so only per-step
  work shows.
- prep: `weaklab corrupt` on a 200k-row clean file, then reload, corruption
  report and per-source plus single estimation with a baseline checkpoint
  made in set-up. No training.
- gradcheck: `weaklab validate-gradients`, the per-sample correction path.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np

from weaklab import cli, datagen, estimation, harness, model
from weaklab.labelspace import SourceSpec, TemplateKind, identity_matrix, make_template
from weaklab.losses import LossSpec

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "single_source_sweep.ini"

CLASSES = 10
DIM = 16
SPREAD = 0.30
WEAK_KINDS = (TemplateKind.UNIFORM, TemplateKind.LAND_COVER_CHANGE,
              TemplateKind.INTERCLASS_SIMILARITY)
WEAK_ETA = 0.4


def _weak_specs(clean_count: int, weak_count: int) -> list:
    return [SourceSpec(0, identity_matrix(CLASSES), clean_count)] + [
        SourceSpec(i, make_template(kind, CLASSES, WEAK_ETA), weak_count)
        for i, kind in enumerate(WEAK_KINDS, start=1)]


def _quiet_cli(argv: list):
    """Run `weaklab.cli.main` with its stdout captured; (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class Workload:
    """Base: `cells` operations are attempted per run() call, each doing
    `work_per_op` units of work (counted by work_per_s)."""

    name = ""
    min_ops = 2
    cells = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.problems = []
        self._first = None  # outputs of the first operation, for repeat checks

    def fingerprint(self) -> str:
        """Digest of the generated inputs; equal across set-ups."""
        raise NotImplementedError

    def _repeats(self, what: str, value) -> None:
        if self._first is None:
            self._first = value
        elif value != self._first:
            self.problems.append(f"{self.name}: {what} differ between repeats")

    def expected_calls(self) -> dict:
        """Span calls per operation that the trace must show."""
        return {}


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed, workdir, epochs: int | None = None):
        super().__init__(seed, workdir)
        self.epochs = epochs  # the config's 60 unless a test shortens it
        self.config_path = self.workdir / "sweep.ini"

    def setup(self) -> None:
        text = SWEEP_CONFIG.read_text()
        text, n = re.subn(r"(?m)^seeds\s*=.*$", f"seeds = {self.seed}", text)
        if n != 1:
            raise ValueError(f"{SWEEP_CONFIG} has no single `seeds =` line")
        if self.epochs is not None:
            text = re.sub(r"(?m)^epochs\s*=.*$", f"epochs = {self.epochs}", text)
        self.config_path.write_text(text)
        cfg = harness.load_config(self.config_path)
        models = len(cfg.etas) * len(cfg.combinations)
        self.cells = len(cfg.seeds) * (1 + models)
        n_clean = cfg.clean_count
        n_weak = sum(int(round(w.multiplier * n_clean)) for w in cfg.weak_sources)
        n_train = n_weak + (n_clean if cfg.use_clean_in_training else 0)
        epochs, bs = cfg.train.epochs, cfg.train.batch_size
        base_epochs = min(epochs, cfg.baseline_epoch_cap) if cfg.baseline_epoch_cap > 0 else epochs
        self.work_per_op = len(cfg.seeds) * (base_epochs * math.ceil(n_clean / bs)
                                             + models * epochs * math.ceil(n_train / bs))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.config_path.read_bytes()).hexdigest()

    def run(self, i: int):
        out = self.workdir / f"run{i}"
        code, _ = _quiet_cli(["run", "--config", self.config_path, "--out", out])
        return code, out

    def record(self, i: int, result):
        code, out = result
        if code != 0:
            self.problems.append(f"sweep: `weaklab run` exited with {code}")
            return self.cells, None
        report, curves = (out / "report.csv").read_bytes(), (out / "curves.csv").read_bytes()
        self._repeats("report.csv and curves.csv", (report, curves))
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        cells = [r for r in rows if r["seed"] != "all"]
        if len(cells) != self.cells:
            self.problems.append(f"sweep: report has {len(cells)} cells, expected {self.cells}")
        failed = sum(1 for r in cells if r["best_oa"] == "")
        mean = {r["strategy"]: float(r["mean_oa"]) for r in rows
                if r["seed"] == "all" and r["eta"] == "0.5" and r["mean_oa"]}
        if not mean.get("proposed", -1.0) >= mean.get("vanilla", math.inf):
            self.problems.append(f"sweep: proposed mean_oa below vanilla at eta 0.5: {mean}")
        oas = [float(r["best_oa"]) for r in cells if r["best_oa"]]
        return failed, float(np.mean(oas)) if oas else None

    def expected_calls(self) -> dict:
        return {"cli.main": 1, "harness.run_experiment": 1, "model.train": self.cells}


class TrainOne(Workload):
    name = "train_one"
    EPOCHS = 60
    CLEAN = 500
    WEAK = 1500
    N_PER_CLASS = 625  # 6250 rows: 5000 for the sources, 1250 for the test set

    def setup(self) -> None:
        blobs = datagen.generate_blobs(CLASSES, DIM, self.N_PER_CLASS, SPREAD,
                                       np.random.default_rng(self.seed))
        specs = _weak_specs(self.CLEAN, self.WEAK)
        ms, self.test = datagen.build_multisource(blobs, specs, self.seed)
        self.features, self.labels, self.sources = ms.stacked()
        self.matrices = {s.id: s.matrix for s in specs}
        self.config = model.TrainConfig(epochs=self.EPOCHS, strategy="proposed",
                                        loss=LossSpec("gce", q=0.7), hidden=32, seed=self.seed)
        self.steps_per_epoch = math.ceil(len(self.labels) / self.config.batch_size)
        self.work_per_op = self.EPOCHS * self.steps_per_epoch

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for a in (self.features, self.labels, self.sources, self.test.features, self.test.labels):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def run(self, i: int):
        oas = []
        params = model.train(
            self.features, self.labels, self.sources, CLASSES, self.config,
            matrices=self.matrices,
            epoch_callback=lambda epoch, p: oas.append(harness.overall_accuracy(p, self.test)))
        return params, oas

    def record(self, i: int, result):
        params, oas = result
        path = self.workdir / "model.params"
        model.save_params(path, params)
        self._repeats("checkpoint bytes", path.read_bytes())
        if len(oas) != self.EPOCHS:
            self.problems.append(f"train_one: {len(oas)} epoch evaluations, expected {self.EPOCHS}")
        return 0, max(oas)

    def expected_calls(self) -> dict:
        return {"model.train": 1, "model.step": self.EPOCHS * self.steps_per_epoch,
                "harness.overall_accuracy": self.EPOCHS}


class Prep(Workload):
    name = "prep"
    N_PER_CLASS = 20_000   # 200k clean rows; the 160k training pool is split below
    CLEAN = 10_000
    WEAK = 50_000
    BASELINE_ROWS = 500

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.original = datagen.generate_blobs(CLASSES, DIM, self.N_PER_CLASS, SPREAD, rng)
        self.clean_path = self.workdir / "clean.txt"
        datagen.save_dataset(self.clean_path, datagen.MultisourceDataset(
            [datagen.SourceBlock(0, self.original.features, self.original.labels)], CLASSES, DIM))
        self.specs = _weak_specs(self.CLEAN, self.WEAK)
        self.spec_path = self.workdir / "spec.ini"
        weak = " ".join(f"{k.value}:{WEAK_ETA}:{self.WEAK}" for k in WEAK_KINDS)
        self.spec_path.write_text(f"[sources]\nclean_count = {self.CLEAN}\nweak = {weak}\n")
        idx = rng.choice(len(self.original), self.BASELINE_ROWS, replace=False)
        baseline = model.train(self.original.features[idx], self.original.labels[idx],
                               np.zeros(self.BASELINE_ROWS, dtype=np.int64), CLASSES,
                               model.TrainConfig(seed=self.seed))
        self.checkpoint = self.workdir / "baseline.params"
        model.save_params(self.checkpoint, baseline)
        self.emitted = self.workdir / "weak.txt"
        self.work_per_op = len(self.original)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for path in (self.clean_path, self.spec_path, self.checkpoint):
            h.update(path.read_bytes())
        return h.hexdigest()

    def run(self, i: int):
        code, _ = _quiet_cli(["corrupt", "--load-dataset", self.clean_path, "--spec",
                              self.spec_path, "--emit-dataset", self.emitted,
                              "--seed", self.seed])
        if code != 0:
            return code, None
        ms = datagen.load_dataset(self.emitted)
        flips = datagen.corruption_report(ms, self.original)
        baseline = model.load_params(self.checkpoint)
        per_source = estimation.estimate_per_source(baseline, ms)
        single = estimation.estimate_single(baseline, ms)
        return code, (ms, flips, per_source, single)

    def record(self, i: int, result):
        code, out = result
        if code != 0:
            self.problems.append(f"prep: `weaklab corrupt` exited with {code}")
            return 1, None
        ms, flips, per_source, single = out
        expected, _ = datagen.build_multisource(self.original, self.specs, self.seed)
        same = ([b.source_id for b in ms.sources] == [b.source_id for b in expected.sources]
                and all(np.array_equal(a.labels, b.labels)
                        and np.array_equal(a.features, b.features)
                        for a, b in zip(ms.sources, expected.sources)))
        if not same:
            self.problems.append("prep: reloaded dataset differs from the emitted one")
        for key, t in [*per_source.items(), ("single", single)]:
            e = t.entries
            if np.any(e < 0) or not np.allclose(e.sum(axis=1), 1.0, rtol=0, atol=1e-9):
                self.problems.append(f"prep: estimated matrix {key} is not row-stochastic")
        for sid, f in flips.items():
            sums = f.sum(axis=1)
            if not np.all(np.isclose(sums, 1.0) | (sums == 0)):
                self.problems.append(f"prep: corruption report of source {sid} has bad rows")
        # estimation fidelity: 1 - mean total-variation distance of T_hat rows to T
        tv = [0.5 * np.abs(per_source[s.id].entries - s.matrix.entries).sum(axis=1).mean()
              for s in self.specs[1:]]
        return 0, 1.0 - float(np.mean(tv))

    def expected_calls(self) -> dict:
        return {"cli.main": 1, "datagen.load_dataset": 2, "datagen.save_dataset": 1,
                "datagen.corruption_report": 1, "estimation.estimate_per_source": 1,
                "estimation.estimate_single": 1,
                "estimation.confusion_counts": len(WEAK_KINDS) + 1}


class GradCheck(Workload):
    name = "gradcheck"
    CASES = 1000

    def setup(self) -> None:
        self.argv = ["validate-gradients", "--cases", self.CASES, "--seed", self.seed]
        self.work_per_op = self.CASES

    def fingerprint(self) -> str:
        return " ".join(map(str, self.argv))

    def run(self, i: int):
        return _quiet_cli(self.argv)

    def record(self, i: int, result):
        code, text = result
        self._repeats("validate-gradients output", text)
        if code != 0:
            self.problems.append(f"gradcheck: exit code {code}: {text.strip()}")
        match = re.search(r"max relative gradient error (\S+)", text)
        return int(code != 0), 1.0 - float(match.group(1))

    def expected_calls(self) -> dict:
        return {"cli.main": 1, "correction.weight_proposed": self.CASES,
                "correction.numerical_score_gradient": self.CASES}


WORKLOADS = {w.name: w for w in (Sweep, TrainOne, Prep, GradCheck)}
