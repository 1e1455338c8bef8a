"""Experiment orchestration: sweeps, accuracy tracking and CSV reports.

An experiment sweeps (strategy, loss) combinations over error rates and
seeds on a synthetic multisource dataset. Per seed: generate the data,
train a baseline on the clean source, estimate per-source transition
matrices with it, train one model per combination while tracking overall
accuracy on the held-out test set every epoch, and record the best epoch.
Results aggregate to mean and unbiased (n-1) standard deviation across
seeds. Everything is deterministic given the config, so re-running a
config reproduces the report files byte for byte.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import Dataset, MultisourceDataset, build_multisource, generate_blobs
from .estimation import estimate_per_source, estimate_single
from .labelspace import (SourceSpec, TemplateKind, TransitionMatrix, identity_matrix,
                         make_template, satisfies_diagonal_dominance, save_matrix)
from .losses import FAMILIES, LossSpec
from .model import (STRATEGIES, ModelParameters, TrainConfig, TrainingDiverged,
                    predict_batch, save_params, train)


@dataclass
class WeakSource:
    """Template descriptor of one weak source in a sweep; its sample count
    is multiplier x clean_count."""

    kind: TemplateKind
    multiplier: float


@dataclass
class ExperimentConfig:
    classes: int = 10
    dim: int = 16
    n_per_class: int = 625
    spread: float = 0.30
    scale: float = 1.0
    clean_count: int = 500
    weak_sources: list = field(default_factory=lambda: [
        WeakSource(TemplateKind.MIXED_CLASS_DEPENDENT, 9.0)])
    etas: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    combinations: list = field(default_factory=lambda: [
        ("vanilla", LossSpec("cce")), ("proposed", LossSpec("cce"))])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline_epoch_cap: int = 0          # cap baseline epochs when > 0
    use_clean_in_training: bool = True   # False: drop the clean source from training
    estimated_vs_true_matrices: bool = False  # True: correction uses the true matrices
    smoothing: float = 0.5

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.combinations:
            raise ValueError("need at least one (strategy, loss) combination")

    def source_layout(self) -> str:
        return "+".join(f"{w.kind.value}:x{w.multiplier:g}" for w in self.weak_sources)


@dataclass
class SeedResult:
    seed: int
    best_oa: float
    best_epoch: int
    failed: bool = False


@dataclass
class ReportRow:
    strategy: str
    loss_family: str
    eta: float | None          # None for the clean-only baseline row
    source_layout: str
    per_seed: list
    mean_oa: float | None
    std_oa: float | None
    dominance_ok: bool | None  # None for the baseline row


@dataclass
class RunReport:
    rows: list
    curves: list       # (strategy, loss_family, eta, seed, epoch, oa)
    estimates: dict    # (seed, eta) -> {source_id or "single": TransitionMatrix}
    baselines: dict    # seed -> best-epoch ModelParameters

    def row(self, strategy: str, loss_family: str, eta=None) -> ReportRow:
        for r in self.rows:
            if r.strategy == strategy and r.loss_family == loss_family and r.eta == eta:
                return r
        raise KeyError(f"no row for ({strategy}, {loss_family}, eta={eta})")


def overall_accuracy(params: ModelParameters, test: Dataset) -> float:
    """Fraction of test instances whose predicted class matches the label."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    return float(np.mean(predict_batch(params, test.features) == test.labels))


def _aggregate(results: list):
    oas = [r.best_oa for r in results if not r.failed]
    if not oas:
        return None, None
    mean = float(np.mean(oas))
    std = float(np.std(oas, ddof=1)) if len(oas) > 1 else None
    return mean, std


def _train_tracked(features, labels, source_ids, c, tconf, test, matrices=None):
    """Train while recording test accuracy per epoch; returns the best-epoch
    snapshot, its (oa, epoch), and the full per-epoch history."""
    best = {"oa": -1.0, "epoch": 0, "params": None}
    history = []

    def callback(epoch, params):
        oa = overall_accuracy(params, test)
        history.append((epoch, oa))
        if oa > best["oa"]:
            best["oa"] = oa
            best["epoch"] = epoch
            best["params"] = params.copy()

    train(features, labels, source_ids, c, tconf, matrices=matrices,
          epoch_callback=callback)
    return best["params"], best["oa"], best["epoch"], history


def _blend_true_matrices(specs: list) -> TransitionMatrix:
    """Count-weighted mixture of the sources' true matrices: what a single
    matrix estimated on the pooled training set converges to."""
    total = sum(s.count for s in specs)
    blend = sum((s.count / total) * s.matrix.entries for s in specs)
    return TransitionMatrix(blend)


def _source_specs(config: ExperimentConfig, eta: float) -> list:
    specs = [SourceSpec(0, identity_matrix(config.classes), config.clean_count)]
    for i, weak in enumerate(config.weak_sources, start=1):
        matrix = make_template(weak.kind, config.classes, eta)
        specs.append(SourceSpec(i, matrix, int(round(weak.multiplier * config.clean_count))))
    return specs


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the full sweep described by the config; see the module docstring."""
    c = config.classes
    layout = config.source_layout()
    curves = []
    estimates = {}
    baselines = {}
    baseline_results = []
    combo_results = {}  # (eta, strategy, family) -> list[SeedResult]

    for seed in config.seeds:
        blobs = generate_blobs(c, config.dim, config.n_per_class, config.spread,
                               np.random.default_rng(seed), config.scale)
        baseline_params = None
        for eta in config.etas:
            specs = _source_specs(config, eta)
            ms, test = build_multisource(blobs, specs, seed)

            if baseline_params is None:
                # the clean block and test split do not depend on eta, so one
                # baseline per seed serves the whole sweep
                clean_blk = ms.block(0)
                clean = Dataset(clean_blk.features, clean_blk.labels, c)
                epochs = config.train.epochs
                if config.baseline_epoch_cap > 0:
                    epochs = min(epochs, config.baseline_epoch_cap)
                bconf = replace(config.train, strategy="vanilla", seed=seed, epochs=epochs)
                src0 = np.zeros(len(clean), dtype=np.int64)
                baseline_params, b_oa, b_epoch, hist = _train_tracked(
                    clean.features, clean.labels, src0, c, bconf, test)
                baselines[seed] = baseline_params
                baseline_results.append(SeedResult(seed, b_oa, b_epoch))
                curves.extend(("baseline", bconf.loss.family, None, seed, ep, oa)
                              for ep, oa in hist)

            if config.estimated_vs_true_matrices:
                per_source = {s.id: s.matrix for s in specs if s.id != 0}
                single = _blend_true_matrices(specs)
            else:
                per_source = estimate_per_source(baseline_params, ms, config.smoothing)
                single = estimate_single(baseline_params, ms, config.smoothing)
            estimates[(seed, eta)] = dict(per_source, single=single)

            if config.use_clean_in_training:
                feats, labels, src = ms.stacked()
            else:
                weak_only = MultisourceDataset(
                    [b for b in ms.sources if b.source_id != 0], ms.c, ms.d)
                feats, labels, src = weak_only.stacked()

            for strategy, lspec in config.combinations:
                if strategy == "proposed":
                    matrices = dict(per_source)
                    matrices[0] = identity_matrix(c)
                elif strategy == "forward":
                    matrices = {int(s): single for s in np.unique(src)}
                else:
                    matrices = None
                tconf = replace(config.train, strategy=strategy, loss=lspec, seed=seed)
                try:
                    _, oa, epoch, hist = _train_tracked(
                        feats, labels, src, c, tconf, test, matrices=matrices)
                    result = SeedResult(seed, oa, epoch)
                except TrainingDiverged:
                    result = SeedResult(seed, float("nan"), 0, failed=True)
                    hist = []
                combo_results.setdefault((eta, strategy, lspec.family), []).append(result)
                curves.extend((strategy, lspec.family, eta, seed, ep, oa)
                              for ep, oa in hist)

    rows = []
    mean, std = _aggregate(baseline_results)
    rows.append(ReportRow("baseline", config.train.loss.family, None, "clean_only",
                          baseline_results, mean, std, None))
    for eta in config.etas:
        dominance = all(satisfies_diagonal_dominance(make_template(w.kind, c, eta))
                        for w in config.weak_sources)
        for strategy, lspec in config.combinations:
            results = combo_results[(eta, strategy, lspec.family)]
            mean, std = _aggregate(results)
            rows.append(ReportRow(strategy, lspec.family, eta, layout,
                                  results, mean, std, dominance))
    return RunReport(rows, curves, estimates, baselines)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if np.isnan(value) else f"{value:.6g}"
    return str(value)


CSV_HEADER = "strategy,loss,eta,source_layout,seed,best_oa,best_epoch,mean_oa,std_oa,dominance_ok"


def emit_csv(report: RunReport, path) -> None:
    """Per-seed rows plus one `all`-seed aggregate row per combination."""
    lines = [CSV_HEADER]
    for row in report.rows:
        base = f"{row.strategy},{row.loss_family},{_fmt(row.eta)},{row.source_layout}"
        for sr in row.per_seed:
            oa = "" if sr.failed else _fmt(sr.best_oa)
            epoch = "" if sr.failed else str(sr.best_epoch)
            lines.append(f"{base},{sr.seed},{oa},{epoch},,,{_fmt(row.dominance_ok)}")
        lines.append(f"{base},all,,,{_fmt(row.mean_oa)},{_fmt(row.std_oa)},{_fmt(row.dominance_ok)}")
    Path(path).write_text("\n".join(lines) + "\n")


def emit_curves(report: RunReport, path) -> None:
    """Per-epoch test accuracy in long form."""
    lines = ["strategy,loss,eta,seed,epoch,oa"]
    for strategy, family, eta, seed, epoch, oa in report.curves:
        lines.append(f"{strategy},{family},{_fmt(eta)},{seed},{epoch},{_fmt(oa)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_dir(report: RunReport, out_dir) -> None:
    """Write report.csv, curves.csv, baseline checkpoints and the estimated
    matrices. Top-level baseline.params / T_hat_source<s>.txt hold the first
    seed (and first error rate); the full per-cell set lives under runs/."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(report, out / "report.csv")
    emit_curves(report, out / "curves.csv")
    for i, (seed, params) in enumerate(sorted(report.baselines.items())):
        cell = out / "runs" / f"seed{seed}"
        cell.mkdir(parents=True, exist_ok=True)
        save_params(cell / "baseline.params", params)
        if i == 0:
            save_params(out / "baseline.params", params)
    for i, ((seed, eta), mats) in enumerate(sorted(report.estimates.items())):
        cell = out / "runs" / f"seed{seed}" / f"eta{eta:g}"
        cell.mkdir(parents=True, exist_ok=True)
        for key, matrix in sorted(mats.items(), key=lambda kv: str(kv[0])):
            name = "T_hat_single.txt" if key == "single" else f"T_hat_source{key}.txt"
            save_matrix(cell / name, matrix)
            if i == 0:
                save_matrix(out / name, matrix)


def template_kind(token: str) -> TemplateKind:
    """The template kind named by the first field of a [sources] weak token."""
    name = token.split(":")[0]
    try:
        return TemplateKind(name)
    except ValueError:
        kinds = ", ".join(k.value for k in TemplateKind)
        raise ValueError(f"[sources] weak token {token!r}: unknown template kind "
                         f"{name!r}, expected one of {kinds}") from None


def _parse_weak_sources(text: str) -> list:
    sources = []
    for token in text.split():
        parts = token.split(":")
        if len(parts) > 2:
            raise ValueError(f"[sources] weak token {token!r}: expected kind[:multiplier]; "
                             "per-source weights are not supported")
        multiplier = float(parts[1]) if len(parts) > 1 else 1.0
        sources.append(WeakSource(template_kind(token), multiplier))
    return sources


# every section and key load_config reads; anything else in a file is an error
CONFIG_KEYS = {
    "dataset": ("classes", "dim", "n_per_class", "spread", "scale"),
    "sources": ("clean_count", "weak", "etas"),
    "loss": ("family", "q", "alpha", "beta", "A"),
    "train": ("strategy", "epochs", "batch_size", "learning_rate", "momentum",
              "weight_decay", "hidden", "seed"),
    "run": ("seeds", "combos", "use_clean_in_training", "baseline_epoch_cap",
            "estimated_vs_true_matrices", "smoothing"),
}


def _check_keys(cp: configparser.ConfigParser, table: dict = CONFIG_KEYS) -> None:
    """Reject any section or key of cp that the table (section -> keys) lacks."""
    # keys of a [DEFAULT] section show up in every section, so check it first
    for section in (["DEFAULT"] if cp.defaults() else []) + cp.sections():
        if section not in table:
            raise ValueError(f"unknown config section [{section}], expected one of "
                             + ", ".join(f"[{name}]" for name in table))
        allowed = {cp.optionxform(key) for key in table[section]}
        for key in cp[section]:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in section [{section}], expected one "
                                 f"of {', '.join(table[section])}")


def _parse_combos(text: str, base_loss: LossSpec) -> list:
    combos = []
    for token in text.split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"[run] combos token {token!r}: expected strategy:family")
        strategy, family = parts
        if strategy not in STRATEGIES:
            raise ValueError(f"[run] combos token {token!r}: unknown strategy {strategy!r}, "
                             f"expected one of {', '.join(STRATEGIES)}")
        if family not in FAMILIES:
            raise ValueError(f"[run] combos token {token!r}: unknown loss family {family!r}, "
                             f"expected one of {', '.join(FAMILIES)}")
        combos.append((strategy, replace(base_loss, family=family)))
    return combos


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a plain-text section/key-value file.

    The sections and keys are those of CONFIG_KEYS, all optional
    (defaults as in ExperimentConfig); an unknown section or key raises
    ValueError. weak holds space-separated kind[:multiplier] tokens, etas
    and seeds space-separated numbers, combos space-separated
    strategy:family tokens.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        cp.read_file(fh)
    _check_keys(cp)
    cfg = ExperimentConfig()

    if cp.has_section("dataset"):
        ds = cp["dataset"]
        cfg.classes = ds.getint("classes", cfg.classes)
        cfg.dim = ds.getint("dim", cfg.dim)
        cfg.n_per_class = ds.getint("n_per_class", cfg.n_per_class)
        cfg.spread = ds.getfloat("spread", cfg.spread)
        cfg.scale = ds.getfloat("scale", cfg.scale)
    if cp.has_section("sources"):
        src = cp["sources"]
        cfg.clean_count = src.getint("clean_count", cfg.clean_count)
        if "weak" in src:
            cfg.weak_sources = _parse_weak_sources(src["weak"])
        if "etas" in src:
            cfg.etas = [float(v) for v in src["etas"].split()]
    loss_kwargs = {}
    family = "cce"
    if cp.has_section("loss"):
        ls = cp["loss"]
        family = ls.get("family", family)
        for key in ("q", "alpha", "beta", "A"):
            if key in ls:
                loss_kwargs[key] = ls.getfloat(key)
    base_loss = LossSpec(family, **loss_kwargs)
    t = TrainConfig(loss=base_loss)
    if cp.has_section("train"):
        tr = cp["train"]
        t = TrainConfig(
            epochs=tr.getint("epochs", t.epochs),
            batch_size=tr.getint("batch_size", t.batch_size),
            learning_rate=tr.getfloat("learning_rate", t.learning_rate),
            momentum=tr.getfloat("momentum", t.momentum),
            weight_decay=tr.getfloat("weight_decay", t.weight_decay),
            seed=tr.getint("seed", t.seed),
            strategy=tr.get("strategy", t.strategy),
            hidden=tr.getint("hidden", t.hidden),
            loss=base_loss,
        )
    cfg.train = t
    combos = [(cfg.train.strategy, base_loss)]
    if cp.has_section("run"):
        run = cp["run"]
        if "seeds" in run:
            cfg.seeds = [int(v) for v in run["seeds"].split()]
        if "combos" in run:
            combos = _parse_combos(run["combos"], base_loss)
        cfg.use_clean_in_training = run.getboolean("use_clean_in_training",
                                                   cfg.use_clean_in_training)
        cfg.baseline_epoch_cap = run.getint("baseline_epoch_cap", cfg.baseline_epoch_cap)
        cfg.estimated_vs_true_matrices = run.getboolean("estimated_vs_true_matrices",
                                                        cfg.estimated_vs_true_matrices)
        cfg.smoothing = run.getfloat("smoothing", cfg.smoothing)
    cfg.combinations = combos
    return cfg
