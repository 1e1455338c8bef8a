"""Experiment orchestration: sweeps, accuracy tracking and CSV reports.

An experiment sweeps (strategy, loss) combinations over error rates and seeds
on a synthetic multisource dataset. Per seed: generate the data and draw each
eta's sources from it once. Each draw holds the same clean block and test
split, so the baseline trained on the first draw's clean block serves every
eta: as trained, after its last epoch, it estimates each draw's transition
matrices (T-hat). One model per combination trains on each draw's training
pool; no test label reaches a trained model. A strategy token suffixed @true
corrects with the true matrices of its (seed, eta) instead of T-hat, which
tells what the estimate costs. Every model, the baseline too, is trained by
model.train on one path that records its test accuracy each epoch in a Cell,
failed if the model diverged or lacked the T-hat of a diverged baseline. A
report row aggregates a combination's Cells to the mean and unbiased (n-1)
std of their best accuracies across seeds, and counts the failed Cells it
leaves out. Re-running a config reproduces the report files byte for byte.
"""

from __future__ import annotations

import re
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .datagen import (Dataset, build_multisource, check_blobs, generate_blobs, source_specs,
                      split_sizes)
from .estimation import DEFAULT_SMOOTHING, estimate_per_source, estimate_single
from .labelspace import (TemplateKind, TransitionMatrix, check_utf8, identity_matrix, refused_at,
                         satisfies_diagonal_dominance, save_matrix)
from .losses import FAMILIES, LossSpec
from .model import (ModelParameters, TrainConfig, TrainingDiverged, predict_batch, save_params,
                    train)


@dataclass
class WeakSource:
    """One weak source, a `[sources] weak` token: a template kind, an eta
    (None in a run config, which sweeps it) and a size, exactly one of a
    multiple of clean_count and a row count; token spells it back."""

    kind: TemplateKind
    multiplier: float | None
    eta: float | None = None
    rows: int | None = None

    def __post_init__(self):
        if (self.multiplier is None) == (self.rows is None):
            raise ValueError(f"weak kind {self.kind.value}: need one of multiplier and rows")

    @property
    def token(self) -> str:
        eta = "" if self.eta is None else f":{self.eta:g}"
        return f"{self.kind.value}{eta}:" + (str(self.rows) if self.multiplier is None
                                             else f"x{self.multiplier:g}")

    def count(self, clean_count: int) -> int:
        """The rows, else round(multiplier x clean_count); ValueError naming the
        token unless the multiplier is finite and > 0 and the product finite and >= 1 row."""
        if self.rows is not None:  # checked by their parser, count
            return self.rows
        where = f"[sources] weak token {self.token!r}"
        if not 0.0 < self.multiplier < np.inf:  # written so that NaN fails
            raise ValueError(f"{where}: multiplier must be finite and > 0, got {self.multiplier:g}")
        n = self.multiplier * clean_count
        if n == np.inf:  # round(inf) would raise OverflowError
            raise ValueError(f"{where}: {self.multiplier:g} x clean_count {clean_count} overflows")
        n = int(round(n))
        if n < 1:
            raise ValueError(f"{where}: round({self.multiplier:g} x clean_count {clean_count}) = "
                             f"{n} rows, need at least 1")
        return n


def weak_tuples(weak: list, clean_count: int, eta: float | None = None) -> list:
    """The (kind, eta, count) of each WeakSource, as datagen.source_specs
    takes them: eta if given (a run config's swept eta), else the source's."""
    return [(w.kind, w.eta if eta is None else eta, w.count(clean_count)) for w in weak]


@dataclass
class ExperimentConfig:
    classes: int = 10
    dim: int = 16
    n_per_class: int = 625
    spread: float = 0.30
    clean_count: int = 500
    weak_sources: list = field(default_factory=lambda: [
        WeakSource(TemplateKind.MIXED_CLASS_DEPENDENT, 9.0)])
    etas: list[float] = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])
    # (strategy token, loss family) names, a token from COMBO_STRATEGIES; every
    # model takes the train.loss hyperparameters
    combinations: list[tuple[str, str]] = field(default_factory=lambda: [
        ("vanilla", "cce"), ("proposed", "cce")])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    train: TrainConfig = field(default_factory=TrainConfig)  # seed and strategy set per model
    baseline_epoch_cap: int = 0          # cap baseline epochs when > 0
    use_clean_in_training: bool = True   # False: drop the clean source from training
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self):
        # each error starts with the config file section and key it is about;
        # a file's counts are integers by typed(int), a Python caller's are checked here
        counts = [("[dataset] classes", self.classes), ("[dataset] dim", self.dim),
                  ("[dataset] n_per_class", self.n_per_class),
                  ("[sources] clean_count", self.clean_count),
                  ("[run] baseline_epoch_cap", self.baseline_epoch_cap)]
        for key, value in counts + [("[run] seeds", seed) for seed in self.seeds]:
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key}: {value} is not an integer")
        with refused_at("[dataset]"):
            check_blobs(self.classes, self.dim, self.n_per_class, self.spread)
        if not self.seeds:
            raise ValueError("[run] seeds: need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError(f"[run] seeds must be >= 0, got {min(self.seeds)}")
        if self.baseline_epoch_cap < 0:
            raise ValueError(f"[run] baseline_epoch_cap must be >= 0, got "
                             f"{self.baseline_epoch_cap}")
        if not self.etas:
            raise ValueError("[sources] etas: need at least one eta")
        if not self.combinations:
            raise ValueError("[run] combos: need at least one (strategy, loss) combination")
        for strategy, family in self.combinations:
            with refused_at(f"[run] combos token '{strategy}:{family}':"):
                strategy_token(strategy)
                loss_family(family)
        # the sweep sets each model's seed and strategy, so a value here would be lost
        for name, key in (("seed", "[run] seeds"), ("strategy", "[run] combos")):
            value = getattr(self.train, name)
            if value != getattr(TrainConfig, name):
                raise ValueError(f"[train] {name} is set per model from {key}, got {value!r}")
        self.etas = [eta + 0.0 for eta in self.etas]  # -0 trains, and is written, as 0
        # a repeated value would train the same models twice; etas compare as printed
        axes = {"[run] seeds": self.seeds,
                "[sources] etas": [f"{eta:g}" for eta in self.etas],
                "[run] combos": [f"{s}:{f}" for s, f in self.combinations]}
        for key, names in axes.items():
            twice = [name for i, name in enumerate(names) if name in names[:i]]
            if twice:
                raise ValueError(f"{key}: {twice[0]} given twice")
        if self.clean_count < 1:
            raise ValueError(f"[sources] clean_count must be >= 1, got {self.clean_count}")
        # with no weak source every combination trains the baseline's model again
        if not self.weak_sources:
            raise ValueError("[sources] weak: need at least one weak source")
        for w in self.weak_sources:  # a run sweeps each eta, as weak_token reads a run config
            if w.eta is not None or w.rows is not None:
                raise ValueError(f"[sources] weak token {w.token!r}: expected kind:xM")
        weak_tuples(self.weak_sources, self.clean_count)  # WeakSource.count checks each size
        if not 0.0 <= self.smoothing < np.inf:  # written so that NaN fails
            raise ValueError(f"[run] smoothing must be finite and >= 0, got {self.smoothing}")
        rows = self.classes * self.n_per_class
        if split_sizes(rows)[1] < 1:
            raise ValueError(f"[dataset] classes {self.classes} x n_per_class "
                             f"{self.n_per_class} = {rows} rows leave 0 test rows")
        # build_multisource would refuse the sources only after the baseline trained
        for eta in self.etas:
            with refused_at(f"[sources] clean_count, weak, etas at eta {eta:g}, [dataset] classes "
                            f"{self.classes} x n_per_class {self.n_per_class}:"):
                self.sources(eta)

    def sources(self, eta: float) -> list:
        """The SourceSpecs at one eta: datagen.source_specs for the generated rows."""
        weak = weak_tuples(self.weak_sources, self.clean_count, eta)
        return source_specs(self.classes, self.clean_count, weak, self.classes * self.n_per_class)

    def source_layout(self) -> str:
        return "+".join(w.token for w in self.weak_sources)


@dataclass
class Cell:
    """One model of a sweep: where it sits, and its test accuracy after
    every epoch as (epoch, oa) pairs, empty when the model failed."""

    strategy: str
    loss_family: str
    eta: float | None  # None for the clean-only baseline
    seed: int
    curve: list

    @property
    def failed(self) -> bool:
        return not self.curve

    @property
    def best_oa(self) -> float:
        """The highest accuracy on the curve; NaN when failed."""
        return max((oa for _, oa in self.curve), default=float("nan"))

    @property
    def best_epoch(self) -> int | None:
        """The first epoch with the highest accuracy; None when failed."""
        return max(self.curve, key=lambda point: point[1], default=(None, None))[0]


@dataclass
class ReportRow:
    strategy: str
    loss_family: str
    eta: float | None          # None for the clean-only baseline row
    source_layout: str
    per_seed: list             # the row's Cells, one per seed
    dominance_ok: bool | None  # None for the baseline row

    @property
    def n_failed(self) -> int:
        """Seeds that diverged; mean_oa and std_oa leave them out."""
        return sum(cell.failed for cell in self.per_seed)

    @property
    def mean_oa(self) -> float | None:
        oas = [cell.best_oa for cell in self.per_seed if not cell.failed]
        return float(np.mean(oas)) if oas else None

    @property
    def std_oa(self) -> float | None:
        oas = [cell.best_oa for cell in self.per_seed if not cell.failed]
        return float(np.std(oas, ddof=1)) if len(oas) > 1 else None


@dataclass
class RunReport:
    rows: list
    cells: list        # every trained model's Cell, in training order
    errors: list       # (seed, eta, source_id or "single", mean_row_l1, max_abs_error)
    estimates: dict    # (seed, eta) -> {source_id or "single": TransitionMatrix}
    baselines: dict    # seed -> the baseline's ModelParameters after its last epoch

    def row(self, strategy: str, loss_family: str, eta=None) -> ReportRow:
        for r in self.rows:
            if r.strategy == strategy and r.loss_family == loss_family and r.eta == eta:
                return r
        raise KeyError(f"no row for ({strategy}, {loss_family}, eta={eta})")


# the tokens of a combination's strategy, `strategy[@true]`, that
# strategy_token accepts, each a key of _strategy_matrices: a correction
# suffixed @true takes the true matrices of its (seed, eta) in place of
# T-hat (vanilla takes no matrices)
TRUE_SUFFIX = "@true"
COMBO_STRATEGIES = ("vanilla", "forward", "proposed", "forward@true", "proposed@true")


def overall_accuracy(params: ModelParameters, test: Dataset) -> float:
    """Fraction of test instances whose predicted class matches the label."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    return float(np.mean(predict_batch(params, test.features) == test.labels))


def _train_cell(key: tuple, test: Dataset, *args, **kwargs):
    """Train one model of a sweep by train(*args, **kwargs) and return its Cell,
    keyed by key = (strategy, loss family, eta, seed), with the parameters after
    its last epoch; a model that diverges is a failed Cell, with None."""
    cell = Cell(*key, [])

    def callback(epoch, params):
        cell.curve.append((epoch, overall_accuracy(params, test)))

    try:
        params = train(*args, epoch_callback=callback, **kwargs)
    except TrainingDiverged:
        return Cell(*key, []), None
    return cell, params


def _strategy_matrices(estimated: dict, true: dict, src: np.ndarray, c: int) -> dict:
    """strategy token -> transition matrices of one (seed, eta), from its
    T-hat (estimated) and its true matrices, each {source id or "single":
    matrix}, and the source ids: a token suffixed @true takes the true ones.
    Without a T-hat, the unsuffixed corrections are missing."""
    table = {"vanilla": None}
    ids = np.unique(src)
    for suffix, matrices in (("", estimated), (TRUE_SUFFIX, true)):
        if matrices:
            table["proposed" + suffix] = {**matrices, 0: identity_matrix(c)}
            table["forward" + suffix] = {int(s): matrices["single"] for s in ids}
    return table


def _blend_true_matrices(specs: list) -> TransitionMatrix:
    """Count-weighted mixture of the sources' true matrices: what a single
    matrix estimated on the pooled training set converges to."""
    total = sum(s.count for s in specs)
    blend = sum((s.count / total) * s.matrix.entries for s in specs)
    return TransitionMatrix(blend)


def _estimate_error(estimate: TransitionMatrix, true: TransitionMatrix):
    """(mean row L1 distance, largest absolute entry error) of an
    estimated transition matrix against the true one."""
    diff = np.abs(estimate.entries - true.entries)
    return float(diff.sum(axis=1).mean()), float(diff.max())


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the full sweep described by the config; see the module docstring."""
    c = config.classes
    bepochs = min(config.train.epochs, config.baseline_epoch_cap or config.train.epochs)
    specs = {eta: config.sources(eta) for eta in config.etas}
    dominance_ok = {None: None} | {eta: all(satisfies_diagonal_dominance(s.matrix)
                                            for s in specs[eta][1:]) for eta in config.etas}
    cells = []
    errors = []
    estimates = {}
    baselines = {}

    for seed in config.seeds:
        blobs = generate_blobs(c, config.dim, config.n_per_class, config.spread,
                               np.random.default_rng(seed))
        for eta in config.etas:
            ms, test = build_multisource(blobs, specs[eta], seed)
            if eta == config.etas[0]:  # every eta's draw holds this clean block and test split
                bconf = replace(config.train, seed=seed, epochs=bepochs)
                cell, params = _train_cell(("baseline", bconf.loss.family, None, seed), test,
                                           *replace(ms, sources=ms.sources[:1]).stacked(), c, bconf)
                cells.append(cell)
                if not cell.failed:
                    baselines[seed] = params
            pool_specs = [s for s in specs[eta] if config.use_clean_in_training or s.id != 0]
            pool = replace(ms, sources=[ms.block(s.id) for s in pool_specs])  # the training pool
            true = dict({s.id: s.matrix for s in specs[eta][1:]},
                        single=_blend_true_matrices(pool_specs))
            estimated = {}  # stays empty when the baseline diverged: no T-hat
            if seed in baselines:
                estimated = dict(estimate_per_source(baselines[seed], pool, config.smoothing),
                                 single=estimate_single(baselines[seed], pool, config.smoothing))
                estimates[(seed, eta)] = estimated
                errors.extend((seed, eta, key, *_estimate_error(matrix, true[key]))
                              for key, matrix in estimated.items())

            feats, labels, src = pool.stacked()
            matrices = _strategy_matrices(estimated, true, src, c)
            for strategy, family in config.combinations:
                if strategy not in matrices:  # no T-hat to correct with
                    cells.append(Cell(strategy, family, eta, seed, []))
                    continue
                tconf = replace(config.train, seed=seed,
                                strategy="vanilla" if matrices[strategy] is None else "proposed",
                                loss=replace(config.train.loss, family=family))
                cells.append(_train_cell((strategy, family, eta, seed), test, feats, labels, src,
                                         c, tconf, matrices=matrices[strategy])[0])

    rows = {}  # (strategy, loss family, eta) -> ReportRow, in the first seed's order
    for cell in cells:
        key = (cell.strategy, cell.loss_family, cell.eta)
        if key not in rows:
            layout = "clean_only" if cell.eta is None else config.source_layout()
            rows[key] = ReportRow(*key, layout, [], dominance_ok[cell.eta])
        rows[key].per_seed.append(cell)
    return RunReport(list(rows.values()), cells, errors, estimates, baselines)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if np.isnan(value) else f"{value:.6g}"
    return str(value)


CSV_HEADER = ("strategy,loss,eta,source_layout,seed,best_oa,best_epoch,mean_oa,std_oa,"
              "n_failed,dominance_ok")


def emit_csv(report: RunReport, path) -> None:
    """Per-seed rows plus one `all`-seed aggregate row per combination,
    which also counts the diverged seeds that its mean leaves out."""
    lines = [CSV_HEADER]
    for row in report.rows:
        base = f"{row.strategy},{row.loss_family},{_fmt(row.eta)},{row.source_layout}"
        lines.extend(f"{base},{cell.seed},{_fmt(cell.best_oa)},{_fmt(cell.best_epoch)},,,,"
                     f"{_fmt(row.dominance_ok)}" for cell in row.per_seed)
        lines.append(f"{base},all,,,{_fmt(row.mean_oa)},{_fmt(row.std_oa)},{row.n_failed},"
                     f"{_fmt(row.dominance_ok)}")
    Path(path).write_text("\n".join(lines) + "\n")


def emit_curves(report: RunReport, path) -> None:
    """Per-epoch test accuracy in long form."""
    lines = ["strategy,loss,eta,seed,epoch,oa"]
    for cell in report.cells:
        lines.extend(f"{cell.strategy},{cell.loss_family},{_fmt(cell.eta)},{cell.seed},{epoch},"
                     f"{_fmt(oa)}" for epoch, oa in cell.curve)
    Path(path).write_text("\n".join(lines) + "\n")


def emit_estimates(report: RunReport, path) -> None:
    """How far each estimated matrix lies from the true one, by seed, then
    eta, then source (the weak source ids in order, then `single`)."""
    lines = ["seed,eta,source,mean_row_l1,max_abs_error"]
    # a stable sort keeps each cell's sources in the order run_experiment made them
    for seed, eta, source, l1, max_abs in sorted(report.errors, key=lambda e: e[:2]):
        lines.append(f"{seed},{_fmt(eta)},{source},{_fmt(l1)},{_fmt(max_abs)}")
    Path(path).write_text("\n".join(lines) + "\n")


def check_out_dir(out_dir) -> None:
    """Raise ValueError unless out_dir is missing or an empty directory,
    so that a run directory never mixes with the files of another."""
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(f"output directory {out} exists and is not empty; a run writes only "
                         f"into a new or empty directory")


def write_run_dir(report: RunReport, out_dir) -> None:
    """Write report.csv, curves.csv, estimates.csv, and under runs/ each
    seed's baseline checkpoint and each (seed, eta) cell's estimated
    matrices: runs/seed<k>/baseline.params and
    runs/seed<k>/eta<v>/T_hat_source<s>.txt, T_hat_single.txt. out_dir
    must pass check_out_dir; nothing already there is deleted."""
    check_out_dir(out_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(report, out / "report.csv")
    emit_curves(report, out / "curves.csv")
    emit_estimates(report, out / "estimates.csv")
    for seed, params in report.baselines.items():
        cell = out / "runs" / f"seed{seed}"
        cell.mkdir(parents=True, exist_ok=True)
        save_params(cell / "baseline.params", params)
    for (seed, eta), mats in report.estimates.items():
        cell = out / "runs" / f"seed{seed}" / f"eta{eta:g}"
        cell.mkdir(parents=True, exist_ok=True)
        for key, matrix in mats.items():
            name = "T_hat_single.txt" if key == "single" else f"T_hat_source{key}.txt"
            save_matrix(cell / name, matrix)


# the spellings of a bool config value, in any case
BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
            "0": False, "no": False, "false": False, "off": False}


def typed(kind):
    """Parser of one config value of a field type (int, float, bool, str,
    or a list of one of these as space-separated words)."""
    if typing.get_origin(kind) is list:
        item = typed(typing.get_args(kind)[0])
        return lambda text: [item(word) for word in text.split()]

    def parse(text):
        try:
            return BOOLEANS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise ValueError(f"value {text!r} is not of type {kind.__name__}") from None
    return parse


def count(text: str) -> int:
    """Parser of a sample count: an integer of at least 1."""
    n = typed(int)(text)
    if n < 1:
        raise ValueError(f"value {n} is below 1")
    return n


def choice(what: str, names, convert=str):
    """Parser of one of the names, returned through convert."""
    def parse(text):
        if text not in names:
            raise ValueError(f"unknown {what} {text!r}, expected one of {', '.join(names)}")
        return convert(text)
    return parse


template_kind = choice("template kind", [k.value for k in TemplateKind], TemplateKind)
# the two names of a [run] combos token, checked by ExperimentConfig
strategy_token = choice("strategy", COMBO_STRATEGIES)
loss_family = choice("loss family", FAMILIES)


def tokens(parse):
    """Parser of space-separated tokens, each read by parse; errors name the token."""
    def read(token):
        with refused_at(f"token {token!r}:"):
            return parse(token)
    return lambda text: [read(token) for token in text.split()]


def combo(token: str) -> tuple:
    """(strategy, loss family) names of a `[run] combos` token `strategy[@true]:family`."""
    strategy, *family = token.split(":")
    if len(family) != 1:
        raise ValueError("expected strategy:family")
    return strategy, family[0]


def weak_token(token: str, swept: bool) -> WeakSource:
    """The WeakSource of a `[sources] weak` token: `kind:xM` in a run config
    (swept), `kind:eta:size` in a corrupt spec; a size `xM` is round(M x
    clean_count) rows, checked by WeakSource.count, else a row count N >= 1."""
    kind, *eta = token.split(":")
    kind, size = template_kind(kind), eta.pop() if eta else ""
    if swept and (eta or size[:1] != "x"):
        raise ValueError("expected kind:xM" + ("; each eta comes from [sources] etas" if eta
                                               else f", as in {kind.value}:x{size or 1}"))
    if not swept and len(eta) != 1:
        raise ValueError("expected kind:eta:size")
    multiplier, rows = (typed(float)(size[1:]), None) if size[:1] == "x" else (None, count(size))
    return WeakSource(kind, multiplier, typed(float)(eta[0]) if eta else None, rows)


def _fields(cls, *names, **parsers) -> dict:
    """Schema entries: the plain keys that set the same-named fields of
    cls, parsed by the field types, then the keys with their own parsers."""
    types = typing.get_type_hints(cls)
    return {**{name: typed(types[name]) for name in names}, **parsers}


# section -> key -> parser for every key a config file may hold
CONFIG_SCHEMA = {
    "dataset": _fields(ExperimentConfig, "classes", "dim", "n_per_class", "spread"),
    "sources": _fields(ExperimentConfig, "clean_count", "etas", weak=tokens(
        lambda token: weak_token(token, swept=True))),
    "loss": {"family": loss_family, **_fields(LossSpec, "q", "alpha", "beta", "A")},
    "train": _fields(TrainConfig, "epochs", "batch_size", "learning_rate", "momentum",
                     "weight_decay", "hidden"),
    "run": _fields(ExperimentConfig, "seeds", "use_clean_in_training", "baseline_epoch_cap",
                   "smoothing", combos=tokens(combo)),
}


# a comment starts at a # or ; that begins the line or follows a blank
_COMMENT = re.compile(r"(?:^|\s)[#;]")


def read_ini(path, schema: dict, lines: dict | None = None) -> dict:
    """Read a UTF-8 section/key-value file into {section: {key: value}}
    for the sections it holds, each value read by its parser in the
    schema (section -> key -> parser), and into lines, if given, each
    (section, key) -> `path, line N`. Each line stands alone: blank, a
    comment, a `[section]` header or `key = value`, its outer blanks and
    comment left out. A byte that is not UTF-8, a line of another form, a
    key before the first header, a repeated or unknown section or key, or
    a value its parser rejects raises ValueError naming the file and the
    line. Values are taken as written: a % is a plain character."""
    values = {}
    section = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            check_utf8(path, lineno, line)
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            where = f"{path}, line {lineno}"
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in schema:
                    raise ValueError(f"{where}: unknown config section [{section}], expected one "
                                     f"of {', '.join(f'[{name}]' for name in schema)}")
                if section in values:
                    raise ValueError(f"{where}: section [{section}] given twice")
                values[section] = {}
                continue
            key, equals, text = (part.strip() for part in line.partition("="))
            if not key or not equals:
                raise ValueError(f"{where}: {line!r} is not a [section] header or a key = value "
                                 f"line")
            if section is None:
                raise ValueError(f"{where}: {line!r} comes before any [section] header")
            if key not in schema[section]:
                raise ValueError(f"{where}: unknown key {key!r} in section [{section}], expected "
                                 f"one of {', '.join(schema[section])}")
            if key in values[section]:
                raise ValueError(f"{where}: [{section}] {key} given twice")
            with refused_at(f"{where}: [{section}] {key}"):
                values[section][key] = schema[section][key](text)
            if lines is not None:
                lines[section, key] = where
    return values


@contextmanager
def config_refusal(path, lines: dict, section: str = ""):
    """Re-raise a ValueError of the block, led by `[section]` if given, with the `path, line N`
    that read_ini's lines hold for the `[section] key` it starts with, else, for a message
    about several keys or a key that the file does not set, with path alone."""
    try:
        yield
    except ValueError as err:
        message = f"[{section}] {err}" if section else str(err)
        key = re.match(r"\[(\w+)\] (\w+)[ :]", message)
        where = lines.get(key.groups(), path) if key else path
        raise ValueError(f"{where}: {message}") from None


def load_config(path) -> ExperimentConfig:
    """Read an experiment config from a plain-text section/key-value file.

    The sections and keys are those of CONFIG_SCHEMA, all optional, with
    the defaults of ExperimentConfig; [run] combos sets its combinations.
    Unknown names and bad values raise ValueError naming the file (config_refusal).
    """
    lines = {}
    values = {section: {} for section in CONFIG_SCHEMA} | read_ini(path, CONFIG_SCHEMA, lines)
    with config_refusal(path, lines, "loss"):
        loss = LossSpec(**{"family": "cce", **values["loss"]})
    with config_refusal(path, lines, "train"):
        train = TrainConfig(loss=loss, **values["train"])
    sources, run = values["sources"], values["run"]
    if "weak" in sources:
        sources["weak_sources"] = sources.pop("weak")
    if "combos" in run:
        run["combinations"] = run.pop("combos")
    with config_refusal(path, lines):
        return ExperimentConfig(**values["dataset"], **sources, **run, train=train)
