"""Command-line entry points.

Subcommands: `run` executes a configured experiment sweep and writes the
run directory; `gen-template` prints a template transition matrix;
`validate-gradients` checks the closed-form weighting vectors against
finite differences on random cases; `corrupt` rewrites a clean dataset
file as a multisource weak-labelled one, and can write its test split.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys

import numpy as np

from . import correction, datagen, harness, labelspace
from .labelspace import TemplateKind, make_template
from .losses import LossSpec


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    harness.check_out_dir(args.out)  # before training, not after
    report = harness.run_experiment(config)
    harness.write_run_dir(report, args.out)
    width = max(len(row.strategy) for row in report.rows)
    for row in report.rows:
        eta = "-" if row.eta is None else f"{row.eta:g}"
        mean = "failed" if row.mean_oa is None else f"{row.mean_oa:.4f}"
        std = "" if row.std_oa is None else f" ({row.std_oa:.4f})"
        print(f"{row.strategy:{width}s} {row.loss_family:4s} eta={eta:4s} best OA {mean}{std}")
    print(f"report written to {args.out}")
    return 0


def _cmd_gen_template(args) -> int:
    kind = TemplateKind(args.kind)
    matrix = make_template(kind, args.classes, args.eta)
    if args.out:
        labelspace.save_matrix(args.out, matrix)
    else:
        sys.stdout.write(labelspace.format_matrix(matrix))
    return 0


# Central differences with step 1e-6 carry round-off of up to about 1e-9
# absolute per component (machine epsilon times the loss over the step),
# so a gradient norm smaller than this floor would turn that round-off into
# a relative error above the default tolerance; the error is measured
# relative to max(norm, floor) instead.
GRADIENT_NORM_FLOOR = 1e-2
_SIZES = np.array([2, 5, 10])  # _SIZES[rng.integers(3)] draws what rng.choice([2, 5, 10]) did


def _random_stochastic(rng, c):
    m = rng.random((c, c)) + 1e-3
    return m / m.sum(axis=1, keepdims=True)


def _cmd_validate_gradients(args) -> int:
    """Compare weight_proposed with central finite differences of the
    corrected loss through the softmax, across loss families and sizes."""
    rng = np.random.default_rng(args.seed)
    specs = [LossSpec("cce"), LossSpec("mae"), LossSpec("gce", q=0.7), LossSpec("sl")]
    worst = 0.0
    checked = 0
    while checked < args.cases:
        spec = specs[checked % len(specs)]
        c = int(_SIZES[rng.integers(3)])
        t = _random_stochastic(rng, c)
        h = rng.standard_normal(c)
        k = int(rng.integers(c))
        u = correction.softmax(h)
        if float(correction.forward_correct(t, u)[k]) < 1e-3:
            continue
        analytic = correction.weight_proposed(spec, t, k, u)
        numeric = correction.numerical_score_gradient(spec, t, k, h)
        diff = analytic - numeric  # np.sqrt(v.dot(v)) is np.linalg.norm(v) for a 1-D float v
        rel = np.sqrt(diff.dot(diff)) / max(np.sqrt(numeric.dot(numeric)), GRADIENT_NORM_FLOOR)
        worst = max(worst, rel)
        checked += 1
    ok = worst <= args.tolerance
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {checked} cases, max relative gradient error {worst:.3e} "
          f"(tolerance {args.tolerance:g})")
    return 0 if ok else 1


# section -> key -> parser of a corrupt spec file; anything else is an error
CORRUPT_SPEC_SCHEMA = {"sources": {"clean_count": harness.count, "weak": harness.tokens(
    lambda token: harness.weak_token(token, swept=False))}}


def _parse_corrupt_spec(path):
    lines = {}
    src = harness.read_ini(path, CORRUPT_SPEC_SCHEMA, lines).get("sources")
    if src is None:
        raise ValueError(f"corrupt spec {path}: missing the [sources] section")
    if "clean_count" not in src:
        raise ValueError(f"corrupt spec {path}: missing [sources] clean_count")
    with harness.config_refusal(path, lines):
        return src["clean_count"], harness.weak_tuples(src.get("weak", []), src["clean_count"])


def _same_file(a, b) -> bool:
    """Whether paths a and b name one file, also through `./`, `..` or a
    symlink, or, while either is missing, resolve to one path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one missing or not reachable
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_corrupt(args) -> int:
    # (flag, path, what the file holds): the two inputs, then the outputs in
    # the order written; an output may be none of the files before it, and
    # any other existing file is overwritten
    files = [("--load-dataset", args.load_dataset, "the input"), ("--spec", args.spec, "the spec"),
             ("--emit-dataset", args.emit_dataset, "the corrupted dataset"),
             ("--emit-test", args.emit_test, "the test split")]
    for i, (flag, path, _) in enumerate(files[2:], start=2):
        for other, earlier, lost in files[:i]:
            if path is not None and _same_file(earlier, path):
                raise ValueError(f"{flag} {path} is the {other} file {earlier}; writing it would "
                                 f"replace {lost}")
    clean_count, weak = _parse_corrupt_spec(args.spec)
    ms_in = datagen.load_dataset(args.load_dataset)
    clean = datagen.as_clean_dataset(ms_in)  # input labels are trusted as true
    with labelspace.refused_at(f"{args.spec}: [sources] clean_count, weak with "
                               f"{args.load_dataset}:"):
        specs = datagen.source_specs(ms_in.c, clean_count, weak, len(clean))
    ms, test = datagen.build_multisource(clean, specs, args.seed)
    datagen.save_dataset(args.emit_dataset, ms)
    sizes = ", ".join(f"source {b.source_id}: {len(b)}" for b in ms.sources)
    print(f"wrote {args.emit_dataset} ({sizes})")
    if args.emit_test is not None:
        datagen.save_dataset(args.emit_test, datagen.MultisourceDataset([test], ms.c, ms.d))
        print(f"wrote {args.emit_test} (test split: {len(test)})")
    return 0


def _bounded(kind, op, bound):
    """argparse type: a value of kind with `value op bound`, op ">" or ">="
    (NaN fails both); argparse names the flag in the error."""
    def parse(text):
        value = kind(text)
        if not {">": operator.gt, ">=": operator.ge}[op](value, bound):
            raise argparse.ArgumentTypeError(f"must be {op} {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weaklab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-template", help="print a template transition matrix")
    p_gen.add_argument("--kind", required=True,
                       choices=[k.value for k in TemplateKind])
    p_gen.add_argument("--eta", type=float, required=True)
    p_gen.add_argument("--classes", type=int, default=10)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen_template)

    p_val = sub.add_parser("validate-gradients",
                           help="check closed-form gradient weights against finite differences")
    p_val.add_argument("--cases", type=_bounded(int, ">", 0), default=1000)
    p_val.add_argument("--seed", type=_bounded(int, ">=", 0), default=0)
    p_val.add_argument("--tolerance", type=_bounded(float, ">", 0), default=1e-6)
    p_val.set_defaults(func=_cmd_validate_gradients)

    p_cor = sub.add_parser("corrupt",
                           help="corrupt a clean dataset file into a multisource one")
    p_cor.add_argument("--load-dataset", required=True)
    p_cor.add_argument("--spec", required=True, help="sources spec file")
    p_cor.add_argument("--emit-dataset", required=True)
    p_cor.add_argument("--emit-test", help="also write the test split, with its true labels")
    p_cor.add_argument("--seed", type=_bounded(int, ">=", 0), default=0)
    p_cor.set_defaults(func=_cmd_corrupt)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A bad input file or value, or sizes too large
    to allocate, end it with one `weaklab <command>: <message>` line on
    stderr and exit code 2, the code argparse gives a usage error; 1 is a
    failed gradient check."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"weaklab {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
