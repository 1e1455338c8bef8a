"""Every shipped config loads, and every run config writes, at seed 0
and 5 epochs, the run directory whose digests tests/golden/digests.txt
pins, so neither the study configs nor the bytes a sweep writes can
drift unnoticed. Likewise every code name the README cites exists, so
the README cannot drift from the code.

Regenerate the digests, after a change that alters a run directory on
purpose, with `PYTHONPATH=src python tests/test_configs.py`."""

import builtins
import hashlib
import importlib
import pkgutil
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import weaklab
from conftest import LEGACY_TEXT
from weaklab.cli import _parse_corrupt_spec
from weaklab.datagen import load_dataset
from weaklab.harness import load_config, run_experiment, write_run_dir

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
CORRUPT_SPEC = "corrupt_spec.ini"
RUN_CONFIGS = [p for p in CONFIGS if p.name != CORRUPT_SPEC]
GOLDEN = ROOT / "tests" / "golden" / "digests.txt"
MODULES = {m.name: importlib.import_module(f"weaklab.{m.name}")
           for m in pkgutil.iter_modules(weaklab.__path__)}
README = (ROOT / "README.md").read_text()
README_NAMES = re.findall(r"`([^`\n]+)`", README)


def test_configs_are_shipped():
    assert {CORRUPT_SPEC, "single_source_sweep.ini", "error_rate_sweep.ini",
            "strategy_comparison.ini", "three_source_comparison.ini",
            "clean_source_ablation_with_clean.ini",
            "clean_source_ablation_without_clean.ini", "estimation_accuracy_full.ini",
            "estimation_accuracy_cap3.ini", "estimation_accuracy_cap2.ini",
            "estimation_cost.ini"} <= {p.name for p in CONFIGS}


def test_corrupt_spec_loads():
    clean_count, weak = _parse_corrupt_spec(next(p for p in CONFIGS if p.name == CORRUPT_SPEC))
    assert clean_count > 0 and weak


def run_digests(path, out: Path) -> dict:
    """Write the run directory of the config at path, with seeds = 0 and
    epochs = 5, into out; return {"<config>/<file>": sha256} of its
    files, except the .params checkpoints (see the golden test)."""
    cfg = load_config(path)
    report = run_experiment(replace(cfg, seeds=[0], train=replace(cfg.train, epochs=5)))
    write_run_dir(report, out)
    return {f"{path.stem}/{f.relative_to(out).as_posix()}":
            hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file() and f.suffix != ".params"}


def golden_digests() -> dict:
    """{"<config>/<file>": sha256} as tests/golden/digests.txt lists them."""
    return dict(reversed(line.split("  ")) for line in GOLDEN.read_text().splitlines())


def test_golden_digests_name_only_and_every_run_config():
    # the test below reads only the entries of shipped configs, so an entry
    # of a removed or renamed config would otherwise stay unnoticed
    listed = {name.split("/")[0] for name in golden_digests()}
    shipped = {path.stem for path in RUN_CONFIGS}
    assert listed == shipped, (f"digests of no run config {sorted(listed - shipped)}, run "
                               f"configs without digests {sorted(shipped - listed)}")


@pytest.mark.parametrize("path", RUN_CONFIGS, ids=lambda p: p.stem)
def test_run_config_matches_the_golden_digests(path, tmp_path):
    # The .params checkpoints are left out: their last bits depend on the
    # BLAS kernel (under OPENBLAS_CORETYPE=Haswell 608 of the 874 entries of
    # a 60-epoch baseline differed, by at most 4.4e-16), while report.csv,
    # curves.csv, estimates.csv and the T_hat files agreed under every kernel
    # tried. The pinned report.csv also pins its row count and mean_oa.
    want = {name: digest for name, digest in golden_digests().items()
            if name.startswith(f"{path.stem}/")}
    got = run_digests(path, tmp_path / path.stem)
    assert sorted(got) == sorted(want), (f"{path.stem}: files without a digest "
                                         f"{sorted(got.keys() - want.keys())}, digests without "
                                         f"a file {sorted(want.keys() - got.keys())}")
    for name, digest in want.items():
        assert got[name] == digest, f"{name} differs from its golden digest"


def test_readme_dotted_names_resolve():
    # `model.step`, `weaklab.harness.ExperimentConfig`, `weaklab.model`, ...
    checked = 0
    for name in dict.fromkeys(README_NAMES):
        m = re.fullmatch(r"(?:weaklab\.)?(\w+)((?:\.\w+)*)", name)
        if not m or m[1] not in MODULES or (not m[2] and not name.startswith("weaklab.")):
            continue
        target = MODULES[m[1]]
        for attr in m[2].split(".")[1:]:
            assert hasattr(target, attr), f"README cites `{name}`, which does not exist"
            target = getattr(target, attr)
        checked += 1
    assert checked >= 14


def test_readme_camel_case_names_resolve():
    # `TrainConfig`, `BatchBuffers`, `ValueError`, ...
    camel = {name for name in README_NAMES
             if re.fullmatch(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+", name)}
    assert camel
    missing = sorted(name for name in camel if not hasattr(builtins, name)
                     and not any(hasattr(module, name) for module in MODULES.values()))
    assert not missing, f"README cites names that are no weaklab attribute or builtin: {missing}"


def test_readme_dataset_conversion_runs(tmp_path, monkeypatch):
    # the README's snippet is the documented way to bring in a text table
    snippet, = [block for block in re.findall(r"```python\n(.*?)```", README, re.S)
                if "np.loadtxt" in block]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dataset.txt").write_bytes(LEGACY_TEXT)
    exec(snippet, {})
    ms = load_dataset(tmp_path / "dataset.bin")
    # LEGACY_TEXT's rows: source id, label, features; -0.0 keeps its sign bit
    want = {0: ([0, 2], [[0.5, -1.25], [1e-05, 3.0]]), 1: ([1, 0], [[-0.0, 2.5], [7.0, 8.0]])}
    assert (ms.c, ms.d) == (3, 2) and [b.source_id for b in ms.sources] == list(want)
    for block in ms.sources:
        labels, features = want[block.source_id]
        assert block.labels.tolist() == labels
        assert block.features.tobytes() == np.array(features).tobytes()
        assert block.origin.tolist() == [-1, -1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: digest for path in RUN_CONFIGS
                   for name, digest in run_digests(path, Path(tmp) / path.stem).items()}
    GOLDEN.write_text("".join(f"{digest}  {name}\n" for name, digest in digests.items()))
