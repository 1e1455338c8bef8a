"""Every shipped config loads, and every run config completes one cell
(first seed, first eta, one epoch), so the study configs cannot drift
away from what the loader and the harness accept. Likewise every code
name the README cites exists, so the README cannot drift from the code."""

import builtins
import importlib
import pkgutil
import re
from dataclasses import replace
from pathlib import Path

import pytest

import weaklab
from weaklab.cli import _parse_corrupt_spec
from weaklab.harness import load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
CORRUPT_SPEC = "corrupt_spec.ini"
MODULES = {m.name: importlib.import_module(f"weaklab.{m.name}")
           for m in pkgutil.iter_modules(weaklab.__path__)}
README_NAMES = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())


def test_configs_are_shipped():
    assert {CORRUPT_SPEC, "single_source_sweep.ini", "error_rate_sweep.ini",
            "strategy_comparison.ini", "three_source_comparison.ini",
            "clean_source_ablation_with_clean.ini",
            "clean_source_ablation_without_clean.ini", "estimation_accuracy_full.ini",
            "estimation_accuracy_cap3.ini", "estimation_accuracy_cap2.ini"} <= {
        p.name for p in CONFIGS}


def test_corrupt_spec_loads():
    clean_count, weak = _parse_corrupt_spec(next(p for p in CONFIGS if p.name == CORRUPT_SPEC))
    assert clean_count > 0 and weak


@pytest.mark.parametrize("path", [p for p in CONFIGS if p.name != CORRUPT_SPEC],
                         ids=lambda p: p.stem)
def test_run_config_completes_one_cell(path):
    cfg = load_config(path)
    cfg = replace(cfg, seeds=cfg.seeds[:1], etas=cfg.etas[:1],
                  train=replace(cfg.train, epochs=1))
    report = run_experiment(cfg)
    assert len(report.rows) == 1 + len(cfg.combinations)
    assert all(r.mean_oa is not None for r in report.rows)


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
