"""Every shipped config loads, and every run config completes one cell
(first seed, first eta, one epoch), so the study configs cannot drift
away from what the loader and the harness accept."""

from dataclasses import replace
from pathlib import Path

import pytest

from weaklab.cli import _parse_corrupt_spec
from weaklab.harness import load_config, run_experiment

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
CORRUPT_SPEC = "corrupt_spec.ini"


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
