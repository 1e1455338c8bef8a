"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). The heavyweight experiment
fixtures are session-scoped and shared between criteria."""

import time
from pathlib import Path

import numpy as np
import pytest

from weaklab.correction import (corrected_loss, forward_correct, l1_discrepancy,
                                optimized_classes, softmax, weight_proposed)
from weaklab.datagen import Dataset, build_multisource, corruption_report, generate_blobs
from weaklab.estimation import estimate_per_source, train_baseline
from weaklab.harness import (ExperimentConfig, WeakSource, load_config, overall_accuracy,
                             run_experiment, write_run_dir)
from weaklab.labelspace import (SourceSpec, TemplateKind, balanced_error_rate,
                                identity_matrix, make_template, mean_row_entropy,
                                satisfies_diagonal_dominance)
from weaklab.losses import LossSpec, loss_value
from weaklab.model import (BatchBuffers, TrainConfig, backward_batch, batch_weighting,
                           class_major, forward_batch, init_parameters)

from conftest import (SPECS, fd_score_gradient, kernel_weighting, per_parameter_fd,
                      random_case, random_row_stochastic, scores_of)

MIXED = TemplateKind.MIXED_CLASS_DEPENDENT
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _result(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_oracle_suite():
    # the kernels that train (batch_weighting, forward_batch, backward_batch),
    # each called on one sample with the preallocated buffers that train
    # gives them (one set per shape, reused across cases), against finite
    # differences of corrected_loss
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    buffers = {}

    def buf(c, hidden):
        if (c, hidden) not in buffers:
            buffers[c, hidden] = BatchBuffers(1, c, hidden)
        return buffers[c, hidden]

    worst_weight = 0.0
    for _ in range(1000):
        spec, t, k, h = random_case(rng)
        analytic = batch_weighting(softmax(h)[:, None], t[:, k][:, None], spec, 1.0,
                                   buf(len(h), 0))[:, 0]
        numeric = fd_score_gradient(lambda hh: corrected_loss(spec, t, k, softmax(hh)), h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_weight = max(worst_weight, rel)

    worst_backward = 0.0
    for case in range(200):
        spec, t, k, h_unused = random_case(rng)
        d, c = 5, t.shape[0]
        hidden = 0 if case % 2 == 0 else 6
        params = init_parameters(d, c, hidden, rng)
        x = rng.standard_normal(d)
        xb = class_major(x[None, :])
        scores = forward_batch(params.layers, xb, buf(c, hidden))
        u = softmax(scores[:, 0])
        if float(forward_correct(t, u)[k]) < 1e-3 or u[k] < 1e-3:
            continue
        if case % 4 < 2:
            column = t[:, k]
            scalar = lambda p: corrected_loss(spec, t, k, softmax(scores_of(p, x)))
        else:
            column = np.eye(c)[k]
            scalar = lambda p: loss_value(spec, softmax(scores_of(p, x))[k])
        omega = batch_weighting(u[:, None], column[:, None], spec, 1.0, buf(c, hidden))
        grads = params.zeros_like()
        backward_batch(params.layers, xb.T, omega, grads.layers, buf(c, hidden))
        exact = grads.flat
        numeric = per_parameter_fd(params, scalar)
        rel = np.linalg.norm(exact - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_backward = max(worst_backward, rel)

    elapsed = time.perf_counter() - start
    ok = worst_weight <= 1e-6 and worst_backward <= 1e-5 and elapsed < 10.0
    _result(1, ok, f"weight fd err {worst_weight:.2e} (<=1e-6), backward fd err "
                   f"{worst_backward:.2e} (<=1e-5), runtime {elapsed:.1f}s (<10s)")


def test_criterion_2_reduction_identity():
    # the training kernel with the one-hot column e^k against the
    # chain-rule reference with the identity matrix
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        spec = SPECS[rng.integers(len(SPECS))]
        c = int(rng.choice([2, 5, 10]))
        u = softmax(rng.standard_normal(c))
        k = int(rng.integers(c))
        wp = weight_proposed(spec, np.eye(c), k, u)
        ws = kernel_weighting(spec, np.eye(c)[k], u)
        worst = max(worst, float(np.abs(wp - ws).max()))
    _result(2, worst <= 1e-12, f"identity-matrix reduction max diff {worst:.2e} (<=1e-12)")


def test_criterion_3_closed_form_equals_chain_rule():
    # the training kernel with column T[:, k] against the chain-rule
    # reference, for generalized cross entropy
    rng = np.random.default_rng(103)
    spec = LossSpec("gce", q=0.7)
    worst = 0.0
    for _ in range(10_000):
        _, t, k, h = random_case(rng, specs=[spec])
        u = softmax(h)
        chain = weight_proposed(spec, t, k, u)
        closed = kernel_weighting(spec, t[:, k], u)
        worst = max(worst, float(np.abs(chain - closed).max()))
    _result(3, worst <= 1e-12, f"closed form vs chain rule max diff {worst:.2e} (<=1e-12)")


def test_criterion_4_sign_law():
    rng = np.random.default_rng(104)
    spec = LossSpec("gce", q=0.7)
    checked = 0
    ok = True
    while checked < 10_000:
        _, t, k, h = random_case(rng, specs=[spec])
        u = softmax(h)
        ut = float(forward_correct(t, u)[k])
        # boundary cases (exact zeros / ties) are excluded by resampling
        if np.abs(t[:, k] - ut).min() < 1e-9 or np.any(u <= 0.0) or u.max() >= 1 - 1e-8:
            continue
        w = weight_proposed(spec, t, k, u)
        if np.any(w == 0.0):
            continue
        negative = {j for j in range(len(u)) if w[j] < 0.0}
        opt = optimized_classes(t, k, u)
        if negative != opt:
            ok = False
            break
        if int(t[:, k].argmax()) not in opt or int(t[:, k].argmin()) in opt:
            ok = False
            break
        checked += 1
    _result(4, ok and checked == 10_000,
            f"sign law and argmax/argmin membership held on {checked} cases")


def test_criterion_5_l1_bound():
    rng = np.random.default_rng(105)
    in_bounds = True
    realized_max = 0.0
    for _ in range(100_000):
        c = int(rng.choice([2, 5, 10]))
        t = random_row_stochastic(rng, c)
        u = softmax(rng.standard_normal(c) * rng.uniform(0.5, 20.0))
        k = int(rng.integers(c))
        val = l1_discrepancy(t, k, u)
        realized_max = max(realized_max, val)
        if not 0.0 <= val <= 2.0:
            in_bounds = False
            break
    # the extreme: confident prediction on a class the column rules out
    t = np.array([[0.0, 0.5, 0.5, 0.0],
                  [0.25, 0.25, 0.25, 0.25],
                  [0.25, 0.25, 0.25, 0.25],
                  [0.25, 0.25, 0.25, 0.25]])
    h = np.zeros(4)
    h[0] = 30.0
    extreme = l1_discrepancy(t, 0, softmax(h))
    ok = in_bounds and extreme >= 1.99
    _result(5, ok, f"bound held on 1e5 draws (max {realized_max:.4f}), "
                   f"extreme case reached {extreme:.6f} (>=1.99)")


def test_criterion_6_template_diagnostics():
    thresholds = {MIXED: 0.4, TemplateKind.UNIFORM: 0.9,
                  TemplateKind.LAND_COVER_CHANGE: 0.3,
                  TemplateKind.INTERCLASS_SIMILARITY: 0.5}
    limits = {MIXED: 0.8, TemplateKind.UNIFORM: 1.0,
              TemplateKind.LAND_COVER_CHANGE: 0.6,
              TemplateKind.INTERCLASS_SIMILARITY: 1.0}
    ber_ok = True
    for kind, limit in limits.items():
        for frac in np.linspace(0.0, 0.99, 34):
            eta = float(frac * limit)
            if abs(balanced_error_rate(make_template(kind, 10, eta)) - eta) > 1e-12:
                ber_ok = False
    dom_ok = all(satisfies_diagonal_dominance(make_template(kind, 10, thr - 1e-9))
                 and not satisfies_diagonal_dominance(make_template(kind, 10, thr))
                 for kind, thr in thresholds.items())
    ent_ok = all(mean_row_entropy(make_template(TemplateKind.UNIFORM, 10, eta))
                 > mean_row_entropy(make_template(MIXED, 10, eta))
                 for eta in (0.1, 0.2, 0.3, 0.4, 0.5))
    ok = ber_ok and dom_ok and ent_ok
    _result(6, ok, f"balanced error rate exact {ber_ok}, dominance thresholds "
                   f"{{0.4, 0.9, 0.3, 0.5}} exact {dom_ok}, uniform entropy dominates {ent_ok}")


def test_criterion_7_generator_fidelity():
    blobs = generate_blobs(10, 16, 2600, 0.30, np.random.default_rng(0))
    t = make_template(MIXED, 10, 0.3)
    specs = [SourceSpec(0, identity_matrix(10), 500), SourceSpec(1, t, 20_000)]
    ms, test = build_multisource(blobs, specs, 0)

    report = corruption_report(ms, blobs)
    max_dev = float(np.abs(report[1] - t.entries).max())

    lookup = {blobs.features[i].tobytes(): blobs.labels[i] for i in range(len(blobs))}
    blk = ms.block(1)
    true = np.array([lookup[blk.features[i].tobytes()] for i in range(len(blk))])
    flip_frac = float(np.mean(true != blk.labels))

    train_bytes = {b.features[i].tobytes() for b in ms.sources for i in range(len(b))}
    test_bytes = {test.features[i].tobytes() for i in range(len(test))}
    disjoint = not (train_bytes & test_bytes)
    test_exact = len(test) == int(0.2 * len(blobs)) == 5200

    ok = max_dev <= 0.03 and abs(flip_frac - 0.3) <= 0.02 and disjoint and test_exact
    _result(7, ok, f"flip-matrix max dev {max_dev:.4f} (<=0.03), corruption "
                   f"{flip_frac:.4f} (0.3+-0.02), disjoint {disjoint}, m_test exact {test_exact}")


def test_criterion_8_estimation_fidelity():
    blobs = generate_blobs(10, 16, 2600, 0.30, np.random.default_rng(0))

    # oracle baseline: nearest-mean classifier built from the true means
    from weaklab.model import ModelParameters
    oracle_blobs = generate_blobs(10, 16, 2600, 0.1, np.random.default_rng(0))
    oracle = ModelParameters([oracle_blobs.means.copy()], [np.zeros(10)])
    t03 = make_template(MIXED, 10, 0.3)
    specs = [SourceSpec(0, identity_matrix(10), 500), SourceSpec(1, t03, 20_000)]
    ms_oracle, _ = build_multisource(oracle_blobs, specs, 0)
    est = estimate_per_source(oracle, ms_oracle)[1]
    recovery_err = float(np.abs(est.entries - t03.entries).max())

    # degraded baseline: capped training, held-out accuracy ~0.65
    argmax_ok = True
    degraded_oa = None
    for eta in (0.2, 0.4):
        t = make_template(MIXED, 10, eta)
        ms, test = build_multisource(
            blobs, [SourceSpec(0, identity_matrix(10), 500), SourceSpec(1, t, 20_000)], 0)
        blk = ms.block(0)
        clean = Dataset(blk.features, blk.labels, 10)
        degraded = train_baseline(
            clean, TrainConfig(epochs=2, batch_size=24, learning_rate=0.03, seed=0))
        degraded_oa = overall_accuracy(degraded, test)
        est_deg = estimate_per_source(degraded, ms)[1]
        for k in range(10):
            col = t.entries[:, k]
            max_set = set(np.flatnonzero(col >= col.max() - 1e-12))
            if int(est_deg.entries[:, k].argmax()) not in max_set:
                argmax_ok = False

    ok = recovery_err <= 0.03 and 0.55 <= degraded_oa <= 0.75 and argmax_ok
    _result(8, ok, f"oracle recovery max err {recovery_err:.4f} (<=0.03), degraded "
                   f"baseline OA {degraded_oa:.4f} (~0.65), column argmaxes preserved {argmax_ok}")


ETAS = (0.1, 0.2, 0.3, 0.4, 0.5)  # the sweep's error rates


@pytest.fixture(scope="session")
def sweep():
    """The shipped headline study, configs/single_source_sweep.ini: single
    weak source, 9x the clean set, class-dependent template, eta in
    {0.1..0.5}, three seeds."""
    config = load_config(CONFIGS / "single_source_sweep.ini")
    start = time.perf_counter()
    report = run_experiment(config)
    return report, time.perf_counter() - start


def _trend(baseline, van, prop):
    """Criterion 9's checks (i)-(iii) on an accuracy of the baseline and of
    vanilla and proposed by eta: (i_ok, ii_ok, iii_ok, prop_drop, van_drop)."""
    i_ok = van[0.1] > baseline and prop[0.1] > baseline
    ii_ok = (van[0.5] < baseline
             and abs(prop[0.5] - prop[0.1]) <= 0.03
             and prop[0.5] - van[0.5] >= 0.10)
    # "non-increasing by at most 5 points total": the decline from the
    # eta=0.1 level is capped at 5 points everywhere on the grid
    prop_drop = max(prop[0.1] - prop[eta] for eta in prop)
    van_drop = van[0.1] - van[0.5]
    iii_ok = prop_drop <= 0.05 and (max(prop.values()) - min(prop.values())) <= 0.05 \
        and van_drop >= 0.15
    return i_ok, ii_ok, iii_ok, prop_drop, van_drop


def test_criterion_9_error_rate_trend(sweep):
    report, elapsed = sweep
    baseline = report.row("baseline", "cce").mean_oa
    van = {eta: report.row("vanilla", "cce", eta).mean_oa for eta in ETAS}
    prop = {eta: report.row("proposed", "cce", eta).mean_oa for eta in ETAS}
    i_ok, ii_ok, iii_ok, prop_drop, van_drop = _trend(baseline, van, prop)
    time_ok = elapsed < 300.0

    ok = i_ok and ii_ok and iii_ok and time_ok
    _result(9, ok, f"(i) beat baseline at 0.1 {i_ok}; (ii) vanilla collapse/proposed "
                   f"stable {ii_ok} (van {van[0.5]:.3f} vs base {baseline:.3f}, gap "
                   f"{prop[0.5] - van[0.5]:.3f}); (iii) drops prop {prop_drop * 100:.1f}pt "
                   f"van {van_drop * 100:.1f}pt {iii_ok}; runtime {elapsed:.0f}s (<300s)")


@pytest.fixture(scope="session")
def ablation():
    """Proposed-GCE at eta 0.3 with and without the clean source in training."""
    base = dict(etas=[0.3], combinations=[("proposed", "gce")])
    with_clean = run_experiment(ExperimentConfig(**base))
    without_clean = run_experiment(ExperimentConfig(**base, use_clean_in_training=False))
    return with_clean, without_clean


def test_criterion_10_strategy_orderings(sweep, ablation):
    report, _ = sweep
    van = report.row("vanilla", "cce", 0.5).mean_oa
    fwd = report.row("forward", "cce", 0.5).mean_oa
    prop = report.row("proposed", "cce", 0.5).mean_oa
    forward_ok = van < fwd < prop

    with_clean, without_clean = ablation
    w = with_clean.row("proposed", "gce", 0.3).mean_oa
    wo = without_clean.row("proposed", "gce", 0.3).mean_oa
    ablation_ok = wo < w

    ok = forward_ok and ablation_ok
    _result(10, ok, f"eta=0.5 ordering vanilla {van:.3f} < forward {fwd:.3f} < proposed "
                    f"{prop:.3f}: {forward_ok}; clean-source ablation {wo:.3f} < {w:.3f}: {ablation_ok}")


def test_orderings_hold_on_every_seed(sweep):
    # within a seed every model sees the same test split, initial parameters
    # and batch order, so strategies compare seed by seed on their best
    # accuracy: proposed beats the baseline at every eta, and at eta 0.5
    # vanilla < forward < proposed
    report, _ = sweep

    def best(strategy, eta=None):
        """seed -> the row's best test accuracy"""
        return {cell.seed: cell.best_oa for cell in report.row(strategy, "cce", eta).per_seed}

    baseline = best("baseline")
    van, fwd, prop = (best(s, 0.5) for s in ("vanilla", "forward", "proposed"))
    gaps = {"proposed - baseline, every eta": min(best("proposed", eta)[seed] - baseline[seed]
                                                  for eta in ETAS for seed in baseline),
            "forward - vanilla, eta 0.5": min(fwd[seed] - van[seed] for seed in baseline),
            "proposed - forward, eta 0.5": min(prop[seed] - fwd[seed] for seed in baseline)}
    ok = all(gap > 0 for gap in gaps.values())
    _result("10 per seed", ok, "smallest gap over seeds: " + "; ".join(
        f"{name} {gap:+.3f}" for name, gap in gaps.items()))


def test_orderings_hold_on_final_epoch_accuracy(sweep, ablation):
    # best_oa picks each model's epoch by its test accuracy, which flatters
    # a model that peaks early and then memorises its noise (vanilla at eta
    # 0.5 most); criteria 9-10's orderings must hold without that choice
    report, _ = sweep
    with_clean, without_clean = ablation

    def final(run, strategy, family, eta=None):
        """seed -> the row's test accuracy after the last epoch"""
        return {cell.seed: cell.curve[-1][1] for cell in run.row(strategy, family, eta).per_seed}

    baseline = final(report, "baseline", "cce")
    van, fwd, prop = (final(report, s, "cce", 0.5) for s in ("vanilla", "forward", "proposed"))
    w, wo = final(with_clean, "proposed", "gce", 0.3), final(without_clean, "proposed", "gce", 0.3)
    for seed in baseline:
        assert van[seed] < fwd[seed] < prop[seed] and prop[seed] > baseline[seed], (
            f"seed {seed} at eta 0.5: vanilla {van[seed]:.3f} < forward {fwd[seed]:.3f} < "
            f"proposed {prop[seed]:.3f}, proposed > baseline {baseline[seed]:.3f}")
    for seed in w:
        assert wo[seed] < w[seed], f"seed {seed}: ablation {wo[seed]:.3f} < {w[seed]:.3f}"

    def mean(oas):
        return float(np.mean(list(oas.values())))
    van_mean = {eta: mean(final(report, "vanilla", "cce", eta)) for eta in ETAS}
    prop_mean = {eta: mean(final(report, "proposed", "cce", eta)) for eta in ETAS}
    i_ok, ii_ok, iii_ok, prop_drop, van_drop = _trend(mean(baseline), van_mean, prop_mean)
    assert i_ok and ii_ok and iii_ok, (
        f"criterion 9 on final-epoch means: (i) {i_ok} (ii) {ii_ok} (iii) {iii_ok}; baseline "
        f"{mean(baseline):.3f}, vanilla {van_mean}, proposed {prop_mean}, drops prop "
        f"{prop_drop * 100:.1f}pt van {van_drop * 100:.1f}pt")


def test_criterion_11_byte_identical_reports(tmp_path):
    config = ExperimentConfig(
        n_per_class=150, clean_count=100,
        weak_sources=[WeakSource(MIXED, 9.0)], etas=[0.2, 0.5], seeds=[0],
        combinations=[("vanilla", "cce"), ("proposed", "cce")],
        train=TrainConfig(epochs=8))
    names = ("report.csv", "curves.csv", "estimates.csv")
    files = []
    for run in ("first", "second"):
        write_run_dir(run_experiment(config), tmp_path / run)
        files.append([(tmp_path / run / name).read_bytes() for name in names])
    ok = files[0] == files[1]
    _result(11, ok, f"repeated run {', '.join(names)} byte-identical: {ok}")
