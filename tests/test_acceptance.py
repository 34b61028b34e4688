"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavy criteria (7 and 8) share one set of training
runs through a session fixture, which runs them in a process pool.

Criterion 3 note: the boundary constants are the integral constants c that
anchor the ODE curve tau(s) = s / log(delta K s - c) at tau_max at the
similarity extremes. Solving tau(-1) = tau_max gives
c_minus = -delta K - exp(-1/tau_max); solving tau(+1) = tau_max gives
c_plus = +delta K - exp(1/tau_max). The criterion checks both formulas and
then that each constant reproduces tau_max at its endpoint through the curve.
Criterion 2 does not sample between these two anchors: the Proposition 1
verifier samples the interval of `family_bounds`, which is unchanged by the
anchor formula.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import random_batch, reference_grad_dz, reference_ntxent

from dystress import encoder as enc
from dystress import harness, synthetic
from dystress.cli import EXIT_OK, main
from dystress.geometry import EmbeddingBatch, l2_normalize
from dystress.loss import LossMode, grad_wrt_embeddings, loss_on_embeddings
from dystress.metrics import (
    alignment,
    interclass_uniformity,
    knn_probe,
    tolerance,
    uniformity,
)
from dystress.geometry import PairKind
from dystress.numeric import Rng, finite_difference_grad, max_relative_error
from dystress.temperature import (
    OdeParams,
    TemperatureProfile,
    boundary_constants,
    ode_curve,
)

COSINE_BEST = TemperatureProfile.cosine_vanilla(0.1, 0.2)


def report_pass(number: int, started: float, detail: str) -> None:
    print(f"\n[criterion {number:2d}] PASS ({time.monotonic() - started:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# Shared training runs for criteria 7 and 8
# ---------------------------------------------------------------------------


def _benefit_run(config: harness.ExperimentConfig) -> harness.RunResult:
    return harness.run_experiment(config, overlap_evals=False)


@pytest.fixture(scope="session")
def benefit_runs(tmp_path_factory):
    """Five seeds of the default config under both temperature rules.

    The ten runs go to a fork pool of up to two processes, so each one
    evaluates inline. Each writes its artifacts, which
    `test_benefit_runs_match_a_serial_run` reads back.
    """
    root = tmp_path_factory.mktemp("benefit")
    configs = [
        dataclasses.replace(
            harness.ExperimentConfig(seed=seed), profile=profile, out_dir=root / f"{name}_{seed}"
        )
        for seed in range(5)
        for name, profile in (("cosine", COSINE_BEST), ("constant", TemperatureProfile.constant(0.1)))
    ]
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        results = list(pool.map(_benefit_run, configs))
    return [(seed, results[2 * seed], results[2 * seed + 1]) for seed in range(5)]


def test_benefit_runs_match_a_serial_run(benefit_runs):
    """Each pooled run's first and final evals equal this process's, with no training.

    The initial eval needs only the seed; the final one reads the run's
    checkpoint. Reports and histograms must match bit for bit.
    """
    for _, *runs in benefit_runs:
        for run in runs:
            config = run.config
            root_rng = Rng(config.seed)
            train_set = synthetic.generate(config.synthetic, config.seed)
            test_set = synthetic.generate_eval_split(
                config.synthetic, train_set.class_centers, root_rng.substream("testdata")
            )
            evals = [
                (enc.init_params(config.encoder, root_rng.substream("init")),
                 run.reports[0], run.histogram_initial),
                (enc.load_checkpoint(run.out_dir / "checkpoint.json"),
                 run.final_report, run.histogram_final),
            ]
            for params, report, histogram in evals:
                got, got_histogram, _ = harness._eval_state(
                    config, params, train_set, test_set, root_rng, report.epoch, with_histogram=True
                )
                where = f"{config.profile.spec_string()} seed {config.seed} epoch {report.epoch}"
                assert got == report, where
                assert np.array_equal(got_histogram.bin_edges, histogram.bin_edges), where
                assert got_histogram.counts.keys() == histogram.counts.keys(), where
                for kind, counts in histogram.counts.items():
                    assert np.array_equal(got_histogram.counts[kind], counts), where


def binned_mean(hist, kind) -> float:
    centers = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    counts = hist.counts[kind]
    return float(np.sum(centers * counts) / np.sum(counts))


def support(hist, kind):
    nonzero = np.flatnonzero(hist.counts[kind])
    return hist.bin_edges[nonzero[0]], hist.bin_edges[nonzero[-1] + 1]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c01_temperature_endpoints():
    started = time.monotonic()
    profile = TemperatureProfile.cosine_vanilla(0.1, 0.2)
    assert abs(profile.tau(-1.0) - 0.2) < 1e-12
    assert abs(profile.tau(1.0) - 0.2) < 1e-12
    assert abs(profile.tau(0.0) - 0.1) < 1e-12
    report_pass(1, started, "cosine profile hits tau_max at s = +-1 and tau_min at s = 0")


def test_c02_proposition1_slope_signs(tmp_path):
    started = time.monotonic()
    out = tmp_path / "ode.csv"
    code = main(
        [
            "ode-verify",
            "--delta", "0.5", "1", "2",
            "--bigk", "5", "10", "50",
            "--tau-max", "0.2",
            "--c-count", "8",
            "--s-count", "2001",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,bigk,c,frac_correct_sign,valid_points"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == 3 * 3 * 8
    for delta, bigk, c, frac, valid in cells:
        assert float(frac) == 1.0, f"cell ({delta}, {bigk}, {c}) fraction {frac}"
        assert int(valid) > 0
    report_pass(2, started, "sign(dtau/ds) == sign(s) in all 72 (delta, K, c) cells")


def test_c03_boundary_constants_reproduce_tau_max():
    started = time.monotonic()
    delta, big_k, tau_max = 1.0, 10.0, 0.2
    c_minus, c_plus = boundary_constants(delta, big_k, tau_max)
    assert abs(c_minus - (-delta * big_k - math.exp(-1.0 / tau_max))) < 1e-12
    assert abs(c_plus - (delta * big_k - math.exp(1.0 / tau_max))) < 1e-12

    curve_minus = ode_curve(OdeParams(delta, big_k, tau_max, c_minus), [-1.0])
    assert abs(curve_minus.tau[0] - tau_max) < 1e-10, "c_minus must anchor tau(-1) = tau_max"

    curve_plus = ode_curve(OdeParams(delta, big_k, tau_max, c_plus), [1.0])
    assert abs(curve_plus.tau[0] - tau_max) < 1e-10, (
        "c_plus must anchor tau(+1) = tau_max: 1 / log(delta*K - c_plus) = tau_max "
        "solves to c_plus = delta*K - exp(1/tau_max) "
        f"(got tau(+1) = {float(curve_plus.tau[0])!r})"
    )
    report_pass(3, started, "both boundary constants reproduce tau_max at their endpoint")


def test_c04_gradient_fidelity():
    started = time.monotonic()
    rng = Rng(404)
    worst = {"detached": 0.0, "coupled": 0.0, "end_to_end": 0.0}

    for trial in range(100):
        n = 2 + trial % 7          # 2..8
        d = 2 + (trial * 3) % 15   # 2..16
        batch = random_batch(rng, n, d)
        z = batch.stacked()

        bundle = grad_wrt_embeddings(z, COSINE_BEST, LossMode.DETACHED)
        fd = finite_difference_grad(
            lambda flat: loss_on_embeddings(flat.reshape(z.shape), COSINE_BEST, frozen_at=z),
            z.ravel(),
        ).reshape(z.shape)
        worst["detached"] = max(worst["detached"], max_relative_error(bundle.dL_dz, fd))

        bundle_c = grad_wrt_embeddings(z, COSINE_BEST, LossMode.COUPLED)
        fd_c = finite_difference_grad(
            lambda flat: loss_on_embeddings(flat.reshape(z.shape), COSINE_BEST),
            z.ravel(),
        ).reshape(z.shape)
        worst["coupled"] = max(worst["coupled"], max_relative_error(bundle_c.dL_dz, fd_c))

    spec = enc.EncoderSpec((3, 8, 4), "tanh")
    for trial in range(100):
        params = enc.init_params(spec, rng.substream("e2e", index=trial))
        x = rng.normal((8, 3))
        zed, cache = enc.encode(params, x)
        bundle = grad_wrt_embeddings(zed, COSINE_BEST, LossMode.DETACHED)
        grad = enc.backward(params, cache, bundle.dL_dz)

        def f(vec):
            zz, _ = enc.encode(enc.EncoderParams(spec, vec), x)
            return loss_on_embeddings(zz, COSINE_BEST, frozen_at=zed)

        fd = finite_difference_grad(f, params.flat)
        worst["end_to_end"] = max(worst["end_to_end"], max_relative_error(grad, fd))

    for name, value in worst.items():
        assert value < 1e-4, f"{name} gradient error {value:.3e}"
    report_pass(
        4,
        started,
        "max relative errors: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (threshold 1e-4, 100 batches each)",
    )


def test_c05_ntxent_equivalence():
    started = time.monotonic()
    rng = Rng(505)
    tau = 0.1
    constant = TemperatureProfile.constant(tau)
    worst_loss, worst_grad = 0.0, 0.0
    for trial in range(50):
        n = 2 + trial % 7
        d = 4 + trial % 13
        batch = random_batch(rng, n, d)
        bundle = grad_wrt_embeddings(batch.stacked(), constant)
        ref_loss = reference_ntxent(batch.view_a, batch.view_b, tau)
        ref_grad = reference_grad_dz(batch.view_a, batch.view_b, tau)
        worst_loss = max(worst_loss, abs(bundle.loss - ref_loss))
        worst_grad = max(worst_grad, float(np.max(np.abs(bundle.dL_dz - ref_grad))))
    assert worst_loss < 1e-10
    assert worst_grad < 1e-10
    report_pass(
        5, started, f"constant profile matches scalar NT-Xent: loss diff {worst_loss:.2e}, "
        f"grad diff {worst_grad:.2e} over 50 batches"
    )


def test_c06_metric_closed_forms_and_rotation_invariance():
    started = time.monotonic()
    antipodal = np.array([[1.0, 0.0], [-1.0, 0.0]])
    orthogonal = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(uniformity(antipodal) - (-8.0)) < 1e-12
    assert abs(uniformity(orthogonal) - (-4.0)) < 1e-12
    va = l2_normalize(Rng(6).normal((5, 4)))
    identical = EmbeddingBatch(va, va.copy(), [f"s{i}" for i in range(5)])
    assert abs(alignment(identical)) < 1e-12

    rng = Rng(66)
    n = 20
    batch = random_batch(rng, n, 6, labels=np.arange(n) % 4)
    q, _ = np.linalg.qr(rng.normal((6, 6)))
    rot = EmbeddingBatch(
        batch.view_a @ q.T, batch.view_b @ q.T, batch.sample_ids, labels=batch.labels
    )
    pairs = [
        (uniformity(batch.view_a), uniformity(rot.view_a)),
        (alignment(batch), alignment(rot)),
        (tolerance(batch.view_a, batch.labels), tolerance(rot.view_a, rot.labels)),
        (
            interclass_uniformity(batch.view_a, batch.labels),
            interclass_uniformity(rot.view_a, rot.labels),
        ),
        (
            knn_probe(batch.view_a, batch.labels, batch.view_b, batch.labels, k=5),
            knn_probe(rot.view_a, rot.labels, rot.view_b, rot.labels, k=5),
        ),
    ]
    for before, after in pairs:
        assert abs(before - after) < 1e-10
    report_pass(6, started, "closed forms exact; all five metrics rotation invariant")


def test_c07_directional_benefit(benefit_runs):
    started = time.monotonic()
    icu_wins, knn_wins = 0, 0
    details = []
    for seed, dyn, const in benefit_runs:
        icu_win = dyn.final_report.interclass_uniformity < const.final_report.interclass_uniformity
        knn_win = dyn.final_report.knn_top1 >= const.final_report.knn_top1
        icu_wins += icu_win
        knn_wins += knn_win
        details.append(
            f"seed {seed}: icu {dyn.final_report.interclass_uniformity:.4f} vs "
            f"{const.final_report.interclass_uniformity:.4f}, knn "
            f"{dyn.final_report.knn_top1:.3f} vs {const.final_report.knn_top1:.3f}"
        )
    assert icu_wins >= 3, "\n".join(details)
    assert knn_wins >= 3, "\n".join(details)
    report_pass(
        7,
        started,
        f"cosine profile beats constant tau on interclass uniformity {icu_wins}/5 "
        f"and ties-or-beats kNN {knn_wins}/5 seeds",
    )


def test_c08_histogram_evolution(benefit_runs):
    started = time.monotonic()
    for seed, dyn, const in benefit_runs:
        for name, run in (("cosine", dyn), ("constant", const)):
            h0, hf = run.histogram_initial, run.histogram_final
            where = f"seed {seed} ({name})"
            # epoch 0: the three similarity populations overlap
            lo_tp, hi_tp = support(h0, PairKind.TRUE_POSITIVE)
            lo_fn, hi_fn = support(h0, PairKind.FALSE_NEGATIVE)
            lo_tn, hi_tn = support(h0, PairKind.TRUE_NEGATIVE)
            assert max(lo_tp, lo_fn) < min(hi_tp, hi_fn), f"{where}: TP/FN supports disjoint"
            assert max(lo_tp, lo_tn) < min(hi_tp, hi_tn), f"{where}: TP/TN supports disjoint"
            assert max(lo_fn, lo_tn) < min(hi_fn, hi_tn), f"{where}: FN/TN supports disjoint"
            # after training the positives concentrate upward
            tp_before = binned_mean(h0, PairKind.TRUE_POSITIVE)
            tp_after = binned_mean(hf, PairKind.TRUE_POSITIVE)
            tn_after = binned_mean(hf, PairKind.TRUE_NEGATIVE)
            assert tp_after > tp_before, f"{where}: TP mean did not increase"
            assert tp_after > tn_after, f"{where}: TP mean below TN mean"
    report_pass(8, started, "supports overlap at epoch 0; TP similarity rises above TN, all seeds")


SWEEP_BASE = {
    "config_version": 1,
    "seed": 0,
    "synthetic": {
        "num_classes": 6,
        "samples_per_class": 30,
        "ambient_dim": 16,
        "intra_class_sigma": 0.2,
        "augment_sigma": 0.15,
    },
    "encoder": {"layer_widths": [16, 32, 8]},
    "batch_size": 64,
    "epochs": 30,
    "eval_every": 10,
    "knn_k": 5,
}


def _run_sweep_cli(tmp_path, name, profiles):
    sweep_config = {
        "config_version": 1,
        "base": SWEEP_BASE,
        "overrides": {"profiles": profiles},
    }
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(sweep_config))
    out_dir = tmp_path / name
    code = main(["sweep", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "config_index", "profile", "lr", "seed", "status",
        "epoch", "loss", "uniformity", "alignment", "tolerance",
        "interclass_uniformity", "knn_top1",
    ]
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert len(row) == len(header)
        assert row[4] == "ok", f"failed run: {row}"
        float(row[6])  # loss parses
        assert 0.0 <= float(row[11]) <= 1.0
    groups = sorted({row[1] for row in rows})
    eval_epochs = sorted({int(row[5]) for row in rows})
    assert eval_epochs == [0, 10, 20, 30]
    return groups, rows


def test_c09_ablation_sweep_grids(tmp_path):
    started = time.monotonic()
    temp_range_profiles = [
        {"variant": "cosine_vanilla", "tau_min": lo, "tau_max": hi}
        for lo, hi in [(0.07, 0.1), (0.07, 0.5), (0.07, 0.2), (0.1, 0.2)]
    ]
    groups, rows = _run_sweep_cli(tmp_path, "temp_range", temp_range_profiles)
    assert len(groups) == 4
    assert len(rows) == 4 * 4

    shift_profiles = [
        {"variant": "cosine_shifted", "tau_min": 0.1, "tau_max": 0.2, "shift": s, "scale": k}
        for s, k in [(0.0, 0.5), (0.2, 0.6), (0.4, 0.7), (-0.2, 0.6), (-0.4, 0.7)]
    ]
    groups, rows = _run_sweep_cli(tmp_path, "shift_scale", shift_profiles)
    assert len(groups) == 5
    assert len(rows) == 5 * 4
    report_pass(
        9, started, "temperature-range (4 rows) and shift/scale (5 rows) sweep grids "
        "complete with schema-valid CSVs and zero failed runs"
    )


def test_c10_determinism_byte_identical(tmp_path):
    started = time.monotonic()
    raw = json.loads(json.dumps(SWEEP_BASE))
    raw["epochs"] = 10
    raw["eval_every"] = 5
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "r1")]) == EXIT_OK
    assert main(["simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "r2")]) == EXIT_OK
    b1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
    b2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
    assert b1 == b2
    report_pass(10, started, "repeated run reproduces metrics.csv byte for byte")
