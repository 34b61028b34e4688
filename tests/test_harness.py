"""Harness tests: config schema, experiment runs, determinism, sweeps."""

import csv
import dataclasses
import json
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from dystress import harness, numeric
from dystress.errors import NumericError, ValidationError
from dystress.harness import (
    ExperimentConfig,
    SWEEP_CSV_HEADER,
    SweepSpec,
    config_from_dict,
    metrics_from_dump,
    run_experiment,
    run_sweep,
    sweep_from_dict,
)
from dystress.loss import LossMode
from dystress.metrics import METRICS_CSV_HEADER
from dystress.temperature import TemperatureProfile

TINY = {
    "config_version": 1,
    "seed": 3,
    "synthetic": {
        "num_classes": 3,
        "samples_per_class": 10,
        "ambient_dim": 8,
        "intra_class_sigma": 0.2,
        "augment_sigma": 0.15,
    },
    "encoder": {"layer_widths": [8, 12, 6]},
    "batch_size": 10,
    "epochs": 4,
    "eval_every": 2,
    "knn_k": 3,
}


DEFAULT_CONFIG_JSON = """{
  "config_version": 1,
  "seed": 0,
  "synthetic": {
    "num_classes": 10,
    "samples_per_class": 100,
    "ambient_dim": 32,
    "intra_class_sigma": 0.2,
    "augment_sigma": 0.15,
    "long_tail_rho": 1.0
  },
  "encoder": {
    "layer_widths": [
      32,
      64,
      16
    ],
    "nonlinearity": "tanh",
    "init_scale": 1.0
  },
  "profile": {
    "variant": "cosine_vanilla",
    "tau_min": 0.1,
    "tau_max": 0.2
  },
  "loss_mode": "detached",
  "optimizer": {
    "lr": 0.06,
    "momentum": 0.9,
    "weight_decay": 0.0005
  },
  "batch_size": 128,
  "epochs": 200,
  "eval_every": 20,
  "knn_k": 20,
  "knn_weight_temperature": 0.07,
  "out_dir": null
}"""


_real_sweep_entry = harness._run_sweep_entry
DYING_INDEX = 1


def _dying_sweep_entry(args):
    """Sweep entry whose worker process dies, as under the OOM killer, for one config."""
    if args[0] == DYING_INDEX:
        os._exit(1)
    return _real_sweep_entry(args)


def tiny_config(**over):
    raw = json.loads(json.dumps(TINY))
    raw.update(over)
    return config_from_dict(raw)


class TestConfigParsing:
    def test_defaults_fill_in(self):
        config = config_from_dict({"config_version": 1})
        assert config.synthetic.num_classes == 10
        assert config.encoder.layer_widths == (32, 64, 16)
        assert config.profile == TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        assert config.optimizer.lr == 0.06
        assert config.loss_mode is LossMode.DETACHED

    def test_defaults_are_the_dataclass_defaults(self):
        assert config_from_dict({"config_version": 1}) == ExperimentConfig()

    def test_default_config_json_golden(self):
        assert json.dumps(ExperimentConfig().to_dict(), indent=2) == DEFAULT_CONFIG_JSON

    def test_seed_override_reaches_the_data(self):
        a = run_experiment(dataclasses.replace(tiny_config(epochs=0), seed=5))
        b = run_experiment(tiny_config(epochs=0, seed=5))
        assert a.final_report == b.final_report

    def test_version_required(self):
        with pytest.raises(ValidationError, match="config_version"):
            config_from_dict({})
        with pytest.raises(ValidationError, match="config_version"):
            config_from_dict({"config_version": 2})

    def test_unknown_top_level_field(self):
        with pytest.raises(ValidationError, match="lerning_rate"):
            config_from_dict({"config_version": 1, "lerning_rate": 0.1})

    def test_unknown_nested_field(self):
        with pytest.raises(ValidationError, match="sigma"):
            config_from_dict({"config_version": 1, "synthetic": {"sigma": 0.1}})

    def test_seed_lives_at_top_level_only(self):
        with pytest.raises(ValidationError):
            config_from_dict({"config_version": 1, "synthetic": {"seed": 4}})

    def test_cross_field_consistency(self):
        with pytest.raises(ValidationError, match="ambient_dim"):
            config_from_dict(
                {"config_version": 1, "encoder": {"layer_widths": [16, 8, 4]}}
            )

    def test_eval_every_floor(self):
        with pytest.raises(ValidationError):
            tiny_config(eval_every=0)

    def test_loss_mode_values(self):
        assert tiny_config(loss_mode="coupled").loss_mode is LossMode.COUPLED
        with pytest.raises(ValidationError):
            tiny_config(loss_mode="both")

    def test_round_trip_through_dict(self):
        config = tiny_config()
        again = config_from_dict(config.to_dict())
        assert again == config


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        config = dataclasses.replace(tiny_config(), out_dir=tmp_path / "run")
        result = run_experiment(config)
        for name in (
            "config.json",
            "metrics.csv",
            "histogram_epoch0.csv",
            "histogram_final.csv",
            "embeddings.jsonl",
            "checkpoint.json",
        ):
            assert (result.out_dir / name).exists(), name
        text = (result.out_dir / "metrics.csv").read_text()
        assert text.splitlines()[0] == METRICS_CSV_HEADER
        # epoch 0, evals at 2 and 4 (final epoch coincides with eval_every)
        assert [r.epoch for r in result.reports] == [0, 2, 4]

    def test_deterministic_metrics_csv(self, tmp_path):
        c1 = dataclasses.replace(tiny_config(), out_dir=tmp_path / "a")
        c2 = dataclasses.replace(tiny_config(), out_dir=tmp_path / "b")
        run_experiment(c1)
        run_experiment(c2)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_zero_epochs_initial_state_only(self, tmp_path):
        config = dataclasses.replace(tiny_config(epochs=0), out_dir=tmp_path / "r")
        result = run_experiment(config)
        assert [r.epoch for r in result.reports] == [0]
        assert (result.out_dir / "histogram_epoch0.csv").read_text() == (
            result.out_dir / "histogram_final.csv"
        ).read_text()

    def test_zero_augment_sigma_zero_alignment(self):
        raw = json.loads(json.dumps(TINY))
        raw["synthetic"]["augment_sigma"] = 0.0
        raw["profile"] = {"variant": "constant", "tau_min": 0.1, "tau_max": 0.1}
        raw["epochs"] = 1
        result = run_experiment(config_from_dict(raw))
        for report in result.reports:
            assert abs(report.alignment) < 1e-12

    def test_embedding_batch_built_once_per_eval(self, monkeypatch):
        # training hands the loss encode's 2N x D stack; only an eval builds the checked type
        built = []
        post_init = harness.EmbeddingBatch.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(harness.EmbeddingBatch, "__post_init__", counted)
        result = run_experiment(tiny_config(), overlap_evals=False)
        assert [r.epoch for r in result.reports] == [0, 2, 4]
        assert built == [30, 30, 30]

    def test_loss_finite_throughout(self):
        result = run_experiment(tiny_config())
        assert all(np.isfinite(r.loss) for r in result.reports)

    def test_knn_improves_on_separable_data_for_every_profile(self):
        profiles = [
            {"variant": "constant", "tau_min": 0.1, "tau_max": 0.1},
            {"variant": "cosine_vanilla", "tau_min": 0.1, "tau_max": 0.2},
            {"variant": "cosine_shifted", "tau_min": 0.1, "tau_max": 0.2, "shift": -0.4, "scale": 0.7},
            {"variant": "linear", "tau_min": 0.1, "tau_max": 0.2},
            {"variant": "exponential", "tau_min": 0.1, "tau_max": 0.2},
            {"variant": "monotonic_cosine", "tau_min": 0.1, "tau_max": 0.2},
        ]
        for profile in profiles:
            raw = json.loads(json.dumps(TINY))
            raw["synthetic"]["intra_class_sigma"] = 0.05
            raw["epochs"] = 12
            raw["seed"] = 5
            raw["profile"] = profile
            result = run_experiment(config_from_dict(raw))
            assert result.reports[-1].knn_top1 >= result.reports[0].knn_top1, profile

    def test_external_dataset_path(self, tmp_path):
        from dystress.synthetic import generate, write_dataset

        config = tiny_config()
        data_path = tmp_path / "data.jsonl"
        write_dataset(data_path, generate(config.synthetic, config.seed))
        result = run_experiment(config, data_path=data_path)
        assert result.final_report.epoch == config.epochs

    def test_external_dataset_dim_mismatch(self, tmp_path):
        from dystress.synthetic import generate, write_dataset

        other = dataclasses.replace(tiny_config().synthetic, ambient_dim=6)
        data_path = tmp_path / "data.jsonl"
        write_dataset(data_path, generate(other, 3))
        with pytest.raises(ValidationError, match="ambient_dim"):
            run_experiment(tiny_config(), data_path=data_path)


JOIN_TIMEOUT_S = 120
STEP_WAIT_S = 30
ARTIFACTS = ("metrics.csv", "histogram_epoch0.csv", "histogram_final.csv", "embeddings.jsonl", "checkpoint.json")
CPUS = len(os.sched_getaffinity(0))
STEPS_PER_EPOCH = 3  # TINY: 30 samples in batches of 10
# overlap_evals: a lone run may overlap its evals with training; a sweep's runs evaluate inline
RUN_MODES = [pytest.param(True, id="overlapped"), pytest.param(False, id="inline")]


def eval_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("dystress-eval")]


def run_joined(config, **kwargs):
    """run_experiment in a thread joined with a timeout, so a hung eval fails the test and not the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = run_experiment(config, **kwargs)
        except Exception as err:
            outcome["error"] = err

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=JOIN_TIMEOUT_S)
    assert not runner.is_alive(), "run_experiment did not return"
    assert eval_threads() == [], "an eval thread outlived run_experiment"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestEvalOverlap:
    """Evals on the worker thread: same artifacts, the parent's error order, no thread left behind."""

    def test_overlapped_and_inline_runs_write_identical_artifacts(self, tmp_path, monkeypatch):
        real_eval, real_step = harness._eval_state, harness.enc.sgd_step
        can_overlap = numeric._openblas_thread_calls() is not None and CPUS > 1
        stepped = threading.Event()
        saw_step = []  # per run: did training take a step while the initial eval ran?

        def recording_step(*args):
            stepped.set()
            return real_step(*args)

        def waiting_eval(config, params, train_set, test_set, root_rng, epoch, with_histogram):
            if epoch == 0:  # only an overlapped run can train while this waits
                saw_step.append(stepped.wait(timeout=wait_s))
            return real_eval(config, params, train_set, test_set, root_rng, epoch, with_histogram)

        monkeypatch.setattr(harness.enc, "sgd_step", recording_step)
        monkeypatch.setattr(harness, "_eval_state", waiting_eval)
        results = {}
        for name, overlap_evals, wait_s in (
            ("overlapped", True, STEP_WAIT_S if can_overlap else 0),
            ("inline", False, 0),
        ):
            stepped.clear()
            config = dataclasses.replace(tiny_config(), out_dir=tmp_path / name)
            results[name] = run_joined(config, overlap_evals=overlap_evals)
        assert saw_step == [can_overlap, False]
        for artifact in ARTIFACTS:
            assert (tmp_path / "overlapped" / artifact).read_bytes() == (
                tmp_path / "inline" / artifact
            ).read_bytes(), artifact
        assert [r.epoch for r in results["overlapped"].reports] == [0, 2, 4]

    def test_two_evals_in_flight_settle_in_epoch_order(self, tmp_path, monkeypatch):
        if numeric._openblas_thread_calls() is None or CPUS < 2:
            pytest.skip("evals overlap only with OpenBLAS pinned and a second CPU")
        real_eval = harness._eval_state
        second_started = threading.Event()
        saw_second = []  # per run: did the epoch-2 eval start while the epoch-0 eval ran?

        def waiting_eval(config, params, train_set, test_set, root_rng, epoch, with_histogram):
            if epoch == 2:
                second_started.set()
            elif epoch == 0:  # goes on only once the epoch-2 eval runs beside it
                saw_second.append(second_started.wait(timeout=wait_s))
            return real_eval(config, params, train_set, test_set, root_rng, epoch, with_histogram)

        monkeypatch.setattr(harness, "_eval_state", waiting_eval)
        results = {}
        for name, overlap_evals, wait_s in (("overlapped", True, STEP_WAIT_S), ("inline", False, 0)):
            second_started.clear()
            config = dataclasses.replace(tiny_config(), out_dir=tmp_path / name)
            results[name] = run_joined(config, overlap_evals=overlap_evals)
        assert saw_second == [True, False]
        assert [r.epoch for r in results["overlapped"].reports] == [0, 2, 4]
        for artifact in ARTIFACTS:
            assert (tmp_path / "overlapped" / artifact).read_bytes() == (
                tmp_path / "inline" / artifact
            ).read_bytes(), artifact

    @pytest.mark.parametrize("overlap_evals", RUN_MODES)
    def test_eval_error_wins_over_a_later_training_error(self, monkeypatch, overlap_evals):
        real_probe, real_step = harness.metrics_mod.knn_probe, harness.enc.sgd_step
        evals, steps = [], []

        def failing_probe(*args, **kwargs):  # called once per eval
            evals.append(None)
            if len(evals) == 2:  # the eval at epoch 2
                raise NumericError("eval at epoch 2 failed")
            return real_probe(*args, **kwargs)

        def failing_step(*args):
            steps.append(None)
            if len(steps) > 2 * STEPS_PER_EPOCH:  # the first step after the eval at epoch 2
                raise ValidationError("epoch 3 failed")
            return real_step(*args)

        monkeypatch.setattr(harness.metrics_mod, "knn_probe", failing_probe)
        monkeypatch.setattr(harness.enc, "sgd_step", failing_step)
        with pytest.raises(NumericError, match="eval at epoch 2 failed"):
            run_joined(tiny_config(), overlap_evals=overlap_evals)

    @pytest.mark.parametrize("overlap_evals", RUN_MODES)
    def test_failed_eval_stops_training_before_the_next_eval(self, monkeypatch, overlap_evals):
        real_step = harness.enc.sgd_step
        steps = []

        def failing_eval(*args):
            raise NumericError("initial eval failed")

        def counting_step(*args):
            steps.append(None)
            return real_step(*args)

        monkeypatch.setattr(harness, "_eval_state", failing_eval)
        monkeypatch.setattr(harness.enc, "sgd_step", counting_step)
        with pytest.raises(NumericError, match="initial eval failed"):
            run_joined(tiny_config(epochs=100, eval_every=100), overlap_evals=overlap_evals)
        assert len(steps) < 100 * STEPS_PER_EPOCH

    @pytest.mark.parametrize("overlap_evals", RUN_MODES)
    def test_training_error_raised_when_evals_pass(self, monkeypatch, overlap_evals):
        def failing_step(*args):
            raise ValidationError("training failed")

        monkeypatch.setattr(harness.enc, "sgd_step", failing_step)
        with pytest.raises(ValidationError, match="training failed"):
            run_joined(tiny_config(), overlap_evals=overlap_evals)

    def test_blas_thread_count_restored(self):
        calls = numeric._openblas_thread_calls()
        before = calls[0]() if calls else None
        run_joined(tiny_config(epochs=1))
        assert (calls[0]() if calls else None) == before


class TestMetricsFromDump:
    def test_recompute(self, tmp_path):
        config = dataclasses.replace(tiny_config(), out_dir=tmp_path / "run")
        result = run_experiment(config)
        values = metrics_from_dump(result.out_dir / "embeddings.jsonl", k=3)
        assert values["uniformity"] <= 0.0
        assert 0.0 <= values["alignment"] <= 4.0
        assert 0.0 <= values["knn_top1"] <= 1.0
        assert np.isfinite(values["interclass_uniformity"])

    def test_unlabeled_dump_gives_nan_label_metrics(self, tmp_path):
        from conftest import random_batch
        from dystress.geometry import write_embedding_dump
        from dystress.numeric import Rng

        batch = random_batch(Rng(8), 6, 4)  # no labels
        path = tmp_path / "dump.jsonl"
        write_embedding_dump(path, batch)
        values = metrics_from_dump(path, k=2)
        assert np.isfinite(values["uniformity"]) and np.isfinite(values["alignment"])
        assert np.isnan(values["tolerance"])
        assert np.isnan(values["interclass_uniformity"])
        assert np.isnan(values["knn_top1"])


class TestSweep:
    def test_expand_cartesian_product(self, tmp_path):
        profiles = [TemperatureProfile("constant", 0.1, 0.1), TemperatureProfile("cosine_vanilla", 0.1, 0.2)]
        sweep = SweepSpec(base=tiny_config(), profiles=profiles, lrs=[0.5, 0.25], seeds=[0, 1, 2])
        configs = sweep.expand(None)
        assert len(configs) == 12
        assert {c.seed for c in configs} == {0, 1, 2}
        assert all(c.out_dir is None for c in configs)
        # profile outermost, then lr, then seed; run directories count up in that order
        runs = [(p, lr, seed) for p in profiles for lr in (0.5, 0.25) for seed in (0, 1, 2)]
        expected = [(*run, tmp_path / f"run_{i:03d}") for i, run in enumerate(runs)]
        assert expected[3] == (profiles[0], 0.25, 0, tmp_path / "run_003")
        configs = sweep.expand(tmp_path)
        assert [(c.profile, c.optimizer.lr, c.seed, c.out_dir) for c in configs] == expected

    def test_empty_overrides_single_run(self):
        sweep = SweepSpec(base=tiny_config())
        assert len(sweep.expand(None)) == 1

    def test_cap_enforced(self):
        sweep = SweepSpec(base=tiny_config(), seeds=list(range(10)), max_configs=5)
        with pytest.raises(ValidationError, match="cap"):
            sweep.expand(None)

    def test_sweep_csv_with_failure(self, tmp_path):
        # second config fails at run time: huge relu init overflows encode
        base = tiny_config(epochs=1)
        bad_encoder = dataclasses.replace(
            base.encoder, nonlinearity="relu", init_scale=1e200
        )
        sweep = SweepSpec(base=base, seeds=[0])
        configs = sweep.expand(tmp_path)
        configs.append(
            dataclasses.replace(base, encoder=bad_encoder, out_dir=tmp_path / "run_001")
        )

        # run via the public API with an injected failing config
        class PatchedSweep(SweepSpec):
            def expand(self, sweep_dir):
                return configs

        csv_path = run_sweep(PatchedSweep(base=base), sweep_dir=tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER == (
            "config_index,profile,lr,seed,status,"
            "epoch,loss,uniformity,alignment,tolerance,interclass_uniformity,knn_top1"
        )
        ok_rows = [l for l in lines[1:] if ",ok," in l]
        error_rows = [l for l in lines[1:] if "error: NumericError" in l]
        assert len(ok_rows) == 2  # evals at epoch 0 and the final epoch 1
        assert len(error_rows) == 1
        # every row, the failed one too, has one cell per header column
        for row in csv.reader(lines[1:]):
            assert len(row) == len(SWEEP_CSV_HEADER.split(","))

    def test_sweep_from_dict_schema(self):
        raw = {
            "config_version": 1,
            "base": TINY,
            "overrides": {"profiles": [{"variant": "constant", "tau_min": 0.1, "tau_max": 0.1}]},
        }
        sweep = sweep_from_dict(raw)
        assert len(sweep.profiles) == 1
        with pytest.raises(ValidationError):
            sweep_from_dict({**raw, "extra": 1})

    def test_parallel_execution_matches_serial(self, tmp_path):
        sweep = SweepSpec(base=tiny_config(epochs=1), seeds=[0, 1])
        serial = run_sweep(sweep, sweep_dir=tmp_path / "serial", workers=1)
        parallel = run_sweep(sweep, sweep_dir=tmp_path / "parallel", workers=2)
        assert serial.read_text() == parallel.read_text()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, tmp_path, workers):
        with pytest.raises(ValidationError, match="at least 1"):
            run_sweep(SweepSpec(base=tiny_config(epochs=0)), sweep_dir=tmp_path, workers=workers)
        assert not (tmp_path / "sweep.csv").exists()

    def test_serial_sweep_evaluates_inline(self, tmp_path, monkeypatch):
        # a sweep parallelises across processes only: even alone, its runs start no eval thread
        real_eval = harness._eval_state
        eval_thread_names = []

        def recording_eval(*args):
            eval_thread_names.append(threading.current_thread().name)
            return real_eval(*args)

        monkeypatch.setattr(harness, "_eval_state", recording_eval)
        sweep = SweepSpec(base=tiny_config(), seeds=[0, 1])
        run_sweep(sweep, sweep_dir=tmp_path, workers=1)
        assert len(eval_thread_names) == 2 * 3  # epochs 0, 2 and 4 of each run
        assert eval_thread_names == [threading.current_thread().name] * len(eval_thread_names)

    def test_pool_never_outnumbers_configs(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs serially, so no
        # processes start however many workers are asked for
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        sweep = SweepSpec(base=tiny_config(epochs=0), seeds=[0, 1, 2])
        run_sweep(sweep, sweep_dir=tmp_path / "wide", workers=64)
        assert sizes == [3]
        run_sweep(SweepSpec(base=tiny_config(epochs=0)), sweep_dir=tmp_path / "one", workers=64)
        assert sizes == [3]  # a single config runs in-process

    def test_dead_worker_keeps_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_run_sweep_entry", _dying_sweep_entry)
        sweep = SweepSpec(base=tiny_config(epochs=1), seeds=[0, 1, 2, 3])
        outcome = {}

        def run():
            outcome["csv"] = run_sweep(sweep, sweep_dir=tmp_path, workers=2)

        # the sweep runs in a thread so that a hung pool fails the test instead of the suite
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "sweep did not return after its worker died"
        assert outcome["csv"] == tmp_path / "sweep.csv"
        lines = outcome["csv"].read_text().strip().splitlines()
        by_index = {}
        for line in lines[1:]:
            by_index.setdefault(int(line.split(",")[0]), []).append(line)
        assert sorted(by_index) == [0, 1, 2, 3]
        dead = by_index[DYING_INDEX]
        assert len(dead) == 1 and "error: BrokenProcessPool" in dead[0]
        assert dead[0].count(",") == lines[0].count(",")
        for index, rows in by_index.items():  # every other run finished, on a rerun if need be
            if index != DYING_INDEX:
                assert rows and all(",ok," in row for row in rows), index
