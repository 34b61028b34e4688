"""Experiment driver: config schema, training loop, evaluation, sweeps.

Configs are versioned JSON with fail-fast schema checking: unknown fields
are rejected everywhere so typos cannot silently fall back to defaults.
A run is fully determined by its config (and in particular its seed): data
generation, weight init, batch order, and augmentations all derive from
named substreams of the one seed, and every reduction is executed in a
fixed order, so repeating a run reproduces its metrics CSV byte for byte.

A run keeps freed tiles in glibc's heap and pins NumPy's OpenBLAS to one
thread. Each command has one kind of parallelism: a lone run (`simulate`)
with a CPU to spare evals on worker threads from frozen copies of the
parameters while the next epochs train, up to two evals at once, and keeps
their results in epoch order; a sweep runs whole runs in `workers`
processes, each evaluating inline. No bit of the artifacts depends on these.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import encoder as enc
from . import loss as loss_mod
from . import metrics as metrics_mod
from . import synthetic
from .errors import NumericError, ValidationError, check_fields, check_int, from_section
from .geometry import EmbeddingBatch, read_embedding_dump, write_embedding_dump
from .numeric import MAX_SEED, Rng, fmt, retain_freed_memory, single_blas_thread
from .temperature import TemperatureProfile

CONFIG_VERSION = 1
DEFAULT_SWEEP_CAP = 256
EVALS_IN_FLIGHT = 2  # the spare CPU's, and the training CPU's while training waits


@dataclass(frozen=True)
class ExperimentConfig:
    """One run; the defaults here and in the section dataclasses are the config defaults.

    `seed` is the run's only seed: data generation, weight init, batch order
    and augmentation all draw from named substreams of it.
    """

    seed: int = 0
    synthetic: synthetic.SyntheticSpec = synthetic.SyntheticSpec()
    encoder: enc.EncoderSpec = enc.EncoderSpec()
    profile: TemperatureProfile = TemperatureProfile.cosine_vanilla(0.1, 0.2)
    loss_mode: loss_mod.LossMode = loss_mod.LossMode.DETACHED
    optimizer: enc.OptimizerSettings = enc.OptimizerSettings()
    batch_size: int = 128
    epochs: int = 200
    eval_every: int = 20
    knn_k: int = metrics_mod.DEFAULT_KNN_K
    knn_weight_temperature: float = metrics_mod.DEFAULT_KNN_WEIGHT_TEMPERATURE
    out_dir: Optional[Path] = None

    def __post_init__(self):
        check_int("seed", self.seed, 0, MAX_SEED)
        check_int("batch_size", self.batch_size, 2)
        check_int("epochs", self.epochs, 0)
        check_int("eval_every", self.eval_every, 1)
        check_int("knn_k", self.knn_k, 1)
        metrics_mod.check_knn_weight_temperature(self.knn_weight_temperature)
        try:
            object.__setattr__(self, "loss_mode", loss_mod.LossMode(self.loss_mode))
        except ValueError as err:
            raise ValidationError(
                f"loss_mode must be 'detached' or 'coupled', got {self.loss_mode!r}"
            ) from err
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.encoder.layer_widths[0] != self.synthetic.ambient_dim:
            raise ValidationError(
                f"encoder input width {self.encoder.layer_widths[0]} does not match "
                f"ambient_dim {self.synthetic.ambient_dim}"
            )

    def to_dict(self) -> dict:
        return {"config_version": CONFIG_VERSION, **{f.name: _json_ready(getattr(self, f.name)) for f in fields(self)}}


def _json_ready(value):
    """A config field as JSON data: a section as its dict, the loss mode as its value, a path as a string."""
    if isinstance(value, TemperatureProfile):
        return value.to_dict()
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, loss_mod.LossMode):
        return value.value
    return str(value) if isinstance(value, Path) else value


def _check_config_version(raw: dict) -> None:
    """ValidationError unless raw["config_version"] is the integer CONFIG_VERSION (not true, not 1.0)."""
    version = raw.get("config_version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ValidationError(f"config_version must be {CONFIG_VERSION}, got {version!r}")


def config_from_dict(raw: dict, out_dir: Optional[Path] = None) -> ExperimentConfig:
    """Parse a versioned config dict; missing fields take the dataclass defaults.

    Unknown fields are rejected at every level, and each section is checked
    by its own dataclass.
    """
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    _check_config_version(raw)
    top = {key: value for key, value in raw.items() if key != "config_version"}
    for f in fields(ExperimentConfig):
        if is_dataclass(f.default) and f.name in top:
            top[f.name] = from_section(type(f.default), top[f.name], f"config.{f.name}")
    if out_dir is not None:
        top["out_dir"] = out_dir
    return from_section(ExperimentConfig, top, "config")


def _read_json(path: str | Path):
    """The JSON document in `path`; ValidationError when the file does not hold one."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, too many digits, too deep
        raise ValidationError(f"{path} is not valid JSON: {err}") from err


def load_config(path: str | Path, out_dir: Optional[Path] = None) -> ExperimentConfig:
    return config_from_dict(_read_json(path), out_dir=out_dir)


# ---------------------------------------------------------------------------
# Single experiment
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    config: ExperimentConfig
    reports: list[metrics_mod.MetricsReport]
    histogram_initial: metrics_mod.Histogram
    histogram_final: metrics_mod.Histogram
    out_dir: Optional[Path]

    @property
    def final_report(self) -> metrics_mod.MetricsReport:
        return self.reports[-1]


def _eval_state(
    config: ExperimentConfig,
    params: enc.EncoderParams,
    train_set: synthetic.Dataset,
    test_set: synthetic.Dataset,
    root_rng: Rng,
    epoch: int,
    with_histogram: bool,
) -> tuple[metrics_mod.MetricsReport, Optional[metrics_mod.Histogram], EmbeddingBatch]:
    """Forward-only evaluation pass at a given number of completed epochs."""
    # no forward cache and no augmented view stays live into the loss and the metrics
    e_train = enc.encode(params, train_set.inputs)[0]
    e_test = enc.encode(params, test_set.inputs)[0]
    rng_eval = root_rng.substream("eval-augment", index=epoch)
    v1, v2 = synthetic.augment_views(train_set.inputs, config.synthetic.augment_sigma, rng_eval)
    z1 = enc.encode(params, v1)[0]
    z2 = enc.encode(params, v2)[0]
    del v1, v2
    batch = EmbeddingBatch(
        view_a=z1, view_b=z2, sample_ids=train_set.sample_ids, labels=train_set.labels
    )
    report = metrics_mod.MetricsReport(
        epoch=epoch,
        loss=loss_mod.forward(batch, config.profile),
        uniformity=metrics_mod.uniformity(e_train),
        alignment=metrics_mod.alignment(batch),
        tolerance=metrics_mod.tolerance(e_train, train_set.labels),
        interclass_uniformity=metrics_mod.interclass_uniformity(e_train, train_set.labels),
        knn_top1=metrics_mod.knn_probe(
            e_train,
            train_set.labels,
            e_test,
            test_set.labels,
            k=min(config.knn_k, e_train.shape[0]),
            weight_temperature=config.knn_weight_temperature,
        ),
    )
    histogram = metrics_mod.pair_histograms(batch) if with_histogram else None
    return report, histogram, batch


def _spare_cpu() -> bool:
    """Whether this process may use more than one CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def run_experiment(
    config: ExperimentConfig, data_path: Optional[str | Path] = None, overlap_evals: bool = True
) -> RunResult:
    """Train, evaluate periodically, and write all artifacts.

    Artifacts in out_dir (when set): config.json, metrics.csv,
    histogram_epoch0.csv, histogram_final.csv, embeddings.jsonl,
    checkpoint.json. Returns the full evaluation time series.

    With `overlap_evals` (the default, as `simulate` runs), when OpenBLAS
    could be pinned to one thread and the process has a second CPU, each eval
    runs on a worker thread with a frozen copy of the parameters while the
    next epochs train. Up to two evals are in flight at once, one on the
    spare CPU and one on the training CPU once training waits; their results
    are settled in epoch order. Otherwise, and always in a sweep, which
    passes False, each eval runs in the calling thread before training
    resumes. Either way the results are the same, and an eval's error is
    raised before any error of the epochs that trained after it.
    """
    retain_freed_memory()
    with single_blas_thread() as pinned:
        if not (overlap_evals and pinned and _spare_cpu()):
            return _run(config, data_path, pool=None)
        with ThreadPoolExecutor(max_workers=EVALS_IN_FLIGHT, thread_name_prefix="dystress-eval") as pool:
            return _run(config, data_path, pool)


def _train_epoch(
    config: ExperimentConfig,
    params: enc.EncoderParams,
    state: enc.OptimizerState,
    train_set: synthetic.Dataset,
    root_rng: Rng,
    epoch: int,
) -> None:
    """One pass over the training set, updating params and state in place."""
    rng_batches = root_rng.substream("batches", index=epoch)
    rng_augment = root_rng.substream("augment", index=epoch)
    for step, idx in enumerate(synthetic.make_batches(train_set, config.batch_size, rng_batches)):
        try:
            x = train_set.inputs[idx]
            v1, v2 = synthetic.augment_views(x, config.synthetic.augment_sigma, rng_augment)
            stacked = np.vstack([v1, v2])
            z, cache = enc.encode(params, stacked)
            bundle = loss_mod.grad_wrt_embeddings(z, config.profile, config.loss_mode)
            enc.sgd_step(params, enc.backward(params, cache, bundle.dL_dz), state)
        except NumericError as err:
            raise NumericError(f"epoch {epoch}, step {step}: {err}") from err


def _run(
    config: ExperimentConfig,
    data_path: Optional[str | Path],
    pool: Optional[ThreadPoolExecutor],
) -> RunResult:
    root_rng = Rng(config.seed)
    if data_path is not None:
        dataset = synthetic.read_dataset(data_path)
        if dataset.inputs.shape[1] != config.synthetic.ambient_dim:
            raise ValidationError(
                f"loaded dataset dimension {dataset.inputs.shape[1]} does not match "
                f"config ambient_dim {config.synthetic.ambient_dim}"
            )
        train_set, test_set = synthetic.holdout_split(dataset)
    else:
        train_set = synthetic.generate(config.synthetic, config.seed)
        test_set = synthetic.generate_eval_split(
            config.synthetic, train_set.class_centers, root_rng.substream("testdata")
        )

    params = enc.init_params(config.encoder, root_rng.substream("init"))
    state = enc.init_optimizer(params, config.optimizer)

    reports: list[metrics_mod.MetricsReport] = []
    kept: list[tuple[metrics_mod.Histogram, EmbeddingBatch]] = []  # of the initial and final evals
    pending: deque[Future] = deque()  # evals submitted to the pool, in epoch order

    def keep(
        report: metrics_mod.MetricsReport, histogram: Optional[metrics_mod.Histogram], batch: EmbeddingBatch
    ) -> None:
        reports.append(report)
        if histogram is not None:
            kept.append((histogram, batch))

    def settle(finished_only: bool = False) -> None:
        """Keep what the pending evals returned, in epoch order, waiting for each unless `finished_only`."""
        while pending and (not finished_only or pending[0].done()):
            keep(*pending.popleft().result())

    def run_eval(epoch: int, with_histogram: bool) -> None:
        if pool is not None:  # on a frozen copy: training updates params in place meanwhile
            frozen = enc.EncoderParams(params.spec, params.flat.copy())
            pending.append(pool.submit(
                _eval_state, config, frozen, train_set, test_set, root_rng, epoch, with_histogram,
            ))
        else:
            keep(*_eval_state(config, params, train_set, test_set, root_rng, epoch, with_histogram))

    run_eval(0, with_histogram=True)
    for epoch in range(config.epochs):
        settle(finished_only=True)  # an eval that failed stops the run before another epoch trains
        try:
            _train_epoch(config, params, state, train_set, root_rng, epoch)
        except Exception:
            settle()  # the evals in flight come before this epoch, and so do their errors
            raise
        completed = epoch + 1
        is_final = completed == config.epochs
        if completed % config.eval_every == 0 or is_final:
            run_eval(completed, with_histogram=is_final)
    settle()
    (hist_initial, _), (hist_final, final_batch) = kept[0], kept[-1]  # one entry when epochs == 0

    out_dir = config.out_dir
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2), encoding="utf-8"
        )
        metrics_mod.write_metrics_csv(out_dir / "metrics.csv", reports)
        metrics_mod.write_histogram_csv(out_dir / "histogram_epoch0.csv", hist_initial)
        metrics_mod.write_histogram_csv(out_dir / "histogram_final.csv", hist_final)
        write_embedding_dump(out_dir / "embeddings.jsonl", final_batch)
        enc.save_checkpoint(out_dir / "checkpoint.json", params)

    return RunResult(
        config=config,
        reports=reports,
        histogram_initial=hist_initial,
        histogram_final=hist_final,
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    base: ExperimentConfig
    profiles: list[TemperatureProfile] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    max_configs: int = DEFAULT_SWEEP_CAP

    def __post_init__(self):
        check_int("max_configs", self.max_configs, 1)

    def expand(self, sweep_dir: Optional[Path]) -> list[ExperimentConfig]:
        """Cartesian product of the override axes over the base config."""
        profiles = self.profiles or [self.base.profile]
        lrs = self.lrs or [self.base.optimizer.lr]
        seeds = self.seeds or [self.base.seed]
        total = len(profiles) * len(lrs) * len(seeds)
        if total > self.max_configs:
            raise ValidationError(
                f"sweep expands to {total} configs, above the cap of {self.max_configs}"
            )
        return [
            replace(
                self.base,
                profile=profile,
                optimizer=replace(self.base.optimizer, lr=lr),
                seed=seed,
                out_dir=None if sweep_dir is None else Path(sweep_dir) / f"run_{index:03d}",
            )
            for index, (profile, lr, seed) in enumerate(itertools.product(profiles, lrs, seeds))
        ]


def sweep_from_dict(raw: dict) -> SweepSpec:
    """Parse a sweep config; each override is checked by the config it lands in."""
    check_fields(raw, {"config_version", "base", "overrides", "max_configs"}, "sweep config")
    _check_config_version(raw)
    overrides = raw.get("overrides", {})
    check_fields(overrides, {"profiles", "lrs", "seeds"}, "sweep overrides")
    try:
        sweep = SweepSpec(
            # a base may carry its own config_version, checked like a run config's
            base=config_from_dict({"config_version": CONFIG_VERSION, **raw.get("base", {})}),
            profiles=[TemperatureProfile.from_dict(p) for p in overrides.get("profiles", [])],
            lrs=overrides.get("lrs", []),
            seeds=overrides.get("seeds", []),
            max_configs=raw.get("max_configs", DEFAULT_SWEEP_CAP),
        )
        sweep.expand(None)
    except ValidationError:
        raise
    except (TypeError, ValueError) as err:
        raise ValidationError(f"sweep config: {err}") from err
    return sweep


def load_sweep(path: str | Path) -> SweepSpec:
    return sweep_from_dict(_read_json(path))


SWEEP_CSV_HEADER = "config_index,profile,lr,seed,status," + metrics_mod.METRICS_CSV_HEADER


def _run_sweep_entry(args: tuple[int, ExperimentConfig]) -> tuple[int, str, list]:
    index, config = args
    try:  # a sweep parallelises across its processes only, so its runs evaluate inline
        return index, "ok", run_experiment(config, overlap_evals=False).reports
    except Exception as err:  # failures are data: recorded, sweep continues
        return index, f"error: {type(err).__name__}: {err}", []


def _pooled_outcomes(entries: list, workers: int, retry: bool) -> list[tuple[int, str, list]]:
    """Outcomes in entry order; with `retry`, a run that a broken pool failed reruns alone."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_sweep_entry, e) for e in entries]
    outcomes = []  # read after shutdown, so the reruns go one at a time
    for entry, future in zip(entries, futures):
        try:
            outcomes.append(future.result())
        except BrokenProcessPool as err:
            if retry:
                outcomes += _pooled_outcomes([entry], 1, retry=False)
            else:
                outcomes.append((entry[0], f"error: BrokenProcessPool: {err}", []))
    return outcomes


def run_sweep(sweep: SweepSpec, sweep_dir: str | Path, workers: int = 1) -> Path:
    """Run every config; write sweep_dir/sweep.csv ordered by (config, epoch).

    `workers` (at least 1) runs go at once, each in a worker process, or one
    after another in this process when it is 1; every run evaluates inline.
    A failed run contributes a single row with its error in the status
    column and empty metric columns; remaining runs still execute. A worker
    process that dies (a signal, the OOM killer) breaks the pool; each run it
    failed reruns once, alone in a fresh 1-worker pool, one at a time. Only
    a run that breaks its own pool gets a `BrokenProcessPool` error row, and
    the CSV is still written. Returns the CSV path.
    """
    sweep_dir = Path(sweep_dir)
    configs = sweep.expand(sweep_dir)
    # the fork start method launches every pool process up front, so a pool
    # never gets more processes than it has configs to run
    worker_count = min(check_int("workers", workers, 1), len(configs))
    entries = list(enumerate(configs))
    if worker_count > 1:
        outcomes = _pooled_outcomes(entries, worker_count, retry=True)
    else:
        outcomes = [_run_sweep_entry(e) for e in entries]

    rows = []
    for index, status, reports in outcomes:
        config = configs[index]
        prefix = f"{index},{config.profile.spec_string()},{fmt(config.optimizer.lr)},{config.seed}"
        if status != "ok":  # one empty cell per report field
            rows.append(f'{prefix},"{status}"' + "," * len(fields(metrics_mod.MetricsReport)))
            continue
        rows += [f"{prefix},ok,{metrics_mod.metrics_csv_row(r)}" for r in reports]

    sweep_dir.mkdir(parents=True, exist_ok=True)
    csv_path = sweep_dir / "sweep.csv"
    csv_path.write_text(SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return csv_path


# ---------------------------------------------------------------------------
# Metric recomputation from an embedding dump
# ---------------------------------------------------------------------------


def metrics_from_dump(path: str | Path, k: int = metrics_mod.DEFAULT_KNN_K) -> dict[str, float]:
    """Recompute the metric set from an embeddings JSON-lines file.

    View-a points define uniformity/tolerance/interclass; the kNN probe uses
    view-a as the bank and view-b as queries. Label-dependent metrics are NaN
    when the dump carries no labels.
    """
    batch = read_embedding_dump(path)
    out = {
        "uniformity": metrics_mod.uniformity(batch.view_a),
        "alignment": metrics_mod.alignment(batch),
        "tolerance": float("nan"),
        "interclass_uniformity": float("nan"),
        "knn_top1": float("nan"),
    }
    if batch.labels is not None:
        out["tolerance"] = metrics_mod.tolerance(batch.view_a, batch.labels)
        out["interclass_uniformity"] = metrics_mod.interclass_uniformity(
            batch.view_a, batch.labels
        )
        out["knn_top1"] = metrics_mod.knn_probe(
            batch.view_a,
            batch.labels,
            batch.view_b,
            batch.labels,
            k=min(k, batch.n),
        )
    return out
