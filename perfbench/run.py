"""dystress benchmark: end-to-end and per-layer timings of the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate-default --seed 1 --seconds 20 --trace 0

Every repetition is one call of `dystress.cli.main` in a fresh interpreter
(perfbench/child.py), one repetition at a time (a closed loop with a single
caller). The workload inputs derive from --seed only.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced repetitions and reports per-layer calls, self
times and counts from the traced ones, plus the tracing overhead. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracer import EVAL_SPAN, LAYERS  # noqa: E402

DEADLINE_S = 170.0  # the whole run, build included, ends well within 180 s
SETUP_SPAWNS = 5  # extra setup-only interpreters per run, beside the repetitions
MIN_REPS = 2  # the determinism check needs a second repetition
SIMULATE_ARTIFACTS = (
    "config.json",
    "metrics.csv",
    "histogram_epoch0.csv",
    "histogram_final.csv",
    "embeddings.jsonl",
    "checkpoint.json",
)

# c09 ablation grids: temperature range, then shift/scale.
TEMP_RANGE_PROFILES = [
    {"variant": "cosine_vanilla", "tau_min": lo, "tau_max": hi}
    for lo, hi in [(0.07, 0.1), (0.07, 0.5), (0.07, 0.2), (0.1, 0.2)]
]
SHIFT_SCALE_PROFILES = [
    {"variant": "cosine_shifted", "tau_min": 0.1, "tau_max": 0.2, "shift": s, "scale": k}
    for s, k in [(0.0, 0.5), (0.2, 0.6), (0.4, 0.7), (-0.2, 0.6), (-0.4, 0.7)]
]
SWEEP_SEEDS = 3
SWEEP_WORKERS = 2
C09_BASE = {
    "config_version": 1,
    "synthetic": {"num_classes": 6, "samples_per_class": 30, "ambient_dim": 16},
    "encoder": {"layer_widths": [16, 32, 8]},
    "batch_size": 64,
    "epochs": 30,
    "eval_every": 10,
    "knn_k": 5,
}


def simulate_default(seed: int) -> dict:
    return {"config_version": 1, "seed": seed}


def eval_large_n(seed: int) -> dict:
    return {
        "config_version": 1,
        "seed": seed,
        "synthetic": {"samples_per_class": 200},
        "epochs": 3,
        "eval_every": 1,
    }


def sweep_ablation(seed: int) -> dict:
    return {
        "config_version": 1,
        "base": {**C09_BASE, "seed": seed},
        "overrides": {
            "profiles": TEMP_RANGE_PROFILES + SHIFT_SCALE_PROFILES,
            "seeds": [seed + k for k in range(SWEEP_SEEDS)],
        },
    }


WORKLOADS = {
    "simulate-default": ("simulate", simulate_default),
    "eval-large-n": ("simulate", eval_large_n),
    "sweep-ablation": ("sweep", sweep_ablation),
}
SWEEP_CONFIGS = len(TEMP_RANGE_PROFILES + SHIFT_SCALE_PROFILES) * SWEEP_SEEDS


class Bench:
    """State of one benchmark run: work directory, deadline, tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.kind, make_config = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(make_config(seed)), encoding="utf-8")
        self.deadline = time.monotonic() + DEADLINE_S
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_samples: list[float] = []
        self.reference: bytes | None = None  # first repetition's metrics.csv / sweep.csv

    # -- child processes ---------------------------------------------------

    def child(self, mode: str, argv=(), trace: bool = False) -> dict | None:
        """Run one fresh-interpreter job; None when it crashed or timed out."""
        self.jobs += 1
        tag = f"job{self.jobs:03d}"
        job = {
            "mode": mode,
            "root": str(ROOT),
            "config": str(self.config),
            "config_kind": self.kind,
            "seed": self.seed,
            "argv": list(argv),
            "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(self.work / f"{tag}.spans.json"),
        }
        job_path = self.work / f"{tag}.job.json"
        job["spawn_t"] = time.monotonic()
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.problems.append(f"{tag} ({mode}) not started: out of time")
            return None
        # the job file holds spawn_t, so setup time counts from just before the spawn
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(job_path)],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            self.problems.append(f"{tag} ({mode}) timed out")
            return None
        finally:
            _kill_group(proc.pid)
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.exists():
            tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
            self.problems.append(f"{tag} ({mode}) exited {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.setup_samples.append(result["setup_s"])
        if trace:
            result["trace"] = json.loads(Path(job["spans"]).read_text(encoding="utf-8"))
        return result

    def gradcheck(self) -> dict:
        self.attempted += 2
        result = self.child("gradcheck")
        if result is None:
            self.failed += 2
            return {}
        bad = sum(code != 0 for code in result["exit_codes"])
        if bad:
            self.failed += bad
            self.problems.append(f"gradcheck exit codes {result['exit_codes']}")
        return result["env"]

    # -- repetitions -------------------------------------------------------

    def repetition(self, trace: bool = False, workers: int = SWEEP_WORKERS) -> dict | None:
        """One simulate or sweep call, with its output checks; None on failure."""
        out = self.work / f"out{self.jobs + 1:03d}"
        argv = [self.kind, "--config", str(self.config), "--out-dir", str(out)]
        operations = 1
        if self.kind == "sweep":
            argv += ["--workers", str(workers)]
            operations = SWEEP_CONFIGS
        self.attempted += operations
        result = self.child("run", argv, trace=trace)
        failed = self._check(result, out, operations)
        self.failed += failed
        shutil.rmtree(out, ignore_errors=True)
        return None if failed else result

    def _check(self, result: dict | None, out: Path, operations: int) -> int:
        """Failed operations of a repetition; records its quality figures."""
        if result is None:
            return operations
        if result["exit_code"] != 0:
            self.problems.append(f"{self.kind} exited {result['exit_code']}")
            return operations
        if self.kind == "simulate":
            missing = [name for name in SIMULATE_ARTIFACTS if not (out / name).is_file()]
            if missing:
                self.problems.append(f"missing artifacts {missing}")
                return operations
            output = (out / "metrics.csv").read_bytes()
            rows = [_final_row(output)]
        else:
            output = (out / "sweep.csv").read_bytes()
            lines = output.decode("utf-8").strip().splitlines()[1:]
            errors = sum(line.split(",")[4] != "ok" for line in lines)
            if errors:
                self.problems.append(f"{errors} sweep rows are not ok")
                return errors
            rows = _final_sweep_rows(output)
            if len(rows) != operations:
                self.problems.append(f"sweep wrote {len(rows)} runs, expected {operations}")
                return operations
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            self.problems.append("output differs from the first repetition")
            return operations
        result["knn_top1"] = statistics.fmean(r["knn_top1"] for r in rows)
        result["interclass_uniformity"] = statistics.fmean(r["interclass_uniformity"] for r in rows)
        return 0


def _kill_group(pid: int) -> None:
    """Stop whatever the child left behind in its process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _parse_csv(data: bytes) -> list[dict]:
    lines = data.decode("utf-8").strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _final_row(metrics_csv: bytes) -> dict:
    row = _parse_csv(metrics_csv)[-1]
    return {key: float(row[key]) for key in ("knn_top1", "interclass_uniformity")}


def _final_sweep_rows(sweep_csv: bytes) -> list[dict]:
    last = {}
    for row in _parse_csv(sweep_csv):
        last[row["config_index"]] = row
    return [{key: float(r[key]) for key in ("knn_top1", "interclass_uniformity")} for r in last.values()]


def _another(started: float, seconds: float, done: int, minimum: int, last_s: float, deadline: float) -> bool:
    """Start another repetition if it should end within `seconds` and before the deadline."""
    now = time.monotonic()
    if done and now + 1.5 * last_s > deadline:
        return False
    return done < minimum or now - started + last_s <= seconds


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------


def analyse_trace(trace: dict) -> dict:
    """Self time and calls per layer, step and eval timings, span accounting."""
    spans = trace["spans"]
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    dur = [end - start for _, start, end, _ in spans]
    self_s = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
    calls = {name: 0 for name, _, _ in LAYERS}
    self_by = {name: 0.0 for name, _, _ in LAYERS}
    for (name, *_), own in zip(spans, self_s):
        calls[name] += 1
        self_by[name] += own

    # every top-level span must be covered exactly by the self times below it
    unaccounted = 0.0
    top_wall = 0.0
    for root in (i for i, span in enumerate(spans) if span[3] < 0):
        subtree, stack = 0.0, [root]
        while stack:
            i = stack.pop()
            subtree += self_s[i]
            stack.extend(children[i])
        unaccounted = max(unaccounted, abs(dur[root] - subtree))
        top_wall += dur[root]

    # one training step runs from augment_views to sgd_step, both called by run_experiment
    def in_training(name):
        return [span for span in spans if span[0] == name and span[3] >= 0 and spans[span[3]][0] == "harness.run_experiment"]

    starts = [span[1] for span in in_training("synthetic.augment_views")]
    ends = [span[2] for span in in_training("encoder.sgd_step")]
    steps = [end - start for start, end in zip(starts, ends)]
    evals = [dur[i] for i, span in enumerate(spans) if span[0] == EVAL_SPAN]
    run_total = sum(dur[i] for i, span in enumerate(spans) if span[0] == "harness.run_experiment")
    return {
        "calls": calls,
        "self_s": self_by,
        "counts": trace["counts"],
        "train_step_ms": 1e3 * statistics.median(steps) if steps else 0.0,
        "eval_ms": 1e3 * statistics.median(evals) if evals else 0.0,
        "eval_share": sum(evals) / run_total if run_total else 0.0,
        "eval_peak_mib": trace["eval_peak_bytes"] / 2**20,
        "unaccounted_s": unaccounted,
        "top_wall_s": top_wall,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(bench: Bench, seconds: float) -> dict:
    reps: list[dict] = []
    started = time.monotonic()
    last = 0.0
    while _another(started, seconds, len(reps), MIN_REPS, last, bench.deadline):
        t0 = time.monotonic()
        result = bench.repetition()
        last = time.monotonic() - t0
        if result is None:
            break
        reps.append(result)
    if not reps:
        return {}
    walls = [r["wall_s"] for r in reps]
    print(f"run_wall_s samples={len(walls)} values={[round(w, 4) for w in walls]}")
    return {
        "run_wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in reps), "MiB"),
        "final_knn_top1": (reps[0]["knn_top1"], "share"),
        "final_neg_interclass_uniformity": (-reps[0]["interclass_uniformity"], "nats"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    traced: list[dict] = []
    overheads: list[float] = []
    started = time.monotonic()
    last = 0.0
    while _another(started, seconds, len(traced), 1, last, bench.deadline):
        t0 = time.monotonic()
        if bench.kind == "sweep":
            # the 2-worker sweep.csv becomes the reference the traced one must equal
            if bench.repetition() is None:
                break
        plain = bench.repetition(workers=1)
        traced_rep = bench.repetition(trace=True, workers=1)
        last = time.monotonic() - t0
        if plain is None or traced_rep is None:
            break
        overheads.append(traced_rep["wall_s"] - plain["wall_s"])
        traced.append(analyse_trace(traced_rep["trace"]))
    if not traced:
        return {}
    first = traced[0]
    unaccounted = max(t["unaccounted_s"] for t in traced)
    if unaccounted > 1e-6 * max(1.0, first["top_wall_s"]):
        bench.problems.append(f"child self times miss {unaccounted:.3e} s of a top-level span")
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t["self_s"][name] for t in traced), "s")
    counts = first["counts"]
    entries = counts["temperature.tau.entries"]
    metrics.update({
        "geometry.build_logits_block.entries": (counts["geometry.build_logits_block.entries"], "count"),
        "geometry.build_logits_block.bytes_computed": (counts["geometry.build_logits_block.bytes_computed"], "bytes"),
        "temperature.tau.entries": (entries, "count"),
        "temperature.tau.useful_ratio": (counts["temperature.tau.unique_pairs"] / entries if entries else 0.0, "ratio"),
        "encoder.encode.rows": (counts["encoder.encode.rows"], "count"),
        "harness.train_step.ms": (statistics.median(t["train_step_ms"] for t in traced), "ms"),
        "harness.eval.ms": (statistics.median(t["eval_ms"] for t in traced), "ms"),
        "harness.eval.share": (statistics.median(t["eval_share"] for t in traced), "share"),
        "harness.eval.peak_mib": (max(t["eval_peak_mib"] for t in traced), "MiB"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.unaccounted_s": (unaccounted, "s"),
    })
    print(f"traced repetitions={len(traced)} overhead_s={[round(o, 4) for o in overheads]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dystress" / "__init__.py").is_file():
        print(f"error: no dystress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        env = bench.gradcheck()
        print("environment " + json.dumps(env, sort_keys=True))
        for _ in range(SETUP_SPAWNS):
            bench.child("setup")
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
            if metrics:
                metrics["setup_s"] = (statistics.median(bench.setup_samples), "s")
                metrics["ok_share"] = (1.0 - bench.failed / bench.attempted, "share")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(f"setup_s samples={len(bench.setup_samples)} values={[round(v, 4) for v in bench.setup_samples]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
