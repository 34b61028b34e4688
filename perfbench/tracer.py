"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the `dystress` package from outside:
each wrapped call records one span (name, start, end, parent span) and bumps
the layer's counters. A function is replaced in every `dystress` module
namespace that holds it, so a call through a name imported with
`from .geometry import build_logits_block` is traced as well. Spans stay in
memory and are written out once, when the traced call has returned.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (span name, module, attribute path). Span names follow the module layout of
# `dystress`; `_eval_state` is the harness's evaluation pass, named `eval`.
LAYERS = [
    ("synthetic.augment_views", "dystress.synthetic", "augment_views"),
    ("synthetic.make_batches", "dystress.synthetic", "make_batches"),
    ("synthetic.generate", "dystress.synthetic", "generate"),
    ("encoder.encode", "dystress.encoder", "encode"),
    ("encoder.backward", "dystress.encoder", "backward"),
    ("encoder.sgd_step", "dystress.encoder", "sgd_step"),
    ("encoder.save_checkpoint", "dystress.encoder", "save_checkpoint"),
    ("geometry.EmbeddingBatch.__post_init__", "dystress.geometry", "EmbeddingBatch.__post_init__"),
    ("geometry.build_logits_block", "dystress.geometry", "build_logits_block"),
    ("geometry.classify_pairs", "dystress.geometry", "classify_pairs"),
    ("geometry.write_embedding_dump", "dystress.geometry", "write_embedding_dump"),
    ("temperature.TemperatureProfile.tau", "dystress.temperature", "TemperatureProfile.tau"),
    ("temperature.TemperatureProfile.dtau_ds", "dystress.temperature", "TemperatureProfile.dtau_ds"),
    ("numeric.stable_row_softmax", "dystress.numeric", "stable_row_softmax"),
    ("numeric.row_log_sum_exp", "dystress.numeric", "row_log_sum_exp"),
    ("loss.grad_wrt_embeddings", "dystress.loss", "grad_wrt_embeddings"),
    ("loss.grad_wrt_similarity", "dystress.loss", "grad_wrt_similarity"),
    ("loss.chain_to_embeddings", "dystress.loss", "chain_to_embeddings"),
    ("loss.forward", "dystress.loss", "forward"),
    ("loss.forward_from_block", "dystress.loss", "forward_from_block"),
    ("metrics.uniformity", "dystress.metrics", "uniformity"),
    ("metrics.alignment", "dystress.metrics", "alignment"),
    ("metrics.tolerance", "dystress.metrics", "tolerance"),
    ("metrics.interclass_uniformity", "dystress.metrics", "interclass_uniformity"),
    ("metrics.knn_probe", "dystress.metrics", "knn_probe"),
    ("metrics.pair_histograms", "dystress.metrics", "pair_histograms"),
    ("metrics.write_metrics_csv", "dystress.metrics", "write_metrics_csv"),
    ("metrics.write_histogram_csv", "dystress.metrics", "write_histogram_csv"),
    ("harness.run_experiment", "dystress.harness", "run_experiment"),
    ("harness.eval", "dystress.harness", "_eval_state"),
    ("harness.run_sweep", "dystress.harness", "run_sweep"),
    ("cli.main", "dystress.cli", "main"),
]

EVAL_SPAN = "harness.eval"


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {
            "geometry.build_logits_block.entries": 0,
            "geometry.build_logits_block.bytes_computed": 0,
            "temperature.tau.entries": 0,
            "temperature.tau.unique_pairs": 0,
            "encoder.encode.rows": 0,
        }
        self.eval_peak_bytes = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)
        is_eval = name == EVAL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            if is_eval:
                tracemalloc.start()
            spans[index][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if is_eval:
                    self.eval_peak_bytes = max(self.eval_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function in every `dystress` namespace holding it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "dystress" or key.startswith("dystress.")]
        for name, module_name, attr_path in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue  # a method is looked up through its class only
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "eval_peak_bytes": self.eval_peak_bytes},
                fh,
            )


def _observe_block(counts, args, block):
    counts["geometry.build_logits_block.entries"] += block.s.size
    counts["geometry.build_logits_block.bytes_computed"] += (
        block.s.nbytes + block.temperatures.nbytes + block.scaled.nbytes
    )


def _observe_tau(counts, args, result):
    s = args[1]
    size = getattr(s, "size", 1)
    shape = getattr(s, "shape", ())
    counts["temperature.tau.entries"] += size
    if len(shape) == 2 and shape[1] == shape[0] - 1:
        # a 2Nx(2N-1) block holds every unordered pair of its 2N rows twice
        counts["temperature.tau.unique_pairs"] += size // 2
    else:
        counts["temperature.tau.unique_pairs"] += size


def _observe_encode(counts, args, result):
    counts["encoder.encode.rows"] += len(args[1])


_OBSERVERS = {
    "geometry.build_logits_block": _observe_block,
    "temperature.TemperatureProfile.tau": _observe_tau,
    "encoder.encode": _observe_encode,
}
