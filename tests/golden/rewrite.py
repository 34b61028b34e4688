"""Golden artifacts of acceptance check c10's config, and the script that rewrites them.

`c10.json` holds the SHA-256 digest of each of the five deterministic
artifacts of one `dystress simulate` run of c10's config (10 epochs, an eval
every 5), the text of its `metrics.csv`, and the environment those bits
belong to: the NumPy version and the configuration string of NumPy's bundled
OpenBLAS, whose kernel (SkylakeX, Haswell, ...) decides the low bits.
`tests/test_golden.py` reruns the config and compares.

Rewrite the golden only when a change is meant to move bits, and say so;
`--check` compares a fresh run with it instead:

    PYTHONPATH=src python tests/golden/rewrite.py [--check]
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "c10.json"
ARTIFACTS = (
    "metrics.csv",
    "histogram_epoch0.csv",
    "histogram_final.csv",
    "embeddings.jsonl",
    "checkpoint.json",
)
# Forcing each of OpenBLAS's SkylakeX, Haswell, SandyBridge, Nehalem and
# Katmai kernels (OPENBLAS_CORETYPE) moved no metrics.csv value by more than
# 1.9e-16 relative, about one ulp; this bound leaves a margin of 5000.
RELATIVE_TOLERANCE = 1e-12
# c10's config in tests/test_acceptance.py: SWEEP_BASE with 10 epochs and an eval every 5
C10_CONFIG = {
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
    "epochs": 10,
    "eval_every": 5,
    "knn_k": 5,
}


def openblas_config() -> Optional[str]:
    """`scipy_openblas_get_config64_()` of the OpenBLAS that NumPy's wheel bundles, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            get_config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return get_config().decode()
    return None


def environment_key() -> dict:
    return {"numpy": np.__version__, "openblas": openblas_config()}


def run_c10(work: Path) -> Path:
    """Run c10's config through the CLI into work/run; returns the run directory."""
    from dystress.cli import EXIT_OK, main

    config_path = work / "config.json"
    config_path.write_text(json.dumps(C10_CONFIG), encoding="utf-8")
    out_dir = work / "run"
    code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
    if code != EXIT_OK:
        raise RuntimeError(f"simulate exited {code}")
    return out_dir


def digests(run_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def metric_rows(metrics_csv: str) -> tuple[str, np.ndarray]:
    header, *rows = metrics_csv.strip().splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


def check(run_dir: Path, rtol: float = RELATIVE_TOLERANCE) -> str:
    """Compare a run with the golden; returns the branch that ran, "exact" or "tolerance".

    Where the environment key matches, every artifact must be byte-identical.
    Elsewhere the low bits may differ, so only the `metrics.csv` values are
    compared, within `rtol` of the golden's.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if environment_key() == golden["environment"]:
        assert digests(run_dir) == golden["sha256"]
        return "exact"
    header, values = metric_rows((run_dir / "metrics.csv").read_text(encoding="utf-8"))
    golden_header, golden_values = metric_rows(golden["metrics_csv"])
    assert header == golden_header and values.shape == golden_values.shape
    np.testing.assert_allclose(values, golden_values, rtol=rtol, atol=0.0)
    return "tolerance"


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = run_c10(Path(tmp))
        if "--check" in argv:
            print(f"golden: {check(run_dir)} branch, environment {environment_key()}")
            return 0
        golden = {
            "environment": environment_key(),
            "sha256": digests(run_dir),
            "metrics_csv": (run_dir / "metrics.csv").read_text(encoding="utf-8"),
        }
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} for {golden['environment']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
