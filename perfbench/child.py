"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py <job.json>

The job file names the mode, the checkout root, the workload config and the
CLI arguments. The child imports `dystress` from the checkout's `src/`,
parses the config, and then, by mode:

- setup: stops there;
- gradcheck: runs `dystress gradcheck` in detached and coupled mode and
  records the interpreter, NumPy and BLAS environment;
- run: calls `dystress.cli.main(argv)` once, traced or not.

Its findings go to the job's result file as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _blas_info() -> dict:
    """BLAS vendor from NumPy's build config and its current thread count."""
    import ctypes
    import glob

    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if blas:
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))

    import dystress
    from dystress import cli, harness

    if Path(dystress.__file__).resolve().parent != (src / "dystress").resolve():
        print(f"dystress imported from {dystress.__file__}, not from {src}", file=sys.stderr)
        return 4
    if job["config_kind"] == "sweep":
        harness.load_sweep(job["config"])
    else:
        harness.load_config(job["config"])
    result = {"setup_s": time.monotonic() - job["spawn_t"]}

    if job["mode"] == "gradcheck":
        import platform

        import numpy as np

        result["exit_codes"] = [
            cli.main(["gradcheck", "--mode", mode, "--seed", str(job["seed"])])
            for mode in ("detached", "coupled")
        ]
        result["env"] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_info(),
        }
    elif job["mode"] == "run":
        tracer = None
        if job["trace"]:
            from tracer import Tracer  # perfbench/ is sys.path[0]

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit_code"] = cli.main(job["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mib"] = _peak_rss_mib()
        if tracer is not None:
            tracer.dump(job["spans"])

    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
