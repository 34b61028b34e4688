"""Deterministic numeric substrate: seeded RNG, stable softmax, finite differences.

Everything here is float64. Row reductions inside kernels go through
`row_sums`, NumPy's pairwise summation along each contiguous row. Its order
depends only on the row length, not on the data or on where the array sits in
memory, so repeated runs produce bit-identical results on the same machine.

Evaluation over a whole dataset walks pair matrices in row chunks of at most
`CHUNK_ENTRIES` entries (`row_chunks`), always in the same order, so its peak
memory depends on the chunk size and not on the square of the dataset size.

`single_blas_thread` pins NumPy's bundled OpenBLAS to one thread, so that two
threads of one process can each run NumPy on their own core.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NumericError, ValidationError

DEFAULT_FD_EPS = 1e-6
CHUNK_ENTRIES = 2**18  # float64 entries per chunk of a pair matrix: 2 MiB


def _stream_id(tag: str) -> int:
    """Stable 64-bit id for a named substream (platform independent)."""
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Counter-based random generator (Philox) with derivable substreams.

    Two instances built with the same (seed, stream) produce identical
    sample streams. Substreams derived from one seed via `substream` are
    statistically independent, so data generation, weight init, and
    augmentation can share a single experiment seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= int(seed) < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self.stream = int(stream) % 2**64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, tag: str, index: int = 0) -> "Rng":
        """Fresh generator for (tag, index), derived from this seed only."""
        return Rng(self.seed, stream=_stream_id(tag) ^ (index * 0x9E3779B97F4A7C15))

    def uniform(self, size=None) -> np.ndarray:
        """Uniform float64 in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None) -> np.ndarray:
        """Standard normal float64 variates."""
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def row_sums(m: np.ndarray) -> np.ndarray:
    """Row sums by pairwise summation, in an order fixed by the row length."""
    return np.sum(m, axis=1)


def row_chunks(n_rows: int, width: int):
    """(start, stop) of consecutive row chunks of an n_rows x width matrix.

    Each chunk holds at most CHUNK_ENTRIES entries, and at least one row.
    No chunk has more rows than the matrix, so a chunk of an NxN pair matrix
    is never larger than the matrix itself.
    """
    step = max(1, min(n_rows, CHUNK_ENTRIES // max(width, 1)))
    for start in range(0, n_rows, step):
        yield start, min(start + step, n_rows)


@functools.cache
def _openblas_thread_calls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of the OpenBLAS that NumPy's wheel bundles, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def single_blas_thread() -> Iterator[bool]:
    """Run the block with OpenBLAS on one thread; yields whether the symbol was found.

    The thread count is process-wide; the previous count is restored on exit.
    Without NumPy's bundled OpenBLAS the block runs unchanged and gets False.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get_threads, set_threads = calls
    previous = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)


def stable_row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-12.

    Accepts any finite float matrix; magnitudes of order 1e3 do not overflow
    because the row maximum is subtracted before exponentiation.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        return stable_row_softmax(logits[None, :])[0]
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax input contains non-finite entries")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / row_sums(e)[:, None]


def row_log_sum_exp(logits: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) per row, max-shifted, summed with `row_sums`."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=1)
    return m + np.log(row_sums(np.exp(logits - m[:, None])))


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = DEFAULT_FD_EPS
) -> np.ndarray:
    """Central-difference gradient of a scalar field over a flat vector.

    Returns (f(x + eps*e_k) - f(x - eps*e_k)) / (2 eps) per coordinate.
    Raises NumericError naming the coordinate if an evaluation is non-finite.
    """
    if eps <= 0:
        raise ValidationError(f"finite-difference step must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    for k in range(x.size):
        orig = x[k]
        x[k] = orig + eps
        f_plus = f(x)
        x[k] = orig - eps
        f_minus = f(x)
        x[k] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite function value while perturbing coordinate {k}")
        grad[k] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float (CSV cell formatting)."""
    return repr(float(x))


def max_relative_error(approx: np.ndarray, reference: np.ndarray) -> float:
    """Norm-wise relative error: max|a - r| / max(max|r|, 1e-12)."""
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(float(np.max(np.abs(reference)) if reference.size else 0.0), 1e-12)
    return float(np.max(np.abs(approx - reference)) / scale) if approx.size else 0.0
