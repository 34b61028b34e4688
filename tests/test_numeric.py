"""Substrate tests: RNG determinism, stable softmax, finite differences."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dystress import numeric
from dystress.errors import NumericError, ValidationError
from dystress.numeric import (
    Rng,
    finite_difference_grad,
    max_relative_error,
    retain_freed_memory,
    single_blas_thread,
    stable_row_softmax,
)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(1234), Rng(1234)
        assert np.array_equal(a.uniform(10_000), b.uniform(10_000))
        assert np.array_equal(a.normal(10_000), b.normal(10_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_substreams_are_reproducible_and_distinct(self):
        root = Rng(99)
        s1 = root.substream("data").uniform(50)
        s2 = Rng(99).substream("data").uniform(50)
        s3 = root.substream("init").uniform(50)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_indexed_substreams_differ(self):
        root = Rng(5)
        a = root.substream("batches", index=0).uniform(20)
        b = root.substream("batches", index=1).uniform(20)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = Rng(7).uniform(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_bad_seed_rejected(self):
        # a float or bool seed is not truncated to an int, and the key is one 64-bit word
        for seed in (-1, 2**64, 2.7, True):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                Rng(seed)


class TestStableRowSoftmax:
    def test_symmetric_row(self):
        assert np.allclose(stable_row_softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_large_magnitude_no_overflow(self):
        p = stable_row_softmax(np.array([1000.0, 0.0]))
        assert abs(p[0] - 1.0) < 1e-12 and p[1] < 1e-12

    def test_frozen_values(self):
        # independent scalar evaluation: exp(k-3)/sum(exp(k-3)) for k=1,2,3
        p = stable_row_softmax(np.array([1.0, 2.0, 3.0]))
        expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
        assert np.allclose(p, expected, atol=1e-15)

    def test_rows_sum_to_one_under_extreme_inputs(self):
        rng = Rng(11)
        for _ in range(50):
            m = 1e3 * (rng.uniform((6, 9)) - 0.5)
            p = stable_row_softmax(m)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            stable_row_softmax(np.array([[np.inf, 0.0]]))


class TestFiniteDifferenceGrad:
    def test_quadratic(self):
        g = finite_difference_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_function(self):
        g = finite_difference_grad(lambda x: 4.2, np.arange(5.0))
        assert np.all(g == 0.0)

    def test_quadratic_form_accuracy(self):
        # f(x) = x.A x has gradient (A + A^T) x; central differences are
        # exact up to O(eps^2) truncation
        rng = Rng(21)
        a = rng.normal((6, 6))
        x = rng.normal(6)
        f = lambda v: float(v @ a @ v)
        fd = finite_difference_grad(f, x, eps=1e-5)
        exact = (a + a.T) @ x
        assert max_relative_error(fd, exact) < 1e-8

    def test_nonfinite_names_coordinate(self):
        def f(x):
            return float("nan") if x[1] > 0.5 else 0.0

        with pytest.raises(NumericError, match="coordinate 1"):
            finite_difference_grad(f, np.array([0.0, 0.5]), eps=1.0)

    def test_bad_eps(self):
        with pytest.raises(ValidationError):
            finite_difference_grad(lambda x: 0.0, np.zeros(2), eps=0.0)


class TestSingleBlasThread:
    def test_pins_one_thread_and_restores_the_count(self):
        calls = numeric._openblas_thread_calls()
        assert calls is not None, "NumPy's bundled OpenBLAS exports no thread-count calls"
        get_threads, set_threads = calls
        before = get_threads()
        set_threads(2)  # a count the pin visibly changes
        try:
            with single_blas_thread() as pinned:
                assert pinned and get_threads() == 1
            assert get_threads() == 2
            with pytest.raises(RuntimeError):
                with single_blas_thread():
                    raise RuntimeError("block failed")
            assert get_threads() == 2
        finally:
            set_threads(before)


# Prints the minor page faults of one 20-step training epoch after a warm-up epoch.
FAULT_PROBE = """
import resource
from dystress import encoder as enc, harness, synthetic
from dystress.numeric import Rng, retain_freed_memory, single_blas_thread

assert retain_freed_memory()
# 2560 samples: an epoch is 20 steps of the default batch of 128
config = harness.ExperimentConfig(synthetic=synthetic.SyntheticSpec(samples_per_class=256))
train_set = synthetic.generate(config.synthetic, config.seed)
rng = Rng(config.seed)
params = enc.init_params(config.encoder, rng.substream("init"))
state = enc.init_optimizer(params, config.optimizer)
# with OpenBLAS pinned, this thread runs all of a step's NumPy
who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
with single_blas_thread():
    harness._train_epoch(config, params, state, train_set, rng, epoch=0)  # warm-up
    before = resource.getrusage(who).ru_minflt
    harness._train_epoch(config, params, state, train_set, rng, epoch=1)
    print(resource.getrusage(who).ru_minflt - before)
"""


class TestRetainFreedMemory:
    def test_training_steps_fault_in_no_pages(self):
        if not retain_freed_memory():
            pytest.skip("no glibc mallopt in this process")
        # a fresh interpreter: in the suite's process a step can fault on pages that earlier
        # tests left, in a fragmented heap that the step grows or write-protected by a fork
        src = Path(numeric.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout)
        assert faults / 20 < 1.0, f"{faults} minor page faults in 20 training steps"

    def test_without_glibc_returns_false(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert retain_freed_memory.__wrapped__() is False  # a fresh call, past the cache
