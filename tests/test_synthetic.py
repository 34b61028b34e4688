"""Synthetic data generation, augmentation, and batching tests."""

import json

import numpy as np
import pytest

from dystress.errors import ValidationError
from dystress.geometry import l2_normalize
from dystress.numeric import Rng
from dystress.synthetic import (
    Dataset,
    SyntheticSpec,
    augment_views,
    generate,
    generate_eval_split,
    holdout_split,
    make_batches,
    read_dataset,
    write_dataset,
)


def spec(**over):
    base = dict(
        num_classes=4,
        samples_per_class=25,
        ambient_dim=8,
        intra_class_sigma=0.2,
        augment_sigma=0.1,
    )
    base.update(over)
    return SyntheticSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        d1, d2 = generate(spec(), 7), generate(spec(), 7)
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.labels, d2.labels)
        assert np.array_equal(d1.class_centers, d2.class_centers)

    def test_different_seed_differs(self):
        assert not np.array_equal(generate(spec(), 7).inputs, generate(spec(), 8).inputs)

    def test_tiny_sigma_collapses_to_centers(self):
        ds = generate(spec(intra_class_sigma=1e-9), 7)
        for c in range(4):
            pts = ds.inputs[ds.labels == c]
            assert np.max(np.abs(pts - ds.class_centers[c])) < 1e-6

    def test_balanced_sizes(self):
        ds = generate(spec(), 7)
        _, counts = np.unique(ds.labels, return_counts=True)
        assert np.all(counts == 25)

    def test_long_tail_sizes(self):
        s = spec(long_tail_rho=0.5, samples_per_class=16)
        assert s.class_sizes() == [16, 8, 4, 2]
        ds = generate(s, 7)
        _, counts = np.unique(ds.labels, return_counts=True)
        assert list(counts) == [16, 8, 4, 2]

    def test_long_tail_floor_of_one(self):
        s = spec(num_classes=8, samples_per_class=4, long_tail_rho=0.3)
        assert min(s.class_sizes()) == 1

    def test_all_unit_norm(self):
        ds = generate(spec(), 7)
        assert np.max(np.abs(np.linalg.norm(ds.inputs, axis=1) - 1.0)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(ds.class_centers, axis=1) - 1.0)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            spec(num_classes=1)
        with pytest.raises(ValidationError):
            spec(intra_class_sigma=0.0)
        with pytest.raises(ValidationError):
            spec(long_tail_rho=0.0)


class TestAugment:
    def test_zero_sigma_views_equal(self):
        rng = Rng(1)
        x = l2_normalize(rng.normal((1, 8)))
        v1, v2 = augment_views(x, 0.0, rng)
        assert np.array_equal(v1, v2)
        assert np.allclose(v1, x, atol=1e-12)

    def test_views_differ_with_noise(self):
        rng = Rng(2)
        x = l2_normalize(rng.normal((1, 8)))
        v1, v2 = augment_views(x, 0.1, rng)
        assert not np.array_equal(v1, v2)

    def test_small_sigma_mean_cosine_bound(self):
        # Monte-Carlo: with sigma 1e-3 at D=8 the expected 1 - cos is about
        # sigma^2 (D-1) = 7e-6, so the mean cosine clears 0.99999
        rng = Rng(3)
        x = l2_normalize(rng.normal(8))
        v1, v2 = augment_views(np.tile(x, (10_000, 1)), 1e-3, rng)
        cosines = np.sum(v1 * v2, axis=1)
        assert np.mean(cosines) > 0.99999

    def test_batched_matches_unit_norms(self):
        rng = Rng(4)
        inputs = l2_normalize(rng.normal((30, 6)))
        v1, v2 = augment_views(inputs, 0.2, rng)
        assert np.max(np.abs(np.linalg.norm(v1, axis=1) - 1.0)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(v2, axis=1) - 1.0)) < 1e-9


class _CancellingRng:
    """Rng stand-in whose noise blocks cancel one input row in each view.

    Records the shape of every draw; the redraws are plain Gaussian rows.
    """

    def __init__(self, inputs, sigma, rows):
        self.inputs, self.sigma, self.rows = inputs, sigma, list(rows)
        self.draws = []
        self.source = Rng(8)

    def normal(self, shape):
        noise = self.source.normal(shape)
        self.draws.append(noise)
        if np.ndim(noise) == 2:
            row = self.rows.pop(0)
            noise[row] = -self.inputs[row] / self.sigma
        return noise


class TestAugmentRedraw:
    def test_cancelled_rows_are_redrawn_in_order(self):
        sigma = 0.5
        inputs = l2_normalize(Rng(9).normal((6, 4)))
        rng = _CancellingRng(inputs, sigma, rows=[1, 4])
        v1, v2 = augment_views(inputs, sigma, rng)
        # view 1's block, view 2's block, then view 1's redraw and view 2's
        assert [np.shape(d) for d in rng.draws] == [(6, 4), (6, 4), (4,), (4,)]
        noisy1 = inputs + sigma * rng.draws[0]
        noisy2 = inputs + sigma * rng.draws[1]
        assert np.linalg.norm(noisy1[1]) <= 1e-12 and np.linalg.norm(noisy2[4]) <= 1e-12
        noisy1[1] = inputs[1] + sigma * rng.draws[2]
        noisy2[4] = inputs[4] + sigma * rng.draws[3]
        # bit for bit what l2_normalize gives the redrawn views
        assert np.array_equal(v1, l2_normalize(noisy1))
        assert np.array_equal(v2, l2_normalize(noisy2))


class TestMakeBatches:
    def _dataset(self, n):
        pts = l2_normalize(Rng(0).normal((n, 4)))
        return Dataset(pts, np.zeros(n, dtype=np.int64), None, [f"s{i}" for i in range(n)])

    def test_full_batch_is_permutation(self):
        ds = self._dataset(12)
        batches = make_batches(ds, 12, Rng(5))
        assert len(batches) == 1
        assert sorted(batches[0]) == list(range(12))

    def test_remainder_below_two_dropped(self):
        ds = self._dataset(10)
        batches = make_batches(ds, 3, Rng(5))
        assert [len(b) for b in batches] == [3, 3, 3]

    def test_remainder_of_two_kept(self):
        ds = self._dataset(11)
        batches = make_batches(ds, 3, Rng(5))
        assert [len(b) for b in batches] == [3, 3, 3, 2]

    def test_same_seed_same_batches(self):
        ds = self._dataset(20)
        b1 = make_batches(ds, 6, Rng(9))
        b2 = make_batches(ds, 6, Rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(b1, b2))

    def test_batch_size_floor(self):
        for batch_size in (1, 2.5):
            with pytest.raises(ValidationError, match="batch size"):
                make_batches(self._dataset(4), batch_size, Rng(0))


class TestFalseNegativeFraction:
    def test_matches_class_size_distribution(self):
        # balanced C classes: an anchor's expected share of same-class
        # entries among its negatives is (M-1)/(C M - 1)
        s = spec(num_classes=5, samples_per_class=20)
        ds = generate(s, 11)
        c, m = 5, 20
        expected = (m - 1) / (c * m - 1)
        rng = Rng(13)
        fractions = []
        for _ in range(100):
            idx = make_batches(ds, 32, rng)[0]
            labels = ds.labels[idx]
            per_anchor = []
            for i, lab in enumerate(labels):
                same = int(np.sum(labels == lab)) - 1
                per_anchor.append(same / (len(labels) - 1))
            fractions.append(np.mean(per_anchor))
        mean = float(np.mean(fractions))
        se = float(np.std(fractions, ddof=1) / np.sqrt(len(fractions)))
        assert abs(mean - expected) < 3 * se + 1e-9


class TestEvalSplit:
    def test_sizes_and_labels(self):
        s = spec(samples_per_class=25)
        ds = generate(s, 7)
        test = generate_eval_split(s, ds.class_centers, Rng(1).substream("testdata"))
        _, counts = np.unique(test.labels, return_counts=True)
        assert list(counts) == [5, 5, 5, 5]

    def test_holdout_split_partitions(self):
        ds = generate(spec(), 7)
        train, test = holdout_split(ds)
        assert train.size + test.size == ds.size
        assert set(train.sample_ids).isdisjoint(test.sample_ids)
        # every class appears in the test split
        assert set(np.unique(test.labels)) == set(np.unique(ds.labels))


class TestDatasetDump:
    def test_round_trip(self, tmp_path):
        ds = generate(spec(), 7)
        path = tmp_path / "data.jsonl"
        write_dataset(path, ds)
        loaded = read_dataset(path)
        assert np.allclose(loaded.inputs, ds.inputs, atol=1e-15)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.class_centers is None

    def test_bad_record_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "label": 0, "x": [1.0]}\n{"id": "b"}\n')
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "b", "label": 9223372036854775808, "x": [1.0, 2.0]}',
            '{"id": "b", "label": 1.5, "x": [1.0, 2.0]}',
            '{"id": "b", "label": true, "x": [1.0, 2.0]}',
            '{"id": "b", "label": "1", "x": [1.0, 2.0]}',
            '{"id": "b", "label": 1, "x": [1.0]}',
            '{"id": "b", "label": 1, "x": "01"}',
            "[" * 100000,
            '{"id": "a", "label": 1, "x": [1.0, 2.0]}',
        ],
        ids=[
            "label-beyond-int64", "label-float", "label-bool", "label-string", "x-ragged", "x-string", "deep-nesting",
            "id-repeated",
        ],
    )
    def test_bad_value_rejected_with_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "label": 0, "x": [1.0, 2.0]}\n' + line + "\n")
        with pytest.raises(ValidationError, match="^bad dataset record on line 2: "):
            read_dataset(path)

    def test_int64_label_bounds_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [{"id": "a", "label": -(2**63), "x": [1.0]}, {"id": "b", "label": 2**63 - 1, "x": [2.0]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert read_dataset(path).labels.tolist() == [-(2**63), 2**63 - 1]
