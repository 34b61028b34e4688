"""Geometry tests: normalization, block layout, pair classification, dumps."""

import numpy as np
import pytest

from conftest import permuted_batch, random_batch, reference_block_rows

from dystress.errors import BatchTooSmallError, DegenerateInputError, NumericError, ValidationError
from dystress.geometry import (
    EmbeddingBatch,
    PairKind,
    block_index_maps,
    build_logits_block,
    classify_pairs,
    l2_normalize,
    read_embedding_dump,
    write_embedding_dump,
)
from dystress.temperature import TemperatureProfile


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit_vectors(self):
        v = l2_normalize(np.array([1.0, 2.0, 2.0]))
        assert np.allclose(l2_normalize(v), v, atol=1e-15)

    def test_degenerate_norm(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize(np.array([1e-300, 0.0]))

    @pytest.mark.parametrize(
        "v",
        [[[1e200, 1e200, 0.0]], [[3.0, 4.0], [np.nan, 1.0]], [1e200, 1e200], [np.inf, 0.0]],
        ids=["overflowing-row", "nan-row", "overflowing-vector", "inf-vector"],
    )
    def test_non_finite_norm_is_a_numeric_error(self, v):
        # an overflowing norm once divided the row down to zeros
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="norm"):
            l2_normalize(np.array(v))

    def test_rows(self):
        m = l2_normalize(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-15)


class TestBuildLogitsBlock:
    def test_layout_matches_scalar_reference(self, rng):
        batch = random_batch(rng, 2, 5)
        block = build_logits_block(batch, TemperatureProfile("constant", 0.5, 0.5))
        assert block.s.shape == (4, 3)
        ref = reference_block_rows(batch.view_a, batch.view_b)
        for r, (row, pos) in enumerate(ref):
            assert np.allclose(block.s[r], row, atol=1e-12)
            assert block.positive_column[r] == pos

    def test_cross_view_positive_entries(self, rng):
        batch = random_batch(rng, 5, 4)
        block = build_logits_block(batch, TemperatureProfile("constant", 1.0, 1.0))
        for i in range(5):
            want = float(np.dot(batch.view_a[i], batch.view_b[i]))
            assert abs(block.s[i, i] - want) < 1e-12
            assert abs(block.s[5 + i, i] - want) < 1e-12

    def test_identical_views_positive_column_is_one(self, rng):
        z = l2_normalize(rng.normal((3, 6)))
        batch = EmbeddingBatch(z, z.copy(), ["a", "b", "c"])
        block = build_logits_block(batch, TemperatureProfile("constant", 0.1, 0.1))
        rows = np.arange(6)
        assert np.allclose(block.s[rows, block.positive_column], 1.0, atol=1e-12)

    def test_constant_profile_scaled_is_division(self, rng):
        batch = random_batch(rng, 3, 4)
        block = build_logits_block(batch, TemperatureProfile("constant", 0.25, 0.25))
        assert np.array_equal(block.scaled, block.s / 0.25)

    def test_batch_too_small(self, rng):
        batch = random_batch(rng, 2, 4)
        tiny = EmbeddingBatch(batch.view_a[:1], batch.view_b[:1], ["s0"])
        with pytest.raises(BatchTooSmallError):
            build_logits_block(tiny, TemperatureProfile("constant", 0.1, 0.1))

    def test_temperatures_within_profile_range(self, rng):
        batch = random_batch(rng, 6, 3)
        profile = TemperatureProfile("cosine_vanilla", 0.07, 0.3)
        block = build_logits_block(batch, profile)
        assert np.all(block.temperatures >= 0.07 - 1e-12)
        assert np.all(block.temperatures <= 0.3 + 1e-12)

    def test_permutation_equivariance(self, rng):
        batch = random_batch(rng, 5, 4, labels=np.array([0, 1, 0, 2, 1]))
        profile = TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        perm = rng.permutation(5)
        block = build_logits_block(batch, profile)
        block_p = build_logits_block(permuted_batch(batch, perm), profile)
        # multiset of similarity values is unchanged
        assert np.allclose(np.sort(block.s.ravel()), np.sort(block_p.s.ravel()), atol=1e-12)
        # positive entries map through the permutation
        rows = np.arange(5)
        pos = block.s[rows, rows % 5]
        pos_p = block_p.s[rows, rows % 5]
        assert np.allclose(pos_p, pos[perm], atol=1e-12)

    def test_rotation_invariance(self, rng):
        batch = random_batch(rng, 4, 6)
        q, _ = np.linalg.qr(rng.normal((6, 6)))
        rotated = EmbeddingBatch(
            batch.view_a @ q.T, batch.view_b @ q.T, batch.sample_ids
        )
        profile = TemperatureProfile("cosine_vanilla", 0.1, 0.2)
        b1 = build_logits_block(batch, profile)
        b2 = build_logits_block(rotated, profile)
        assert np.allclose(b1.s, b2.s, atol=1e-10)

    def test_similarities_clamped(self):
        # antipodal + identical vectors sit exactly on the clamp boundary
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        batch = EmbeddingBatch(v, v.copy(), ["x", "y"])
        block = build_logits_block(batch, TemperatureProfile("constant", 1.0, 1.0))
        assert np.all(block.s <= 1.0) and np.all(block.s >= -1.0)


class TestBlockIndexMaps:
    def test_maps_agree_with_dot_products(self, rng):
        batch = random_batch(rng, 3, 4)
        anchor, other = block_index_maps(3)
        z = batch.stacked()
        block = build_logits_block(batch, TemperatureProfile("constant", 1.0, 1.0))
        for r in range(6):
            for c in range(5):
                want = float(np.dot(z[anchor[r, c]], z[other[r, c]]))
                assert abs(block.s[r, c] - want) < 1e-12


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_maps_pinned_to_scalar_reference(self, n):
        # 1-D embeddings of distinct primes: a product names its unordered pair
        primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])[: 2 * n, None]
        anchor, other = block_index_maps(n)
        for r, (row, pos) in enumerate(reference_block_rows(primes[:n], primes[n:])):
            assert anchor[r].tolist() == [r] * (2 * n - 1)
            assert row == [float(primes[r, 0] * primes[o, 0]) for o in other[r]]
            assert other[r, pos] == (r + n) % (2 * n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17])
    def test_maps_hold_each_ordered_pair_once(self, n):
        anchor, other = block_index_maps(n)
        pairs = sorted(zip(anchor.ravel().tolist(), other.ravel().tolist()))
        assert pairs == [(p, q) for p in range(2 * n) for q in range(2 * n) if p != q]


class TestClassifyPairs:
    def test_single_class_all_false_negative(self, rng):
        batch = random_batch(rng, 2, 4, labels=np.array([0, 0]))
        kinds = classify_pairs(batch)
        rows = np.arange(4)
        mask = np.ones_like(kinds, dtype=bool)
        mask[rows, rows % 2] = False
        assert np.all(kinds[mask] == PairKind.FALSE_NEGATIVE)
        assert np.all(kinds[rows, rows % 2] == PairKind.TRUE_POSITIVE)

    def test_disjoint_classes_all_true_negative(self, rng):
        batch = random_batch(rng, 2, 4, labels=np.array([0, 1]))
        kinds = classify_pairs(batch)
        rows = np.arange(4)
        mask = np.ones_like(kinds, dtype=bool)
        mask[rows, rows % 2] = False
        assert np.all(kinds[mask] == PairKind.TRUE_NEGATIVE)

    def test_three_samples_counts_by_enumeration(self, rng):
        # oracle: enumerate all 30 entries of the 6x5 block by hand rules
        labels = np.array([0, 0, 1])
        batch = random_batch(rng, 3, 4, labels=labels)
        kinds = classify_pairs(batch)
        anchor, other = block_index_maps(3)
        fn_expected = 0
        for r in range(6):
            for c in range(5):
                if c == r % 3:
                    continue
                sa, sb = anchor[r, c] % 3, other[r, c] % 3
                if labels[sa] == labels[sb]:
                    fn_expected += 1
        assert fn_expected == 8
        assert int(np.sum(kinds == PairKind.FALSE_NEGATIVE)) == 8
        assert int(np.sum(kinds == PairKind.TRUE_POSITIVE)) == 6

    def test_missing_labels_error(self, rng):
        batch = random_batch(rng, 3, 4)
        with pytest.raises(ValidationError):
            classify_pairs(batch)


class TestEmbeddingDump:
    def test_round_trip(self, tmp_path, rng):
        batch = random_batch(rng, 4, 3, labels=np.array([0, 1, 1, 0]))
        path = tmp_path / "dump.jsonl"
        write_embedding_dump(path, batch)
        loaded = read_embedding_dump(path)
        order = [loaded.sample_ids.index(s) for s in batch.sample_ids]
        assert np.allclose(loaded.view_a[order], batch.view_a, atol=1e-15)
        assert np.allclose(loaded.view_b[order], batch.view_b, atol=1e-15)
        assert np.array_equal(loaded.labels[order], batch.labels)

    def test_unpaired_views_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "label": 0, "view": "a", "z": [1.0, 0.0]}\n')
        with pytest.raises(ValidationError):
            read_embedding_dump(path)


class TestEmbeddingBatchValidation:
    def test_non_unit_rows_rejected(self):
        v = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            EmbeddingBatch(v, v.copy(), ["a", "b"])

    def test_nan_coordinate_rejected(self, rng):
        z = l2_normalize(rng.normal((4, 3)))
        z[2, 0] = np.nan
        with pytest.raises(ValidationError, match="view_b row 0"):
            EmbeddingBatch(z[:2], z[2:], ["a", "b"])
        z = l2_normalize(rng.normal((4, 3)))
        z[0, 2] = np.nan
        with pytest.raises(ValidationError, match="view_a row 0"):
            EmbeddingBatch(z[:2], z[2:], ["a", "b"])

    def test_label_alignment(self, rng):
        z = l2_normalize(rng.normal((4, 3)))
        with pytest.raises(ValidationError):
            EmbeddingBatch(z[:2], z[2:], ["a", "b"], labels=np.array([1, 2, 3]))
