"""Loss and gradient tests against scalar and finite-difference oracles."""

import math

import numpy as np
import pytest

from conftest import (
    permuted_batch,
    random_batch,
    reference_grad_dz,
    reference_loss_with_profile,
    reference_ntxent,
)

from dystress.errors import BatchTooSmallError, NumericError, ValidationError
from dystress.geometry import (
    EmbeddingBatch,
    LogitsBlock,
    build_logits_block,
    l2_normalize,
)
from dystress.loss import (
    LossMode,
    chain_to_embeddings,
    forward,
    forward_from_block,
    grad_wrt_embeddings,
    grad_wrt_similarity,
    loss_on_embeddings,
)
from dystress.numeric import finite_difference_grad, max_relative_error
from dystress.temperature import TAU_MIN_FLOOR, TemperatureProfile

COSINE = TemperatureProfile("cosine_vanilla", 0.1, 0.2)

ALL_VARIANTS = [
    TemperatureProfile("constant", 0.15, 0.15),
    COSINE,
    TemperatureProfile("cosine_shifted", 0.1, 0.2, shift=-0.4, scale=0.7),
    TemperatureProfile("linear", 0.1, 0.3),
    TemperatureProfile("exponential", 0.1, 0.3, sharpness=2.0),
    TemperatureProfile("monotonic_cosine", 0.1, 0.2),
]


def fd_dz(batch, profile, mode):
    """Finite-difference oracle for dL/dz in either mode."""
    z = batch.stacked()
    frozen_at = z if mode is LossMode.DETACHED else None
    f = lambda flat: loss_on_embeddings(flat.reshape(z.shape), profile, frozen_at)
    return finite_difference_grad(f, z.ravel()).reshape(z.shape)


class TestForward:
    def test_orthogonal_batch_ln3(self):
        v = np.eye(4)
        batch = EmbeddingBatch(v[:2], v[2:], ["a", "b"])
        value = forward(batch, TemperatureProfile("constant", 1.0, 1.0))
        assert abs(value - math.log(3.0)) < 1e-12

    def test_matches_independent_ntxent(self, rng):
        for _ in range(20):
            batch = random_batch(rng, 8, 16)
            ours = forward(batch, TemperatureProfile("constant", 0.1, 0.1))
            ref = reference_ntxent(batch.view_a, batch.view_b, 0.1)
            assert abs(ours - ref) < 1e-10

    def test_matches_scalar_oracle_with_cosine_profile(self, rng):
        batch = random_batch(rng, 2, 5)
        ours = forward(batch, COSINE)
        ref = reference_loss_with_profile(batch.view_a, batch.view_b, COSINE)
        assert abs(ours - ref) < 1e-12


class TestGradWrtSimilarity:
    def test_engineered_half_probability_row(self):
        # scaled row [ln 2, 0, 0] gives p_pos = 0.5; with tau = 0.1 everywhere
        # the positive-column gradient is -(1/0.1) * (1 - 0.5) / (2N) = -1.25
        n = 2
        scaled = np.array(
            [
                [math.log(2.0), 0.0, 0.0],
                [math.log(2.0), 0.0, 0.0],
                [math.log(2.0), 0.0, 0.0],
                [math.log(2.0), 0.0, 0.0],
            ]
        )
        # row r has its positive at column r % n = 0 for rows 0 and 2... use
        # rows where the positive sits at column 0 (rows 0 and 2 of N=2)
        temps = np.full_like(scaled, 0.1)
        block = LogitsBlock(
            s=scaled * 0.1,
            temperatures=temps,
            scaled=scaled,
            n=n,
            profile=TemperatureProfile("constant", 0.1, 0.1),
        )
        g = grad_wrt_similarity(block)
        assert abs(g[0, 0] - (-1.25)) < 1e-12  # rows 0, 2 have positive at col 0
        assert abs(g[2, 0] - (-1.25)) < 1e-12

    def test_constant_profile_coupled_equals_detached(self, rng):
        batch = random_batch(rng, 4, 6)
        block = build_logits_block(batch, TemperatureProfile("constant", 0.1, 0.1))
        gd = grad_wrt_similarity(block, LossMode.DETACHED)
        gc = grad_wrt_similarity(block, LossMode.COUPLED)
        assert np.array_equal(gd, gc)

    def test_coupled_differs_on_cosine(self, rng):
        batch = random_batch(rng, 4, 6)
        block = build_logits_block(batch, COSINE)
        gd = grad_wrt_similarity(block, LossMode.DETACHED)
        gc = grad_wrt_similarity(block, LossMode.COUPLED)
        assert not np.allclose(gd, gc)

    def test_sign_structure(self, rng):
        for _ in range(10):
            batch = random_batch(rng, 5, 7)
            block = build_logits_block(batch, COSINE)
            g = grad_wrt_similarity(block)
            rows = np.arange(block.num_rows)
            pos = g[rows, block.positive_column]
            assert np.all(pos <= 0)
            mask = np.ones_like(g, dtype=bool)
            mask[rows, block.positive_column] = False
            assert np.all(g[mask] >= 0)

    def test_coupled_matches_finite_differences_of_scaled_chain(self, rng):
        batch = random_batch(rng, 4, 5)
        bundle = grad_wrt_embeddings(batch.stacked(), COSINE, LossMode.COUPLED)
        fd = fd_dz(batch, COSINE, LossMode.COUPLED)
        assert max_relative_error(bundle.dL_dz, fd) < 1e-4


class TestGradWrtEmbeddings:
    @pytest.mark.parametrize("mode", [LossMode.DETACHED, LossMode.COUPLED])
    def test_matches_finite_differences(self, rng, mode):
        for _ in range(10):
            n = 2 + int(rng.uniform() * 6)
            d = 3 + int(rng.uniform() * 13)
            batch = random_batch(rng, n, d)
            bundle = grad_wrt_embeddings(batch.stacked(), COSINE, mode)
            fd = fd_dz(batch, COSINE, mode)
            assert max_relative_error(bundle.dL_dz, fd) < 1e-4

    def test_matches_scalar_loop_reference(self, rng):
        # the scalar loop realizes the displacement-vector structure term by
        # term: -(1-p)/tau toward the positive, +p/tau away from each
        # negative, accumulated for both orderings of every pair
        for _ in range(5):
            batch = random_batch(rng, 4, 3)
            bundle = grad_wrt_embeddings(batch.stacked(), COSINE, LossMode.DETACHED)
            ref = reference_grad_dz(batch.view_a, batch.view_b, COSINE)
            assert np.allclose(bundle.dL_dz, ref, atol=1e-12)

    def test_identical_orthogonal_views_equal_weights(self):
        n = 4
        v = np.eye(n)
        batch = EmbeddingBatch(v, v.copy(), [f"s{i}" for i in range(n)])
        bundle = grad_wrt_embeddings(batch.stacked(), TemperatureProfile("constant", 0.2, 0.2))
        g0 = bundle.dL_dz[0]
        others = [float(g0 @ v[j]) for j in range(1, n)]
        assert np.allclose(others, others[0], atol=1e-12)
        assert abs(others[0]) > 0

    def test_constant_profile_modes_bit_identical(self, rng):
        batch = random_batch(rng, 5, 8)
        const = TemperatureProfile("constant", 0.15, 0.15)
        a = grad_wrt_embeddings(batch.stacked(), const, LossMode.DETACHED)
        b = grad_wrt_embeddings(batch.stacked(), const, LossMode.COUPLED)
        assert np.array_equal(a.dL_dz, b.dL_dz)
        assert a.loss == b.loss

    def test_permutation_equivariance(self, rng):
        batch = random_batch(rng, 6, 4)
        perm = rng.permutation(6)
        bundle = grad_wrt_embeddings(batch.stacked(), COSINE)
        bundle_p = grad_wrt_embeddings(permuted_batch(batch, perm).stacked(), COSINE)
        grads = bundle.dL_dz
        grads_p = bundle_p.dL_dz
        assert np.allclose(grads_p[:6], grads[:6][perm], atol=1e-12)
        assert np.allclose(grads_p[6:], grads[6:][perm], atol=1e-12)

    def test_descent_step_decreases_loss(self, rng):
        for _ in range(10):
            batch = random_batch(rng, 6, 8)
            bundle = grad_wrt_embeddings(batch.stacked(), COSINE)
            z = batch.stacked() - 1e-3 * bundle.dL_dz
            stepped = EmbeddingBatch(
                l2_normalize(z[:6]), l2_normalize(z[6:]), batch.sample_ids
            )
            assert forward(stepped, COSINE) < bundle.loss


class TestGramKernel:
    """The one InfoNCE function (training, eval, gradcheck) against the LogitsBlock reference."""

    @pytest.mark.parametrize("mode", [LossMode.DETACHED, LossMode.COUPLED])
    @pytest.mark.parametrize("profile", ALL_VARIANTS, ids=lambda p: p.variant)
    def test_parity_with_block_reference(self, rng, monkeypatch, profile, mode):
        seen = []
        tau = TemperatureProfile.tau

        def spy(self, s):
            seen.append(np.size(s))
            return tau(self, s)

        monkeypatch.setattr(TemperatureProfile, "tau", spy)
        for n in (2, 3, 7, 64, 52):
            batch = random_batch(rng, n, 9)
            block = build_logits_block(batch, profile)
            ref_loss = forward_from_block(block)
            ref_dz = chain_to_embeddings(batch, grad_wrt_similarity(block, mode))

            seen.clear()
            bundle = grad_wrt_embeddings(batch.stacked(), profile, mode)
            assert sum(seen) <= 2 * n * n, f"N={n}: tau saw {sum(seen)} entries"
            seen.clear()
            loss = forward(batch, profile)
            assert sum(seen) <= 2 * n * n, f"N={n}: tau saw {sum(seen)} entries"

            assert abs(bundle.loss - ref_loss) <= 1e-12 * abs(ref_loss), f"N={n}"
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss), f"N={n}"
            assert max_relative_error(bundle.dL_dz, ref_dz) < 1e-12, f"N={n}"

    @pytest.mark.parametrize("mode", [LossMode.DETACHED, LossMode.COUPLED])
    @pytest.mark.parametrize(
        "profile",
        [
            TemperatureProfile("constant", TAU_MIN_FLOOR, TAU_MIN_FLOOR),
            TemperatureProfile("cosine_vanilla", TAU_MIN_FLOOR, 0.2),
            TemperatureProfile("exponential", TAU_MIN_FLOOR, 0.2, sharpness=2.0),
        ],
        ids=lambda p: p.variant,
    )
    def test_parity_at_tau_min_floor(self, rng, profile, mode):
        # the shift 1/tau_min is largest here; an antipodal batch puts every
        # positive at s = -1, where a constant profile's exp(logit - shift)
        # reaches its floor exp(-2/tau_min). log(S) then carries an absolute
        # error of a few ulp of 2/tau_min, which a loss near 1e-9 (possible
        # at N=2) reads as a large relative one, so the bounds are relative
        # to at least 1.0
        def close(value, reference):
            return np.max(np.abs(value - reference)) <= 1e-12 * max(np.max(np.abs(reference)), 1.0)

        batches = [random_batch(rng, n, 9) for n in (2, 7, 64)]
        a = random_batch(rng, 7, 9).view_a
        batches.append(EmbeddingBatch(a, -a, [f"s{i}" for i in range(7)]))
        for batch in batches:
            block = build_logits_block(batch, profile)
            ref_loss = forward_from_block(block)
            ref_dz = chain_to_embeddings(batch, grad_wrt_similarity(block, mode))
            bundle = grad_wrt_embeddings(batch.stacked(), profile, mode)
            assert close(bundle.loss, ref_loss), f"N={batch.n}"
            assert close(forward(batch, profile), ref_loss), f"N={batch.n}"
            assert close(bundle.dL_dz, ref_dz), f"N={batch.n}"

    def test_frozen_temperatures_match_profile(self, rng):
        z = random_batch(rng, 7, 5).stacked()
        value = loss_on_embeddings(z, COSINE)
        assert abs(loss_on_embeddings(z, COSINE, frozen_at=z) - value) <= 1e-14 * abs(value)

    def test_frozen_temperatures_shape_checked(self, rng):
        z = random_batch(rng, 4, 5).stacked()
        for shape in ((8, 8), (6, 5), (8, 5, 1)):
            with pytest.raises(ValidationError, match="frozen_at"):
                loss_on_embeddings(z, COSINE, frozen_at=np.full(shape, 0.1))

    @pytest.mark.parametrize("mode", [LossMode.DETACHED, LossMode.COUPLED])
    def test_bit_stable_across_memory_offsets(self, rng, mode):
        # rows of 2N = 200 exceed one pairwise-summation block, so the row
        # reduction recurses; its order must not depend on the address
        n, d = 100, 16
        z = l2_normalize(rng.normal((2 * n, d)))
        base = grad_wrt_embeddings(z, COSINE, mode)
        for offset in (1, 2, 3):
            buf = np.zeros(z.size + offset)
            shifted = buf[offset:].reshape(z.shape)
            shifted[...] = z
            bundle = grad_wrt_embeddings(shifted, COSINE, mode)
            assert bundle.loss == base.loss
            assert np.array_equal(bundle.dL_dz, base.dL_dz)
            assert loss_on_embeddings(shifted, COSINE) == base.loss

    def test_non_finite_embeddings_raise(self, rng):
        z = l2_normalize(rng.normal((8, 5)))
        z[2, 0] = np.nan
        with pytest.raises(NumericError):
            loss_on_embeddings(z, COSINE)

    def test_single_sample_rejected(self):
        with pytest.raises(BatchTooSmallError):
            loss_on_embeddings(np.eye(2), COSINE)


class TestNtXentEquivalence:
    def test_constant_profile_equals_fixed_temperature(self, rng):
        # gradients too: compare against the same chain evaluated through an
        # independently coded scalar reference
        for _ in range(10):
            batch = random_batch(rng, 6, 8)
            const = TemperatureProfile("constant", 0.1, 0.1)
            ours = grad_wrt_embeddings(batch.stacked(), const)
            assert abs(ours.loss - reference_ntxent(batch.view_a, batch.view_b, 0.1)) < 1e-10
            ref_dz = reference_grad_dz(batch.view_a, batch.view_b, const)
            assert np.max(np.abs(ours.dL_dz - ref_dz)) < 1e-10


class TestLossOnEmbeddings:
    def test_agrees_with_forward_on_unit_batch(self, rng):
        batch = random_batch(rng, 4, 5)
        assert abs(loss_on_embeddings(batch.stacked(), COSINE) - forward(batch, COSINE)) < 1e-12

    @pytest.mark.parametrize("entry", [loss_on_embeddings, grad_wrt_embeddings], ids=lambda f: f.__name__)
    def test_rejects_odd_stack(self, entry):
        for z in (np.zeros((3, 4)), np.zeros(4)):
            with pytest.raises(ValidationError, match="2N x D"):
                entry(z, COSINE)

    @pytest.mark.parametrize("entry", [loss_on_embeddings, grad_wrt_embeddings], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_stack(self, rng, entry, value):
        # the clamp would turn an infinite similarity into +-1 and hide it
        z = random_batch(rng, 2, 4).stacked()
        z[1] = [value, 1.0, 1.0, 1.0]
        with pytest.raises(NumericError, match="non-finite"):
            entry(z, COSINE)
