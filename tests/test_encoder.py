"""Encoder forward/backward, optimizer, and checkpoint tests."""

import json

import numpy as np
import pytest

from dystress import encoder as enc
from dystress.errors import DegenerateInputError, NumericError, ValidationError
from dystress.loss import LossMode, grad_wrt_embeddings, loss_on_embeddings
from dystress.numeric import Rng, finite_difference_grad, max_relative_error
from dystress.temperature import TemperatureProfile

COSINE = TemperatureProfile.cosine_vanilla(0.1, 0.2)


def full_chain_check(spec, rng, mode=LossMode.DETACHED, n=4):
    """Relative error between backward() and finite differences of the
    loss-through-encoder scalar field over all parameters."""
    params = enc.init_params(spec, rng.substream("init"))
    x = rng.normal((2 * n, spec.layer_widths[0]))
    if spec.nonlinearity == "relu":
        # keep pre-activations away from the kink; re-draw if any is close
        for _ in range(50):
            _, cache = enc.encode(params, x)
            gap = min(float(np.min(np.abs(p))) for p in cache.pre_activations)
            if gap > 1e-4:
                break
            x = rng.normal((2 * n, spec.layer_widths[0]))
        else:
            raise AssertionError("could not find a kink-free input")
    z, cache = enc.encode(params, x)
    bundle = grad_wrt_embeddings(z, COSINE, mode)
    grads = enc.backward(params, cache, bundle.dL_dz)
    frozen_at = z if mode is LossMode.DETACHED else None

    def f(vec):
        candidate = enc.vector_to_params(spec, vec)
        zz, _ = enc.encode(candidate, x)
        return loss_on_embeddings(zz, COSINE, frozen_at)

    fd = finite_difference_grad(f, enc.params_to_vector(params))
    return max_relative_error(enc.grads_to_vector(grads), fd)


class TestEncode:
    def test_identity_layer_maps_unit_inputs_to_themselves(self):
        spec = enc.EncoderSpec((3, 3), "tanh")
        params = enc.EncoderParams(spec, [np.eye(3)], [np.zeros(3)])
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        z, _ = enc.encode(params, x)
        assert np.allclose(z, x, atol=1e-12)

    def test_zero_weights_degenerate(self):
        spec = enc.EncoderSpec((3, 4), "tanh")
        params = enc.EncoderParams(spec, [np.zeros((4, 3))], [np.zeros(4)])
        with pytest.raises(DegenerateInputError):
            enc.encode(params, np.ones((2, 3)))

    def test_outputs_unit_norm(self):
        rng = Rng(17)
        spec = enc.EncoderSpec((2, 8, 4), "tanh")
        params = enc.init_params(spec, rng)
        z, _ = enc.encode(params, rng.normal((10, 2)))
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-9

    def test_nonfinite_activation_names_layer(self):
        spec = enc.EncoderSpec((2, 3, 2), "relu")
        params = enc.init_params(spec, Rng(0))
        params.weights[1][:] = 1e300
        params.weights[0][:] = 1e10
        with pytest.raises(NumericError, match="layer 1"):
            enc.encode(params, np.ones((2, 2)) * 1e8)

    def test_shape_mismatch(self):
        spec = enc.EncoderSpec((3, 4), "tanh")
        params = enc.init_params(spec, Rng(0))
        with pytest.raises(ValidationError):
            enc.encode(params, np.ones((2, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("nonlinearity", ["tanh", "relu"])
    @pytest.mark.parametrize("which", ["weights", "biases"])
    def test_nonfinite_parameter_written_in_place_names_layer(self, value, nonlinearity, which):
        # as sgd_step writes: after construction, so only encode can see it
        params = enc.init_params(enc.EncoderSpec((3, 5, 4), nonlinearity), Rng(0))
        getattr(params, which)[1][2] = value
        with pytest.raises(NumericError, match="layer 1"):
            enc.encode(params, Rng(1).normal((6, 3)))


class TestBackward:
    def test_full_chain_tanh(self):
        rng = Rng(31)
        err = full_chain_check(enc.EncoderSpec((3, 8, 4), "tanh"), rng)
        assert err < 1e-4

    def test_full_chain_relu(self):
        rng = Rng(33)
        err = full_chain_check(enc.EncoderSpec((3, 8, 4), "relu"), rng)
        assert err < 1e-4

    def test_full_chain_coupled(self):
        rng = Rng(35)
        err = full_chain_check(enc.EncoderSpec((3, 6, 4), "tanh"), rng, mode=LossMode.COUPLED)
        assert err < 1e-4

    def test_gradient_orthogonal_to_output(self):
        rng = Rng(37)
        spec = enc.EncoderSpec((4, 6, 5), "tanh")
        params = enc.init_params(spec, rng)
        x = rng.normal((6, 4))
        z, cache = enc.encode(params, x)
        g_z = rng.normal(z.shape)
        # reproduce only the normalization-Jacobian step
        radial = np.sum(z * g_z, axis=1, keepdims=True)
        projected = (g_z - radial * z) / cache.norms[:, None]
        assert np.max(np.abs(np.sum(projected * z, axis=1))) < 1e-10

    def test_zero_gradient_zero_params_gradient(self):
        rng = Rng(39)
        spec = enc.EncoderSpec((3, 5, 4), "tanh")
        params = enc.init_params(spec, rng)
        _, cache = enc.encode(params, rng.normal((4, 3)))
        grads = enc.backward(params, cache, np.zeros((4, 4)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_cache_mismatch(self):
        rng = Rng(41)
        spec = enc.EncoderSpec((3, 4), "tanh")
        params = enc.init_params(spec, rng)
        _, cache = enc.encode(params, rng.normal((2, 3)))
        with pytest.raises(ValidationError):
            enc.backward(params, cache, np.zeros((2, 7)))


class TestSgdStep:
    def test_vanilla_step(self):
        spec = enc.EncoderSpec((2, 2), "tanh")
        params = enc.EncoderParams(spec, [np.ones((2, 2))], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.5, momentum=0.0, weight_decay=0.0))
        enc.sgd_step(params, [(np.full((2, 2), 2.0), np.array([4.0, 4.0]))], state)
        assert np.allclose(params.weights[0], 0.0, atol=1e-15)
        assert np.allclose(params.biases[0], -2.0, atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        spec = enc.EncoderSpec((2, 2), "tanh")
        params = enc.EncoderParams(spec, [np.eye(2)], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.1, momentum=0.9, weight_decay=0.0))
        enc.sgd_step(params, [(np.zeros((2, 2)), np.zeros(2))], state)
        assert np.array_equal(params.weights[0], np.eye(2))

    def test_momentum_recurrence(self):
        # constant gradient g: v1 = g, w1 = w0 - lr g; v2 = 1.9 g,
        # w2 = w0 - lr (1 + 1.9) g
        spec = enc.EncoderSpec((2, 2), "tanh")
        w0 = np.full((2, 2), 3.0)
        params = enc.EncoderParams(spec, [w0.copy()], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.1, momentum=0.9, weight_decay=0.0))
        g = (np.full((2, 2), 0.5), np.zeros(2))
        enc.sgd_step(params, [g], state)
        assert np.allclose(params.weights[0], w0 - 0.1 * 0.5, atol=1e-15)
        enc.sgd_step(params, [g], state)
        assert np.allclose(params.weights[0], w0 - 0.1 * 0.5 - 0.1 * 1.9 * 0.5, atol=1e-14)

    def test_weight_decay_enters_velocity(self):
        spec = enc.EncoderSpec((2, 2), "tanh")
        params = enc.EncoderParams(spec, [np.full((2, 2), 2.0)], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=1.0, momentum=0.0, weight_decay=0.5))
        enc.sgd_step(params, [(np.zeros((2, 2)), np.zeros(2))], state)
        # v = 0.5 * 2.0 = 1.0; w = 2.0 - 1.0
        assert np.allclose(params.weights[0], 1.0, atol=1e-15)


class TestDeterminism:
    def test_hundred_steps_bit_identical(self):
        def train(seed):
            rng = Rng(seed)
            spec = enc.EncoderSpec((4, 8, 4), "tanh")
            params = enc.init_params(spec, rng.substream("init"))
            state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.05))
            data_rng = rng.substream("data")
            for _ in range(100):
                x = data_rng.normal((8, 4))
                z, cache = enc.encode(params, x)
                bundle = grad_wrt_embeddings(z, COSINE)
                grads = enc.backward(params, cache, bundle.dL_dz)
                enc.sgd_step(params, grads, state)
            return params

        p1, p2 = train(123), train(123)
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(p1.biases, p2.biases):
            assert np.array_equal(b1, b2)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = Rng(55)
        spec = enc.EncoderSpec((3, 7, 4), "relu", init_scale=0.8)
        params = enc.init_params(spec, rng)
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, params)
        assert path.read_text().find("DYSTRESS-CKPT-1") >= 0
        loaded = enc.load_checkpoint(path)
        assert loaded.spec == spec
        for w1, w2 in zip(params.weights, loaded.weights):
            assert np.array_equal(w1, w2)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "nope"}')
        with pytest.raises(ValidationError):
            enc.load_checkpoint(path)


class TestParamsValidation:
    def test_wrong_shapes_rejected(self):
        spec = enc.EncoderSpec((3, 4), "tanh")
        with pytest.raises(ValidationError, match="layer 0"):
            enc.EncoderParams(spec, [np.zeros((3, 4))], [np.zeros(4)])
        with pytest.raises(ValidationError, match="layer 0"):
            enc.EncoderParams(spec, [np.zeros((4, 3))], [np.zeros(3)])
        with pytest.raises(ValidationError, match="count"):
            enc.EncoderParams(spec, [np.zeros((4, 3))] * 2, [np.zeros(4)] * 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["weights", "biases"])
    def test_nonfinite_values_rejected(self, value, which):
        params = enc.init_params(enc.EncoderSpec((3, 5, 4), "tanh"), Rng(0))
        getattr(params, which)[1][0] = value
        with pytest.raises(NumericError, match="layer 1"):
            enc.EncoderParams(params.spec, params.weights, params.biases)

    def test_checkpoint_with_nan_weight_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, enc.init_params(enc.EncoderSpec((3, 5, 4), "tanh"), Rng(0)))
        payload = json.loads(path.read_text())
        payload["weights"][1][7] = float("nan")
        path.write_text(json.dumps(payload))  # Python's json writes and reads NaN
        with pytest.raises(NumericError, match="layer 1"):
            enc.load_checkpoint(path)


class TestSpecValidation:
    def test_output_dim_floor(self):
        with pytest.raises(ValidationError):
            enc.EncoderSpec((4, 1), "tanh")

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValidationError):
            enc.EncoderSpec((4, 4), "gelu")
