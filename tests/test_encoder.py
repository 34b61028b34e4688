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


def layers(spec, weights, biases):
    return enc.EncoderParams.from_layers(spec, weights, biases)


def flat_grad(gw, gb):
    """A one-layer gradient in the flat layout: weights row-major, then biases."""
    return np.concatenate([np.ravel(gw), gb])


def pre_activations(params, x):
    """Each affine layer's output for inputs x, as encode computes it (relu between layers)."""
    out, h = [], x
    for w, b in zip(params.weights, params.biases):
        out.append(h @ w.T + b)
        h = np.maximum(out[-1], 0.0)
    return out


def full_chain_check(spec, rng, mode=LossMode.DETACHED, n=4):
    """Relative error between backward() and finite differences of the
    loss-through-encoder scalar field over all parameters."""
    params = enc.init_params(spec, rng.substream("init"))
    x = rng.normal((2 * n, spec.layer_widths[0]))
    if spec.nonlinearity == "relu":
        # keep pre-activations away from the kink; re-draw if any is close
        for _ in range(50):
            gap = min(float(np.min(np.abs(p))) for p in pre_activations(params, x))
            if gap > 1e-4:
                break
            x = rng.normal((2 * n, spec.layer_widths[0]))
        else:
            raise AssertionError("could not find a kink-free input")
    z, cache = enc.encode(params, x)
    bundle = grad_wrt_embeddings(z, COSINE, mode)
    grad = enc.backward(params, cache, bundle.dL_dz)
    frozen_at = z if mode is LossMode.DETACHED else None

    def f(vec):
        zz, _ = enc.encode(enc.EncoderParams(spec, vec), x)
        return loss_on_embeddings(zz, COSINE, frozen_at)

    return max_relative_error(grad, finite_difference_grad(f, params.flat))


class TestEncode:
    def test_identity_layer_maps_unit_inputs_to_themselves(self):
        spec = enc.EncoderSpec((3, 3), "tanh")
        params = layers(spec, [np.eye(3)], [np.zeros(3)])
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        z, _ = enc.encode(params, x)
        assert np.allclose(z, x, atol=1e-12)

    def test_zero_weights_degenerate(self):
        spec = enc.EncoderSpec((3, 4), "tanh")
        params = layers(spec, [np.zeros((4, 3))], [np.zeros(4)])
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
        grad = enc.backward(params, cache, np.zeros((4, 4)))
        assert grad.shape == params.flat.shape and np.all(grad == 0)

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
        params = layers(spec, [np.ones((2, 2))], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.5, momentum=0.0, weight_decay=0.0))
        enc.sgd_step(params, flat_grad(np.full((2, 2), 2.0), np.array([4.0, 4.0])), state)
        assert np.allclose(params.weights[0], 0.0, atol=1e-15)
        assert np.allclose(params.biases[0], -2.0, atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        spec = enc.EncoderSpec((2, 2), "tanh")
        params = layers(spec, [np.eye(2)], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.1, momentum=0.9, weight_decay=0.0))
        enc.sgd_step(params, np.zeros(6), state)
        assert np.array_equal(params.weights[0], np.eye(2))

    def test_momentum_recurrence(self):
        # constant gradient g: v1 = g, w1 = w0 - lr g; v2 = 1.9 g,
        # w2 = w0 - lr (1 + 1.9) g
        spec = enc.EncoderSpec((2, 2), "tanh")
        w0 = np.full((2, 2), 3.0)
        params = layers(spec, [w0], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=0.1, momentum=0.9, weight_decay=0.0))
        g = flat_grad(np.full((2, 2), 0.5), np.zeros(2))
        enc.sgd_step(params, g, state)
        assert np.allclose(params.weights[0], w0 - 0.1 * 0.5, atol=1e-15)
        enc.sgd_step(params, g, state)
        assert np.allclose(params.weights[0], w0 - 0.1 * 0.5 - 0.1 * 1.9 * 0.5, atol=1e-14)

    def test_weight_decay_enters_velocity(self):
        spec = enc.EncoderSpec((2, 2), "tanh")
        params = layers(spec, [np.full((2, 2), 2.0)], [np.zeros(2)])
        state = enc.init_optimizer(params, enc.OptimizerSettings(lr=1.0, momentum=0.0, weight_decay=0.5))
        enc.sgd_step(params, np.zeros(6), state)
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
                enc.sgd_step(params, enc.backward(params, cache, bundle.dL_dz), state)
            return params

        assert np.array_equal(train(123).flat, train(123).flat)


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
        assert np.array_equal(loaded.flat, params.flat)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "nope"}')
        with pytest.raises(ValidationError):
            enc.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload["weights"][1].pop(),  # one value short
            lambda payload: (payload["weights"].append([0.0] * 16), payload["biases"].append([0.0] * 4)),
        ],
        ids=["weight-list-short", "extra-layer"],
    )
    def test_malformed_weights_rejected(self, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, enc.init_params(enc.EncoderSpec((3, 5, 4), "tanh"), Rng(0)))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="layer widths"):
            enc.load_checkpoint(path)


class TestParamsValidation:
    def test_wrong_shapes_rejected(self):
        spec = enc.EncoderSpec((3, 4), "tanh")
        with pytest.raises(ValidationError, match="^layer 0 parameter shapes do not match the spec$"):
            layers(spec, [np.zeros((3, 4))], [np.zeros(4)])
        with pytest.raises(ValidationError, match="^layer 0 parameter shapes do not match the spec$"):
            layers(spec, [np.zeros((4, 3))], [np.zeros(3)])
        with pytest.raises(ValidationError, match="^parameter count does not match the spec$"):
            layers(spec, [np.zeros((4, 3))] * 2, [np.zeros(4)] * 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["weights", "biases"])
    def test_nonfinite_values_rejected(self, value, which):
        params = enc.init_params(enc.EncoderSpec((3, 5, 4), "tanh"), Rng(0))
        getattr(params, which)[1][0] = value
        with pytest.raises(NumericError, match="layer 1"):
            enc.EncoderParams(params.spec, params.flat)
        with pytest.raises(NumericError, match="layer 1"):
            layers(params.spec, params.weights, params.biases)

    def test_checkpoint_with_nan_weight_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        enc.save_checkpoint(path, enc.init_params(enc.EncoderSpec((3, 5, 4), "tanh"), Rng(0)))
        payload = json.loads(path.read_text())
        payload["weights"][1][7] = float("nan")
        path.write_text(json.dumps(payload))  # Python's json writes and reads NaN
        with pytest.raises(NumericError, match="layer 1"):
            enc.load_checkpoint(path)


class TestFlatLayout:
    SPEC = enc.EncoderSpec((3, 5, 4), "tanh")

    def test_flat_holds_each_layer_weights_then_biases(self):
        rng = Rng(3)
        weights, biases = [rng.normal((5, 3)), rng.normal((4, 5))], [rng.normal((5,)), rng.normal((4,))]
        params = layers(self.SPEC, weights, biases)
        expected = np.concatenate([weights[0].ravel(), biases[0], weights[1].ravel(), biases[1]])
        assert self.SPEC.num_params == expected.size == 44
        assert np.array_equal(params.flat, expected)
        for view, original in zip(params.weights + params.biases, weights + biases):
            assert np.array_equal(view, original) and np.shares_memory(view, params.flat)

    def test_writes_through_layers_show_in_flat(self):
        params = enc.init_params(self.SPEC, Rng(0))
        params.weights[1][2, 3] = 7.0
        params.biases[0][1] = -2.0
        assert params.flat[20 + 2 * 5 + 3] == 7.0
        assert params.flat[15 + 1] == -2.0

    def test_layers_are_views_of_the_vector_given(self):
        vec = np.zeros(self.SPEC.num_params)
        params = enc.EncoderParams(self.SPEC, vec)
        vec[-1] = 5.0
        assert params.biases[1][-1] == 5.0

    @pytest.mark.parametrize("shape", [(43,), (45,), (0,), (4, 11)])
    def test_wrong_length_rejected(self, shape):
        with pytest.raises(ValidationError, match="parameter vector"):
            enc.EncoderParams(self.SPEC, np.zeros(shape))

    def test_sgd_step_rejects_gradient_of_other_shape(self):
        params = enc.init_params(self.SPEC, Rng(0))
        state = enc.init_optimizer(params, enc.OptimizerSettings())
        with pytest.raises(ValidationError, match="gradient shape"):
            enc.sgd_step(params, np.zeros(43), state)


class TestSpecValidation:
    def test_output_dim_floor(self):
        with pytest.raises(ValidationError):
            enc.EncoderSpec((4, 1), "tanh")

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValidationError):
            enc.EncoderSpec((4, 4), "gelu")
