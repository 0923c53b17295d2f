"""Tests for the dense network core: forward, backward, Adam, softmax,
and the finite-difference oracle used to check analytic gradients."""

import numpy as np
import pytest

from ensemblekit.errors import ConfigError, NumericError, ShapeError
from ensemblekit import nn

import gradcheck


def _jitter(net, rng, scale=0.3):
    """Move parameters to a generic position.

    Freshly initialized biases are exactly zero, which parks ReLU
    pre-activations on the kink for any instance that deactivates a
    whole layer; finite differences are not meaningful there.
    """
    net.flat += rng.uniform(-scale, scale, size=net.flat.shape)


class TestForward:
    """The forward pass is an affine chain with ReLU between hidden
    layers and identity on the final layer."""

    def test_hand_computed_single_layer(self):
        # flat layout W0, b0: W0 = [[2, -1]], b0 = [0.5]
        net = nn.DenseNet(layer_dims=[2, 1], flat=np.array([2.0, -1.0, 0.5]))
        out, _ = nn.forward(net, np.array([[3.0, 4.0]]))
        # 2*3 - 1*4 + 0.5 = 2.5; final layer has no ReLU
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(2.5, abs=1e-15)

    def test_hand_computed_hidden_relu(self):
        # flat layout W0 (2x1), b0 (2), W1 (1x2), b1 (1)
        net = nn.DenseNet(layer_dims=[1, 2, 1], flat=np.array([1.0, -1.0, 0, 0, 1.0, 1.0, 0]))
        out, _ = nn.forward(net, np.array([[2.0], [-3.0]]))
        # hidden = relu([x, -x]); output = relu(x) + relu(-x) = |x|
        assert out[0, 0] == pytest.approx(2.0)
        assert out[1, 0] == pytest.approx(3.0)

    def test_batch_matches_per_instance(self):
        rng = np.random.default_rng(0)
        net = nn.init_dense_net([4, 6, 3], seed=1)
        _jitter(net, rng)
        x = rng.normal(size=(9, 4))
        batch_out, _ = nn.forward(net, x)
        for i in range(9):
            single, _ = nn.forward(net, x[i : i + 1])
            np.testing.assert_allclose(single[0], batch_out[i], atol=1e-14)

    def test_trace_records_input_and_activations(self):
        net = nn.init_dense_net([3, 5, 2], seed=2)
        x = np.random.default_rng(3).normal(size=(4, 3))
        out, activations = nn.forward(net, x)
        assert len(activations) == 3
        np.testing.assert_array_equal(activations[0], x)
        np.testing.assert_array_equal(activations[-1], out)
        assert np.all(activations[1] >= 0.0)

    def test_rejects_single_instance_vector(self):
        net = nn.init_dense_net([3, 2], seed=2)
        with pytest.raises(ShapeError):
            nn.forward(net, np.zeros(3))

    def test_weights_and_biases_are_views_of_flat(self):
        net = nn.init_dense_net([3, 4, 2], seed=2)
        assert net.flat.shape == (nn.dense_param_count(net.layer_dims),)
        net.flat[:] = np.arange(net.flat.size)
        np.testing.assert_array_equal(net.weights[0], np.arange(12).reshape(4, 3))
        np.testing.assert_array_equal(net.biases[0], [12, 13, 14, 15])
        np.testing.assert_array_equal(net.weights[1], np.arange(16, 24).reshape(2, 4))
        np.testing.assert_array_equal(net.biases[1], [24, 25])

    def test_rejects_flat_of_wrong_size(self):
        with pytest.raises(ShapeError):
            nn.DenseNet(layer_dims=[3, 2], flat=np.zeros(7))


class TestInit:
    """Initialization is deterministic, bias-free, and fan-in bounded."""

    def test_deterministic_per_seed(self):
        a = nn.init_dense_net([5, 7, 2], seed=11)
        b = nn.init_dense_net([5, 7, 2], seed=11)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_different_seeds_differ(self):
        a = nn.init_dense_net([5, 7, 2], seed=11)
        b = nn.init_dense_net([5, 7, 2], seed=12)
        assert not np.array_equal(a.flat, b.flat)

    def test_weight_bounds_and_zero_biases(self):
        net = nn.init_dense_net([9, 4, 4], seed=0)
        for W, dim_in in zip(net.weights, [9, 4]):
            bound = np.sqrt(6.0 / dim_in)
            assert np.all(np.abs(W) <= bound)
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_parameter_count_matches_formula(self):
        dims = [6, 10, 10, 3]
        net = nn.init_dense_net(dims, seed=0)
        expected = sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:]))
        assert net.flat.size == expected


class TestBackward:
    """Analytic gradients agree with central finite differences at
    generic parameter positions."""

    @pytest.mark.parametrize("dims", [[3, 1], [4, 6, 2], [5, 8, 8, 1], [2, 3, 3, 3, 2]])
    def test_matches_finite_differences(self, dims):
        rng = np.random.default_rng(7)
        net = nn.init_dense_net(dims, seed=5)
        _jitter(net, rng)
        x = rng.normal(size=(6, dims[0]))
        v = rng.normal(size=(6, dims[-1]))

        _, activations = nn.forward(net, x)
        grad = np.zeros_like(net.flat)
        nn.backward(net, activations, v, grad)

        def loss_fn():
            o, _ = nn.forward(net, x)
            return float(np.sum(o * v))

        numeric = gradcheck.finite_difference_gradients(loss_fn, [net.flat])
        rel, _ = gradcheck.gradient_errors([grad], numeric)
        assert rel < 1e-6

    @pytest.mark.parametrize("dims", [[5, 1], [5, 6, 2], [5, 8, 8, 1]])
    def test_column_selector_matches_zeroed_inputs(self, dims):
        # The first layer on W0[:, columns] is the full network on an
        # input that is zero outside those columns; so are its gradients,
        # also summed over two passes into one vector, as a combiner sums
        # the class columns of a cube.
        rng = np.random.default_rng(12)
        net = nn.init_dense_net(dims, seed=7)
        _jitter(net, rng)
        columns = np.array([1, 3, 4])
        full = np.zeros_like(net.flat)
        selected = np.zeros_like(net.flat)
        for _ in range(2):
            x = rng.normal(size=(6, dims[0]))
            x[:, [0, 2]] = 0.0
            v = rng.normal(size=(6, dims[-1]))
            out, activations = nn.forward(net, x)
            selected_out, selected_activations = nn.forward(net, x[:, columns], columns)
            np.testing.assert_allclose(selected_out, out, rtol=1e-12, atol=1e-12)

            assert nn.backward(net, activations, v, full) is None
            assert nn.backward(net, selected_activations, v, selected, columns) is None
            np.testing.assert_array_equal(net.unpack(selected)[0][0][:, [0, 2]], 0.0)
            np.testing.assert_allclose(selected, full, rtol=1e-12, atol=1e-12)

    def test_column_selector_shape_checked(self):
        net = nn.init_dense_net([4, 3, 1], seed=0)
        with pytest.raises(ShapeError):
            nn.forward(net, np.zeros((2, 4)), np.array([0, 2]))

    def test_batch_gradient_is_sum_of_instances(self):
        rng = np.random.default_rng(10)
        net = nn.init_dense_net([3, 4, 2], seed=4)
        _jitter(net, rng)
        x = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 2))
        _, activations = nn.forward(net, x)
        batch_grad = np.zeros_like(net.flat)
        nn.backward(net, activations, v, batch_grad)
        # backward adds into its gradient vector, so one vector
        # accumulates the per-instance passes
        summed = np.zeros_like(net.flat)
        for i in range(5):
            _, acts = nn.forward(net, x[i : i + 1])
            nn.backward(net, acts, v[i : i + 1], summed)
        np.testing.assert_allclose(batch_grad, summed, atol=1e-12)

    def test_rejects_mismatched_output_gradient(self):
        net = nn.init_dense_net([3, 2], seed=4)
        _, activations = nn.forward(net, np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            nn.backward(net, activations, np.zeros((5, 3)), np.zeros_like(net.flat))


class TestAdam:
    """Bias-corrected Adam against an explicit reference recursion."""

    def test_first_step_is_signed_learning_rate(self):
        # With bias correction the first update is lr * g / (|g| + eps),
        # which is lr * sign(g) up to epsilon.
        params = np.array([1.0, -2.0, 3.0])
        grads = np.array([0.5, -4.0, 1e-3])
        state = nn.adam_init(params, learning_rate=0.1)
        before = params.copy()
        nn.adam_step_arrays(params, grads, state)
        moved = before - params
        np.testing.assert_allclose(moved, 0.1 * np.sign(grads), rtol=1e-4)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(13)
        p = rng.normal(size=(4, 3))
        params = p.copy()
        state = nn.adam_init(params, learning_rate=0.01)

        ref = p.copy()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        grad_seq = [rng.normal(size=(4, 3)) for _ in range(25)]
        for t, g in enumerate(grad_seq, start=1):
            nn.adam_step_arrays(params, g, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params, ref, atol=1e-12)

    def test_rejects_non_finite_gradients(self):
        params = np.zeros(3)
        state = nn.adam_init(params)
        with pytest.raises(NumericError):
            nn.adam_step_arrays(params, np.array([1.0, np.nan, 1.0]), state)
        np.testing.assert_array_equal(params, 0.0)
        assert state.step_count == 0

    def test_rejects_mismatched_lengths(self):
        params = np.zeros(2)
        state = nn.adam_init(params)
        with pytest.raises(ShapeError):
            nn.adam_step_arrays(params, np.zeros(3), state)


class TestSoftmax:
    """Stable softmax along the last axis."""

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        s = nn.softmax(rng.normal(size=(50, 7)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(nn.softmax(x), nn.softmax(x + 100.0), atol=1e-12)

    def test_extreme_logits_do_not_overflow(self):
        s = nn.softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(s))
        assert s[0] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            nn.softmax(np.zeros((3, 0)))


class TestFiniteDifferenceOracle:
    """The checker itself is validated on functions with known gradients."""

    def test_quadratic_gradient(self):
        w = [np.array([1.0, -2.0, 0.5]), np.array([[3.0]])]

        def loss_fn():
            return float(sum(np.sum(a * a) for a in w))

        numeric = gradcheck.finite_difference_gradients(loss_fn, w)
        np.testing.assert_allclose(numeric[0], 2 * w[0], atol=1e-8)
        np.testing.assert_allclose(numeric[1], 2 * w[1], atol=1e-8)

    def test_parameters_restored_after_probing(self):
        w = [np.array([1.0, 2.0])]
        before = w[0].copy()
        gradcheck.finite_difference_gradients(lambda: float(np.sum(w[0] ** 2)), w)
        np.testing.assert_array_equal(w[0], before)

    def test_gradient_errors_flags_wrong_element(self):
        good = [np.array([1.0, 0.5, -2.0])]
        bad = [np.array([1.0, 0.8, -2.0])]
        rel, _ = gradcheck.gradient_errors(bad, good)
        assert rel > 0.1

    def test_gradient_errors_ignores_subresolution_noise(self):
        # Differences far below the gradient scale are measurement noise,
        # not error: a 1e-13 disagreement on an otherwise zero gradient
        # cannot be resolved by finite differences at all.
        a = [np.array([1.0, 5e-13])]
        n = [np.array([1.0, 0.0])]
        rel, _ = gradcheck.gradient_errors(a, n)
        assert rel < 1e-9

    def test_gradient_errors_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gradcheck.gradient_errors([np.zeros(2)], [np.zeros(3)])
