"""Tests for the trainable combiner: architecture sizing, dropout masks,
the masked training forward, both forward modes, training-loss
gradients, the training loop, and the diversity diagnostic."""

import pickle
import re

import numpy as np
import pytest

from ensemblekit.errors import ConfigError, DataValidationError, NumericError, ShapeError
from ensemblekit import neural, nn
from ensemblekit.data import MetaDataset, SyntheticSpec, TaskKind, generate
from gradcheck import finite_difference_gradients, gradient_errors, ma_step_reference, training_loss
from peakmem import traced_peak


def _jitter(params, rng, scale=0.3):
    params.flat += rng.uniform(-scale, scale, size=params.flat.shape)


def _random_case(rng, mode, n_classes):
    batch, n_models = 6, int(rng.integers(2, 6))
    if n_classes >= 2:
        task = TaskKind.CLASSIFICATION
        raw = rng.uniform(0.1, 1.0, size=(batch, n_models, n_classes))
        cube = raw / raw.sum(axis=2, keepdims=True)
        labels = rng.integers(0, n_classes, size=batch)
    else:
        task = TaskKind.REGRESSION
        cube = rng.normal(size=(batch, n_models, 1))
        labels = rng.normal(size=batch)
    config = neural.NEConfig(mode=mode, dropout_rate=0.5, layers=2, hidden_dim=5,
                             steps=1, batch_size=batch, seed=int(rng.integers(10_000)))
    params = neural.init_ne_params(config, n_models)
    _jitter(params, rng)
    return params, cube, labels, task


def _ma_params(n_models, seed, rng):
    config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=seed)
    params = neural.init_ne_params(config, n_models)
    _jitter(params, rng)
    return params


def _training_weights(params, cube, mask, gamma):
    """Per-model weights (B, M) of the ma training forward: its softmax
    over the kept models, 0 for the dropped ones. The forward's output
    must be the average of the base models under them."""
    out, cache = neural._forward(params, cube, mask, gamma)
    keep, theta = cache[0], cache[-1]
    weights = np.zeros(cube.shape[:2])
    weights[:, keep] = theta
    np.testing.assert_allclose(out, np.einsum("bm,bmc->bc", weights, cube), rtol=0, atol=1e-12)
    return weights


class TestConfigValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            neural.NEConfig(mode="bagging")

    def test_rejects_dropout_out_of_range(self):
        with pytest.raises(ConfigError):
            neural.NEConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            neural.NEConfig(dropout_rate=-0.1)

    def test_rejects_non_positive_sizes(self):
        for kwargs in ({"layers": 0}, {"hidden_dim": 0}, {"steps": 0},
                       {"batch_size": 0}, {"learning_rate": 0.0}):
            with pytest.raises(ConfigError):
                neural.NEConfig(**kwargs)

    @pytest.mark.parametrize("field", ["layers", "hidden_dim", "steps", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_sizes_must_be_integers(self, field, value):
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            neural.NEConfig(**{field: value})

    def test_numpy_integer_sizes_are_sizes(self):
        sizes = {"layers": 2, "hidden_dim": 4, "steps": 3, "batch_size": 8}
        config = neural.NEConfig(**{k: np.int64(v) for k, v in sizes.items()})
        assert config == neural.NEConfig(**sizes)

    def test_retain_prob(self):
        assert neural.NEConfig(dropout_rate=0.75).retain_prob == pytest.approx(0.25)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf"), True])
    def test_config_and_adam_share_one_learning_rate_rule(self, rate):
        message = f"learning rate must be a number in (0, inf), got {rate!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            neural.NEConfig(learning_rate=rate)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            nn.adam_init(np.zeros(2), learning_rate=rate)


class TestParamCount:
    def test_nets_are_views_of_one_flat_vector(self):
        for mode in (neural.MODE_STACKING, neural.MODE_MA):
            config = neural.NEConfig(mode=mode, layers=3, hidden_dim=4, seed=0)
            params = neural.init_ne_params(config, 3)
            assert sum(net.flat.size for net in params.nets) == params.flat.size
            params.flat[:] = 7.0
            for net in params.nets:
                for w, b in zip(net.weights, net.biases):
                    assert np.all(w == 7.0) and np.all(b == 7.0)

    def test_matches_instantiated_networks(self):
        for mode in (neural.MODE_STACKING, neural.MODE_MA):
            for m, h, l in [(2, 3, 1), (5, 8, 3), (10, 32, 4)]:
                config = neural.NEConfig(mode=mode, layers=l, hidden_dim=h, seed=0)
                params = neural.init_ne_params(config, m)
                assert neural.param_count(config, m) == params.flat.size

    def test_hand_computed_ma_count(self):
        # shared embedder [3, 4, 4, 4]: 16 + 20 + 20 = 56
        # gating head [4, 3]: 15; total 71
        config = neural.NEConfig(mode="ma", layers=4, hidden_dim=4, seed=0)
        assert neural.param_count(config, 3) == 71

    def test_hand_computed_stacking_count(self):
        # [3, 4, 4, 1]: 16 + 20 + 5 = 41
        config = neural.NEConfig(mode="stacking", layers=3, hidden_dim=4, seed=0)
        assert neural.param_count(config, 3) == 41

    def test_count_independent_of_class_count(self):
        # the same parameters serve any number of classes: score one
        # column at a time (stacking) or sum per-class embeddings (ma)
        rng = np.random.default_rng(0)
        for mode in (neural.MODE_STACKING, neural.MODE_MA):
            config = neural.NEConfig(mode=mode, layers=3, hidden_dim=6, seed=1)
            params = neural.init_ne_params(config, 4)
            for n_classes in (2, 100):
                raw = rng.uniform(0.1, 1.0, size=(3, 4, n_classes))
                cube = raw / raw.sum(axis=2, keepdims=True)
                out = neural.predict(params, cube)
                assert out.shape == (3, n_classes)
            assert neural.param_count(config, 4) == params.flat.size


class TestMaskSampling:
    def test_frequency_matches_retain_prob(self):
        rng = np.random.default_rng(5)
        draws = np.array([neural.sample_mask(8, 0.3, rng) for _ in range(4000)])
        rate = draws.mean()
        assert abs(rate - 0.3) < 0.03

    def test_never_all_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            assert neural.sample_mask(3, 0.05, rng).any()

    def test_forced_single_survivor_under_hopeless_rate(self):
        rng = np.random.default_rng(7)
        mask = neural.sample_mask(4, 1e-15, rng)
        assert mask.sum() == 1.0

    def test_rejects_bad_retain_prob(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigError):
            neural.sample_mask(3, 0.0, rng)
        with pytest.raises(ConfigError):
            neural.sample_mask(3, 1.5, rng)


class TestTrainingGateWeights:
    """The ma training forward weights the kept models by a softmax over
    their gate scores and gives the dropped models none."""

    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(9)
        params = _ma_params(6, 9, rng)
        cube = rng.normal(size=(30, 6, 1))
        mask = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        theta = _training_weights(params, cube, mask, 0.5)
        assert np.all(theta[:, mask == 0.0] == 0.0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(theta[:, mask == 1.0] > 0.0)

    @pytest.mark.parametrize("mask", [np.ones(4), None], ids=["full", "unmasked"])
    def test_full_mask_equals_plain_softmax(self, mask):
        """A pass that keeps every model names them all in ``keep``, masked
        or not, and a full mask at delta = 0 trains as the full-width
        reference step."""
        rng = np.random.default_rng(10)
        params = _ma_params(4, 10, rng)
        cube = rng.normal(size=(5, 4, 1))
        got = _training_weights(params, cube, mask, 1.0)
        np.testing.assert_allclose(got, neural.ma_weights(params, cube), atol=1e-15)
        labels = rng.normal(size=5)
        full = np.ones(4)
        loss, grad = neural._loss_and_gradients(params, cube, labels, TaskKind.REGRESSION,
                                                full, 1.0)
        want_loss, want_grad, _ = ma_step_reference(params, cube, labels,
                                                    TaskKind.REGRESSION, full, 1.0)
        assert abs(loss - want_loss) <= 1e-12
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    def test_single_survivor_gets_unit_weight(self):
        rng = np.random.default_rng(11)
        params = _ma_params(3, 11, rng)
        cube = rng.normal(size=(1, 3, 1))
        theta = _training_weights(params, cube, np.array([0.0, 1.0, 0.0]), 0.5)
        np.testing.assert_array_equal(theta, [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_single_survivor_output_is_its_prediction(self, n_classes):
        rng = np.random.default_rng(21)
        params, cube, _, _ = _random_case(rng, "ma", n_classes)
        for survivor in range(cube.shape[1]):
            mask = np.zeros(cube.shape[1])
            mask[survivor] = 1.0
            out, _ = neural._forward(params, cube, mask, 0.5)
            np.testing.assert_array_equal(out, cube[:, survivor])


@pytest.mark.parametrize("mode", ["stacking", "ma"])
@pytest.mark.parametrize("n_classes", [1, 3])
class TestRetainedOnlyTraining:
    """A training step computes with the kept models only."""

    def test_dropped_columns_are_never_read(self, mode, n_classes):
        rng = np.random.default_rng(19)
        params, cube, labels, task = _random_case(rng, mode, n_classes)
        mask = np.ones(cube.shape[1])
        mask[::2] = 0.0
        loss, grad = neural._loss_and_gradients(params, cube, labels, task, mask, 0.5)
        other = cube.copy()
        other[:, mask == 0.0] = rng.uniform(-5.0, 5.0, size=other[:, mask == 0.0].shape)
        other_loss, other_grad = neural._loss_and_gradients(
            params, other, labels, task, mask, 0.5
        )
        assert other_loss == loss
        np.testing.assert_array_equal(other_grad, grad)

    def test_dropped_models_get_zero_gradient(self, mode, n_classes):
        rng = np.random.default_rng(20)
        params, cube, labels, task = _random_case(rng, mode, n_classes)
        mask = np.ones(cube.shape[1])
        mask[::2] = 0.0
        dropped = mask == 0.0
        _, grad = neural._loss_and_gradients(params, cube, labels, task, mask, 0.5)
        grads = [net.unpack(g) for net, g in zip(params.nets, params.split(grad))]
        first_weights = grads[0][0][0]
        assert np.all(first_weights[:, dropped] == 0.0)
        assert np.any(first_weights[:, ~dropped] != 0.0)
        if mode == "ma":
            head_weights, head_biases = grads[1][0][-1], grads[1][1][-1]
            assert np.all(head_weights[dropped] == 0.0)
            assert np.all(head_biases[dropped] == 0.0)
            assert np.any(head_biases[~dropped] != 0.0)


class TestForwardModes:
    def test_stacking_classification_probabilities(self):
        rng = np.random.default_rng(11)
        config = neural.NEConfig(mode="stacking", layers=2, hidden_dim=4, seed=3)
        params = neural.init_ne_params(config, 3)
        _jitter(params, rng)
        raw = rng.uniform(0.1, 1.0, size=(20, 3, 4))
        cube = raw / raw.sum(axis=2, keepdims=True)
        probs = neural.predict(params, cube)
        assert probs.shape == (20, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        single = neural.predict(params, cube[7][None])[0]
        np.testing.assert_allclose(single, probs[7], atol=1e-14)

    def test_stacking_regression_raw_scores(self):
        rng = np.random.default_rng(12)
        config = neural.NEConfig(mode="stacking", layers=2, hidden_dim=4, seed=4)
        params = neural.init_ne_params(config, 3)
        _jitter(params, rng)
        cube = rng.normal(size=(10, 3, 1))
        out = neural.predict(params, cube)
        assert out.shape == (10,)
        assert neural.predict(params, cube[2][None])[0] == pytest.approx(out[2])

    def test_ma_weights_are_per_instance_simplex(self):
        rng = np.random.default_rng(13)
        config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=5)
        params = neural.init_ne_params(config, 4)
        _jitter(params, rng)
        cube = rng.normal(size=(25, 4, 1))
        theta = neural.ma_weights(params, cube)
        assert theta.shape == (25, 4)
        assert np.all(theta > 0)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        # weights genuinely vary with the instance
        assert np.std(theta, axis=0).max() > 1e-6

    def test_ma_prediction_is_weighted_average(self):
        rng = np.random.default_rng(14)
        config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=6)
        params = neural.init_ne_params(config, 3)
        _jitter(params, rng)
        raw = rng.uniform(0.1, 1.0, size=(12, 3, 2))
        cube = raw / raw.sum(axis=2, keepdims=True)
        theta = neural.ma_weights(params, cube)
        combined = neural.predict(params, cube)
        want = np.einsum("bm,bmc->bc", theta, cube)
        np.testing.assert_allclose(combined, want, atol=1e-14)
        np.testing.assert_allclose(combined.sum(axis=1), 1.0, atol=1e-12)

    def test_ma_gate_ignores_class_column_order(self):
        # the gating embedder sums per-class embeddings, so weights must
        # not change when class columns are permuted
        rng = np.random.default_rng(15)
        config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=7)
        params = neural.init_ne_params(config, 3)
        _jitter(params, rng)
        raw = rng.uniform(0.1, 1.0, size=(10, 3, 4))
        cube = raw / raw.sum(axis=2, keepdims=True)
        perm = [2, 0, 3, 1]
        a = neural.ma_weights(params, cube)
        b = neural.ma_weights(params, cube[:, :, perm])
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    def test_non_finite_cube_rejected_with_position(self, mode):
        config = neural.NEConfig(mode=mode, layers=2, hidden_dim=4, seed=8)
        params = neural.init_ne_params(config, 3)
        cube = np.full((4, 3, 2), 0.5)
        cube[2, 1, 0] = np.nan
        cube[3, 0, 1] = np.inf
        entry_points = [neural.predict] + ([neural.ma_weights] if mode == "ma" else [])
        for entry_point in entry_points:
            with pytest.raises(DataValidationError, match=r"instance 2, model 1, class 0"):
                entry_point(params, cube)

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    def test_cube_without_instances_or_classes_rejected(self, mode):
        config = neural.NEConfig(mode=mode, layers=2, hidden_dim=4, seed=8)
        params = neural.init_ne_params(config, 3)
        entry_points = [neural.predict] + ([neural.ma_weights] if mode == "ma" else [])
        for entry_point in entry_points:
            with pytest.raises(DataValidationError, match="^prediction cube has no instances$"):
                entry_point(params, np.zeros((0, 3, 2)))
            with pytest.raises(DataValidationError, match="at least one model and class$"):
                entry_point(params, np.zeros((4, 3, 0)))

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    def test_non_simplex_cube_rejected_with_position(self, mode):
        """Classification rows must be simplexes at inference, as at load."""
        config = neural.NEConfig(mode=mode, layers=2, hidden_dim=4, seed=8)
        params = neural.init_ne_params(config, 3)
        entry_points = [neural.predict] + ([neural.ma_weights] if mode == "ma" else [])
        cube = np.full((4, 3, 2), 0.5)
        cube[2, 1] = [0.5, 0.7]
        cube[3, 0] = [0.9, 0.3]
        for entry_point in entry_points:
            with pytest.raises(DataValidationError, match=r"instance 2, model 1 sum to 1\.2"):
                entry_point(params, cube)
        cube[2, 1] = [1.5, -0.5]
        cube[3, 0] = [0.5, 0.5]
        for entry_point in entry_points:
            with pytest.raises(DataValidationError, match=r"probabilities in \[0, 1\]"):
                entry_point(params, cube)

    def test_ma_weights_rejects_stacking_params(self):
        config = neural.NEConfig(mode="stacking", layers=2, hidden_dim=4, seed=8)
        params = neural.init_ne_params(config, 3)
        with pytest.raises(ConfigError):
            neural.ma_weights(params, np.full((2, 3, 2), 0.5))

    def test_shape_mismatch_rejected(self):
        config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=8)
        params = neural.init_ne_params(config, 3)
        with pytest.raises(ShapeError):
            neural.predict(params, np.zeros((5, 4, 2)))


class TestForwardContract:
    """_forward returns the combiner's prediction in both modes: predict is
    the unmasked pass, column 0 of it at C = 1."""

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_predict_is_the_unmasked_forward(self, mode, n_classes):
        rng = np.random.default_rng(21 + n_classes)
        params, cube, _, _ = _random_case(rng, mode, n_classes)
        out = neural._forward(params, cube, None, 1.0)[0]
        want = out[:, 0] if n_classes == 1 else out
        assert out.shape == (cube.shape[0], n_classes)
        got = neural.predict(params, cube)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    @pytest.mark.parametrize("n_models,n_classes", [(1, 1), (4, 1), (3, 2), (5, 7)])
    def test_inference_equals_the_full_mask_pass_bit_for_bit(self, mode, n_models, n_classes):
        """Inference keeps no activations and training keeps them all, with
        the same operations in the same order: a full mask at gamma = 1
        gives predict's and ma_weights' bits."""
        rng = np.random.default_rng(25)
        config = neural.NEConfig(mode=mode, layers=3, hidden_dim=5, seed=9)
        params = neural.init_ne_params(config, n_models)
        _jitter(params, rng)
        raw = rng.uniform(0.1, 1.0, size=(11, n_models, n_classes))
        cube = raw / raw.sum(axis=2, keepdims=True) if n_classes > 1 else raw
        out, cache = neural._forward(params, cube, np.ones(n_models), 1.0)
        got = neural.predict(params, cube)
        assert got.tobytes() == (out[:, 0] if n_classes == 1 else out).tobytes()
        if mode == "ma":
            assert neural.ma_weights(params, cube).tobytes() == cache[-1].tobytes()

    def test_masked_stacking_forward_gives_simplex_rows(self):
        rng = np.random.default_rng(24)
        params, cube, _, _ = _random_case(rng, "stacking", 3)
        mask = np.zeros(params.n_models)
        mask[[0, params.n_models - 1]] = 1.0
        out = neural._forward(params, cube, mask, 0.5)[0]
        assert out.shape == (cube.shape[0], 3)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestInferenceMemory:
    """predict and ma_weights keep no class column's activations: at M=50
    and C=100 each adds under a tenth of its cube's bytes to its traced
    peak (before, a cache of every column took about twice the cube)."""

    @pytest.mark.parametrize("mode,entry_point", [
        ("stacking", neural.predict), ("ma", neural.predict), ("ma", neural.ma_weights),
    ], ids=["stacking-predict", "ma-predict", "ma-ma_weights"])
    def test_peak_stays_below_a_tenth_of_the_cube(self, mode, entry_point):
        rng = np.random.default_rng(26)
        raw = rng.uniform(0.1, 1.0, size=(500, 50, 100))
        cube = raw / raw.sum(axis=2, keepdims=True)
        del raw
        params = neural.init_ne_params(neural.NEConfig(mode=mode), 50)
        _, peak = traced_peak(lambda: entry_point(params, cube))
        assert peak < 0.1 * cube.nbytes, peak / cube.nbytes


class TestPickle:
    """A combiner crosses fork_map's pipe as a pickle: the copy's nets are
    views into the copy's own flat vector, as in the original."""

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    def test_round_trip_keeps_the_nets_views_into_flat(self, mode):
        rng = np.random.default_rng(31)
        params, cube, _, _ = _random_case(rng, mode, 3)
        copy = pickle.loads(pickle.dumps(params))
        assert (copy.mode, copy.n_models, copy.layer_dims) == (
            params.mode, params.n_models, params.layer_dims)
        assert copy.flat.tobytes() == params.flat.tobytes()
        for net in copy.nets:
            assert np.shares_memory(net.flat, copy.flat)
            for array in (*net.weights, *net.biases):
                assert np.shares_memory(array, copy.flat)
        want = neural.predict(params, cube)
        assert neural.predict(copy, cube).tobytes() == want.tobytes()
        copy.flat[:] = 0.0  # writes through to every net
        assert not any(np.any(w) for net in copy.nets for w in net.weights)
        assert neural.predict(params, cube).tobytes() == want.tobytes()

    def test_pickle_holds_the_parameters_once(self):
        config = neural.NEConfig(mode="ma", hidden_dim=32)
        params = neural.init_ne_params(config, 5)
        assert len(pickle.dumps(params)) < params.flat.nbytes + 1024


class TestTrainingGradients:
    """Analytic gradients of the full training objective, dropout masks
    included, match central finite differences."""

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_unmasked(self, mode, n_classes):
        """Every model kept at delta = 0: a full mask, since only training
        passes one."""
        rng = np.random.default_rng(16)
        params, cube, labels, task = _random_case(rng, mode, n_classes)
        mask = np.ones(cube.shape[1])
        loss, grad = neural._loss_and_gradients(params, cube, labels, task, mask, 1.0)
        numeric = finite_difference_gradients(
            lambda: training_loss(params, cube, labels, task, mask, 1.0),
            [params.flat],
        )
        rel, _ = gradient_errors([grad], numeric)
        assert rel < 1e-4

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_inference_pass_has_no_gradient(self, mode, n_classes):
        """A pass without a mask keeps no activations, so asking it for a
        gradient raises instead of returning a partial one."""
        rng = np.random.default_rng(16)
        params, cube, labels, task = _random_case(rng, mode, n_classes)
        with pytest.raises(TypeError):
            neural._loss_and_gradients(params, cube, labels, task, None, 1.0)

    @pytest.mark.parametrize("mode", ["stacking", "ma"])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_masked_with_scaling(self, mode, n_classes):
        rng = np.random.default_rng(17)
        params, cube, labels, task = _random_case(rng, mode, n_classes)
        n_models = cube.shape[1]
        mask = np.ones(n_models)
        mask[: n_models // 2] = 0.0
        gamma = 0.5
        loss, grad = neural._loss_and_gradients(params, cube, labels, task, mask, gamma)
        numeric = finite_difference_gradients(
            lambda: training_loss(params, cube, labels, task, mask, gamma),
            [params.flat],
        )
        rel, _ = gradient_errors([grad], numeric)
        assert rel < 1e-4

    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_ma_step_matches_full_width_reference(self, n_classes):
        rng = np.random.default_rng(22)
        for case in range(12):
            params, cube, labels, task = _random_case(rng, "ma", n_classes)
            n_models = cube.shape[1]
            if case == 0:
                mask = np.ones(n_models)
            elif case == 1:
                mask = np.zeros(n_models)
                mask[rng.integers(n_models)] = 1.0
            else:
                mask = neural.sample_mask(n_models, 0.5, rng)
            want_loss, want_grad, want_theta = ma_step_reference(
                params, cube, labels, task, mask, 0.5
            )
            loss, grad = neural._loss_and_gradients(params, cube, labels, task, mask, 0.5)
            assert abs(loss - want_loss) <= 1e-12
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)
            theta = _training_weights(params, cube, mask, 0.5)
            np.testing.assert_allclose(theta, want_theta, rtol=0, atol=1e-12)

    def test_single_survivor_mask_kills_gate_gradient(self):
        # with one retained model the masked softmax is constant 1, so
        # the gating parameters receive exactly zero gradient
        rng = np.random.default_rng(18)
        config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=9)
        params = neural.init_ne_params(config, 3)
        _jitter(params, rng)
        cube = rng.normal(size=(6, 3, 1))
        labels = rng.normal(size=6)
        mask = np.array([0.0, 1.0, 0.0])
        _, grad = neural._loss_and_gradients(
            params, cube, labels, TaskKind.REGRESSION, mask, 0.5
        )
        np.testing.assert_array_equal(grad, np.zeros_like(params.flat))


class TestTrainingLoop:
    def test_trace_length_and_determinism(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=200, n_models=2,
                                    n_classes=3, seed=0))
        config = neural.NEConfig(mode="ma", dropout_rate=0.5, layers=2, hidden_dim=4,
                                 steps=40, batch_size=64, seed=3)
        params_a, trace_a = neural.train(ds, config)
        params_b, trace_b = neural.train(ds, config)
        assert len(trace_a) == 40
        assert trace_a == trace_b
        np.testing.assert_array_equal(params_a.flat, params_b.flat)

    def test_different_seeds_differ(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=200, n_models=2,
                                    n_classes=3, seed=0))
        base = dict(mode="ma", dropout_rate=0.5, layers=2, hidden_dim=4,
                    steps=40, batch_size=64)
        a, _ = neural.train(ds, neural.NEConfig(seed=3, **base))
        b, _ = neural.train(ds, neural.NEConfig(seed=4, **base))
        assert not np.array_equal(a.flat, b.flat)

    def test_training_reduces_loss(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=500, n_models=2,
                                    n_classes=3, seed=1))
        config = neural.NEConfig(mode="ma", dropout_rate=0.0, layers=2, hidden_dim=8,
                                 steps=400, batch_size=256, seed=0)
        _, trace = neural.train(ds, config)
        assert np.mean(trace[-20:]) < np.mean(trace[:20])

    def test_numeric_blowup_raises_with_step_index(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=100, n_models=3,
                                    degree=10, seed=0))
        config = neural.NEConfig(mode="stacking", dropout_rate=0.0, layers=2,
                                 hidden_dim=8, steps=200, batch_size=64,
                                 learning_rate=1e150, seed=0)
        with pytest.raises(NumericError) as err:
            neural.train(ds, config)
        assert "step" in str(err.value)

    def test_test_split_is_untouched(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=100, n_models=2,
                                    n_classes=3, seed=2))
        before = ds.test.predictions.copy()
        config = neural.NEConfig(mode="ma", dropout_rate=0.25, layers=2, hidden_dim=4,
                                 steps=20, batch_size=32, seed=0)
        neural.train(ds, config)
        np.testing.assert_array_equal(ds.test.predictions, before)

    def test_a_dataset_without_its_val_split_is_refused(self):
        """A dataset loaded for scoring (val None) names itself, not a
        missing attribute."""
        ds = generate(SyntheticSpec(kind="experts", n_instances=20, n_models=2, seed=0))
        test_only = MetaDataset(name=ds.name, task=ds.task, val=None, test=ds.test)
        message = f"{ds.name}: train needs the val split, which is not loaded"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            neural.train(test_only, neural.NEConfig(steps=1, batch_size=4))


class TestDiversityOracle:
    def test_full_retention_has_no_spread(self):
        a = neural.diversity_limit_oracle(1.0, 0.9, 5, n_samples=4000, seed=1)
        assert abs(a) < 0.02

    def test_spread_grows_as_retention_falls(self):
        values = [
            neural.diversity_limit_oracle(g, 1.0, 5, n_samples=4000, seed=1)
            for g in (0.9, 0.5, 0.2)
        ]
        assert values[0] < values[1] < values[2]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            neural.diversity_limit_oracle(0.0, 0.9, 5)
        with pytest.raises(ConfigError):
            neural.diversity_limit_oracle(0.5, 0.9, 5, n_samples=1)
        with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
            neural.diversity_limit_oracle(0.5, 0.9, 5, seed=-1)
        for rate in ("0.5", True, None):
            message = f"retain_prob must be a number in (0, 1], got {rate!r}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                neural.diversity_limit_oracle(rate, 0.9, 5)
