"""Tests for classical ensembling baselines: selection strategies,
Akaike weighting, and the learned constant mixture."""

import math
import re
import warnings

import numpy as np
import pytest

from ensemblekit.errors import ConfigError, DataValidationError, ShapeError
from ensemblekit import baselines, data, metrics, nn
from ensemblekit.data import SyntheticSpec, TaskKind, generate
from peakmem import traced_peak


def _classification_cube():
    """Three models with known validation quality ordering 1 < 0 < 2."""
    rng = np.random.default_rng(42)
    n = 400
    labels = rng.integers(0, 2, size=n)
    cube = np.empty((n, 3, 2))
    for m, p_correct in enumerate([0.7, 0.9, 0.55]):
        correct = rng.random(n) < p_correct
        conf = np.where(correct, 0.8, 0.2)
        true_prob = np.where(labels == 1, conf, 1 - conf)
        cube[:, m, 1] = true_prob
        cube[:, m, 0] = 1 - true_prob
    return cube, labels


class TestModelSelection:
    def test_weights_are_uniform_multiset(self):
        sel = baselines.ModelSelection(indices=(0, 2, 2, 3), n_models=5)
        np.testing.assert_allclose(sel.weights(), [0.25, 0.0, 0.5, 0.25, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            baselines.ModelSelection(indices=(5,), n_models=3)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            baselines.ModelSelection(indices=(), n_models=3)

    @pytest.mark.parametrize("indices", [3, np.array([0, 1]), "01"], ids=["int", "array", "str"])
    def test_rejects_indices_that_are_not_a_sequence(self, indices):
        with pytest.raises(ConfigError, match="^indices must be a tuple or list, got "):
            baselines.ModelSelection(indices, 3)


class TestPredictStatic:
    def test_matches_manual_mixture(self):
        rng = np.random.default_rng(1)
        cube = rng.random((7, 3, 4))
        w = np.array([0.2, 0.3, 0.5])
        got = baselines.predict_static(w, cube)
        want = sum(w[m] * cube[:, m, :] for m in range(3))
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestSingleBestAndTopN:
    def test_single_best_by_validation_loss(self):
        cube, labels = _classification_cube()
        assert baselines.single_best(cube, labels, TaskKind.CLASSIFICATION) == 1

    def test_top_n_ordering(self):
        cube, labels = _classification_cube()
        sel = baselines.top_n(cube, labels, TaskKind.CLASSIFICATION, n=2)
        assert sel.indices == (1, 0)

    def test_top_n_clamps_to_model_count(self):
        cube, labels = _classification_cube()
        sel = baselines.top_n(cube, labels, TaskKind.CLASSIFICATION, n=50)
        assert len(sel.indices) == 3

    def test_model_losses_regression(self):
        preds = np.zeros((4, 2, 1))
        preds[:, 1, 0] = 1.0
        labels = np.ones(4)
        losses = baselines.model_losses(preds, labels, TaskKind.REGRESSION)
        np.testing.assert_allclose(losses, [1.0, 0.0])


_LABEL_CHECKED = [
    baselines.model_losses, baselines.single_best, baselines.top_n, baselines.greedy_select,
    baselines.quick_select, baselines.fit_constant_ma,
]
_LABEL_CHECKED_IDS = ["model_losses", "single_best", "top_n", "greedy", "quick", "constant_ma"]


class TestLabelChecks:
    """Every fitter checks its labels against the cube's rows and classes."""

    @pytest.mark.parametrize("fit", _LABEL_CHECKED, ids=_LABEL_CHECKED_IDS)
    def test_too_few_labels(self, fit):
        # Unchecked, single_best scored only the first two rows and returned 0.
        cube = np.array([[[0.9, 0.1], [0.6, 0.4]],
                         [[0.9, 0.1], [0.6, 0.4]],
                         [[0.1, 0.9], [0.6, 0.4]]])
        with pytest.raises(ShapeError, match="labels must be 1-D with 3 entries"):
            fit(cube, np.array([0, 0]), TaskKind.CLASSIFICATION)

    @pytest.mark.parametrize("fit", _LABEL_CHECKED, ids=_LABEL_CHECKED_IDS)
    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_labels_outside_the_classes(self, fit, bad):
        cube, labels = _classification_cube()
        labels = labels.astype(np.float64)
        labels[7] = bad
        with pytest.raises(DataValidationError, match="labels must"):
            fit(cube, labels, TaskKind.CLASSIFICATION)

    @pytest.mark.parametrize("fit", _LABEL_CHECKED, ids=_LABEL_CHECKED_IDS)
    @pytest.mark.parametrize("task", ["classification", None])
    def test_task_must_be_a_task_kind(self, fit, task):
        # Unchecked, a task string scored the cube as regression: on this
        # cube single_best returned 1 where TaskKind.CLASSIFICATION gives 4.
        cube = generate(SyntheticSpec(kind="experts", n_instances=200, seed=0)).val
        message = f"task must be a TaskKind, got {task!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            fit(cube.predictions, cube.labels, task)

    @pytest.mark.parametrize("fit", _LABEL_CHECKED, ids=_LABEL_CHECKED_IDS)
    def test_non_finite_regression_target(self, fit):
        cube = np.zeros((4, 2, 1))
        with pytest.raises(DataValidationError, match="labels contain non-finite values"):
            fit(cube, np.array([0.0, 1.0, np.nan, 2.0]), TaskKind.REGRESSION)

    @pytest.mark.parametrize("call, where", [
        (lambda c, y: baselines.model_losses(c, y, TaskKind.CLASSIFICATION), "model_losses"),
        (lambda c, y: baselines.single_best(c, y, TaskKind.CLASSIFICATION), "model_losses"),
        (lambda c, y: baselines.top_n(c, y, TaskKind.CLASSIFICATION), "model_losses"),
        (lambda c, y: baselines.greedy_select(c, y, TaskKind.CLASSIFICATION), "greedy_select"),
        (lambda c, y: baselines.quick_select(c, y, TaskKind.CLASSIFICATION), "quick_select"),
        (lambda c, y: baselines.fit_constant_ma(c, y, TaskKind.CLASSIFICATION),
         "fit_constant_ma"),
        (lambda c, y: metrics.nll(c[:, 0], y), "nll"),
        (lambda c, y: metrics.error_rate(c[:, 0], y), "error_rate"),
        (lambda c, y: metrics.auc_binary(c[:, 0, 1], y), "auc_binary"),
        (lambda c, y: metrics.mse(c[:, 0, 0], y), "mse"),
    ], ids=["model_losses", "single_best", "top_n", "greedy", "quick", "constant_ma", "nll",
            "error_rate", "auc_binary", "mse"])
    def test_zero_instances_are_refused(self, call, where):
        """A mean over no instances is undefined: before any arithmetic
        warns, the entry point refuses it, naming itself."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match=f"^{where} has no instances$"):
                call(np.zeros((0, 2, 2)), np.zeros(0, dtype=np.int64))


class TestRandomN:
    def test_no_replacement_and_range(self):
        sel = baselines.random_n(10, n=6, seed=3)
        assert len(sel.indices) == 6
        assert len(set(sel.indices)) == 6
        assert all(0 <= i < 10 for i in sel.indices)

    def test_deterministic_in_seed(self):
        assert baselines.random_n(8, n=4, seed=9).indices == baselines.random_n(8, n=4, seed=9).indices

    def test_clamps_to_model_count(self):
        sel = baselines.random_n(3, n=50, seed=0)
        assert sorted(sel.indices) == [0, 1, 2]


class TestGreedySelect:
    """Greedy forward selection with replacement and a mandatory number
    of rounds."""

    def test_runs_exactly_n_slots_rounds(self):
        cube, labels = _classification_cube()
        sel = baselines.greedy_select(cube, labels, TaskKind.CLASSIFICATION, n_slots=7)
        assert len(sel.indices) == 7

    def test_first_pick_is_single_best(self):
        cube, labels = _classification_cube()
        sel = baselines.greedy_select(cube, labels, TaskKind.CLASSIFICATION, n_slots=1)
        assert sel.indices == (baselines.single_best(cube, labels, TaskKind.CLASSIFICATION),)

    def test_matches_brute_force_per_round(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n, m = 60, int(rng.integers(2, 5))
            cube = rng.dirichlet(np.ones(3), size=(n, m))
            labels = rng.integers(0, 3, size=n)
            got = baselines.greedy_select(cube, labels, TaskKind.CLASSIFICATION, n_slots=4).indices
            proj = cube[metrics.loss_index(labels, TaskKind.CLASSIFICATION)]
            chosen = []
            for _ in range(4):
                losses = []
                for cand in range(m):
                    avg = proj[:, chosen + [cand]].mean(axis=1)
                    losses.append(metrics.loss(avg, labels, TaskKind.CLASSIFICATION))
                chosen.append(int(np.argmin(losses)))
            assert got == tuple(chosen)

    def test_rounds_reuse_one_candidate_buffer(self):
        """Beside the (N, M) projection, a round holds one array of
        candidate averages and the loss's terms."""
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=20,
                                    n_classes=20, seed=0))
        cube, labels, task = ds.val.predictions, ds.val.labels, ds.task
        proj_bytes = cube[metrics.loss_index(labels, task)].nbytes
        _, peak = traced_peak(lambda: baselines.greedy_select(cube, labels, task))
        assert peak <= 3.2 * proj_bytes

    def test_tie_breaks_to_lowest_index(self):
        # duplicate model columns force exact loss ties in every round
        rng = np.random.default_rng(8)
        base = rng.dirichlet(np.ones(2), size=(50, 1))
        cube = np.concatenate([base, base, base], axis=1)
        labels = rng.integers(0, 2, size=50)
        sel = baselines.greedy_select(cube, labels, TaskKind.CLASSIFICATION, n_slots=3)
        assert sel.indices == (0, 0, 0)

    def test_complementary_experts_are_both_picked(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=2,
                                    n_classes=3, seed=0))
        sel = baselines.greedy_select(ds.val.predictions, ds.val.labels, ds.task, n_slots=4)
        assert set(sel.indices) == {0, 1}

    def test_never_beaten_by_single_best_at_any_round(self):
        # averaging the greedy multiset can never do worse than the best
        # individual model at the same round count
        for kind in ("experts", "poly"):
            ds = generate(SyntheticSpec(kind=kind, n_instances=300, n_models=4,
                                        n_classes=3, seed=13))
            proj = ds.val.predictions[metrics.loss_index(ds.val.labels, ds.task)]
            best = baselines.model_losses(ds.val.predictions, ds.val.labels, ds.task).min()
            sel = baselines.greedy_select(ds.val.predictions, ds.val.labels, ds.task, n_slots=6)
            for k in range(1, 7):
                avg = proj[:, list(sel.indices[:k])].mean(axis=1)
                loss = metrics.loss(avg, ds.val.labels, ds.task)
                assert loss <= best + 1e-12


class TestQuickSelect:
    """Best-first pass over models ordered by standalone loss, keeping
    only strict improvements."""

    def test_keeps_only_improving_models(self):
        cube, labels = _classification_cube()
        sel = baselines.quick_select(cube, labels, TaskKind.CLASSIFICATION, n=3)
        assert sel.indices[0] == 1
        assert len(set(sel.indices)) == len(sel.indices)

    def test_stops_when_nothing_improves(self):
        # one perfect model plus one anti-correlated model: adding the
        # second can only hurt
        n = 100
        labels = np.zeros(n, dtype=int)
        cube = np.empty((n, 2, 2))
        cube[:, 0, 0], cube[:, 0, 1] = 0.95, 0.05
        cube[:, 1, 0], cube[:, 1, 1] = 0.05, 0.95
        sel = baselines.quick_select(cube, labels, TaskKind.CLASSIFICATION, n=2)
        assert sel.indices == (0,)

    def test_complementary_experts_are_both_kept(self):
        ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=2,
                                    n_classes=3, seed=0))
        sel = baselines.quick_select(ds.val.predictions, ds.val.labels, ds.task, n=2)
        assert set(sel.indices) == {0, 1}

    def test_respects_n_cap(self):
        rng = np.random.default_rng(4)
        cube = rng.dirichlet(np.ones(2), size=(80, 6))
        labels = rng.integers(0, 2, size=80)
        sel = baselines.quick_select(cube, labels, TaskKind.CLASSIFICATION, n=2)
        assert len(sel.indices) <= 2


class TestAkaikeWeights:
    def test_golden_two_model_case(self):
        w = baselines.akaike_weights(np.array([0.0, 2 * math.log(2)]))
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance(self):
        losses = np.array([0.3, 0.9, 1.7])
        np.testing.assert_allclose(
            baselines.akaike_weights(losses),
            baselines.akaike_weights(losses + 5.0),
            atol=1e-12,
        )

    def test_monotone_in_loss(self):
        w = baselines.akaike_weights(np.array([0.1, 0.5, 2.0]))
        assert w[0] > w[1] > w[2]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_losses_give_uniform(self):
        np.testing.assert_allclose(baselines.akaike_weights(np.full(4, 1.3)), 0.25)


class TestInputErrors:
    @pytest.mark.parametrize("call, error, fragment", [
        (lambda: baselines.predict_static(np.full(3, 1 / 3), np.full((4, 2, 2), 0.5)),
         ShapeError, "weights (3,)"),
        (lambda: baselines.akaike_weights([]), ShapeError, "losses"),
        (lambda: baselines.akaike_weights([1.0, np.nan]), ConfigError, "losses"),
    ], ids=["predict-static-weights", "akaike-empty", "akaike-nan"])
    def test_error_names_its_argument(self, call, error, fragment):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert fragment in str(err.value)


class TestConstantMA:
    """Softmax-parameterized constant mixture fit by full-batch Adam."""

    def test_objective_gradient_matches_finite_differences(self):
        from gradcheck import finite_difference_gradients, gradient_errors

        rng = np.random.default_rng(12)
        for task, make in [
            (TaskKind.CLASSIFICATION, lambda: rng.dirichlet(np.ones(3), size=(40, 4))),
            (TaskKind.REGRESSION, lambda: rng.normal(size=(40, 4, 1))),
        ]:
            cube = make()
            labels = (
                rng.integers(0, 3, size=40)
                if task is TaskKind.CLASSIFICATION
                else rng.normal(size=40)
            )
            projected = cube[metrics.loss_index(labels, task)]
            v = rng.normal(size=4) * 0.5
            grad = baselines._constant_ma_gradient(v, projected, labels, task)

            params = [v]
            numeric = finite_difference_gradients(
                lambda: float(metrics.loss(projected @ nn.softmax(params[0]), labels, task)),
                params,
            )
            rel, _ = gradient_errors([grad], numeric)
            assert rel < 1e-5

    def test_weights_are_simplex(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=200, n_models=5, seed=0))
        w = baselines.fit_constant_ma(ds.val.predictions, ds.val.labels, ds.task, steps=200)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_training_improves_on_uniform(self):
        ds = generate(SyntheticSpec(kind="poly", n_instances=500, n_models=6, seed=1))
        w = baselines.fit_constant_ma(ds.val.predictions, ds.val.labels, ds.task, steps=2000)
        uniform = np.full(6, 1 / 6)
        loss_w = metrics.mse(
            baselines.predict_static(w, ds.val.predictions)[:, 0], ds.val.labels
        )
        loss_u = metrics.mse(
            baselines.predict_static(uniform, ds.val.predictions)[:, 0], ds.val.labels
        )
        assert loss_w < loss_u
