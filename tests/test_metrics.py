"""Tests for evaluation metrics: the shared loss, its gradient and the
entries it scores, clamped
NLL, error rate, tie-averaged AUC, MSE, Gaussian regression NLL,
ambiguity, and report helpers."""

import math

import numpy as np
import pytest

from ensemblekit.errors import DataValidationError, ShapeError, UndefinedMetricError
from ensemblekit import metrics
from ensemblekit.data import SyntheticSpec, TaskKind, generate
from gradcheck import finite_difference_gradients, gradient_errors
from peakmem import traced_peak


def _auc_pair_counting(scores, labels):
    """Quadratic-time AUC oracle: P(score_pos > score_neg) + 0.5 ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestLoss:
    """The one loss every fitter uses: clamped NLL of true-class
    probabilities, or squared error of predictions, with its gradient."""

    @pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
    def test_gradient_matches_finite_differences(self, task):
        rng = np.random.default_rng(17)
        if task is TaskKind.CLASSIFICATION:
            values = rng.uniform(0.05, 0.95, size=30)
            # Inside the clamp zone by more than the difference step.
            clamped = [0, 1, 2, 3]
            values[clamped] = [0.0, 1e-9, 1.0 - 1e-9, 1.0]
            targets, step = rng.integers(0, 3, size=30), 1e-8
        else:
            values, targets, step = rng.normal(size=30), rng.normal(size=30), 1e-5
            clamped = []
        grad = metrics.loss_gradient(values, targets, task)
        numeric = finite_difference_gradients(
            lambda: float(metrics.loss(values, targets, task)), [values], step=step
        )
        rel, _ = gradient_errors([grad], numeric)
        assert rel < 1e-4
        assert np.all(grad[clamped] == 0.0)
        assert np.all(numeric[0][clamped] == 0.0)

    @pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
    def test_equals_the_mean_and_clip_forms_bitwise(self, task):
        rng = np.random.default_rng(5)
        lo, hi = metrics.PROB_CLAMP_LO, metrics.PROB_CLAMP_HI
        edges = [0.0, lo, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0),
                 hi, np.nextafter(hi, 0.0), np.nextafter(hi, 1.0), 1.0]
        for n in (9, 49, 256, 257, 1000):
            values = np.concatenate([edges, rng.uniform(0.0, 1.0, size=n - len(edges))])
            if task is TaskKind.REGRESSION:
                values = values * rng.normal(scale=3.0, size=n)
            targets = rng.normal(size=n)
            columns = np.stack([values, values[::-1], rng.permutation(values)], axis=1)
            for v in (values, columns):
                if task is TaskKind.CLASSIFICATION:
                    want = np.mean(-np.log(np.clip(v, lo, hi)), axis=0)
                else:
                    diff = v - targets.reshape((-1,) + (1,) * (v.ndim - 1))
                    want = np.mean(diff * diff, axis=0)
                got = np.asarray(metrics.loss(v, targets, task))
                assert got.tobytes() == want.tobytes()
            if task is TaskKind.CLASSIFICATION:
                inside = (values > lo) & (values < hi)
                want = np.where(inside, -1.0 / np.clip(values, lo, hi), 0.0) / n
                assert metrics.loss_gradient(values, targets, task).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["experts", "preferred"])
    def test_allocates_one_array_the_size_of_its_values(self, kind):
        """Only the (N, M) terms of the mean are new, and ``values`` is
        not written to."""
        ds = generate(SyntheticSpec(kind=kind, n_instances=2000, n_models=20,
                                    n_classes=20, seed=0))
        labels = ds.val.labels
        values = ds.val.predictions[metrics.loss_index(labels, ds.task)]
        before = values.copy()
        _, peak = traced_peak(lambda: metrics.loss(values, labels, ds.task))
        # Subtracting the broadcast (N, 1) targets adds numpy's fixed ufunc
        # buffer of 8192 float64 values, whatever the size of ``values``.
        buffer = 8192 * 8 if ds.task is TaskKind.REGRESSION else 0
        assert peak <= 1.1 * values.nbytes + buffer
        assert values.tobytes() == before.tobytes()

    def test_nll_is_loss_of_true_class_column(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=50)
        probs[0] = [0.0, 1.0, 0.0, 0.0]
        labels = rng.integers(0, 4, size=50)
        want = metrics.loss(probs[np.arange(50), labels], labels, TaskKind.CLASSIFICATION)
        assert metrics.nll(probs, labels) == float(want)

    @pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
    def test_columns_are_scored_separately(self, task):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 1.0, size=(40, 3))
        targets = rng.normal(size=40)
        got = metrics.loss(values, targets, task)
        assert got.shape == (3,)
        for k in range(3):
            assert got[k] == pytest.approx(metrics.loss(values[:, k], targets, task), rel=1e-12)


class TestLossIndex:
    """``loss_index`` picks, on the last axis, each row's true class or the
    single regression column."""

    def test_classification_picks_true_class_of_matrix_and_cube(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, size=7).astype(np.float64)
        matrix = rng.uniform(size=(7, 4))
        cube = rng.uniform(size=(7, 3, 4))
        index = metrics.loss_index(labels, TaskKind.CLASSIFICATION)
        want_matrix = np.array([matrix[i, int(labels[i])] for i in range(7)])
        want_cube = np.array([[cube[i, m, int(labels[i])] for m in range(3)] for i in range(7)])
        assert matrix[index].tobytes() == want_matrix.tobytes()
        assert cube[index].shape == (7, 3)
        assert cube[index].tobytes() == want_cube.tobytes()

    def test_regression_picks_the_single_column(self):
        rng = np.random.default_rng(7)
        targets = rng.normal(size=5)
        matrix = rng.normal(size=(5, 1))
        cube = rng.normal(size=(5, 3, 1))
        index = metrics.loss_index(targets, TaskKind.REGRESSION)
        assert matrix[index].tobytes() == np.array([matrix[i, 0] for i in range(5)]).tobytes()
        want_cube = np.array([[cube[i, m, 0] for m in range(3)] for i in range(5)])
        assert cube[index].tobytes() == want_cube.tobytes()


class TestNll:
    """Mean negative log-likelihood of the true class, clamped to
    [1e-7, 1 - 1e-7]."""

    def test_uniform_is_log_classes(self):
        probs = np.full((8, 4), 0.25)
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        assert metrics.nll(probs, labels) == pytest.approx(math.log(4), abs=1e-12)

    def test_hand_computed_average(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        labels = np.array([0, 1])
        want = -(math.log(0.5) + math.log(0.1)) / 2
        assert metrics.nll(probs, labels) == pytest.approx(want, abs=1e-12)

    def test_zero_probability_is_clamped(self):
        probs = np.array([[1.0, 0.0]])
        labels = np.array([1])
        got = metrics.nll(probs, labels)
        assert np.isfinite(got)
        assert got == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_certain_probability_is_clamped(self):
        probs = np.array([[1.0, 0.0]])
        labels = np.array([0])
        assert metrics.nll(probs, labels) == pytest.approx(-math.log(1 - 1e-7), abs=1e-12)


class TestErrorRate:
    """Fraction of instances whose argmax class is wrong; argmax ties
    resolve to the lowest class index."""

    def test_hand_computed(self):
        probs = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
        labels = np.array([0, 0, 0])
        assert metrics.error_rate(probs, labels) == pytest.approx(1 / 3)

    def test_tie_goes_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert metrics.error_rate(probs, np.array([0])) == 0.0
        assert metrics.error_rate(probs, np.array([1])) == 1.0


class TestLabelChecks:
    """nll, error_rate and auc_binary check their labels against the rows
    and classes they score."""

    @pytest.mark.parametrize("n_labels", [1, 2, 4])
    @pytest.mark.parametrize("metric", [metrics.nll, metrics.error_rate],
                             ids=["nll", "error_rate"])
    def test_label_count_must_match_rows(self, metric, n_labels):
        # error_rate of these 3 rows against the single label [0] once returned 1/3.
        probs = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
        with pytest.raises(ShapeError, match="labels must be 1-D with 3 entries"):
            metric(probs, np.zeros(n_labels, dtype=int))

    def test_auc_label_count_must_match_scores(self):
        with pytest.raises(ShapeError, match="labels must be 1-D with 3 entries"):
            metrics.auc_binary(np.array([0.1, 0.5, 0.9]), np.array([0, 1]))

    @pytest.mark.parametrize("labels", [[0, 2, 1], [0, 0.5, 1], [0, np.nan, 1]],
                             ids=["out-of-range", "fraction", "nan"])
    @pytest.mark.parametrize("metric", [metrics.nll, metrics.error_rate, metrics.auc_binary],
                             ids=["nll", "error_rate", "auc_binary"])
    def test_bad_class_labels(self, metric, labels):
        probs = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
        scores = probs[:, 1] if metric is metrics.auc_binary else probs
        with pytest.raises(DataValidationError, match="labels must"):
            metric(scores, np.array(labels))


class TestAucBinary:
    """Rank-based AUC with tie averaging."""

    def test_golden_value(self):
        auc = metrics.auc_binary(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert auc == 0.75

    def test_perfect_and_inverted(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert metrics.auc_binary(scores, np.array([0, 0, 1, 1])) == 1.0
        assert metrics.auc_binary(scores, np.array([1, 1, 0, 0])) == 0.0

    def test_all_tied_scores_give_half(self):
        assert metrics.auc_binary(np.full(6, 0.4), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(4, 40))
            # coarse grid scores force plenty of ties
            scores = rng.integers(0, 6, size=n) / 5.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = metrics.auc_binary(scores, labels)
            want = _auc_pair_counting(scores, labels)
            assert got == pytest.approx(want, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.auc_binary(np.array([0.1, 0.9]), np.array([1, 1]))


class TestRegressionMetrics:
    """MSE and the unit-variance Gaussian NLL built on it."""

    def test_mse_hand_computed(self):
        assert metrics.mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(2.5)

    def test_regression_nll_is_affine_in_mse(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=50)
        target = rng.normal(size=50)
        nll = metrics.regression_report(pred, target).nll
        want = 0.5 * math.log(2 * math.pi) + 0.5 * metrics.mse(pred, target)
        assert nll == pytest.approx(want, abs=1e-14)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.mse(np.zeros(3), np.zeros(4))


class TestAmbiguity:
    """Weighted spread of base predictions around the weighted mean."""

    def test_golden_two_model_case(self):
        assert metrics.ambiguity(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == 0.25

    def test_zero_when_models_agree(self):
        preds = np.full((10, 4), 1.7)
        w = np.full(4, 0.25)
        assert metrics.ambiguity(w, preds) == 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(5)
        preds = rng.normal(size=(20, 3))
        w = np.array([0.2, 0.5, 0.3])
        a = metrics.ambiguity(w, preds)
        b = metrics.ambiguity(w, preds + 11.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_per_instance_weights(self):
        preds = np.array([[0.0, 1.0], [0.0, 1.0]])
        weights = np.array([[0.5, 0.5], [1.0, 0.0]])
        # first instance spreads 0.25, second has all weight on one model
        assert metrics.ambiguity(weights, preds) == pytest.approx(0.125)

    def test_variance_identity(self):
        # with uniform weights the spread equals the population variance
        rng = np.random.default_rng(6)
        preds = rng.normal(size=(30, 5))
        got = metrics.ambiguity(np.full(5, 0.2), preds)
        want = float(np.mean(np.var(preds, axis=1)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_weights(self):
        with pytest.raises(DataValidationError):
            metrics.ambiguity(np.array([1.5, -0.5]), np.array([[0.0, 1.0]]))

    def test_rejects_non_simplex_rows(self):
        with pytest.raises(DataValidationError):
            metrics.ambiguity(np.array([0.4, 0.4]), np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("weights", [[0.5, 0.5], np.zeros((0, 2))], ids=["static", "per-row"])
    def test_rejects_zero_instances(self, weights):
        """A mean over no instances is undefined, so it is refused, not nan."""
        with pytest.raises(DataValidationError,
                           match="^ensemble base predictions need at least one instance$"):
            metrics.ambiguity(np.array(weights), np.zeros((0, 2)))

    @pytest.mark.parametrize("weights, preds, name", [
        ([math.nan, 1.0], [[0.0, 1.0]], "weights"),
        ([[0.5, 0.5], [math.nan, math.nan]], [[0.0, 1.0], [0.0, 1.0]], "weights"),
        ([0.5, 0.5], [[0.0, math.inf]], "base predictions"),
        ([0.5, 0.5], [[math.nan, 1.0]], "base predictions"),
    ], ids=["nan-weight", "nan-weight-row", "inf-prediction", "nan-prediction"])
    def test_rejects_non_finite_input(self, weights, preds, name):
        """NaN fails no comparison of the simplex check, so it is named
        before the check runs instead of returning nan."""
        with pytest.raises(DataValidationError, match=f"^ensemble {name} must be finite$"):
            metrics.ambiguity(np.array(weights), np.array(preds))


class TestReports:
    """Bundled metric reports and single-best normalization."""

    def test_classification_fields(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        rep = metrics.classification_report(probs, labels)
        assert rep.nll > 0
        assert rep.error_rate == pytest.approx(1 / 3)
        assert rep.auc is not None
        assert rep.mse is None

    def test_multiclass_has_no_auc(self):
        probs = np.full((4, 3), 1 / 3)
        labels = np.array([0, 1, 2, 0])
        rep = metrics.classification_report(probs, labels)
        assert rep.auc is None

    def test_single_class_split_has_no_auc(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        rep = metrics.classification_report(probs, np.array([0, 0]))
        assert rep.auc is None

    def test_regression_fields(self):
        rep = metrics.regression_report(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert rep.mse == pytest.approx(0.5)
        assert rep.nll == pytest.approx(0.5 * math.log(2 * math.pi) + 0.25)
        assert rep.error_rate is None and rep.auc is None

    def test_normalization_divides_fieldwise(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        rep = metrics.classification_report(probs, labels)
        normalized = metrics.normalize_report(rep, rep)
        assert normalized.nll == pytest.approx(1.0)
        assert normalized.error_rate == pytest.approx(1.0)
        assert normalized.auc == pytest.approx(1.0)

    def test_normalization_floors_tiny_reference(self):
        rep = metrics.regression_report(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        other = metrics.regression_report(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        normalized = metrics.normalize_report(other, rep)
        assert np.isfinite(normalized.mse)
        assert normalized.mse > 0

    def test_normalization_field_mismatch(self):
        cls = metrics.classification_report(
            np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 1])
        )
        reg = metrics.regression_report(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(DataValidationError):
            metrics.normalize_report(cls, reg)

    def test_as_dict_drops_missing_fields(self):
        rep = metrics.regression_report(np.array([1.0]), np.array([2.0]))
        d = rep.as_dict()
        assert set(d) == {"nll", "mse"}
