"""Acceptance suite: nine end-to-end checks covering gradient
correctness, the dropout-diversity limit, dynamic-versus-static
ensembling, the dropout benefit direction, greedy-selection optimality,
parameter-count scaling, metric golden values, the overparameterized
regression study, and determinism plus simplex hygiene.

Each test prints one summary line; run with ``pytest -v`` for the
per-criterion pass/fail report.
"""

import json
import time

import numpy as np

from ensemblekit import baselines, metrics, neural
from ensemblekit.cli import main as cli_main
from ensemblekit.data import MetaDataset, SyntheticSpec, TaskKind, fork_map, generate
from gradcheck import finite_difference_gradients, gradient_errors, training_loss


def _jitter(params, rng, scale=0.3):
    """Move parameters off the zero-bias initialization so central
    differences never straddle a ReLU kink."""
    params.flat += rng.uniform(-scale, scale, size=params.flat.shape)


def _random_simplex_cube(rng, batch, n_models, n_classes):
    raw = rng.uniform(0.05, 1.0, size=(batch, n_models, n_classes))
    return raw / raw.sum(axis=2, keepdims=True)


def test_criterion_1_gradient_oracle():
    """Analytic training-loss gradients, dropout mask and masked softmax
    included, match central finite differences on 20 random
    configurations covering both modes."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        mode = neural.MODE_STACKING if trial % 2 == 0 else neural.MODE_MA
        n_models = int(rng.choice([2, 5]))
        n_classes = int(rng.choice([1, 3]))
        hidden = int(rng.integers(1, 9))
        layers = int(rng.integers(1, 4))
        batch = int(rng.integers(4, 9))
        dropout = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        gamma = 1.0 - dropout
        mask = neural.sample_mask(n_models, gamma, rng) if dropout > 0.0 else np.ones(n_models)

        if n_classes >= 2:
            task = TaskKind.CLASSIFICATION
            cube = _random_simplex_cube(rng, batch, n_models, n_classes)
            labels = rng.integers(0, n_classes, size=batch)
        else:
            task = TaskKind.REGRESSION
            cube = rng.normal(size=(batch, n_models, 1))
            labels = rng.normal(size=batch)

        config = neural.NEConfig(mode=mode, dropout_rate=dropout, layers=layers,
                                 hidden_dim=hidden, steps=1, batch_size=batch,
                                 seed=int(rng.integers(100_000)))
        params = neural.init_ne_params(config, n_models)
        _jitter(params, rng)
        _, grad = neural._loss_and_gradients(params, cube, labels, task, mask, gamma)
        numeric = finite_difference_gradients(
            lambda: training_loss(params, cube, labels, task, mask, gamma),
            [params.flat],
        )
        rel, _ = gradient_errors([grad], numeric)
        worst = max(worst, rel)

    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 30.0
    print(f"[PASS] criterion 1: max rel gradient error {worst:.2e} over 20 configs "
          f"({elapsed:.1f}s)")


def test_criterion_2_diversity_limit_oracle():
    """Monte-Carlo ambiguity of a dropout ensemble dominated by one
    model approaches 1 - gamma, vanishes at full retention, and falls
    monotonically as retention grows."""
    start = time.perf_counter()
    alpha_quarter = neural.diversity_limit_oracle(0.25, 1.0, 5, n_samples=20000)
    alpha_full = neural.diversity_limit_oracle(1.0, 1.0, 5, n_samples=20000)
    grid = [0.1, 0.25, 0.5, 0.75, 0.9]
    curve = [neural.diversity_limit_oracle(g, 1.0, 5, n_samples=20000) for g in grid]
    elapsed = time.perf_counter() - start

    assert abs(alpha_quarter - 0.75) < 0.03, alpha_quarter
    assert abs(alpha_full) < 0.01, alpha_full
    assert all(a > b for a, b in zip(curve, curve[1:])), curve
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: alpha(0.25)={alpha_quarter:.4f}, "
          f"alpha(1.0)={alpha_full:.4f}, monotone curve "
          f"{[round(c, 4) for c in curve]} ({elapsed:.1f}s)")


def test_criterion_3_dynamic_beats_static_grid():
    """Per-instance gating on complementary experts beats the best
    constant two-model mixture, even one tuned on the test split, by at
    least 20% test NLL."""
    start = time.perf_counter()
    ds = generate(SyntheticSpec(kind="experts", n_instances=2000, n_models=2,
                                n_classes=3, seed=0))
    config = neural.NEConfig(mode="ma", dropout_rate=0.0, layers=4, hidden_dim=32,
                             steps=3000, batch_size=256, learning_rate=1e-3, seed=0)
    params, _ = neural.train(ds, config)
    ne_nll = metrics.nll(neural.predict(params, ds.test.predictions), ds.test.labels)

    best_static = np.inf
    for theta in np.linspace(0.0, 1.0, 101):
        combined = baselines.predict_static(np.array([theta, 1.0 - theta]),
                                            ds.test.predictions)
        best_static = min(best_static, metrics.nll(combined, ds.test.labels))
    elapsed = time.perf_counter() - start

    assert ne_nll <= 0.8 * best_static, (ne_nll, best_static)
    assert elapsed < 120.0
    print(f"[PASS] criterion 3: dynamic test NLL {ne_nll:.4f} vs best static grid "
          f"{best_static:.4f} (ratio {ne_nll / best_static:.3f}, {elapsed:.1f}s)")


def test_criterion_4_dropout_benefit_direction():
    """With one dominant base model, training with base-model dropout
    lowers test NLL relative to no dropout and raises the ensemble's
    prediction spread."""
    start = time.perf_counter()
    seeds, rates = (0, 1, 2), (0.75, 0.0)
    datasets = {seed: generate(SyntheticSpec(kind="preferred", n_instances=2000,
                                             n_models=20, rho_p=0.95, seed=seed))
                for seed in seeds}

    def nll_and_spread(task):
        seed, rate = task
        ds = datasets[seed]
        config = neural.NEConfig(mode="ma", dropout_rate=rate, layers=4,
                                 hidden_dim=32, steps=10000, batch_size=256,
                                 learning_rate=1e-3, seed=seed)
        params, _ = neural.train(ds, config)
        predictions = neural.predict(params, ds.test.predictions)
        theta = neural.ma_weights(params, ds.test.predictions)
        return (metrics.regression_report(predictions, ds.test.labels).nll,
                metrics.ambiguity(theta, ds.test.predictions[:, :, 0]))

    # The six trainings are independent: the program's own mapper runs
    # them in forked workers, one per usable CPU.
    tasks = [(seed, rate) for seed in seeds for rate in rates]
    results = dict(zip(tasks, fork_map(nll_and_spread, tasks)))
    ratios = [results[seed, 0.75][0] / results[seed, 0.0][0] for seed in seeds]
    ambiguity_pairs = [(results[seed, 0.75][1], results[seed, 0.0][1]) for seed in seeds]
    elapsed = time.perf_counter() - start

    median_ratio = float(np.median(ratios))
    assert median_ratio < 1.0, ratios
    for with_dropout, without in ambiguity_pairs:
        assert with_dropout > without, ambiguity_pairs
    assert elapsed < 300.0
    print(f"[PASS] criterion 4: median NLL ratio {median_ratio:.4f} "
          f"(ratios {[round(r, 4) for r in ratios]}), ambiguity up on all seeds "
          f"({elapsed:.1f}s)")


def test_criterion_5_greedy_matches_brute_force():
    """Every greedy round's pick equals exhaustive re-evaluation of all
    candidate additions, with ties broken toward the lowest index."""
    start = time.perf_counter()

    def mixture_loss(counts, predictions, labels, task):
        weights = counts / counts.sum()
        combined = baselines.predict_static(weights, predictions)
        if task is TaskKind.CLASSIFICATION:
            return metrics.nll(combined, labels)
        return metrics.mse(combined[:, 0], labels)

    def _bump(counts, index):
        trial = counts.copy()
        trial[index] += 1
        return trial

    checked = 0
    for kind in ("experts", "preferred", "poly"):
        for n_models in (2, 3, 4):
            spec = SyntheticSpec(kind=kind, n_instances=200, n_models=n_models,
                                 n_classes=3, rho_p=0.9, degree=4, seed=11)
            ds = generate(spec)
            preds, labels = ds.val.predictions, ds.val.labels
            for n_slots in (1, 2, 3):
                picks = baselines.greedy_select(preds, labels, ds.task,
                                                n_slots=n_slots).indices
                counts = np.zeros(n_models)
                for round_no, pick in enumerate(picks):
                    losses = np.array([
                        mixture_loss(_bump(counts, candidate), preds, labels, ds.task)
                        for candidate in range(n_models)
                    ])
                    # candidates within float noise of the minimum are
                    # genuine ties; the rule picks the lowest such index
                    cutoff = losses.min() + 1e-12 * max(1.0, abs(losses.min()))
                    expect = int(np.flatnonzero(losses <= cutoff)[0])
                    assert pick == expect, (kind, n_models, n_slots, round_no)
                    counts[pick] += 1
                    checked += 1
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    print(f"[PASS] criterion 5: {checked} greedy rounds match brute force "
          f"({elapsed:.1f}s)")


def test_criterion_6_param_count_class_independence():
    """Combiner size depends on the model count, width and depth but
    never on the number of classes; the stacking formula hits its
    hand-computed value."""
    rng = np.random.default_rng(0)
    for mode in (neural.MODE_STACKING, neural.MODE_MA):
        config = neural.NEConfig(mode=mode, layers=4, hidden_dim=32, seed=1)
        params = neural.init_ne_params(config, 10)
        counts = []
        for n_classes in (2, 100):
            cube = _random_simplex_cube(rng, 4, 10, n_classes)
            out = neural.predict(params, cube)
            assert out.shape == (4, n_classes)
            counts.append(neural.param_count(config, 10))
        assert counts[0] == counts[1]

    stacking = neural.NEConfig(mode="stacking", layers=4, hidden_dim=32, seed=1)
    count = neural.param_count(stacking, 10)
    assert count == 2497, count
    print("[PASS] criterion 6: param count identical for C=2 and C=100; "
          "stacking M=10 H=32 L=4 -> 2497")


def test_criterion_7_metric_golden_values():
    """Hand-computed metric values: uniform NLL, a four-point AUC, a
    two-model ambiguity, and Akaike weights for a doubled likelihood."""
    uniform = np.full((5, 4), 0.25)
    value = metrics.nll(uniform, np.array([0, 1, 2, 3, 0]))
    assert abs(value - np.log(4.0)) < 1e-9, value

    auc = metrics.auc_binary(np.array([0.1, 0.4, 0.35, 0.8]),
                             np.array([0, 0, 1, 1]))
    assert auc == 0.75, auc

    spread = metrics.ambiguity(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    assert spread == 0.25, spread

    weights = baselines.akaike_weights(np.array([0.0, 2.0 * np.log(2.0)]))
    np.testing.assert_allclose(weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    print("[PASS] criterion 7: nll(uniform, C=4)=ln 4, auc=0.75, "
          "ambiguity=0.25, akaike=[2/3, 1/3]")


def test_criterion_8_overparameterized_regression():
    """On bootstrapped degree-10 polynomial fits, per-instance gating
    matches or beats a learned constant mixture on test MSE."""
    start = time.perf_counter()
    ds = generate(SyntheticSpec(kind="poly", n_instances=2000, n_models=8,
                                degree=10, seed=0))
    constant_weights = baselines.fit_constant_ma(ds.val.predictions, ds.val.labels,
                                                 ds.task)
    constant_mse = metrics.mse(
        baselines.predict_static(constant_weights, ds.test.predictions)[:, 0],
        ds.test.labels,
    )
    ne_mses = []
    for seed in (0, 1, 2):
        config = neural.NEConfig(mode="ma", dropout_rate=0.25, layers=4,
                                 hidden_dim=32, steps=3000, batch_size=256,
                                 learning_rate=1e-3, seed=seed)
        params, _ = neural.train(ds, config)
        predictions = neural.predict(params, ds.test.predictions)
        ne_mses.append(metrics.mse(predictions, ds.test.labels))
    elapsed = time.perf_counter() - start

    median_ne = float(np.median(ne_mses))
    assert median_ne <= constant_mse, (median_ne, constant_mse)
    assert elapsed < 120.0
    print(f"[PASS] criterion 8: dynamic test MSE {median_ne:.4f} <= constant MA "
          f"{constant_mse:.4f} ({elapsed:.1f}s)")


def test_criterion_9_determinism_and_simplex(tmp_path):
    """1000 randomized cases: static and per-instance weights live on
    the simplex, dropped models get exactly zero weight, model-averaged
    class probabilities row-sum to one, and rerunning with equal seeds
    reproduces run records bit for bit."""
    rng = np.random.default_rng(2026)
    for case in range(1000):
        kind = case % 5
        n_models = int(rng.integers(2, 7))
        if kind == 0:
            losses = rng.uniform(0.0, 3.0, size=n_models)
            weights = baselines.akaike_weights(losses)
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-9
        elif kind == 1:
            preds = _random_simplex_cube(rng, 12, n_models, 3)
            labels = rng.integers(0, 3, size=12)
            sel = baselines.greedy_select(preds, labels, TaskKind.CLASSIFICATION,
                                          n_slots=int(rng.integers(1, 4)))
            weights = sel.weights()
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-9
        elif kind == 2:
            batch = int(rng.integers(1, 9))
            cube = rng.normal(scale=3.0, size=(batch, n_models, 1))
            mask = neural.sample_mask(n_models, 0.5, rng)
            config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4, seed=case)
            params = neural.init_ne_params(config, n_models)
            _, cache = neural._forward(params, cube, mask, 0.5)
            theta = np.zeros((batch, n_models))
            theta[:, cache[0]] = cache[-1]
            assert np.all(theta[:, mask == 0.0] == 0.0)
            assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-12)
        elif kind == 3:
            config = neural.NEConfig(mode="ma", layers=2, hidden_dim=4,
                                     seed=int(rng.integers(100_000)))
            params = neural.init_ne_params(config, n_models)
            _jitter(params, rng)
            cube = _random_simplex_cube(rng, 6, n_models, int(rng.integers(2, 5)))
            theta = neural.ma_weights(params, cube)
            probs = neural.predict(params, cube)
            assert np.all(theta >= 0.0)
            assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)
        else:
            preds = rng.normal(size=(12, n_models, 1))
            labels = rng.normal(size=12)
            weights = baselines.fit_constant_ma(preds, labels, TaskKind.REGRESSION,
                                                steps=5)
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-9

    data = str(tmp_path / "ds")
    assert cli_main(["synth", "--kind", "experts", "--out", data, "--n", "200",
                     "--models", "3", "--classes", "3", "--seed", "0"]) == 0
    record_sets = []
    for name in ("a", "b"):
        out = str(tmp_path / f"runs_{name}.jsonl")
        argv = ["run", "ne-ma", "--data", data, "--out", out, "--seeds", "0,1",
                "--dropout-rate", "0.5", "--steps", "80", "--batch-size", "64",
                "--layers", "2", "--hidden-dim", "4"]
        assert cli_main(argv) == 0
        argv = ["run", "greedy", "--data", data, "--out", out, "--seeds", "0", "--n", "3"]
        assert cli_main(argv) == 0
        with open(out) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for record in records:
            record.pop("wall_time_seconds")
        record_sets.append(records)
    assert record_sets[0] == record_sets[1]
    print("[PASS] criterion 9: 1000 simplex/zero-mask/row-sum cases and "
          "seed-identical run records")
