"""Property tests for the combiner's structural invariants over random
(batch, models, classes) shapes and parameters:

* stacking probabilities are equivariant under a permutation of the
  class columns, and model-averaging weights are invariant under it;
* row i of ``predict`` depends on row i of the cube only;
* classification outputs and ma weights are simplex rows;
* fitting never reads the test split.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import neural
from ensemblekit.data import MetaDataset, SyntheticSpec, generate

PROPERTY = settings(max_examples=20, derandomize=True, database=None, deadline=None)

batches = st.integers(1, 6)
models = st.integers(1, 5)
classes = st.integers(2, 6)
seeds = st.integers(0, 2**16)
modes = st.sampled_from([neural.MODE_STACKING, neural.MODE_MA])


def _case(mode, batch, n_models, n_classes, seed):
    """Jittered parameters (off the zero-bias start) and a simplex cube."""
    rng = np.random.default_rng(seed)
    config = neural.NEConfig(mode=mode, layers=3, hidden_dim=5, seed=seed)
    params = neural.init_ne_params(config, n_models)
    params.flat += rng.uniform(-0.3, 0.3, size=params.flat.shape)
    raw = rng.uniform(0.05, 1.0, size=(batch, n_models, n_classes))
    return params, raw / raw.sum(axis=2, keepdims=True), rng


@PROPERTY
@given(batches, models, classes, seeds)
def test_stacking_is_class_permutation_equivariant(batch, n_models, n_classes, seed):
    params, cube, rng = _case(neural.MODE_STACKING, batch, n_models, n_classes, seed)
    perm = rng.permutation(n_classes)
    np.testing.assert_allclose(
        neural.predict(params, cube[:, :, perm]),
        neural.predict(params, cube)[:, perm],
        rtol=1e-12, atol=1e-15,
    )


@PROPERTY
@given(batches, models, classes, seeds)
def test_ma_weights_are_class_permutation_invariant(batch, n_models, n_classes, seed):
    params, cube, rng = _case(neural.MODE_MA, batch, n_models, n_classes, seed)
    perm = rng.permutation(n_classes)
    np.testing.assert_allclose(
        neural.ma_weights(params, cube[:, :, perm]),
        neural.ma_weights(params, cube),
        rtol=1e-12, atol=1e-15,
    )


@PROPERTY
@given(modes, batches, models, classes, seeds)
def test_rows_do_not_depend_on_the_rest_of_the_batch(mode, batch, n_models, n_classes, seed):
    params, cube, rng = _case(mode, batch, n_models, n_classes, seed)
    i = int(rng.integers(batch))
    other = rng.uniform(0.05, 1.0, size=(batch + 2, n_models, n_classes))
    other /= other.sum(axis=2, keepdims=True)
    other[i] = cube[i]
    want = neural.predict(params, cube)[i]
    np.testing.assert_allclose(neural.predict(params, other)[i], want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(neural.predict(params, cube[i : i + 1])[0], want,
                               rtol=1e-12, atol=1e-15)


@PROPERTY
@given(modes, batches, models, classes, seeds)
def test_outputs_are_simplex_rows(mode, batch, n_models, n_classes, seed):
    params, cube, _ = _case(mode, batch, n_models, n_classes, seed)
    rows = [neural.predict(params, cube)]
    if mode == neural.MODE_MA:
        rows.append(neural.ma_weights(params, cube))
    for r in rows:
        assert np.all(r >= 0.0)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["experts", "poly"])
@pytest.mark.parametrize("mode", [neural.MODE_STACKING, neural.MODE_MA])
@settings(max_examples=3, derandomize=True, database=None, deadline=None)
@given(n_test=st.integers(2, 40), seed=seeds)
def test_fitting_never_reads_the_test_split(mode, kind, n_test, seed):
    spec = SyntheticSpec(kind=kind, n_instances=30, n_models=3, n_classes=4, degree=3, seed=seed)
    ds = generate(spec)
    other = generate(SyntheticSpec(kind=kind, n_instances=n_test, n_models=3, n_classes=4,
                                   degree=3, seed=seed + 1))
    swapped = MetaDataset(name=ds.name, task=ds.task, val=ds.val, test=other.test)
    config = neural.NEConfig(mode=mode, dropout_rate=0.5, layers=2, hidden_dim=4,
                             steps=20, batch_size=16, seed=seed)
    params, trace = neural.train(ds, config)
    swapped_params, swapped_trace = neural.train(swapped, config)
    assert params.flat.tobytes() == swapped_params.flat.tobytes()
    assert trace == swapped_trace
