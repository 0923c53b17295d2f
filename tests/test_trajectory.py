"""Pinned training trajectories: the 50-step loss trace and the test
predictions of three small combiner runs must match the values recorded
in ``data/trajectories.json``.

The file was written by the commit that preceded the flat-parameter
column kernel, so any refactor of the training path that changes the
arithmetic shows up here, not only in the benchmark. Regenerate it with
``PYTHONPATH=src python tests/test_trajectory.py`` only when a change of
the records is intended, and say so in CHANGES.md.
"""

import json
import os

import numpy as np
import pytest

from ensemblekit import neural
from ensemblekit.data import SyntheticSpec, generate

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "trajectories.json")

CASES = {
    "ne-stack-C3": (
        SyntheticSpec(kind="experts", n_instances=120, n_models=5, n_classes=3, seed=0),
        "stacking",
    ),
    "ne-ma-C1": (
        SyntheticSpec(kind="preferred", n_instances=120, n_models=20, rho_p=0.9, seed=0),
        "ma",
    ),
    "ne-ma-C10": (
        SyntheticSpec(kind="experts", n_instances=120, n_models=5, n_classes=10, seed=0),
        "ma",
    ),
}


def _run(name):
    spec, mode = CASES[name]
    ds = generate(spec)
    config = neural.NEConfig(mode=mode, dropout_rate=0.5, steps=50, batch_size=64, seed=1)
    params, trace = neural.train(ds, config)
    return trace, neural.predict(params, ds.test.predictions)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_trajectory(name):
    with open(FIXTURE) as fh:
        want = json.load(fh)[name]
    trace, predictions = _run(name)
    np.testing.assert_allclose(trace, want["loss_trace"], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(predictions, want["test_predictions"], rtol=1e-9, atol=0.0)


if __name__ == "__main__":
    recorded = {}
    for case in sorted(CASES):
        trace, predictions = _run(case)
        recorded[case] = {"loss_trace": trace, "test_predictions": predictions.tolist()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
