"""Fixed-seed golden outputs of one severe-shift trial.

Pins the exact bits of every method's tau, the weight box and the plug-in
(BBSE) weights on one small ``run_trials`` trial.  A change meant to leave
outputs alone (a refactor, or an exact speed-up of PS-W) must keep these
literals; a change that moves them on purpose must say why and re-record
them.
"""

import numpy as np
import pytest

from pacshift import (
    METHODS,
    RiskParams,
    ShiftSpec,
    SyntheticModel,
    bbse_point_weights,
    delta_split,
    estimate_confusion,
    estimate_qhat,
    run_trials,
    sample_shifted,
    tweak_one,
    weight_box,
)
from pacshift.harness import trial_rng

SEED = 11

# The acceptance-suite severe shift at m = n = o = 2000; at this size
# delta = 5e-4 often aborts the box, so delta is 0.05.
MODEL = SyntheticModel(
    class_centers=[[-6.0], [6.0], [0.0]], noise_scale=[1.0, 1.0, 36.0], temperature=430.0
)
SPEC = ShiftSpec(np.array([0.2, 0.2, 0.6]), tweak_one(3, 0.9, tweaked=2), 2000, 2000, 2000)
RP = RiskParams(epsilon=0.1, delta=0.05)

TAU = {
    "PS": "0x1.9daffb60d6503p-3",
    "PS-W": "0x1.aacded9f741aap-4",
    "PS-C": "0x1.dbefef10448dcp-4",
    "PS-R": "0x1.8ddf3db2577ddp-3",
    "WCP": "0x1.9eaafb6c6b1edp-3",
    "ORACLE": "0x1.67ccd1702066dp-3",
}
BOX_LO = ["0x0.0p+0", "0x0.0p+0", "0x1.fe41958690331p-3"]
BOX_HI = ["0x1.2e32f61a229cap+1", "0x1.6ddbe56851a3cp+1", "0x1.c6a324730ac50p+1"]
BBSE = ["0x1.8b95ff2504af5p-1", "0x1.c05c90a1fd1bbp-1", "0x1.1dafded6be0cep+0"]


def hexes(values):
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def reports():
    return run_trials(SPEC, MODEL, list(METHODS), RP, trials=1, seed=SEED)


def test_every_method_tau(reports):
    assert {r.method: float(r.tau).hex() for r in reports} == TAU
    assert not any(r.aborted for r in reports)


def trial_data():
    """The trial's data, drawn the way run_trials draws it."""
    data_seed = int(trial_rng(SEED, 0).integers(2**62))
    return sample_shifted(SPEC, MODEL, data_seed)


def test_weight_box():
    src, tgt, _ = trial_data()
    box = weight_box(src, tgt, delta_split(SPEC.k, RP.delta)[0])
    assert hexes(box.lo) == BOX_LO
    assert hexes(box.hi) == BOX_HI
    assert float(box.envelope_b).hex() == BOX_HI[2]


def test_bbse_weights():
    src, tgt, _ = trial_data()
    assert hexes(bbse_point_weights(estimate_confusion(src), estimate_qhat(tgt))) == BBSE
