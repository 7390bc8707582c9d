"""Each acceptance criterion fails when the mechanism it checks is broken.

Mutation testing (DeMillo, Lipton & Sayward 1978; Jia & Harman 2011): a
check that no broken program fails tests nothing.  Each case patches one
mechanism of the program, runs the criterion's function from
``criteria.py`` and asserts that the named verdict line turns false.
Criteria 7ii and 8 have no mutant; CHANGES.md lists the ones tried.
"""

import math

import numpy as np
import pytest

import criteria
from uamsim import engine, fields, netcalc, ris, switching


def _wrong_sign_phases(bs_pos, ris_pos, k_pos, num_elements):
    """theta_u = +pi * u * (cos_in - cos_out): the steering turned the wrong way."""
    mismatch = ris.cascade_geometry(bs_pos, ris_pos, k_pos)[2]
    theta = np.mod(math.pi * ris.steering_index(num_elements) * mismatch, ris.TWO_PI)
    theta[theta >= ris.TWO_PI] = 0.0
    return ris.RowPhases(theta)


def _plan_without_dv2(v_from, v_to, altitude_change, max_accel):
    """The climb plan with the dv^2 term dropped: ay = a_max."""
    h, ay = altitude_change, max_accel
    return switching.SwitchPlan(
        ax=(v_to - v_from) * np.sqrt(ay * h) / (2.0 * h), ay=ay, duration=np.sqrt(4.0 * h / ay)
    )


_FASHION = netcalc._fashion


def _rtr_after_cts(kind, params):
    """Every handshake message its own step: Ris sends RTS, CTS, then RTR."""
    steps, rates = _FASHION(kind, params)
    return tuple((m,) for step in steps for m in step), rates


def _layer_gradient_halved(fleet, weight=1.0):
    """The layer well's gradient without its factor 2."""
    return np.zeros(len(fleet.x)), weight * fleet.offset


def _no_stabilizer(fleet, cfg, weight=1.0):
    """The speed stabilizer off: no pull toward the layer's cruise speed."""
    return np.zeros(len(fleet.x)), np.zeros(len(fleet.x))


def _draw_at_the_cap(self, streams):
    """Every back-off counter drawn at BACKOFF_CAP, whatever its ceiling."""
    rows = np.flatnonzero((self.mode == switching.MODE_BACKING_OFF) & (self.backoff == 0))
    self.backoff[rows] = switching.BACKOFF_CAP


def _zero_phases(config, resolution):
    return ris.RowPhases(np.zeros_like(config.phases), resolution)


def _unseeded_random(self, rows):
    return np.random.default_rng().random(len(rows))


MUTANTS = [
    pytest.param(ris, "optimal_phase_shift", _wrong_sign_phases, criteria.phase_alignment,
                 "criterion 1", id="1-wrong-sign-phases"),
    pytest.param(switching, "optimal_switch_acceleration", _plan_without_dv2,
                 criteria.switch_kinematics, "criterion 2", id="2-no-dv2-term"),
    pytest.param(netcalc, "_fashion", _rtr_after_cts, criteria.delay_bound_landscape,
                 "criterion 3c", id="3c-rtr-after-cts"),
    pytest.param(fields, "layer_gradient", _layer_gradient_halved, criteria.field_gradients,
                 "criterion 4", id="4-layer-gradient-halved"),
    pytest.param(fields, "stabilize_gradient", _no_stabilizer, criteria.speed_regulation,
                 "criterion 5", id="5-no-stabilizer"),
    pytest.param(fields, "stabilize_gradient", _no_stabilizer, criteria.flow_field_contraction,
                 "criterion 6", id="6-no-stabilizer"),
    pytest.param(switching.SwitchState, "draw", _draw_at_the_cap, criteria.intrusion_prevention,
                 "criterion 7i", id="7i-backoff-at-the-cap"),
    pytest.param(engine, "quantize_config", _zero_phases, criteria.capacity_with_phase_resolution,
                 "criterion 9 fresh windows", id="9-zero-phases"),
    pytest.param(switching.Streams, "random", _unseeded_random, criteria.deterministic_artifacts,
                 "criterion 10", id="10-unseeded-stream"),
]


@pytest.mark.parametrize("owner, name, mutant, criterion, label", MUTANTS)
def test_the_mutant_fails_its_criterion(monkeypatch, owner, name, mutant, criterion, label):
    monkeypatch.setattr(owner, name, mutant)
    verdicts = {verdict[0]: verdict for verdict in criterion()}
    print(f"mutant {mutant.__name__}: {criteria.line(*verdicts[label])}")
    assert not verdicts[label][1]
