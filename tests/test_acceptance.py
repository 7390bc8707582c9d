"""End-to-end acceptance checks, one test per criterion.

Each criterion is one function in ``criteria.py``, which returns its
verdict lines.  A test prints every line as ``[PASS]``/``[FAIL]`` (visible
under ``pytest -s`` and in failure output) and fails on any failing line,
so each pass condition is written once, in the criterion.
"""

import criteria


def _check(verdicts):
    for verdict in verdicts:
        print(criteria.line(*verdict))
    assert all(ok for _, ok, _ in verdicts), [label for label, ok, _ in verdicts if not ok]


def test_criterion_01_phase_alignment_reaches_the_bound():
    _check(criteria.phase_alignment())


def test_criterion_02_switch_kinematics_identities():
    _check(criteria.switch_kinematics())


def test_criterion_03_delay_bound_landscape():
    _check(criteria.delay_bound_landscape())


def test_criterion_04_field_gradients_match_finite_differences():
    _check(criteria.field_gradients())


def test_criterion_05_speed_regulation_on_even_rings():
    _check(criteria.speed_regulation())


def test_criterion_06_flow_field_contracts():
    _check(criteria.flow_field_contraction())


def test_criterion_07_intrusion_prevention_thresholds():
    _check(criteria.intrusion_prevention())


def test_criterion_08_switch_counts_across_relay_placements():
    _check(criteria.relay_switch_counts())


def test_criterion_09_capacity_orders_with_phase_resolution():
    _check(criteria.capacity_with_phase_resolution())


def test_criterion_10_bitwise_deterministic_artifacts():
    _check(criteria.deterministic_artifacts())
