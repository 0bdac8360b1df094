import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsobs.cells import (
    AstwCellParams,
    AstwCellState,
    astw_step,
    check_gain_condition,
    fosmo_step,
    sign,
    sqrt_sign,
    stw_step,
)

CP = AstwCellParams(epsilon=1.0, alpha1=100.0, Gamma1=2.0, lambda1=1.0,
                    L_floor=0.1, L_ramp=100.0, L1_init=10.0)


def test_sign_convention():
    assert sign(0.0) == 0.0
    assert sign(1e-12) == 1.0
    assert sign(-5.0) == -1.0


def test_sqrt_sign_values():
    assert sqrt_sign(0.0) == 0.0
    assert sqrt_sign(4.0) == 2.0
    assert sqrt_sign(-9.0) == -3.0


@given(st.floats(-1e9, 1e9))
@settings(max_examples=1000, deadline=None)
def test_sqrt_sign_odd(sigma):
    assert sqrt_sign(-sigma) == -sqrt_sign(sigma)
    assert abs(sqrt_sign(sigma)) == pytest.approx(math.sqrt(abs(sigma)))


def test_params_validation():
    with pytest.raises(ValueError):
        AstwCellParams(epsilon=0.0)
    with pytest.raises(ValueError):
        AstwCellParams(epsilon=1.0, L1_init=0.05, L_floor=0.1)


# --- adaptive super-twisting cell ---------------------------------------------

def test_astw_zero_sigma_keeps_integral_term():
    mu, cell = astw_step(AstwCellState(L1=3.0, nu=0.5), 0.0, CP, dt=1e-3)
    assert mu == 0.5
    assert cell.nu == 0.5


def test_astw_gain_grows_outside_deadband():
    # growth rate alpha1*sqrt(Gamma1/2) = 100, one millisecond step
    mu, cell = astw_step(AstwCellState(L1=10.0), 5.0, CP, dt=1e-3)
    assert cell.L1 == pytest.approx(10.1, rel=1e-12)


def test_astw_gain_decays_inside_deadband():
    mu, cell = astw_step(AstwCellState(L1=10.0), 0.5, CP, dt=1e-3)
    assert cell.L1 == pytest.approx(9.9, rel=1e-12)
    # integral gain follows exactly
    assert cell.nu == 1e-3 * (CP.lambda1 * cell.L1) * 1.0


def test_astw_injection_uses_updated_gain():
    mu, cell = astw_step(AstwCellState(L1=10.0, nu=0.0), 4.0, CP, dt=1e-3)
    assert mu == cell.L1 * 2.0 + cell.nu


def test_astw_floor_and_ramp():
    # at (or below) the floor the gain ramps back up regardless of sigma
    mu, cell = astw_step(AstwCellState(L1=0.1), 0.0, CP, dt=1e-3)
    assert cell.L1 == pytest.approx(0.1 + 1e-3 * CP.L_ramp)
    # a decay step that would cross the floor is clamped onto it
    mu, cell = astw_step(AstwCellState(L1=0.15), 0.0, CP, dt=1e-3)
    assert cell.L1 == CP.L_floor


def test_astw_growth_slope_is_affine():
    cell = AstwCellState(L1=5.0)
    dt = 1e-3
    trace = [cell.L1]
    for _ in range(50):
        _, cell = astw_step(cell, 10.0, CP, dt)  # always outside the dead-band
        trace.append(cell.L1)
    diffs = np.diff(trace)
    assert np.allclose(diffs, dt * CP.alpha1 * math.sqrt(0.5 * CP.Gamma1), rtol=1e-12)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_astw_gain_bounded_and_floored(sigmas):
    dt = 1e-3
    cell = AstwCellState(L1=CP.L1_init)
    peak = cell.L1
    for s in sigmas:
        _, cell = astw_step(cell, s, CP, dt)
        peak = max(peak, cell.L1)
        assert cell.L1 >= CP.L_floor
    # piecewise-linear trajectory: the supremum is attained and finite
    assert peak <= CP.L1_init + len(sigmas) * dt * CP.alpha1 * math.sqrt(0.5 * CP.Gamma1)


def test_astw_is_pure():
    cell = AstwCellState(L1=2.0, nu=0.3)
    a = astw_step(cell, 1.5, CP, 1e-3)
    b = astw_step(cell, 1.5, CP, 1e-3)
    assert a == b
    assert cell.nu == 0.3


def test_astw_rejects_bad_dt():
    with pytest.raises(ValueError):
        astw_step(AstwCellState(L1=1.0), 0.0, CP, dt=0.0)


# --- frozen-gain super-twisting ----------------------------------------------

def test_stw_single_step_value():
    dt = 1e-3
    mu, cell = stw_step(AstwCellState(L1=2.0), 1.0, 2.0, 3.0, dt)
    assert mu == pytest.approx(2.0 + dt * 3.0, rel=1e-15)


def test_stw_zero_sigma():
    mu, cell = stw_step(AstwCellState(L1=2.0), 0.0, 2.0, 3.0, 1e-3)
    assert mu == 0.0


def test_stw_gain_trace_constant():
    cell = AstwCellState(L1=2.0)
    for s in (1.0, -4.0, 0.2, 7.0):
        _, cell = stw_step(cell, s, 2.0, 3.0, 1e-3)
        assert cell.L1 == 2.0


def test_stw_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        stw_step(AstwCellState(L1=1.0), 1.0, 0.0, 1.0, 1e-3)


# --- first-order relay --------------------------------------------------------

def test_fosmo_values():
    assert fosmo_step(-0.2, 3.0) == -3.0
    assert fosmo_step(0.0, 3.0) == 0.0


@given(st.floats(-1e6, 1e6).filter(lambda s: s != 0.0))
@settings(max_examples=200, deadline=None)
def test_fosmo_relay_amplitude(sigma):
    assert abs(fosmo_step(sigma, 2.5)) == 2.5


def test_fosmo_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        fosmo_step(1.0, 0.0)


# --- gain condition ------------------------------------------------------------

def test_gain_condition_zero_bounds():
    res = check_gain_condition(10.0, 1.0, 1.0, 0.0, 0.0)
    assert res.threshold == pytest.approx(6.25, rel=1e-12)
    assert res.ok
    assert res.margin == pytest.approx(3.75, rel=1e-12)


def test_gain_condition_boundary_is_strict():
    thr = check_gain_condition(0.0, 1.0, 1.0, 0.0, 0.0).threshold
    assert not check_gain_condition(thr, 1.0, 1.0, 0.0, 0.0).ok


def test_gain_condition_rate_bound_dependence():
    # direct evaluations at unit tuning ratios: the threshold first dips with
    # the rate bound (the bound relaxes one diagonal entry before it tightens
    # the coupling term) and grows monotonically past delta2 = 1
    assert check_gain_condition(0.0, 1.0, 1.0, 0.0, 0.0).threshold == pytest.approx(6.25)
    assert check_gain_condition(0.0, 1.0, 1.0, 0.0, 1.0).threshold == pytest.approx(6.0)
    assert (check_gain_condition(0.0, 1.0, 1.0, 0.0, 2.0).threshold
            > check_gain_condition(0.0, 1.0, 1.0, 0.0, 1.0).threshold)


def test_gain_condition_rejects_bad_ratios():
    with pytest.raises(ValueError):
        check_gain_condition(1.0, 0.0, 1.0, 0.0, 0.0)

