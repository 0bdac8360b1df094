import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehsobs.harness import default_scenario, scenario_to_dict
from ehsobs.plant import (
    ControlInputs,
    DomainViolation,
    FaultInputs,
    PlantParams,
    PlantState,
    advance_plant,
    leakage_flows,
)

P = PlantParams()


# --- oracles -----------------------------------------------------------------
# The plant's equations term by term.  advance_plant inlines them for speed;
# these are what it is checked against.

def pdv_flows(x1: float, P1: float, P2: float, Ps: float, PT: float,
              p: PlantParams) -> tuple[float, float]:
    """Orifice flows through the PDV into (Q1) and out of (Q2) the cylinder.

    Spool sign selects which chamber connects to supply and which to tank.
    Square-root arguments are clamped at zero: a reversed pressure drop cannot
    drive backflow through the metering orifice.
    """
    k = p.C_d * p.w * x1 * math.sqrt(2.0 / p.rho)
    if x1 >= 0.0:
        dp1 = Ps - P1
        dp2 = P2 - PT
    else:
        dp1 = P1 - PT
        dp2 = Ps - P2
    q1 = k * math.sqrt(dp1) if dp1 > 0.0 else 0.0
    q2 = k * math.sqrt(dp2) if dp2 > 0.0 else 0.0
    return q1, q2


def pressure_rate_coeffs(x_c: float, p: PlantParams) -> tuple[float, float]:
    """Bulk-modulus-over-volume coefficients [Pa/m^3] for both chambers.

    These map net chamber flow to pressure rate.  Raises DomainViolation if
    the piston position would make a chamber volume non-positive.
    """
    v1 = p.V01 + p.A1 * x_c
    v2 = p.V02 - p.A2 * x_c
    if v1 <= 0.0 or v2 <= 0.0:
        raise DomainViolation(f"chamber volume non-positive at x_c={x_c!r}")
    return p.beta / v1, p.beta / v2


def plant_derivative(s: PlantState, u: ControlInputs, f: FaultInputs,
                     p: PlantParams) -> tuple[float, float, float, float, float, float]:
    """Continuous-time state derivative of the full plant."""
    g1, g2 = pressure_rate_coeffs(s.x5, p)
    Q1, Q2 = pdv_flows(s.x1, s.x2, s.x3, s.x4, p.P_T, p)
    QL1, QL2 = leakage_flows(s.x2, s.x3, p.P_T, f)
    dx1 = (-s.x1 + p.K_v * u.u1) / p.tau_v
    dx2 = g1 * (Q1 - p.A1 * s.x6 + QL1)
    dx3 = g2 * (-Q2 + p.A2 * s.x6 + QL2)
    dx4 = (-s.x4 + p.K_r * u.u2) / p.tau_s + f.Delta
    dx5 = s.x6
    dx6 = (-p.c * s.x6 + p.A1 * s.x2 - p.A2 * s.x3 + f.f_d) / p.m
    return dx1, dx2, dx3, dx4, dx5, dx6


def test_areas_derived_from_diameters():
    assert P.A1 == pytest.approx(math.pi * 0.016 ** 2 / 4.0)
    assert P.A2 == pytest.approx(math.pi * (0.016 ** 2 - 0.010 ** 2) / 4.0)
    assert P.A1 > P.A2 > 0.0


def test_orifice_coefficient_derived_once():
    # computed when the parameters are built, not read from a scenario file
    assert P.kq == P.C_d * P.w * math.sqrt(2.0 / P.rho)
    denser = replace(P, rho=900.0)
    assert denser.kq == P.C_d * P.w * math.sqrt(2.0 / 900.0) != P.kq
    assert "kq" not in scenario_to_dict(default_scenario())["plant"]


# the fields PlantParams.loop_constants caches, in the order advance_plant and
# observer_step unpack them
LOOP_CONSTANTS = ("tau_v", "K_v", "tau_s", "K_r", "A1", "A2", "m", "c", "P_T",
                  "stroke", "V01", "V02", "beta", "kq", "P_s_max")


def test_loop_constants_equal_the_fields_they_cache():
    other = replace(P, beta=2.0e9, rho=900.0, d1=0.02, P_T=1.0e5, stroke=0.15)
    for p in (P, other):
        assert p.loop_constants == tuple(getattr(p, name) for name in LOOP_CONSTANTS)
    assert other.loop_constants != P.loop_constants
    assert "loop_constants" not in repr(P)
    assert "loop_constants" not in scenario_to_dict(default_scenario())["plant"]


def test_params_validation():
    with pytest.raises(ValueError):
        PlantParams(beta=-1.0)
    with pytest.raises(ValueError):
        PlantParams(d2=0.016)  # annulus collapses
    with pytest.raises(ValueError):
        PlantParams(V02=1e-6)  # rod-side volume collapses within the stroke


# --- PDV orifice flows ------------------------------------------------------

def test_pdv_zero_spool_gives_zero_flow():
    assert pdv_flows(0.0, 1e6, 2e6, 3e6, 0.0, P) == (0.0, 0.0)


def test_pdv_forward_flow_value():
    # C_d*w*x1*sqrt(2/rho*dP) evaluated at full supply drop
    q1, _ = pdv_flows(1.13e-4, 0.0, 0.0, 3.0e6, 0.0, P)
    expected = 0.7 * 0.01 * 1.13e-4 * math.sqrt(2.0 / 845.0 * 3.0e6)
    assert q1 == pytest.approx(expected, rel=1e-12)
    assert q1 == pytest.approx(6.6654e-5, rel=1e-3)


def test_pdv_sign_mirror():
    # reversing the spool while swapping the branch pressure drops flips Q1
    rng = np.random.default_rng(7)
    for _ in range(500):
        x1 = rng.uniform(1e-6, 1.2e-3)
        drop = rng.uniform(0.0, 5e6)
        q_fwd = pdv_flows(x1, 3e6 - drop, 0.0, 3e6, 0.0, P)[0]  # supply-side drop
        q_bwd = pdv_flows(-x1, drop, 0.0, 3e6, 0.0, P)[0]       # tank-side drop
        assert q_bwd == pytest.approx(-q_fwd, rel=1e-12, abs=1e-18)


@given(x1=st.floats(-1.2e-3, 1.2e-3),
       p1=st.floats(-1e6, 6e6), p2=st.floats(-1e6, 6e6),
       ps=st.floats(-1e6, 6e6))
@settings(max_examples=300, deadline=None)
def test_pdv_total_under_any_pressures(x1, p1, p2, ps):
    # clamping keeps the square roots real for arbitrary (even reversed) drops
    q1, q2 = pdv_flows(x1, p1, p2, ps, 0.0, P)
    assert math.isfinite(q1) and math.isfinite(q2)


def test_flow_continuity_at_spool_zero():
    for eps in (1e-9, 1e-12):
        qp = pdv_flows(eps, 1e6, 2e6, 3e6, 0.0, P)
        qm = pdv_flows(-eps, 1e6, 2e6, 3e6, 0.0, P)
        assert abs(qp[0]) < 1e-9 and abs(qm[0]) < 1e-9
        assert abs(qp[1]) < 1e-9 and abs(qm[1]) < 1e-9


# --- leakage flows -----------------------------------------------------------

def test_leakage_zero_at_equal_pressures():
    f = FaultInputs(C_i=1e-11, C_e1=1e-11, C_e2=1e-11)
    assert leakage_flows(2e6, 2e6, 2e6, f) == (0.0, 0.0)


def test_leakage_internal_values():
    f = FaultInputs(C_i=1e-11)
    ql1, ql2 = leakage_flows(1.0e6, 2.0e6, 0.0, f)
    assert ql1 == pytest.approx(1e-5, rel=1e-12)
    assert ql2 == pytest.approx(-1e-5, rel=1e-12)


def test_leakage_external_rod_side():
    f = FaultInputs(C_e2=1e-11)
    ql1, ql2 = leakage_flows(1.0e6, 2.0e6, 0.0, f)
    assert ql1 == 0.0
    assert ql2 == pytest.approx(-2e-5, rel=1e-12)


@given(p1=st.floats(0, 5e6), p2=st.floats(0, 5e6), ci=st.floats(0, 1e-9))
@settings(max_examples=200, deadline=None)
def test_internal_leakage_antisymmetry(p1, p2, ci):
    f = FaultInputs(C_i=ci)
    ql1, ql2 = leakage_flows(p1, p2, 0.0, f)
    assert ql1 == -ql2


# --- chamber pressure-rate coefficients -------------------------------------

def test_pressure_rate_coeffs_at_zero():
    g1, _ = pressure_rate_coeffs(0.0, P)
    assert g1 == pytest.approx(P.beta / P.V01, rel=1e-12)


def test_pressure_rate_coeffs_mid_stroke():
    g1, _ = pressure_rate_coeffs(0.1, P)
    assert g1 == pytest.approx(1.05e9 / (5e-5 + P.A1 * 0.1), rel=1e-12)
    assert g1 == pytest.approx(1.4977e13, rel=1e-3)


def test_pressure_rate_coeffs_positive_over_stroke():
    for xc in np.linspace(0.0, P.stroke, 101):
        g1, g2 = pressure_rate_coeffs(float(xc), P)
        assert g1 > 0.0 and math.isfinite(g1)
        assert g2 > 0.0 and math.isfinite(g2)


def test_pressure_rate_coeffs_domain_violation():
    with pytest.raises(DomainViolation):
        pressure_rate_coeffs(1.0, P)


# --- full derivative ---------------------------------------------------------

def equilibrium_state(p=P, P1=1.0e6, Ps=3.0e6, xc=0.1):
    return PlantState(x1=0.0, x2=P1, x3=P1 * p.A1 / p.A2, x4=Ps, x5=xc, x6=0.0)


def test_derivative_equilibrium_fixed_point():
    s = equilibrium_state()
    u = ControlInputs(u1=0.0, u2=s.x4 / P.K_r)
    d = plant_derivative(s, u, FaultInputs(), P)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(0.0, abs=1e-6)
    assert d[2] == pytest.approx(0.0, abs=1e-6)
    assert d[3] == pytest.approx(0.0, abs=1e-9)
    assert d[4] == 0.0
    assert abs(d[5]) < 1e-9  # force balance up to rounding of A1*P1 - A2*P2


def test_valve_steady_state():
    s = PlantState(x1=P.K_v * 2.5, x2=1e6, x3=1e6, x4=3e6, x5=0.1, x6=0.0)
    d = plant_derivative(s, ControlInputs(u1=2.5, u2=3.0), FaultInputs(), P)
    assert d[0] == pytest.approx(0.0, abs=1e-18)


def test_derivative_matches_hand_coded_pressure_line():
    # independent re-implementation of the piston-side pressure rate
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = PlantState(x1=rng.uniform(-1e-3, 1e-3),
                       x2=rng.uniform(0, 4e6), x3=rng.uniform(0, 4e6),
                       x4=rng.uniform(0, 5e6), x5=rng.uniform(0.0, 0.2),
                       x6=rng.uniform(-0.5, 0.5))
        f = FaultInputs(C_i=rng.uniform(0, 1e-10), C_e1=rng.uniform(0, 1e-10))
        u = ControlInputs(u1=rng.uniform(-10, 10), u2=rng.uniform(0, 5))
        d = plant_derivative(s, u, f, P)
        if s.x1 >= 0:
            dp = s.x4 - s.x2
        else:
            dp = s.x2 - P.P_T
        q1 = P.C_d * P.w * s.x1 * math.sqrt(2.0 / P.rho * max(dp, 0.0)) if dp > 0 else 0.0
        ql1 = f.C_i * (s.x3 - s.x2) - f.C_e1 * (s.x2 - P.P_T)
        expected = P.beta / (P.V01 + P.A1 * s.x5) * (q1 - P.A1 * s.x6 + ql1)
        assert d[1] == pytest.approx(expected, rel=1e-12)


def test_derivative_is_pure():
    s = equilibrium_state()
    u = ControlInputs(u1=1.0, u2=2.0)
    f = FaultInputs(C_i=1e-11)
    assert plant_derivative(s, u, f, P) == plant_derivative(s, u, f, P)


@given(st.floats(-2e-3, 2e-3), st.floats(-1e6, 6e6), st.floats(-1e6, 6e6),
       st.floats(-1e6, 6e6), st.floats(0.001, 0.199), st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_derivative_never_hits_sqrt_domain_error(x1, p1, p2, ps, xc, v):
    s = PlantState(x1, p1, p2, ps, xc, v)
    d = plant_derivative(s, ControlInputs(0.5, 2.0), FaultInputs(C_i=1e-11), P)
    assert all(math.isfinite(di) for di in d)


# --- stepping ---------------------------------------------------------------

def test_advance_single_substep_equals_euler():
    s = equilibrium_state(P1=0.9e6)
    u = ControlInputs(u1=0.4, u2=3.0)
    f = FaultInputs(C_i=1e-11)
    d = plant_derivative(s, u, f, P)
    nxt = advance_plant(s, u, f, P, dt=1e-4, substeps=1)
    ref = [a + 1e-4 * b for a, b in zip(tuple(s), d)]
    assert tuple(nxt) == pytest.approx(ref, rel=1e-12)


@given(x1=st.floats(-1.2e-3, 1.2e-3), p1=st.floats(0.0, 5e6), p2=st.floats(0.0, 5e6),
       ps=st.floats(0.0, 5e6), xc=st.floats(0.001, 0.199), v=st.floats(-1.0, 1.0),
       u1=st.floats(-10.0, 10.0), u2=st.floats(0.0, 5.0),
       leaks=st.tuples(*[st.floats(0.0, 1e-10)] * 3),
       f_d=st.floats(-100.0, 100.0), delta=st.floats(-1e5, 1e5))
@settings(max_examples=300, deadline=None)
def test_advance_substep_equals_euler_over_the_domain(x1, p1, p2, ps, xc, v, u1, u2,
                                                      leaks, f_d, delta):
    # the inlined step against the term-by-term oracle wherever no clamp fires
    dt = 1e-5
    s = PlantState(x1, p1, p2, ps, xc, v)
    u = ControlInputs(u1=u1, u2=u2)
    f = FaultInputs(*leaks, f_d=f_d, Delta=delta)
    d = plant_derivative(s, u, f, P)
    ref = [a + dt * b for a, b in zip(tuple(s), d)]
    assume(min(ref[1:4]) >= 0.0 and ref[3] <= P.P_s_max and 0.0 <= ref[4] <= P.stroke)
    nxt = advance_plant(s, u, f, P, dt=dt, substeps=1)
    for got, a, b, want in zip(nxt, tuple(s), d, ref):
        # both sum the same terms in a different order: rounding of the terms
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * (abs(a) + dt * abs(b)))


def test_advance_hard_stop_clamps_position_and_velocity():
    s = PlantState(x1=0.0, x2=1e6, x3=1e6, x4=3e6, x5=0.1999, x6=5.0)
    nxt = advance_plant(s, ControlInputs(), FaultInputs(), P, dt=1e-3, substeps=1)
    assert nxt.x5 == P.stroke
    assert nxt.x6 == 0.0


def test_advance_clamps_pressures():
    s = PlantState(x1=0.0, x2=10.0, x3=1e6, x4=4.99e6, x5=0.1, x6=1.0)
    nxt = advance_plant(s, ControlInputs(u2=5.0), FaultInputs(), P, dt=1e-3,
                        substeps=2)
    assert nxt.x2 >= 0.0
    assert nxt.x4 <= P.P_s_max


def test_advance_rejects_bad_args():
    s = equilibrium_state()
    with pytest.raises(ValueError):
        advance_plant(s, ControlInputs(), FaultInputs(), P, dt=0.0, substeps=1)
    with pytest.raises(ValueError):
        advance_plant(s, ControlInputs(), FaultInputs(), P, dt=1e-3, substeps=0)

