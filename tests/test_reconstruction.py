import math
from dataclasses import replace

import numpy as np
import pytest

from ehsobs.analysis import reach_time
from ehsobs.harness import (
    FaultWindow,
    Sinusoid,
    default_scenario,
    nofault_scenario,
    noisy_scenario,
    run_scenario,
)
from ehsobs.observer import InitialEstimates
from ehsobs.plant import DomainViolation, PlantParams
from ehsobs.reconstruction import (
    SLIDING_DWELL,
    estimate_faults,
    lowpass,
    lowpass_step,
    reconstruct_faults,
)

P = PlantParams()


def test_lowpass_dc_gain():
    dt, tau = 1e-3, 0.02
    x = np.full(1000, 5.0)
    y = lowpass(x, dt, tau)
    # settles to the input within a few time constants
    assert abs(y[int(5 * tau / dt)] - 5.0) < 5.0 * math.exp(-5.0) * 1.2
    assert y[-1] == pytest.approx(5.0, rel=1e-9)


def test_lowpass_guards():
    x = np.array([1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        lowpass(x, 1e-3, 0.0)  # tau = 0 is below the sample interval too
    with pytest.raises(ValueError):
        lowpass(x, 1e-3, 1e-4)  # tau below the sample interval
    with pytest.raises(ValueError):
        lowpass(x, 1e-3, -1.0)
    with pytest.raises(ValueError):
        lowpass(x, 1e-3, math.nan)


def test_lowpass_step_matches_batch():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    batch = lowpass(x, 1e-3, 0.02)
    acc = 0.0
    for i, xi in enumerate(x):
        acc = lowpass_step(acc, xi, 1e-3, 0.02)
        assert acc == batch[i]


def test_equivalent_injection_averages_relay_chatter():
    # 50% duty relay at the sample rate averages to (near) zero
    n = 4000
    mu = 3.0 * (-1.0) ** np.arange(n)
    out = lowpass(mu, 1e-3, 0.02)
    assert abs(np.mean(out[200:])) < 0.01
    assert np.max(np.abs(out[200:])) < 0.12  # residual ripple only


def test_reconstruct_faults_arithmetic():
    f1, f2 = reconstruct_faults(0.0, 0.0, 0.1, P)
    assert f1 == 0.0 and f2 == 0.0
    g1 = P.beta / (P.V01 + P.A1 * 0.1)
    f1, _ = reconstruct_faults(1.497e8, 0.0, 0.1, P)
    assert f1 == pytest.approx(1.497e8 / g1, rel=1e-12)
    assert f1 == pytest.approx(1e-5, rel=1e-2)


def test_reconstruct_faults_domain_violation():
    with pytest.raises(DomainViolation):
        reconstruct_faults(np.zeros(3), np.zeros(3), np.array([0.0, 0.1, 1.0]), P)


def test_sliding_onset_dwell():
    t = np.arange(0.0, 1.0, 1e-3)
    sigma = np.where(t < 0.4, 1.0, 1e-6)
    assert reach_time(t, sigma, 1e-3, dwell=100) == pytest.approx(0.4, abs=2e-3)
    assert reach_time(t, np.ones_like(t), 1e-3, SLIDING_DWELL) is None


# (trace fixture, scenario it was run from); the stw and fosmo traces come
# from the default scenario with only the observer kind overridden
ONLINE_TRACES = {
    "fault_trace": default_scenario,
    "stw_trace": default_scenario,
    "fosmo_trace": default_scenario,
    "noisy_trace": noisy_scenario,
}


@pytest.mark.parametrize("trace_fixture", sorted(ONLINE_TRACES))
def test_estimate_faults_pipeline_matches_online_columns(trace_fixture, request):
    # the offline pipeline over logged injections reproduces the harness's
    # online reconstruction columns exactly (same recursion, same start)
    trace = request.getfixturevalue(trace_fixture)
    est = estimate_faults(trace, ONLINE_TRACES[trace_fixture]())
    assert np.array_equal(est.f1_hat, trace["f1_hat"])
    assert np.array_equal(est.f2_hat, trace["f2_hat"])
    assert np.array_equal(est.rho4_hat, trace["rho4_hat"])
    if trace_fixture == "fault_trace":
        assert est.valid_from["f1"] == 0.0


def test_estimate_faults_without_dead_bands(fault_trace, fault_scenario):
    sc = replace(fault_scenario, observer=replace(fault_scenario.observer,
                                                  kind="stw", astw=None))
    est = estimate_faults(fault_trace, sc)
    assert est.valid_from == {"f1": None, "f2": None, "rho4": None}


@pytest.mark.parametrize("kind", ["stw", "fosmo"])
def test_estimate_faults_dead_bands_follow_the_kind(kind, fault_trace, fault_scenario):
    # the astw block is still present, but only an astw scenario has dead-bands;
    # the same trace read with the astw scenario is valid from t = 0
    sc = replace(fault_scenario, observer=replace(fault_scenario.observer, kind=kind))
    est = estimate_faults(fault_trace, sc)
    assert est.valid_from == {"f1": None, "f2": None, "rho4": None}


def test_zero_fault_baseline_estimates_are_zero_mean(nofault_trace):
    t = nofault_trace["t"]
    settled = t >= 5.0
    for col in ("f1_hat", "f2_hat"):
        v = nofault_trace[col][settled]
        assert abs(np.mean(v)) < 1e-9
        assert np.max(np.abs(v)) < 1e-7
    rho4 = nofault_trace["rho4_hat"][settled]
    assert abs(np.mean(rho4)) < 0.05
    assert np.max(np.abs(rho4)) < 1.0


def test_supply_uncertainty_lands_in_channel_3():
    # a sinusoidal supply-rate uncertainty is absorbed by the channel-3
    # injection, whose equivalent (filtered) value tracks it; the dead-band
    # is tightened so the in-band drift stays small against the signal
    base = default_scenario()
    cells = list(base.observer.astw)
    cells[2] = replace(cells[2], epsilon=5e3)
    sc = replace(base, duration=6.0, faults=(),
                 observer=replace(base.observer, astw=tuple(cells)),
                 supply_uncertainty=Sinusoid(amplitude=5e5, frequency_hz=1.0))
    tr = run_scenario(sc)
    t = tr["t"]
    assert np.abs(tr["sigma3"]).max() < 10 * 5e3
    mu_eq3 = lowpass(tr["mu3"], sc.dt, sc.reconstruction_tau)
    m = t >= 2.0
    w = 2 * math.pi
    X = np.column_stack([np.sin(w * t[m]), np.cos(w * t[m])])
    coef, *_ = np.linalg.lstsq(X, mu_eq3[m], rcond=None)
    assert math.hypot(*coef) / 5e5 == pytest.approx(1.0, abs=0.1)
    assert abs(math.degrees(math.atan2(-coef[1], coef[0]))) < 20.0


def test_reconstruction_error_decays_with_spool_error():
    # wrong spool start: the leakage estimate is polluted through the orifice
    # model; the pollution envelope is bounded by the spool-error exponential
    base = nofault_scenario()
    sc = replace(base, duration=1.0,
                 observer=replace(base.observer, initial=InitialEstimates(z1=5e-4)))
    tr = run_scenario(sc)
    t = tr["t"]
    f1 = np.abs(tr["f1_hat"])
    k0 = int(0.1 / sc.dt)
    tau_v = sc.plant.tau_v
    window = (t >= 0.1) & (t <= 0.35)
    envelope = 1.5 * f1[k0] * np.exp(-(t[window] - t[k0]) / tau_v)
    assert np.all(f1[window] <= envelope + 1e-6)
    # and the estimate is far above the no-fault noise floor at the start
    assert f1[k0] > 1e-4


def test_doubling_internal_leakage_doubles_estimate():
    means = []
    for ci in (1e-11, 2e-11):
        sc = replace(default_scenario(), duration=16.0,
                     faults=(FaultWindow(t_start=12.0, t_end=16.0, C_i=ci),))
        tr = run_scenario(sc)
        t = tr["t"]
        means.append(np.mean(tr["f1_hat"][t >= 13.5]))
    assert means[1] / means[0] == pytest.approx(2.0, abs=0.04)


def test_constant_force_disturbance_reconstruction():
    sc = replace(default_scenario(), duration=10.0,
                 faults=(FaultWindow(t_start=2.0, t_end=10.0, f_d=3.0),))
    tr = run_scenario(sc)
    t = tr["t"]
    target = 3.0 / sc.plant.m
    rho4 = tr["rho4_hat"][t >= 3.0]
    assert np.mean(rho4) == pytest.approx(target, rel=0.05)
    assert np.sqrt(np.mean((rho4 - target) ** 2)) < 0.15 * target


def test_sinusoidal_force_disturbance_tracking():
    sc = replace(default_scenario(), duration=8.0, faults=(),
                 force_disturbance=Sinusoid(amplitude=3.0, frequency_hz=1.0))
    tr = run_scenario(sc)
    t = tr["t"]
    m = t >= 2.0
    w = 2 * math.pi
    X = np.column_stack([np.sin(w * t[m]), np.cos(w * t[m])])
    coef, *_ = np.linalg.lstsq(X, tr["rho4_hat"][m], rcond=None)
    amp_target = 3.0 / sc.plant.m
    gain = math.hypot(*coef) / amp_target
    lag = math.degrees(math.atan2(-coef[1], coef[0]))
    assert gain >= 0.95
    # filter lag at 1 Hz is ~7 deg; adaptation adds a few more
    assert abs(lag) < 16.0
