import math
from dataclasses import replace

import numpy as np
import pytest

from ehsobs.cells import check_gain_condition, sign, sqrt_sign
from ehsobs.harness import (
    ControllerGains,
    InitialPlantState,
    PositionProfile,
    Scenario,
    default_scenario,
    nofault_scenario,
    noisy_scenario,
    run_scenario,
)
from ehsobs.observer import (
    FosmoGains,
    InitialEstimates,
    ObserverConfig,
    ObserverState,
    StwGains,
    init_observer,
    observer_step,
)
from ehsobs.plant import ControlInputs, FaultInputs, PlantParams, PlantState, advance_plant

P = PlantParams()


def still_scenario(**kw) -> Scenario:
    """Plant pinned at a force-balanced rest point, controllers disabled.

    The supply loop integrator is preloaded at the setpoint, so with zero
    gains the rig sits exactly still and the observer sees constant outputs.
    """
    base = nofault_scenario()
    P1 = 1.0e6
    defaults = dict(
        duration=0.3, dt=1e-5, substeps=1,
        controller=ControllerGains(0.0, 0.0, 0.0, 0.0),
        position_profile=PositionProfile(offset=0.1, amplitude=0.0, frequency_hz=0.0),
        initial_state=InitialPlantState(x1=0.0, P1=P1, P2=P1 * P.A1 / P.A2,
                                        Ps=3.0e6, xc=0.1, velocity=0.0),
    )
    defaults.update(kw)
    return replace(base, **defaults)


def test_init_observer_defaults_and_overrides():
    cfg = nofault_scenario().observer
    y0 = (1.0e6, 1.5e6, 3.0e6, 0.12)
    obs = init_observer(cfg, y0)
    assert (obs.y1_hat, obs.y2_hat, obs.y3_hat, obs.y4_hat) == y0
    assert obs.z1_hat == 0.0 and obs.z2_hat == 0.0
    cfg2 = replace(cfg, initial=InitialEstimates(z1=1e-4, y4=0.05))
    obs2 = init_observer(cfg2, y0)
    assert obs2.z1_hat == 1e-4 and obs2.y4_hat == 0.05


@pytest.mark.parametrize("name", ["z1", "y1", "y2", "y3", "y4", "z2"])
def test_init_observer_overrides_exactly_one_estimate(name):
    y0 = (1.0e6, 1.5e6, 3.0e6, 0.12)
    cfg = replace(nofault_scenario().observer, initial=InitialEstimates(**{name: -7.5}))
    expected = {"z1": 0.0, "y1": y0[0], "y2": y0[1], "y3": y0[2], "y4": y0[3], "z2": 0.0}
    expected[name] = -7.5
    assert init_observer(cfg, y0).estimates() == tuple(expected.values())


def test_epsilons_only_for_the_adaptive_kind():
    cfg = default_scenario().observer  # carries all three parameter blocks
    assert cfg.epsilons() == tuple(cp.epsilon for cp in cfg.astw)
    assert replace(cfg, kind="stw").epsilons() is None
    assert replace(cfg, kind="fosmo").epsilons() is None


def test_config_requires_matching_parameter_block():
    with pytest.raises(ValueError):
        ObserverConfig(kind="stw")
    with pytest.raises(ValueError):
        ObserverConfig(kind="nope")
    with pytest.raises(ValueError, match="4 channel entries"):
        ObserverConfig(kind="stw", stw=default_scenario().observer.stw[:3])
    ObserverConfig(kind="fosmo",
                   fosmo=FosmoGains(rho=(1.0, 1.0, 1.0, 1.0), rho4_vel=1.0))


def test_exact_initialization_matches_plant_step():
    # estimates started at the truth follow the plant for one step exactly
    s = PlantState(x1=2e-4, x2=1.2e6, x3=1.9e6, x4=3.0e6, x5=0.08, x6=0.01)
    u = ControlInputs(u1=1.5, u2=3.0)
    cfg = nofault_scenario().observer
    y = (s.x2, s.x3, s.x4, s.x5)
    obs = init_observer(cfg, y)
    obs = obs._replace(z1_hat=s.x1, z2_hat=s.x6)
    nxt_obs, inj = observer_step(obs, y, u, P, cfg, dt=1e-4, substeps=1)
    nxt_plant = advance_plant(s, u, FaultInputs(), P, dt=1e-4, substeps=1)
    assert inj.sigma == (0.0, 0.0, 0.0, 0.0)
    assert inj.mu == (0.0, 0.0, 0.0, 0.0)
    assert nxt_obs.z1_hat == pytest.approx(nxt_plant.x1, rel=1e-12)
    assert nxt_obs.y1_hat == pytest.approx(nxt_plant.x2, rel=1e-12)
    assert nxt_obs.y2_hat == pytest.approx(nxt_plant.x3, rel=1e-12)
    assert nxt_obs.y3_hat == pytest.approx(nxt_plant.x4, rel=1e-12)
    assert nxt_obs.y4_hat == pytest.approx(nxt_plant.x5, rel=1e-12)
    assert nxt_obs.z2_hat == pytest.approx(nxt_plant.x6, rel=1e-12)


def test_spool_estimate_decays_exponentially():
    # open-loop spool error is autonomous and decays with the valve constant
    sc = still_scenario(duration=0.35, dt=1e-3, substeps=10,
                        observer=replace(nofault_scenario().observer,
                                         initial=InitialEstimates(z1=5e-4)))
    tr = run_scenario(sc)
    t = tr["t"]
    ez1 = tr["x1"] - tr["z1_hat"]
    ref = ez1[0] * np.exp(-t / P.tau_v)
    mask = t <= 5 * P.tau_v
    assert np.max(np.abs(ez1[mask] / ref[mask] - 1.0)) < 0.01


def test_spool_trace_unaffected_by_pressure_noise():
    from ehsobs.harness import NoiseStd
    clean = still_scenario(duration=0.05)
    noisy = replace(clean, noise_std=NoiseStd(P1=1e4, P2=1e4, Ps=1e4, xc=0.0))
    tr_a, tr_b = run_scenario(clean), run_scenario(noisy)
    assert np.array_equal(tr_a["z1_hat"], tr_b["z1_hat"])
    assert np.array_equal(tr_a["x1"], tr_b["x1"])


def euler_position_block_oracle(e4_0, ez2_0, L1, L2, c_over_m, dt, n):
    """Hand-coded error dynamics of the position/velocity observer block."""
    e4, ez2 = e4_0, ez2_0
    out = np.empty((n, 2))
    for k in range(n):
        out[k] = (e4, ez2)
        mu_pos = L1 * sqrt_sign(e4)
        mu_vel = L2 * sign(e4)
        e4, ez2 = (e4 + dt * (ez2 - mu_pos),
                   ez2 + dt * (-c_over_m * ez2 - mu_vel))
    return out


def _settle_time(t, a, b, tol):
    bad = np.nonzero((np.abs(a) >= tol) | (np.abs(b) >= tol))[0]
    if bad.size == 0:
        return 0.0
    assert bad[-1] + 1 < len(t), "never settled"
    return t[bad[-1] + 1]


def test_position_block_converges_and_matches_oracle():
    gains = StwGains(L1=3.0, L2=0.3)
    # frozen gains satisfy the sliding-gain condition for this channel
    assert check_gain_condition(gains.L1, gains.L2 / gains.L1, 1.0, 0.0, 0.0).ok

    base = nofault_scenario().observer
    sc = still_scenario(observer=replace(
        base, kind="stw",
        stw=(StwGains(1e5, 5e9),) * 3 + (gains,),
        initial=InitialEstimates(y4=0.1 - 0.01)))
    tr = run_scenario(sc)
    t = tr["t"]
    e4 = tr["sigma4"]
    ez2 = tr["x6"] - tr["z2_hat"]
    t_obs = _settle_time(t, e4, ez2, 1e-5)
    assert t_obs < 0.2
    # stays inside afterwards by construction of _settle_time

    oracle = euler_position_block_oracle(0.01, 0.0, gains.L1, gains.L2,
                                         P.c / P.m, sc.dt, len(t))
    t_oracle = _settle_time(t, oracle[:, 0], oracle[:, 1], 1e-5)
    assert t_oracle < 0.2
    assert t_obs == pytest.approx(t_oracle, rel=0.1, abs=5e-3)


def test_gain_adaptation_responds_to_band_crossings(fault_trace, fault_scenario):
    # channel-1 gain moves at exactly the adaptation rate, up outside the
    # dead-band and down inside it (above the floor)
    cp = fault_scenario.observer.astw[0]
    dt = fault_scenario.dt
    rate = dt * cp.alpha1 * math.sqrt(0.5 * cp.Gamma1)
    L1 = fault_trace["L1_1"]
    s1 = np.abs(fault_trace["sigma1"])
    up = (s1[1:] > cp.epsilon) & (L1[:-1] > cp.L_floor)
    assert np.allclose(L1[1:][up] - L1[:-1][up], rate, rtol=1e-9)
    down = (s1[1:] < cp.epsilon) & (L1[:-1] > cp.L_floor)
    assert np.all(L1[1:][down] < L1[:-1][down])


def test_observer_step_rejects_bad_args():
    cfg = nofault_scenario().observer
    y = (1e6, 1.5e6, 3e6, 0.1)
    obs = init_observer(cfg, y)
    with pytest.raises(ValueError):
        observer_step(obs, y, ControlInputs(), P, cfg, dt=0.0, substeps=1)


# (trace fixture, scenario it was run from, observer kind)
REPLAYED_TRACES = {
    "fault_trace": (default_scenario, "astw"),
    "stw_trace": (default_scenario, "stw"),
    "fosmo_trace": (default_scenario, "fosmo"),
    "noisy_trace": (noisy_scenario, "astw"),
}
ESTIMATE_COLUMNS = ("z1_hat", "y1_hat", "y2_hat", "y3_hat", "y4_hat", "z2_hat")
INJECTION_COLUMNS = tuple(f"{name}{i}" for name in ("sigma", "mu", "L1_", "L2_")
                          for i in (1, 2, 3, 4))


@pytest.mark.parametrize("trace_fixture", sorted(REPLAYED_TRACES))
def test_observer_never_reads_the_plant(trace_fixture, request):
    # replayed on a trace's measurement and control columns alone, the
    # observer reproduces every estimate and injection column bit for bit
    trace = request.getfixturevalue(trace_fixture)
    build, kind = REPLAYED_TRACES[trace_fixture]
    sc = build()
    cfg = replace(sc.observer, kind=kind)
    ys = list(zip(*(trace[f"y{i}"].tolist() for i in (1, 2, 3, 4))))
    us = list(map(ControlInputs, trace["u1"].tolist(), trace["u2"].tolist()))
    obs = init_observer(cfg, ys[0])
    estimates, injections = [], []
    for y, u in zip(ys, us):
        estimates.append(obs.estimates())
        obs, inj = observer_step(obs, y, u, sc.plant, cfg, sc.dt, sc.substeps)
        injections.append((*inj.sigma, *inj.mu, *inj.L1, *inj.L2))
    assert np.array_equal(np.array(estimates),
                          np.column_stack([trace[c] for c in ESTIMATE_COLUMNS]))
    assert np.array_equal(np.array(injections),
                          np.column_stack([trace[c] for c in INJECTION_COLUMNS]))
