"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with `pytest -s` to see
the lines as they appear).
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehsobs.analysis import chattering_index, lyapunov_matrices, norms
from ehsobs.cells import check_gain_condition
from ehsobs.harness import (
    default_scenario,
    nofault_scenario,
    noisy_scenario,
    read_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from ehsobs.observer import InitialEstimates

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num} ({title}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


# --- 1. finite-time convergence on the clean scenario -------------------------

def test_criterion_1_convergence_and_runtime():
    sc = nofault_scenario()
    t0 = time.perf_counter()
    trace = run_scenario(sc)
    wall = time.perf_counter() - t0
    t = trace["t"]
    eps = sc.observer.epsilons()
    ok = wall < 10.0
    details = [f"wall={wall:.2f}s"]
    after_2s = t >= 2.0
    for i, e in enumerate(eps, start=1):
        s = np.abs(trace[f"sigma{i}"])
        reached = np.nonzero(s < e)[0]
        t_first = t[reached[0]] if reached.size else math.inf
        stay = float(s[after_2s].max())
        ok = ok and t_first <= 2.0 and stay < 10.0 * e
        details.append(f"ch{i}: first<eps at {t_first:.3f}s, sup after 2s "
                       f"{stay:.3g} (10*eps={10 * e:.3g})")
    _report(1, "convergence", ok, "; ".join(details))


# --- 2. gain-law exactness ------------------------------------------------------

def _local_sign(x: float) -> float:
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def _expected_gain(L_prev: float, sigma: float, cp, dt: float) -> float:
    # independent re-statement of the adaptation law's Euler update
    if L_prev > cp.L_floor:
        nxt = L_prev + dt * cp.alpha1 * math.sqrt(0.5 * cp.Gamma1) * _local_sign(
            abs(sigma) - cp.epsilon)
    else:
        nxt = L_prev + dt * cp.L_ramp
    return max(nxt, cp.L_floor)


def _check_gain_law(trace, scenario) -> tuple[int, float]:
    dt = scenario.dt
    worst = 0
    for ch in range(4):
        cp = scenario.observer.astw[ch]
        L1 = trace[f"L1_{ch + 1}"]
        L2 = trace[f"L2_{ch + 1}"]
        sigma = trace[f"sigma{ch + 1}"]
        prev = cp.L1_init
        for k in range(len(L1)):
            expected = _expected_gain(prev, sigma[k], cp, dt)
            err_ulp = abs(L1[k] - expected) / math.ulp(expected)
            worst = max(worst, err_ulp)
            prev = L1[k]
        if not np.all(L2 == cp.lambda1 * L1):
            return -1, worst
    return 0, worst


def test_criterion_2_gain_law_exactness(fault_trace, fault_scenario,
                                        noisy_trace):
    status1, ulp1 = _check_gain_law(fault_trace, fault_scenario)
    status2, ulp2 = _check_gain_law(noisy_trace, noisy_scenario())
    ok = status1 == 0 and status2 == 0 and ulp1 <= 1.0 and ulp2 <= 1.0
    _report(2, "gain-law exactness", ok,
            f"max update error {max(ulp1, ulp2):.3g} ulp; "
            f"L2==lambda1*L1 {'exact' if status1 == 0 and status2 == 0 else 'VIOLATED'}")


# --- 3. gain boundedness on every shipped scenario -----------------------------

def test_criterion_3_gain_boundedness(fault_trace, nofault_trace, noisy_trace):
    shipped = {
        "default": (default_scenario(), fault_trace),
        "nofault": (nofault_scenario(), nofault_trace),
        "noisy": (noisy_scenario(), noisy_trace),
    }
    ok = True
    details = []
    for name, (sc, trace) in shipped.items():
        file_sc = read_scenario(SCENARIO_DIR / f"{name}.json")
        ok = ok and file_sc == sc
        sup = 0.0
        for ch in range(4):
            cp = sc.observer.astw[ch]
            L1 = trace[f"L1_{ch + 1}"]
            sigma = trace[f"sigma{ch + 1}"]
            sup = max(sup, float(L1.max()))
            ok = ok and bool(np.isfinite(L1).all())
            inside = (np.abs(sigma[1:]) < cp.epsilon) & (L1[:-1] > cp.L_floor)
            ok = ok and bool(np.all(L1[1:][inside] < L1[:-1][inside]))
        details.append(f"{name}: sup L1 = {sup:.4g}")
    _report(3, "gain boundedness", ok, "; ".join(details))


# --- 4. fault reconstruction ----------------------------------------------------

def test_criterion_4_fault_reconstruction(fault_trace):
    t = fault_trace["t"]
    # post-transient windows: 1 s dwell after each schedule change
    settled = ((t >= 13.0) & (t < 23.0)) | (t >= 24.0)
    before = t < 12.0
    ok = True
    details = []
    for name, est_col, true_col in (("f1", "f1_hat", "QL1_true"),
                                    ("f2", "f2_hat", "QL2_true")):
        est = fault_trace[est_col]
        true = fault_trace[true_col]
        magnitude = float(np.sqrt(np.mean(true[settled] ** 2)))
        rel_rms = float(np.sqrt(np.mean((est[settled] - true[settled]) ** 2))) / magnitude
        pre_bias = abs(float(np.mean(est[before]))) / magnitude
        ok = ok and rel_rms < 0.05 and pre_bias < 0.05
        details.append(f"{name}: rms {rel_rms * 100:.2f}%, pre-fault bias "
                       f"{pre_bias * 100:.4f}%")
    _report(4, "fault reconstruction", ok, "; ".join(details))


# --- 5. observer comparison ------------------------------------------------------

def test_criterion_5_observer_comparison(fault_trace, stw_trace, fosmo_trace):
    t = fault_trace["t"]
    ok = True
    details = []
    for ch in ("sigma1", "sigma2"):
        l1 = {name: norms(t, tr[ch], window=(10.0, 30.0)).l1
              for name, tr in (("astw", fault_trace), ("stw", stw_trace),
                               ("fosmo", fosmo_trace))}
        chat = {name: chattering_index(t, tr[ch])
                for name, tr in (("astw", fault_trace), ("fosmo", fosmo_trace))}
        ok = ok and l1["astw"] < l1["stw"] < l1["fosmo"]
        ok = ok and chat["astw"] < chat["fosmo"]
        details.append(f"{ch}: l1 {l1['astw']:.3g} < {l1['stw']:.3g} < "
                       f"{l1['fosmo']:.3g}; tv/s {chat['astw']:.3g} < {chat['fosmo']:.3g}")
    _report(5, "observer comparison", ok, "; ".join(details))


# --- 6. stability apparatus -------------------------------------------------------

def test_criterion_6_stability_apparatus():
    rng = np.random.default_rng(2024)
    # quadratic-form matrix positive definite for any positive tuning ratios
    p_ok = all(
        lyapunov_matrices(1.0, rng.uniform(1e-2, 50.0),
                          rng.uniform(1e-2, 50.0)).lambda_min_P > 0.0
        for _ in range(1000))

    # decay matrix positive definite whenever the gain condition passes with
    # margin (sampled where the closed-form threshold is conservative)
    o_ok = True
    for _ in range(1000):
        l1 = rng.uniform(1.0, 2.0)
        l2 = rng.uniform(0.5, 1.0)
        d1 = rng.uniform(0.0, 0.5)
        d2 = rng.uniform(0.0, 0.5)
        L1 = check_gain_condition(0.0, l1, l2, d1, d2).threshold * rng.uniform(1.05, 3.0)
        o_ok = o_ok and check_gain_condition(L1, l1, l2, d1, d2).ok
        o_ok = o_ok and lyapunov_matrices(L1, l1, l2, d1, d2).lambda_min_Omega > 0.0

    # measured reaching time against the bound, 100 randomized trials of the
    # frozen-gain two-state system with in-bound perturbations
    n = 100
    lam1 = rng.uniform(1.0, 2.0, n)
    lam2 = rng.uniform(0.5, 1.0, n)
    d1 = rng.uniform(0.0, 0.5, n)
    d2 = rng.uniform(0.0, 0.5, n)
    thr = np.array([check_gain_condition(0.0, a, b, c, d).threshold
                    for a, b, c, d in zip(lam1, lam2, d1, d2)])
    L1 = thr * rng.uniform(1.2, 3.0, n)
    L2 = lam1 * L1
    c1 = np.array([lyapunov_matrices(l, a, b, c, d).c1
                   for l, a, b, c, d in zip(L1, lam1, lam2, d1, d2)])
    sig = rng.uniform(0.05, 0.25, n) * rng.choice([-1.0, 1.0], n)
    chi = rng.uniform(-0.3, 0.3, n)
    p11 = 4.0 * lam1 ** 2 + 2.0 * lam2
    p12 = -2.0 * lam1
    z1 = np.sqrt(np.abs(sig)) * np.sign(sig)
    V0 = p11 * z1 ** 2 + 2.0 * p12 * z1 * chi + chi ** 2
    bound = 2.0 * np.sqrt(V0) / c1
    target = 1e-4 * V0
    w1 = rng.uniform(0.5, 15.0, n)
    w2 = rng.uniform(0.5, 15.0, n)
    ph1 = rng.uniform(0.0, 2.0 * math.pi, n)
    ph2 = rng.uniform(0.0, 2.0 * math.pi, n)
    dt = 1e-5
    reach = np.full(n, np.nan)
    for k in range(int(5.0 / dt)):
        t = k * dt
        z1 = np.sqrt(np.abs(sig)) * np.sign(sig)
        V = p11 * z1 ** 2 + 2.0 * p12 * z1 * chi + chi ** 2
        reach[np.isnan(reach) & (V <= target)] = t
        if not np.isnan(reach).any():
            break
        r1 = d1 * np.sqrt(np.abs(sig)) * np.sin(w1 * t + ph1)
        r2 = d2 * np.sin(w2 * t + ph2)
        sig = sig + dt * (-L1 * np.sqrt(np.abs(sig)) * np.sign(sig) + chi + r1)
        chi = chi + dt * (-L2 * np.sign(sig) + r2)
    reached = int(np.sum(~np.isnan(reach) & (reach <= bound)))
    ok = p_ok and o_ok and reached == n
    _report(6, "stability apparatus", ok,
            f"P pd 1000/1000: {p_ok}; Omega pd 1000/1000: {o_ok}; "
            f"reach<=bound {reached}/{n} (max reach "
            f"{np.nanmax(reach):.3g}s, min bound {bound.min():.3g}s)")


# --- 7. numerical hygiene ----------------------------------------------------------

def test_criterion_7_numerical_hygiene(tmp_path):
    base = replace(nofault_scenario(), duration=5.0)
    terminal = {}
    for dt in (1e-3, 5e-4, 2.5e-4):
        tr = run_scenario(replace(base, dt=dt))
        terminal[dt] = np.array([tr[c][-1] for c in ("x1", "x2", "x3", "x4", "x5", "x6")])
    scale = np.maximum(np.abs(terminal[2.5e-4]),
                       np.array([1e-6, 1e4, 1e4, 1e4, 1e-4, 1e-4]))
    e1 = np.linalg.norm((terminal[1e-3] - terminal[5e-4]) / scale)
    e2 = np.linalg.norm((terminal[5e-4] - terminal[2.5e-4]) / scale)
    ratio = e1 / e2
    ratio_ok = 1.7 <= ratio <= 2.3

    short = replace(noisy_scenario(), duration=1.0, faults=())
    determinism_ok = bool(np.array_equal(run_scenario(short).data,
                                         run_scenario(short).data))

    rt_ok = True
    for sc in (default_scenario(), noisy_scenario()):
        path = tmp_path / "sc.json"
        write_scenario(sc, path)
        rt_ok = rt_ok and read_scenario(path) == sc
        rt_ok = rt_ok and scenario_from_dict(scenario_to_dict(sc)) == sc

    ok = ratio_ok and determinism_ok and rt_ok
    _report(7, "numerical hygiene", ok,
            f"dt-halving ratio {ratio:.3f} in [1.7, 2.3]: {ratio_ok}; "
            f"bit-identical rerun: {determinism_ok}; round-trip identity: {rt_ok}")


# --- 8. spool-error decay ------------------------------------------------------------

def test_criterion_8_spool_error_decay():
    base = nofault_scenario()
    sc = replace(base, duration=0.5, substeps=10,
                 observer=replace(base.observer, initial=InitialEstimates(z1=5e-4)))
    tr = run_scenario(sc)
    t = tr["t"]
    tau_v = sc.plant.tau_v
    ez1 = tr["x1"] - tr["z1_hat"]
    mask = t <= 5.0 * tau_v
    worst = float(np.max(np.abs(ez1[mask] / (ez1[0] * np.exp(-t[mask] / tau_v)) - 1.0)))
    ok = worst < 0.01
    _report(8, "spool-error decay", ok,
            f"max relative envelope deviation {worst * 100:.3f}% over 5*tau_v")
