"""Fault reconstruction from equivalent output injections.

Once a channel is in sliding motion its injection signal equals, on average,
the perturbation it cancels.  Low-pass filtering extracts that average (the
equivalent injection); dividing the pressure-channel injections by the
chamber pressure-rate coefficients turns them into leakage-flow estimates,
and the filtered velocity-line injection directly estimates the lumped
cylinder perturbation (disturbance force over mass plus residual damping
mismatch).

Estimates are only meaningful once sliding motion holds, which is detected
with a dwell test on the sliding variable (analysis.reach_time).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import LazyModule
from .analysis import reach_time
from .plant import DomainViolation, PlantParams

np = LazyModule("numpy")


def lowpass_step(state: float, x: float, dt: float, tau: float) -> float:
    """One update of the first-order low-pass recursion (tau >= dt)."""
    return state + (dt / tau) * (x - state)


def lowpass(x, dt: float, tau: float) -> np.ndarray:
    """First-order low-pass of a uniformly sampled series, starting from rest.

    tau below dt would make the recursion unstable and is rejected.
    """
    if not tau >= dt:
        raise ValueError("filter tau must be at least the sample interval")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    acc = 0.0
    for i, xi in enumerate(x):
        acc = lowpass_step(acc, xi, dt, tau)
        out[i] = acc
    return out


def reconstruct_faults(mu_eq_1, mu_eq_2, y4, p: PlantParams):
    """Map equivalent pressure-line injections to leakage-flow estimates.

    Divides by the chamber pressure-rate coefficient at the measured
    position, i.e. multiplies by volume over bulk modulus.  Accepts scalars
    or arrays; raises DomainViolation where a chamber volume would be
    non-positive.
    """
    mu_eq_1 = np.asarray(mu_eq_1, dtype=float)
    mu_eq_2 = np.asarray(mu_eq_2, dtype=float)
    y4 = np.asarray(y4, dtype=float)
    v1 = p.V01 + p.A1 * y4
    v2 = p.V02 - p.A2 * y4
    if np.any(v1 <= 0.0) or np.any(v2 <= 0.0):
        raise DomainViolation("position trace collapses a chamber volume")
    f1_hat = mu_eq_1 * v1 / p.beta
    f2_hat = mu_eq_2 * v2 / p.beta
    return f1_hat, f2_hat


SLIDING_DWELL = 100  # consecutive in-band samples before estimates count as valid


@dataclass(frozen=True)
class FaultEstimate:
    """Reconstructed fault series plus per-channel validity onset times.

    valid_from maps 'f1' / 'f2' / 'rho4' to the time sliding motion was
    established on the corresponding channel, or None if it never was;
    samples before that time carry no meaning.
    """

    t: np.ndarray
    f1_hat: np.ndarray
    f2_hat: np.ndarray
    rho4_hat: np.ndarray
    valid_from: dict[str, float | None]


def estimate_faults(trace, scenario) -> FaultEstimate:
    """Offline reconstruction over a logged trace (a SimTrace or any mapping
    from column names to arrays).

    The filter constant, sample interval and plant come from the scenario,
    so the result equals the trace's online f1_hat, f2_hat and rho4_hat
    columns bit for bit.  Sliding onset is dwell-tested against the dead-bands
    of channels 1, 2 and 4, which only an `astw` scenario has; for an `stw` or
    `fosmo` scenario every valid_from entry is None, as `run` gives their
    reach times as null.
    """
    dt, tau = scenario.dt, scenario.reconstruction_tau
    f1_hat, f2_hat = reconstruct_faults(lowpass(trace["mu1"], dt, tau),
                                        lowpass(trace["mu2"], dt, tau),
                                        trace["y4"], scenario.plant)
    t = np.asarray(trace["t"], dtype=float)
    eps = scenario.observer.epsilons()
    valid_from = {name: None if eps is None else
                  reach_time(t, trace[f"sigma{ch}"], eps[ch - 1], SLIDING_DWELL)
                  for name, ch in (("f1", 1), ("f2", 2), ("rho4", 4))}
    return FaultEstimate(t=t, f1_hat=f1_hat, f2_hat=f2_hat,
                         rho4_hat=lowpass(trace["mu4"], dt, tau), valid_from=valid_from)
