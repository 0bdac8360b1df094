"""Full-order sliding-mode observer for the EHSS.

The observer copies the plant structure and wires one injection cell into
each measured channel:

    channel 1..3  piston pressure, rod pressure, supply pressure (first order)
    channel 4     position/velocity block (second order): the proportional
                  part of the injection acts on the position estimate, the
                  sign part on the velocity estimate

The spool estimate runs open loop (its error decays with the valve time
constant).  Measured quantities - pressures for the orifice drops, position
for the chamber volumes - always come from the sensors, only the spool and
velocity enter through their estimates.  The unknown disturbance force is
deliberately absent from the velocity line; it is exactly what the channel-4
injection has to absorb, which is what makes it reconstructable.
Configuration blocks are frozen dataclasses; the observer state and the
injection record, built on every sample, are NamedTuples, which
`observer_step` builds with `tuple.__new__`.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, is_dataclass
from typing import NamedTuple

from .cells import (
    AstwCellParams,
    AstwCellState,
    adapt_gain,
    astw_step,
    fosmo_step,
    sign,
    sqrt_sign,
    stw_step,
)
from .plant import ControlInputs, DomainViolation, PlantParams

# kind -> its row label in `compare`'s table; `compare` runs the kinds in this order
OBSERVER_KINDS = {"astw": "Adaptive Super-twisting Obs. (ASTW)",
                  "stw": "Super-twisting Obs. (STW)",
                  "fosmo": "First-Order SM Obs."}


@dataclass(frozen=True)
class StwGains:
    """Frozen super-twisting gains for one channel."""

    L1: float
    L2: float

    def __post_init__(self) -> None:
        if not (self.L1 > 0.0 and self.L2 > 0.0):
            raise ValueError("StwGains must be > 0")


@dataclass(frozen=True)
class FosmoGains:
    """Relay amplitudes for the first-order baseline.

    rho[3] acts on the position line of channel 4; rho4_vel is the separate
    relay amplitude on the velocity line.
    """

    rho: tuple[float, float, float, float]
    rho4_vel: float

    def __post_init__(self) -> None:
        if not all(r > 0.0 for r in (*self.rho, self.rho4_vel)):
            raise ValueError("FosmoGains must be > 0")


@dataclass(frozen=True)
class InitialEstimates:
    """Optional overrides for the observer start point, in ObserverState order.

    Channels left at None start at the first measurement sample (measured
    channels) or at zero (spool and velocity).
    """

    z1: float | None = None
    y1: float | None = None
    y2: float | None = None
    y3: float | None = None
    y4: float | None = None
    z2: float | None = None


@dataclass(frozen=True)
class ObserverConfig:
    """Observer kind plus the parameter block the kind requires."""

    kind: str = "astw"
    astw: tuple[AstwCellParams, AstwCellParams, AstwCellParams, AstwCellParams] | None = None
    stw: tuple[StwGains, StwGains, StwGains, StwGains] | None = None
    fosmo: FosmoGains | None = None
    initial: InitialEstimates = field(default_factory=InitialEstimates)

    def __post_init__(self) -> None:
        if self.kind not in OBSERVER_KINDS:
            raise ValueError(f"unknown observer kind {self.kind!r}")
        block = getattr(self, self.kind)
        if block is None:
            raise ValueError(f"observer kind {self.kind!r} needs its parameter block")
        if not is_dataclass(block) and len(block) != 4:  # per-channel entries, not one dataclass
            raise ValueError(f"{self.kind} block needs 4 channel entries")

    def epsilons(self) -> tuple[float, float, float, float] | None:
        """Per-channel dead-bands, defined only for the adaptive kind: None for
        `stw` and `fosmo`, even when an `astw` block is present."""
        if self.kind != "astw":
            return None
        return tuple(cp.epsilon for cp in self.astw)


class ObserverState(NamedTuple):
    """Estimates plus the four injection-cell states."""

    z1_hat: float
    y1_hat: float
    y2_hat: float
    y3_hat: float
    y4_hat: float
    z2_hat: float
    cells: tuple[AstwCellState, AstwCellState, AstwCellState, AstwCellState]

    def estimates(self) -> tuple[float, float, float, float, float, float]:
        return self[:6]


class ChannelInjections(NamedTuple):
    """Per-step record of what each channel did.

    mu[0..2] are the full injections added to the pressure lines; mu[3] is
    the sign-term injection on the velocity line (the signal whose low-pass
    reconstructs the cylinder perturbation).  For the relay baseline L2 is
    zero on the first-order channels.
    """

    sigma: tuple[float, float, float, float]
    mu: tuple[float, float, float, float]
    L1: tuple[float, float, float, float]
    L2: tuple[float, float, float, float]


_new = tuple.__new__  # builds a NamedTuple without its generated __new__ frame


def init_observer(cfg: ObserverConfig,
                  y0: tuple[float, float, float, float]) -> ObserverState:
    """Build the observer start state from the first measurement sample."""
    if cfg.kind == "astw":
        cells = tuple(AstwCellState(L1=cp.L1_init) for cp in cfg.astw)
    elif cfg.kind == "stw":
        cells = tuple(AstwCellState(L1=g.L1) for g in cfg.stw)
    else:
        cells = tuple(AstwCellState(L1=r) for r in cfg.fosmo.rho)
    start = zip(astuple(cfg.initial), (0.0, *y0, 0.0))
    return ObserverState(*(x if x is not None else default for x, default in start),
                         cells=cells)


def observer_step(obs: ObserverState, y: tuple[float, float, float, float],
                  u: ControlInputs, p: PlantParams, cfg: ObserverConfig,
                  dt: float, substeps: int) -> tuple[ObserverState, ChannelInjections]:
    """Advance the observer by one sample interval.

    Injections and gains update once per call from the sliding variables at
    the sample instant; the continuous observer lines are then integrated
    with explicit Euler sub-steps while measurements and injections are held.
    Sub-stepping is required for the same reason as in the plant: the
    velocity line's damping-to-mass ratio sits near the sample rate.
    """
    if dt <= 0.0 or substeps < 1:
        raise ValueError("dt must be > 0 and substeps >= 1")
    y1, y2, y3, y4 = y
    z1, yh1, yh2, yh3, yh4, z2, (c1, c2, c3, c4) = obs
    L1_4_prev, nu_4 = c4
    s1 = y1 - yh1
    s2 = y2 - yh2
    s3 = y3 - yh3
    s4 = y4 - yh4

    kind = cfg.kind
    if kind == "astw":
        p1, p2, p3, p4 = cfg.astw
        mu_1, c1 = astw_step(c1, s1, p1, dt)
        mu_2, c2 = astw_step(c2, s2, p2, dt)
        mu_3, c3 = astw_step(c3, s3, p3, dt)
        L1_4 = adapt_gain(L1_4_prev, s4, p4, dt)
        L2 = (p1.lambda1 * c1.L1, p2.lambda1 * c2.L1, p3.lambda1 * c3.L1,
              p4.lambda1 * L1_4)
    elif kind == "stw":
        g1, g2, g3, g4 = cfg.stw
        mu_1, c1 = stw_step(c1, s1, g1.L1, g1.L2, dt)
        mu_2, c2 = stw_step(c2, s2, g2.L1, g2.L2, dt)
        mu_3, c3 = stw_step(c3, s3, g3.L1, g3.L2, dt)
        L1_4 = g4.L1
        L2 = (g1.L2, g2.L2, g3.L2, g4.L2)
    else:  # fosmo
        r1, r2, r3, L1_4 = cfg.fosmo.rho
        mu_1 = fosmo_step(s1, r1)
        mu_2 = fosmo_step(s2, r2)
        mu_3 = fosmo_step(s3, r3)
        L2 = (0.0, 0.0, 0.0, cfg.fosmo.rho4_vel)
    # channel 4 splits the law across the second-order block
    mu4_pos = L1_4 * (sign(s4) if kind == "fosmo" else sqrt_sign(s4))
    mu4_vel = L2[3] * sign(s4)

    tau_v, K_v, tau_s, K_r, A1, A2, m, c, PT, _, V01, V02, beta, kq, _ = p.loop_constants
    # chamber-volume coefficients from the measured position, held over dt
    v1 = V01 + A1 * y4
    v2 = V02 - A2 * y4
    if v1 <= 0.0 or v2 <= 0.0:
        raise DomainViolation(f"measured position {y4!r} collapses a chamber volume")
    g_1 = beta / v1
    g_2 = beta / v2

    h = dt / substeps
    u1, u2 = u
    sqrt = math.sqrt

    for _ in range(substeps):
        # orifice flows from the estimated spool and measured pressures
        k = kq * z1
        if z1 >= 0.0:
            dp1 = y3 - y1
            dp2 = y2 - PT
        else:
            dp1 = y1 - PT
            dp2 = y3 - y2
        Q1 = k * sqrt(dp1) if dp1 > 0.0 else 0.0
        Q2 = k * sqrt(dp2) if dp2 > 0.0 else 0.0

        dz1 = (-z1 + K_v * u1) / tau_v
        dy1 = g_1 * (Q1 - A1 * z2) + mu_1
        dy2 = g_2 * (-Q2 + A2 * z2) + mu_2
        dy3 = (-y3 + K_r * u2) / tau_s + mu_3
        dy4 = z2 + mu4_pos
        dz2 = (-c * z2 + A1 * y1 - A2 * y2) / m + mu4_vel

        z1 += h * dz1
        yh1 += h * dy1
        yh2 += h * dy2
        yh3 += h * dy3
        yh4 += h * dy4
        z2 += h * dz2

    new = _new(ObserverState, (z1, yh1, yh2, yh3, yh4, z2,
                               (c1, c2, c3, _new(AstwCellState, (L1_4, nu_4)))))
    inj = _new(ChannelInjections, ((s1, s2, s3, s4), (mu_1, mu_2, mu_3, mu4_vel),
                                   (c1.L1, c2.L1, c3.L1, L1_4), L2))
    return new, inj
