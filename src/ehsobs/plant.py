"""Nonlinear electro-hydraulic servo system (EHSS) plant.

The rig is a fixed-displacement pump with a proportional relief valve (PRV)
regulating supply pressure, a proportional directional valve (PDV) metering
flow into a double-acting cylinder, and the cylinder itself driving an
equivalent mass/damper load.  Six states:

    x1  PDV spool position          [m]
    x2  piston-side pressure P1     [Pa]
    x3  rod-side pressure P2        [Pa]
    x4  supply pressure Ps          [Pa]
    x5  cylinder position           [m]
    x6  cylinder velocity           [m/s]

Leakage faults (internal across the piston seal, external to tank) and a
disturbance force on the cylinder enter through `FaultInputs`.  All
operations are pure functions over value data.  Parameter blocks that a
scenario file holds are frozen dataclasses, walked by the scenario codec;
values built on every sample (`PlantState`, `FaultInputs`,
`ControlInputs`) are NamedTuples, which the simulation loop builds with
`tuple.__new__`, past their generated `__new__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple


class DomainViolation(ValueError):
    """A physical-domain constraint was violated (e.g. chamber volume <= 0)."""


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the rig (SI units).

    Areas are derived from the diameters: A1 from the full bore, A2 as the
    annulus left by the rod.  Dead volumes must keep both chamber volumes
    positive over the whole stroke.
    """

    tau_v: float = 0.07      # PDV spool time constant [s]
    K_v: float = 1.13e-4     # PDV gain [m/V]
    tau_s: float = 0.05      # PRV time constant [s]
    K_r: float = 1.0e6       # PRV gain [Pa/V]
    beta: float = 1.05e9     # effective bulk modulus [Pa]
    rho: float = 845.0       # fluid density [kg/m^3]
    C_d: float = 0.7         # PDV discharge coefficient [-]
    w: float = 0.01          # orifice area gradient [m]
    d1: float = 0.016        # piston diameter [m]
    d2: float = 0.010        # rod diameter [m]
    V01: float = 5.0e-5      # piston-side dead volume [m^3]
    V02: float = 5.0e-5      # rod-side dead volume [m^3]
    m: float = 0.15          # equivalent moving mass [kg]
    c: float = 350.0         # equivalent damping [N*s/m]
    P_T: float = 0.0         # tank pressure [Pa]
    stroke: float = 0.2      # cylinder stroke [m]
    P_s_max: float = 5.0e6   # supply pressure ceiling [Pa]
    A1: float = field(init=False, repr=False)  # piston-side area [m^2]
    A2: float = field(init=False, repr=False)  # rod-side annular area [m^2]
    kq: float = field(init=False, repr=False)  # orifice coefficient C_d*w*sqrt(2/rho)
    # the constants advance_plant and observer_step unpack on every sample, in
    # the order __post_init__ builds them
    loop_constants: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "A1", math.pi * self.d1 ** 2 / 4.0)
        object.__setattr__(self, "A2", math.pi * (self.d1 ** 2 - self.d2 ** 2) / 4.0)
        for f in fields(self):
            if f.init and f.name != "P_T" and not getattr(self, f.name) > 0.0:
                raise ValueError(f"PlantParams.{f.name} must be > 0")
        if not self.P_T >= 0.0:
            raise ValueError("PlantParams.P_T must be >= 0")
        # after the checks: sqrt(2/rho) needs rho > 0
        object.__setattr__(self, "kq", self.C_d * self.w * math.sqrt(2.0 / self.rho))
        if not self.A1 > self.A2 > 0.0:
            raise ValueError("need A1 > A2 > 0 (rod diameter below bore diameter)")
        # chamber volumes must stay positive over the full stroke
        if self.V02 - self.A2 * self.stroke <= 0.0:
            raise ValueError("rod-side chamber volume collapses within the stroke")
        object.__setattr__(self, "loop_constants", (
            self.tau_v, self.K_v, self.tau_s, self.K_r, self.A1, self.A2, self.m,
            self.c, self.P_T, self.stroke, self.V01, self.V02, self.beta, self.kq,
            self.P_s_max))


class PlantState(NamedTuple):
    """Plant state vector; pressures in Pa, lengths in m."""

    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0
    x4: float = 0.0
    x5: float = 0.0
    x6: float = 0.0


class FaultInputs(NamedTuple):
    """Leakage coefficients, disturbance force and supply-rate uncertainty.

    C_i couples the two chambers (internal leakage), C_e1/C_e2 drain each
    chamber to tank.  f_d lumps friction/disturbance force on the cylinder;
    Delta is an additive uncertainty on the supply-pressure rate.
    """

    C_i: float = 0.0     # internal leakage coefficient [m^3/(s*Pa)]
    C_e1: float = 0.0    # piston-side external leakage [m^3/(s*Pa)]
    C_e2: float = 0.0    # rod-side external leakage [m^3/(s*Pa)]
    f_d: float = 0.0     # disturbance/friction force [N]
    Delta: float = 0.0   # supply-pressure-rate uncertainty [Pa/s]


class ControlInputs(NamedTuple):
    """Valve drive voltages: u1 for the PDV (+-10 V), u2 for the PRV (0..5 V)."""

    u1: float = 0.0
    u2: float = 0.0


_new = tuple.__new__  # builds a NamedTuple without its generated __new__ frame


def leakage_flows(P1: float, P2: float, PT: float,
                  f: FaultInputs) -> tuple[float, float]:
    """Leakage flows into each chamber; the internal terms are equal and opposite."""
    internal = f.C_i * (P2 - P1)
    QL1 = internal - f.C_e1 * (P1 - PT)
    QL2 = -internal - f.C_e2 * (P2 - PT)
    return QL1, QL2


def advance_plant(s: PlantState, u: ControlInputs, f: FaultInputs,
                  p: PlantParams, dt: float, substeps: int) -> PlantState:
    """Advance the plant by one sample interval with explicit Euler sub-steps.

    Inputs are held over the interval.  After every sub-step pressures are
    clamped non-negative (supply additionally at its ceiling) and the piston
    hits hard stops at the stroke ends, which zero its velocity.

    The hydraulic stiffness (beta/V with small chamber volumes) puts the
    pressure/velocity modes in the kHz range, so the integration step must
    sit well below the 1 ms sample interval; `substeps` controls that.
    """
    if dt <= 0.0 or substeps < 1:
        raise ValueError("dt must be > 0 and substeps >= 1")
    h = dt / substeps
    x1, x2, x3, x4, x5, x6 = s
    u1, u2 = u
    C_i, C_e1, C_e2, f_d, Delta = f
    (tau_v, K_v, tau_s, K_r, A1, A2, m, c, PT, stroke, V01, V02, beta, kq,
     Ps_max) = p.loop_constants
    sqrt = math.sqrt

    for _ in range(substeps):
        v1 = V01 + A1 * x5
        v2 = V02 - A2 * x5
        if v1 <= 0.0 or v2 <= 0.0:
            raise DomainViolation(f"chamber volume non-positive at x_c={x5!r}")
        k = kq * x1
        if x1 >= 0.0:
            dp1 = x4 - x2
            dp2 = x3 - PT
        else:
            dp1 = x2 - PT
            dp2 = x4 - x3
        Q1 = k * sqrt(dp1) if dp1 > 0.0 else 0.0
        Q2 = k * sqrt(dp2) if dp2 > 0.0 else 0.0
        internal = C_i * (x3 - x2)
        QL1 = internal - C_e1 * (x2 - PT)
        QL2 = -internal - C_e2 * (x3 - PT)

        dx1 = (-x1 + K_v * u1) / tau_v
        dx2 = (beta / v1) * (Q1 - A1 * x6 + QL1)
        dx3 = (beta / v2) * (-Q2 + A2 * x6 + QL2)
        dx4 = (-x4 + K_r * u2) / tau_s + Delta
        dx5 = x6
        dx6 = (-c * x6 + A1 * x2 - A2 * x3 + f_d) / m

        x1 += h * dx1
        x2 += h * dx2
        x3 += h * dx3
        x4 += h * dx4
        x5 += h * dx5
        x6 += h * dx6

        if x2 < 0.0:
            x2 = 0.0
        if x3 < 0.0:
            x3 = 0.0
        if x4 < 0.0:
            x4 = 0.0
        elif x4 > Ps_max:
            x4 = Ps_max
        if x5 < 0.0:
            x5 = 0.0
            x6 = 0.0
        elif x5 > stroke:
            x5 = stroke
            x6 = 0.0

    return _new(PlantState, (x1, x2, x3, x4, x5, x6))

