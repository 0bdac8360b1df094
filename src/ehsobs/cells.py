"""Sliding-mode injection cells.

Each cell turns a scalar sliding variable (an output estimation error) into
an injection signal for one observer channel.  Three laws are provided:

* adaptive super-twisting: continuous sqrt term plus integrated sign term,
  with gains that grow while the sliding variable sits outside a dead-band
  and shrink once inside it;
* fixed-gain super-twisting: same structure, gains frozen;
* first-order relay: plain sign scaling (the classic chattering baseline).

Cells are value objects and the step functions are pure: they return the
injection and a new cell state, never mutating their inputs.  As in
`plant`, tuning constants are frozen dataclasses and the per-sample cell
state is a NamedTuple, built with `tuple.__new__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple


def sign(x: float) -> float:
    """Strict sign with sign(0) = 0, so injections vanish on the surface."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def sqrt_sign(sigma: float) -> float:
    """Odd square-root shaping |sigma|^(1/2) * sign(sigma)."""
    return math.sqrt(abs(sigma)) * sign(sigma)


@dataclass(frozen=True)
class AstwCellParams:
    """Tuning constants of one adaptive super-twisting cell.

    epsilon is the dead-band on |sigma| that separates gain growth from gain
    decay; it must sit above the noise level seen by the channel, otherwise
    the gains never stop growing.  lambda1 fixes the ratio of the integral
    gain to the proportional gain.  When the proportional gain falls to
    L_floor it is pushed back up at rate L_ramp regardless of sigma.
    """

    epsilon: float           # dead-band on |sigma| [units of sigma]
    alpha1: float = 100.0    # adaptation rate scale [1/s]
    Gamma1: float = 2.0      # adaptation gain [-]
    lambda1: float = 1.0     # integral/proportional gain ratio [-]
    L_floor: float = 0.1     # minimum proportional gain
    L_ramp: float = 100.0    # re-growth rate at the floor [1/s]
    L1_init: float = 1.0     # initial proportional gain (> L_floor)

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"AstwCellParams.{f.name} must be > 0")
        if not self.L1_init > self.L_floor:
            raise ValueError("AstwCellParams.L1_init must exceed L_floor")


class AstwCellState(NamedTuple):
    """State of one injection cell: adaptive gain and integral term."""

    L1: float
    nu: float = 0.0


_new = tuple.__new__  # builds a NamedTuple without its generated __new__ frame


def adapt_gain(L1: float, sigma: float, p: AstwCellParams, dt: float) -> float:
    """One Euler step of the gain-adaptation law, clamped at the floor.

    Above the floor the gain moves at +-alpha1*sqrt(Gamma1/2) depending on
    whether |sigma| sits outside or inside the dead-band; at (or below) the
    floor it ramps back up at L_ramp.
    """
    if L1 > p.L_floor:
        new = L1 + dt * p.alpha1 * math.sqrt(0.5 * p.Gamma1) * sign(abs(sigma) - p.epsilon)
    else:
        new = L1 + dt * p.L_ramp
    if new < p.L_floor:
        new = p.L_floor
    return new


def astw_step(cell: AstwCellState, sigma: float, p: AstwCellParams,
              dt: float) -> tuple[float, AstwCellState]:
    """Advance one adaptive super-twisting cell by dt.

    The updated gains act immediately: the integral term accumulates with the
    new L2 = lambda1 * L1 and the returned injection uses the new L1.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    L1_prev, nu_prev = cell
    L1 = adapt_gain(L1_prev, sigma, p, dt)
    L2 = p.lambda1 * L1
    nu = nu_prev + dt * L2 * sign(sigma)
    mu = L1 * sqrt_sign(sigma) + nu
    return mu, _new(AstwCellState, (L1, nu))


def stw_step(cell: AstwCellState, sigma: float, L1_fixed: float,
             L2_fixed: float, dt: float) -> tuple[float, AstwCellState]:
    """Fixed-gain super-twisting step: same structure, gain update frozen."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if L1_fixed <= 0.0 or L2_fixed <= 0.0:
        raise ValueError("fixed gains must be > 0")
    nu = cell.nu + dt * L2_fixed * sign(sigma)
    mu = L1_fixed * sqrt_sign(sigma) + nu
    return mu, _new(AstwCellState, (L1_fixed, nu))


def fosmo_step(sigma: float, rho_gain: float) -> float:
    """First-order sliding-mode injection: a relay of amplitude rho_gain."""
    if rho_gain <= 0.0:
        raise ValueError("rho_gain must be > 0")
    return rho_gain * sign(sigma)


class GainCheck(NamedTuple):
    ok: bool
    margin: float
    threshold: float


def check_gain_condition(L1: float, lambda1: float, lambda2: float,
                         delta1: float, delta2: float) -> GainCheck:
    """Sufficient condition on the proportional gain for finite-time sliding.

    Evaluates the closed-form threshold that L1 must strictly exceed, given
    the tuning ratios and the perturbation bounds of the channel, and returns
    the verdict together with the margin L1 - threshold.
    """
    if lambda1 <= 0.0 or lambda2 <= 0.0:
        raise ValueError("lambda1 and lambda2 must be > 0")
    b = 2.0 * lambda1 * (lambda1 - delta1) + (lambda2 + delta2)
    threshold = (b * b / (4.0 * lambda1 * lambda2)
                 + (4.0 * lambda1 * (2.0 * lambda1 - delta2) + lambda2 * delta1)
                 / (2.0 * lambda2))
    margin = L1 - threshold
    return GainCheck(ok=margin > 0.0, margin=margin, threshold=threshold)
