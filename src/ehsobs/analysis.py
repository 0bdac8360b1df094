"""Stability checks and trace metrics.

Two groups of tools:

* the Lyapunov apparatus behind the injection cells, reduced to numbers:
  the quadratic form matrix P, the decay matrix Omega, their eigenvalue
  extremes, the decay constant and the finite reaching-time bound;
* performance indices over logged error traces: integral norms, a
  total-variation chattering index and the dwell-tested reaching time.

Eigenvalues of the 2x2 symmetric matrices are computed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


def eig_bounds_sym2(a11: float, a12: float, a22: float) -> tuple[float, float]:
    """(min, max) eigenvalues of [[a11, a12], [a12, a22]], closed form."""
    mean = 0.5 * (a11 + a22)
    radius = math.hypot(0.5 * (a11 - a22), a12)
    return mean - radius, mean + radius


def reach_time_bound(V0: float, gamma: float) -> float:
    """Finite reaching-time bound 2*sqrt(V0)/gamma from the decay inequality."""
    if V0 < 0.0:
        raise ValueError("V0 must be >= 0")
    if gamma <= 0.0:
        return math.inf
    return 2.0 * math.sqrt(V0) / gamma


@dataclass(frozen=True)
class LyapunovCheck:
    """Numerical snapshot of the stability apparatus for one channel."""

    P: Matrix2
    Omega: Matrix2
    lambda_min_P: float
    lambda_max_P: float
    lambda_min_Omega: float
    c1: float
    gamma: float
    T_r_bound: float | None

    @property
    def P_positive_definite(self) -> bool:
        return self.lambda_min_P > 0.0

    @property
    def Omega_positive_definite(self) -> bool:
        return self.lambda_min_Omega > 0.0


def lyapunov_matrices(L1: float, lambda1: float, lambda2: float,
                      delta1: float = 0.0, delta2: float = 0.0,
                      alpha1: float | None = None, alpha2: float | None = None,
                      V0: float | None = None) -> LyapunovCheck:
    """Build P and Omega for one channel and derive the convergence numbers.

    The integral gain is tied to the proportional gain, L2 = lambda1 * L1.
    c1 is the decay constant of the quadratic form; gamma additionally
    folds in the adaptation rates when they are supplied.  If V0 (the
    initial Lyapunov value) is given, the reaching-time bound
    2*sqrt(V0)/gamma is reported.
    """
    if lambda1 <= 0.0 or lambda2 <= 0.0:
        raise ValueError("lambda1 and lambda2 must be > 0")
    L2 = lambda1 * L1
    p11 = 4.0 * lambda1 ** 2 + 2.0 * lambda2
    p12 = -2.0 * lambda1
    p22 = 1.0
    o11 = 2.0 * p11 * (0.5 * L1 - delta1) - 4.0 * lambda1 * (L2 - delta2)
    o12 = L2 - lambda2 - delta2 - 2.0 * lambda1 * (0.5 * L1 - delta1) - 2.0 * lambda1 ** 2
    o22 = 2.0 * lambda1
    lam_min_p, lam_max_p = eig_bounds_sym2(p11, p12, p22)
    lam_min_o, _ = eig_bounds_sym2(o11, o12, o22)
    c1 = math.sqrt(lam_min_p) / lam_max_p * lam_min_o if lam_min_p > 0.0 else 0.0
    rates = [c1]
    if alpha1 is not None:
        rates.append(alpha1)
    if alpha2 is not None:
        rates.append(alpha2)
    gamma = min(rates)
    T_r = reach_time_bound(V0, gamma) if V0 is not None else None
    return LyapunovCheck(
        P=((p11, p12), (p12, p22)),
        Omega=((o11, o12), (o12, o22)),
        lambda_min_P=lam_min_p,
        lambda_max_P=lam_max_p,
        lambda_min_Omega=lam_min_o,
        c1=c1,
        gamma=gamma,
        T_r_bound=T_r,
    )


class EmptyWindow(ValueError):
    """A metrics window that selects no sample of the trace."""


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float


def _trapz(y: np.ndarray, x: np.ndarray) -> float:
    trap = getattr(np, "trapezoid", None) or np.trapz
    return float(trap(y, x))


def norms(t, e, window: tuple[float, float] = (10.0, 30.0)) -> Norms:
    """Integral error norms over a uniformly sampled trace.

    l1 integrates |e| over the whole trace (trapezoidal rule) and l2 is its
    square root - that is the convention the comparison tables use, not an
    energy norm; see `rms` for the usual quadratic figure.  linf is the
    supremum of |e| restricted to `window`, which cuts off the initial
    transient.
    """
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    if t.shape != e.shape or t.size < 2:
        raise ValueError("t and e must be equal-length series with >= 2 samples")
    abs_e = np.abs(e)
    l1 = _trapz(abs_e, t)
    mask = (t >= window[0]) & (t <= window[1])
    if not np.any(mask):
        raise EmptyWindow(f"window {window} selects no samples")
    return Norms(l1=l1, l2=math.sqrt(l1), linf=float(np.max(abs_e[mask])))


def rms(e) -> float:
    """Root-mean-square of a sampled series (the conventional quadratic norm)."""
    e = np.asarray(e, dtype=float)
    return float(np.sqrt(np.mean(e * e)))


def chattering_index(t, e) -> float:
    """Total variation of the trace per second of trace duration."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two samples")
    duration = float(t[-1] - t[0])
    return float(np.sum(np.abs(np.diff(e))) / duration)


def reach_time(t, sigma, epsilon: float, dwell: int = 1) -> float | None:
    """First time |sigma| < epsilon holds for `dwell` consecutive samples.

    Returns the time of the first sample of that run, or None if the band is
    never held long enough.  Each `dwell`-long window is counted as the
    difference of two running totals, so the cost does not grow with `dwell`.
    """
    if dwell < 1:
        raise ValueError("dwell must be >= 1")
    t = np.asarray(t, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    below = np.abs(sigma) < epsilon  # a NaN sigma is never in band
    if below.size < dwell:
        return None
    held = np.concatenate(([0], np.cumsum(below, dtype=np.int64)))
    hits = np.flatnonzero(held[dwell:] - held[:-dwell] == dwell)
    if hits.size == 0:
        return None
    return float(t[hits[0]])


@dataclass(frozen=True)
class ChannelMetrics:
    """Performance indices of one error channel."""

    l1: float
    l2: float
    linf: float
    rms: float
    chattering: float
    reach_time: float | None = None
    gain_peak: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricsReport:
    """Per-channel metrics over one run, keyed by error-channel name."""

    channels: dict[str, ChannelMetrics]
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "channels": {k: v.to_dict() for k, v in self.channels.items()},
        }


def channel_metrics(t, e, window=(10.0, 30.0), epsilon: float | None = None,
                    dwell: int = 1, gains=None) -> ChannelMetrics:
    n = norms(t, e, window)
    return ChannelMetrics(
        l1=n.l1,
        l2=n.l2,
        linf=n.linf,
        rms=rms(e),
        chattering=chattering_index(t, e),
        reach_time=reach_time(t, e, epsilon, dwell) if epsilon is not None else None,
        gain_peak=float(np.max(gains)) if gains is not None else None,
    )


COMPARISON_ROWS = (("fosmo", "First-Order SM Obs."),
                   ("stw", "Super-twisting Obs. (STW)"),
                   ("astw", "Adaptive Super-twisting Obs. (ASTW)"))


def comparison_table(reports: dict[str, MetricsReport],
                     channels: tuple[str, ...] = ("e_y1", "e_y2")) -> str:
    """Aligned plain-text comparison of observer variants, one block per channel."""
    lines: list[str] = []
    header = f"{'Methodology':<38}{'||e||_1':>14}{'||e||_2':>14}{'||e||_inf':>14}{'rms':>14}"
    for ch in channels:
        lines.append(f"Comparison of {ch} observation errors")
        lines.append(header)
        lines.append("-" * len(header))
        for kind, label in COMPARISON_ROWS:
            if kind not in reports:
                continue
            m = reports[kind].channels[ch]
            lines.append(f"{label:<38}{m.l1:>14.5g}{m.l2:>14.5g}{m.linf:>14.5g}{m.rms:>14.5g}")
        lines.append("")
    return "\n".join(lines)
