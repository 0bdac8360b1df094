"""Closed-loop simulation harness.

Fixed-step engine that runs plant + substitute PI controllers + observer,
executes a leakage-fault schedule, reconstructs faults online and logs one
record per sample interval.  Scenario files are strict JSON (unknown keys
rejected with their path); traces are CSV with a fixed header and floats
printed with 17 significant digits so a written trace replays bit-exactly.

Measurements, controls, injections and fault inputs are sampled/held at dt;
the continuous plant and observer lines integrate with explicit Euler at
dt/substeps (the hydraulics are stiffer than the 1 ms sample rate).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
import types
import warnings
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

from ._lazy import LazyModule
from .cells import AstwCellParams
from .observer import (
    FosmoGains,
    ObserverConfig,
    ObserverState,
    StwGains,
    init_observer,
    observer_step,
)
from .plant import (
    ControlInputs,
    FaultInputs,
    PlantParams,
    PlantState,
    advance_plant,
    leakage_flows,
)
from .reconstruction import lowpass_step

np = LazyModule("numpy")
zlib = LazyModule("zlib")

_new = tuple.__new__  # builds a NamedTuple without its generated __new__ frame

TWO_PI = 2.0 * math.pi

U1_RANGE = (-10.0, 10.0)
U2_RANGE = (0.0, 5.0)

# A run holds 328 B of trace per record (41 float64 columns) and one block of
# noise rows, so this ceiling (2.8 h of simulated time at 1 ms) bounds a run
# at ~3.3 GB.
MAX_RECORDS = 10**7
# Each sample advances the observer and the plant `substeps` times, about 1 us
# per sub-step on a 2-vCPU x86-64 host, so this ceiling bounds a run at ~17 min.
MAX_SUBSTEPS = 10**9  # n_records * substeps
NOISE_BLOCK = 1024  # noise rows drawn, and held as Python floats, at a time


class ConfigError(ValueError):
    """Scenario or file-format problem; maps to CLI exit code 2."""


class NumericalAbort(RuntimeError):
    """A state went non-finite; maps to CLI exit code 3."""

    def __init__(self, t: float, detail: str):
        super().__init__(f"non-finite state at t={t:.6g} s: {detail}")
        self.t = t
        self.detail = detail


@dataclass(frozen=True)
class ControllerGains:
    """PI gains for the substitute position and supply-pressure loops."""

    kp_pos: float = 10.0       # [V/m]
    ki_pos: float = 5.0        # [V/(m*s)]
    kp_supply: float = 1.0e-6  # [V/Pa]
    ki_supply: float = 2.0e-5  # [V/(Pa*s)]

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) >= 0.0:
                raise ValueError(f"ControllerGains.{f.name} must be >= 0")


@dataclass(frozen=True)
class PositionProfile:
    """Desired cylinder position: offset + amplitude*sin(2*pi*f*t)."""

    offset: float = 0.1        # [m]
    amplitude: float = 0.05    # [m]
    frequency_hz: float = 0.05

    def setpoint(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(TWO_PI * self.frequency_hz * t)


@dataclass(frozen=True)
class Sinusoid:
    """amplitude*sin(2*pi*f*t): the supply-rate uncertainty [Pa/s] or the
    disturbance force on the cylinder [N]."""

    amplitude: float = 0.0
    frequency_hz: float = 1.0

    def value(self, t: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        return self.amplitude * math.sin(TWO_PI * self.frequency_hz * t)


@dataclass(frozen=True)
class FaultWindow:
    """Fault-input deltas active on [t_start, t_end)."""

    t_start: float
    t_end: float
    C_i: float = 0.0
    C_e1: float = 0.0
    C_e2: float = 0.0
    f_d: float = 0.0
    Delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_start < self.t_end:
            raise ValueError(f"window [{self.t_start}, {self.t_end}) "
                             "needs 0 <= t_start < t_end")
        for name in ("C_i", "C_e1", "C_e2"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} is a leakage coefficient and must be >= 0")


@dataclass(frozen=True)
class NoiseStd:
    """Measurement-noise standard deviations per channel."""

    P1: float = 0.0   # [Pa]
    P2: float = 0.0   # [Pa]
    Ps: float = 0.0   # [Pa]
    xc: float = 0.0   # [m]

    def __post_init__(self) -> None:
        if not all(v >= 0.0 for v in astuple(self)):
            raise ValueError("noise standard deviations must be >= 0")


@dataclass(frozen=True)
class InitialPlantState:
    """Plant start point (spool centred, piston at rest), in PlantState order."""

    x1: float = 0.0
    P1: float = 1.0e6
    P2: float = 1.641e6
    Ps: float = 3.0e6
    xc: float = 0.1
    velocity: float = 0.0

    def __post_init__(self) -> None:
        if not all(v >= 0.0 for v in (self.P1, self.P2, self.Ps)):
            raise ValueError("initial pressures must be >= 0")

    def to_state(self) -> PlantState:
        return PlantState(*astuple(self))


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run; valid once built.  Each block checks its own fields,
    the scenario only the rules that span them, never reading `observer`
    (a measurement stream is the scenario with observer=None)."""

    duration: float = 30.0
    dt: float = 1.0e-3
    substeps: int = 5
    seed: int = 0
    plant: PlantParams = field(default_factory=PlantParams)
    initial_state: InitialPlantState = field(default_factory=InitialPlantState)
    observer: ObserverConfig = field(kw_only=True)
    controller: ControllerGains = field(default_factory=ControllerGains)
    position_profile: PositionProfile = field(default_factory=PositionProfile)
    supply_setpoint: float = 3.0e6
    faults: tuple[FaultWindow, ...] = ()
    noise_std: NoiseStd = field(default_factory=NoiseStd)
    supply_uncertainty: Sinusoid = field(default_factory=Sinusoid)
    force_disturbance: Sinusoid = field(default_factory=Sinusoid)
    reconstruction_tau: float = 0.02

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ConfigError("dt must be > 0")
        if not self.duration >= self.dt:
            raise ConfigError("duration must be >= dt")
        if not math.isfinite(self.duration / self.dt):
            raise ConfigError("duration / dt gives no finite record count")
        if self.n_records() > MAX_RECORDS:
            raise ConfigError(f"duration / dt gives {self.n_records():.9g} records, "
                              f"more than the {MAX_RECORDS} a run may hold")
        t_last = (self.n_records() - 1) * self.dt
        for block in ("position_profile", "supply_uncertainty", "force_disturbance"):
            if not math.isfinite(TWO_PI * getattr(self, block).frequency_hz * t_last):
                raise ConfigError(f"{block}.frequency_hz gives no finite phase "
                                  f"2*pi*f*t at the last sample t = {t_last:.9g} s")
        if self.substeps < 1:
            raise ConfigError("substeps must be >= 1")
        if self.n_records() * self.substeps > MAX_SUBSTEPS:
            raise ConfigError(f"{self.n_records()} records x {self.substeps} substeps gives "
                              f"{self.n_records() * self.substeps} sub-steps, more than "
                              f"the {MAX_SUBSTEPS} a run may take")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for i, fw in enumerate(self.faults):
            if fw.t_end > self.duration:
                raise ConfigError(f"faults[{i}]: window [{fw.t_start}, {fw.t_end}) "
                                  f"ends after the run [0, {self.duration}]")
        if not self.reconstruction_tau >= self.dt:
            raise ConfigError("reconstruction_tau must be >= dt")
        if not 0.0 <= self.initial_state.xc <= self.plant.stroke:
            raise ConfigError("initial position must lie within the stroke")

    def n_records(self) -> int:
        return round(self.duration / self.dt) + 1

    def fault_inputs(self, t: float) -> FaultInputs:
        """Sum the active fault windows and the supply uncertainty at time t."""
        C_i = C_e1 = C_e2 = f_d = delta = 0.0
        for fw in self.faults:
            if fw.t_start <= t < fw.t_end:
                C_i += fw.C_i
                C_e1 += fw.C_e1
                C_e2 += fw.C_e2
                f_d += fw.f_d
                delta += fw.Delta
        delta += self.supply_uncertainty.value(t)
        f_d += self.force_disturbance.value(t)
        return _new(FaultInputs, (C_i, C_e1, C_e2, f_d, delta))


# The CSV header, in order, of the plain-tuple records step_closed_loop returns.
TRACE_COLUMNS = (
    "t", "x1", "x2", "x3", "x4", "x5", "x6",
    "y1", "y2", "y3", "y4",
    "z1_hat", "y1_hat", "y2_hat", "y3_hat", "y4_hat", "z2_hat",
    "sigma1", "sigma2", "sigma3", "sigma4",
    "mu1", "mu2", "mu3", "mu4",
    "L1_1", "L1_2", "L1_3", "L1_4",
    "L2_1", "L2_2", "L2_3", "L2_4",
    "QL1_true", "QL2_true", "f_d_true",
    "f1_hat", "f2_hat", "rho4_hat",
    "u1", "u2",
)
_RECORD = struct.Struct(f"{len(TRACE_COLUMNS)}d")  # one row of native float64, as numpy holds it


@dataclass
class SimTrace:
    """Columnar run log: one row per sample, columns per TRACE_COLUMNS."""

    data: np.ndarray  # shape (n_records, len(TRACE_COLUMNS))

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(TRACE_COLUMNS):
            raise ValueError("trace data must be (n, n_columns)")
        self._index = {name: i for i, name in enumerate(TRACE_COLUMNS)}

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[:, self._index[name]]

    def write_csv(self, path) -> None:
        """Write the CSV at `path`, then the sidecar that lets read_csv skip parsing it."""
        from . import textfmt

        data = np.asarray(self.data, dtype=np.float64)
        _remove_old(_sidecar_path(path))  # first, so no stale sidecar sits beside the new CSV
        _remove_old(path)
        csv_crc = textfmt.write_csv(path, data, header=",".join(TRACE_COLUMNS))
        _write_sidecar(path, data, csv_crc)

    @classmethod
    def read_csv(cls, path) -> "SimTrace":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip()
                if header.split(",") != list(TRACE_COLUMNS):
                    raise ConfigError(f"{path}: trace header does not match the fixed schema")
                data = _read_sidecar(path)
                if data is None:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                        data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ConfigError:  # a ValueError too; pass it through unwrapped
            raise
        except OSError as exc:
            raise ConfigError(f"cannot read trace file: {exc}") from exc
        except ValueError as exc:  # ragged rows, non-numeric cells, undecodable bytes
            raise ConfigError(f"{path}: malformed trace: {exc}") from exc
        _check_rows(path, data)
        return cls(data=data)


def _check_rows(path, data: np.ndarray) -> None:
    """The rules a read trace must meet, whether parsed or loaded from its sidecar."""
    if data.shape[0] == 0 or data.shape[1] != len(TRACE_COLUMNS):
        raise ConfigError(f"{path}: no rows of {len(TRACE_COLUMNS)} columns")
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise ConfigError(f"{path}: non-finite value {data[row, col]} in column "
                          f"'{TRACE_COLUMNS[col]}' on line {row + 2}")
    stalls = np.flatnonzero(np.diff(data[:, 0]) <= 0.0)
    if stalls.size:
        row = stalls[0] + 1
        raise ConfigError(f"{path}: column 't' does not increase on line {row + 2} "
                          f"({data[row, 0]} after {data[row - 1, 0]})")


# --- trace sidecar -----------------------------------------------------------
# `<trace>.csv.f64` caches the parsed trace beside its CSV, as a hash-checked
# .pyc caches a module: the magic, the CRC-32 of the CSV bytes and the CRC-32
# of the array bytes as little-endian uint32, then the float64 columns in
# order, so every column a report reads is contiguous.  The file size gives
# the row count.  The CSV stays authoritative; the sidecar is used only while
# both checksums hold, so a CSV edited, replaced or truncated after the write
# is parsed again, and so is a sidecar of another version.  The checksums sit
# beside the bytes they cover: they catch accidental damage, not forgery.

SIDECAR_MAGIC = b"EHSOBS\x00\x04"  # format name and version
_SIDECAR_CRCS = struct.Struct("<2I")  # the CSV's CRC-32, the array's CRC-32
_SIDECAR_HEAD = len(SIDECAR_MAGIC) + _SIDECAR_CRCS.size
_CSV_BLOCK = 1 << 18  # the CSV is checked in blocks, never held whole


def _remove_old(path) -> None:
    """Unlink any file at `path`, so the write that follows makes a new one.
    On ext4 (auto_da_alloc) closing a file truncated in place, or renaming one
    over it, starts writeback of all its pages, and the next truncation waits
    for it: 70-300 ms per 10 MB on a 2-vCPU host, against 1 ms for a new file."""
    Path(path).unlink(missing_ok=True)


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".f64"


def _write_sidecar(path, data: np.ndarray, csv_crc: int) -> None:
    """Cache float64 `data` column by column beside the CSV whose bytes have CRC-32 `csv_crc`."""
    crc = 0
    with open(_sidecar_path(path), "wb") as fh:
        # the checksums go in last: a write cut short leaves them zero, which the
        # CRC-32 of a CSV (never empty) matches with probability 2**-32
        fh.write(SIDECAR_MAGIC + bytes(_SIDECAR_CRCS.size))
        for column in data.T:  # one column copied at a time, never the whole array
            column = np.ascontiguousarray(column)
            crc = zlib.crc32(column, crc)
            fh.write(column)
        fh.seek(len(SIDECAR_MAGIC))
        fh.write(_SIDECAR_CRCS.pack(csv_crc, crc))


def _file_crc32(path) -> int:
    """CRC-32 of the file at `path`, read in blocks of _CSV_BLOCK bytes into one buffer."""
    crc = 0
    block = bytearray(_CSV_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            crc = zlib.crc32(view[:size], crc)
    return crc


def _read_sidecar(path) -> np.ndarray | None:
    """The array cached beside the CSV at `path`, or None unless the file is the
    head and whole rows of 41 columns, and both checksums hold."""
    n_cols = len(TRACE_COLUMNS)
    try:
        with open(_sidecar_path(path), "rb") as fh:
            head = fh.read(_SIDECAR_HEAD)  # the magic, the CSV's CRC, the array's CRC
            rows, rest = divmod(os.fstat(fh.fileno()).st_size - _SIDECAR_HEAD, n_cols * 8)
            # a file shorter than the head leaves a rest; the CSV is read only behind this magic
            if rest or not head.startswith(SIDECAR_MAGIC):
                return None
            columns = np.fromfile(fh, dtype=np.float64).reshape(n_cols, rows)
        crcs = _SIDECAR_CRCS.pack(_file_crc32(path), zlib.crc32(columns))
    except (OSError, ValueError):  # missing, or changed while read
        return None
    if head != SIDECAR_MAGIC + crcs:
        return None
    return columns.T


def _pi_clamped(e: float, i_prev: float, kp: float, ki: float, dt: float,
                out_range: tuple[float, float]) -> tuple[float, float]:
    """(output, integrator) of one PI loop; the integrator holds while saturated."""
    i = i_prev + ki * dt * e
    u = kp * e + i
    if u > out_range[1]:
        return out_range[1], i_prev
    if u < out_range[0]:
        return out_range[0], i_prev
    return u, i


def pi_controllers(y: tuple[float, float, float, float],
                   setpoints: tuple[float, float], gains: ControllerGains,
                   integrators: tuple[float, float],
                   dt: float) -> tuple[ControlInputs, tuple[float, float]]:
    """PI position and supply-pressure loops with clamping anti-windup.

    Returns the saturated control inputs and the updated integrator pair.
    """
    u1, i_pos = _pi_clamped(setpoints[0] - y[3], integrators[0],
                            gains.kp_pos, gains.ki_pos, dt, U1_RANGE)
    u2, i_sup = _pi_clamped(setpoints[1] - y[2], integrators[1],
                            gains.kp_supply, gains.ki_supply, dt, U2_RANGE)
    return _new(ControlInputs, (u1, u2)), (i_pos, i_sup)


class LoopState(NamedTuple):
    """Everything that persists across closed-loop steps."""

    plant: PlantState
    observer: ObserverState | None = None  # built from the first measurement
    integrators: tuple[float, float] = (0.0, 0.0)
    mu_eq1: float = 0.0
    mu_eq2: float = 0.0
    rho4_filt: float = 0.0


def step_closed_loop(state: LoopState, scenario: Scenario, t: float,
                     noise_row: tuple[float, float, float, float],
                     advance: bool = True) -> tuple[LoopState, tuple[float, ...]]:
    """One sample interval: measure, control, observe, reconstruct, advance.

    The record, a tuple in TRACE_COLUMNS order, holds the pre-advance plant
    state and estimates at time t with the injections and gains of this
    step.  With advance=False the plant and observer are left at time t
    (used for the final record of a run).
    """
    sc = scenario
    p = sc.plant
    x, obs, integrators, mu_eq1, mu_eq2, rho4_filt = state
    dt = sc.dt
    faults = sc.fault_inputs(t)
    y = (x.x2 + noise_row[0], x.x3 + noise_row[1],
         x.x4 + noise_row[2], x.x5 + noise_row[3])
    setpoints = (sc.position_profile.setpoint(t), sc.supply_setpoint)
    u, integrators = pi_controllers(y, setpoints, sc.controller, integrators, dt)
    if obs is None:
        obs = init_observer(sc.observer, y)
    obs_next, inj = observer_step(obs, y, u, p, sc.observer, dt, sc.substeps)
    sigma, mu, L1, L2 = inj

    tau = sc.reconstruction_tau
    mu_eq1 = lowpass_step(mu_eq1, mu[0], dt, tau)
    mu_eq2 = lowpass_step(mu_eq2, mu[1], dt, tau)
    rho4_filt = lowpass_step(rho4_filt, mu[3], dt, tau)
    f1_hat = mu_eq1 * (p.V01 + p.A1 * y[3]) / p.beta
    f2_hat = mu_eq2 * (p.V02 - p.A2 * y[3]) / p.beta

    QL1, QL2 = leakage_flows(x.x2, x.x3, p.P_T, faults)
    record = (t, *x, *y, *obs[:6], *sigma, *mu, *L1, *L2,
              QL1, QL2, faults.f_d, f1_hat, f2_hat, rho4_filt, *u)

    if advance:
        plant_next = advance_plant(x, u, faults, p, dt, sc.substeps)
        state_next = (*plant_next, *obs_next[:6])
        if not all(map(math.isfinite, state_next)):
            raise NumericalAbort(t, _first_non_finite((*x, *obs.estimates()), state_next))
    else:
        plant_next = x
        obs_next = obs
    return _new(LoopState, (plant_next, obs_next, integrators, mu_eq1, mu_eq2, rho4_filt)), record


def _first_non_finite(before: tuple[float, ...], after: tuple[float, ...]) -> str:
    """Name the first plant or observer state component that went non-finite."""
    names = ([f"plant.{n}" for n in PlantState._fields]
             + [f"observer.{n}" for n in ObserverState._fields[:6]])
    i = next(i for i, value in enumerate(after) if not math.isfinite(value))
    return f"{names[i]} (last finite {before[i]:.6g})"


def run_scenario(scenario: Scenario, observer_kind: str | None = None,
                 seed: int | None = None) -> SimTrace:
    """Run one closed-loop scenario and return the full trace.

    observer_kind / seed override the scenario fields.  The run is fully
    deterministic: (scenario, seed) fixes every record bit-for-bit.
    """
    sc = scenario
    if observer_kind is not None:
        sc = replace(sc, observer=replace(sc.observer, kind=observer_kind))
    if seed is not None:
        sc = replace(sc, seed=seed)

    n = sc.n_records()
    std = np.array(astuple(sc.noise_std))
    if std.any():
        noise = _noise_rows(np.random.default_rng(sc.seed), std, n)
    else:  # noise-free: no generator, no draw; x + 0.0 == x for every reading
        noise = itertools.repeat((0.0, 0.0, 0.0, 0.0), n)

    # supply integrator preloaded so the run starts at the pressure setpoint
    i_sup0 = sc.supply_setpoint / sc.plant.K_r
    state = LoopState(sc.initial_state.to_state(), None, (0.0, i_sup0))

    dt = sc.dt
    rows = np.empty((n, len(TRACE_COLUMNS)))
    store, size, buffer = _RECORD.pack_into, _RECORD.size, rows.data
    last = n - 1
    for k, noise_row in enumerate(noise):
        state, record = step_closed_loop(state, sc, k * dt, noise_row, k < last)
        store(buffer, k * size, *record)  # rows[k] = record, without numpy's per-item conversion
    return SimTrace(data=rows)


def _noise_rows(rng: np.random.Generator, std: np.ndarray, n: int):
    """n rows of scaled normal draws, drawn NOISE_BLOCK rows at a time.

    Successive draws continue one stream, so the rows equal those of one
    (n, 4) draw, while only one block is held as Python floats at a time.
    """
    return itertools.chain.from_iterable(
        (rng.normal(size=(min(NOISE_BLOCK, n - k), 4)) * std).tolist()
        for k in range(0, n, NOISE_BLOCK))


# --- scenario (de)serialization -------------------------------------------
# The dataclasses are the schema: the decoder walks their init fields and
# type annotations, so a field added to a dataclass is read and written
# without further edits here.

class _JsonObject(dict):
    """A parsed JSON object that keeps a repeated key's last value, as json.load
    does, and names the first such key for `_decode` to reject with its path."""

    repeated: str | None = None

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, object]]) -> _JsonObject:
        obj = cls()
        for key, value in pairs:
            if key in obj and obj.repeated is None:
                obj.repeated = key
            obj[key] = value
        return obj


_LEAVES = {float: ((int, float), "a finite number"),
           int: (int, "an integer"),
           str: (str, "a string")}


@functools.cache
def _schema(cls) -> tuple[dict, tuple[str, ...]]:
    """Annotated type per init field of a dataclass, and the required names."""
    hints = get_type_hints(cls)
    init = [f for f in fields(cls) if f.init]
    required = tuple(f.name for f in init
                     if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in init}, required


def _describe(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return repr(value)


def _decode(tp, value, path: str):
    """Build a value of annotated type tp from parsed JSON, or raise ConfigError.

    Handles dataclasses, `X | None`, fixed-length tuple[X, X, ...],
    tuple[X, ...], float, int and str.  A bool is never a number, an int
    field takes only an integer and a float field any finite number, so the
    NaN and Infinity tokens json.load accepts fail here.  An object with a
    repeated key fails at the key's path.
    """
    def fail(expected: str):
        raise ConfigError(f"{path}: expected {expected}, got {_describe(value)}")

    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, path)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            fail("an object")
        types_, required = _schema(tp)
        prefix = f"{path}." if path else ""
        repeated = getattr(value, "repeated", None)
        if repeated is not None:
            raise ConfigError(f"duplicate key '{prefix}{repeated}'")
        for key in value:
            if key not in types_:
                raise ConfigError(f"unknown key '{prefix}{key}'")
        for key in required:
            if key not in value:
                raise ConfigError(f"missing key '{prefix}{key}'")
        kwargs = {k: _decode(types_[k], v, prefix + k) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ConfigError:  # a Scenario rule spanning fields; its text is whole
            raise
        except ValueError as exc:
            raise ConfigError(f"{path or tp.__name__}: {exc}") from exc
        except ArithmeticError as exc:  # e.g. a derived quantity overflows
            raise ConfigError(f"{path or tp.__name__}: out of range ({exc})") from exc
    if origin is tuple:
        if not isinstance(value, list):
            fail("an array")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(args, value)))
    accepted, expected = _LEAVES[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        fail(expected)
    if tp is float:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            fail(expected)
        return number
    return value


def _encode(value):
    """Dataclasses to dicts (init fields, in order) and tuples to lists."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def scenario_from_dict(d) -> Scenario:
    """Build a Scenario from parsed JSON; errors name their path."""
    if not isinstance(d, dict):
        raise ConfigError("scenario file must contain a JSON object")
    return _decode(Scenario, d, "")


def scenario_to_dict(sc: Scenario) -> dict:
    return _encode(sc)


def read_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_JsonObject.from_pairs)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # undecodable bytes, over-long integer literal
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the parser goes
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    return scenario_from_dict(raw)


def write_scenario(sc: Scenario, path) -> None:
    _remove_old(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


# --- shipped defaults -------------------------------------------------------

def default_cell_params() -> tuple[AstwCellParams, ...]:
    """Adaptive-cell tuning for the default rig, per channel.

    Pressure channels live in Pa, so the adaptation/ratio constants are
    scaled to let the integral gain reach leak-induced pressure-rate levels
    (1e8 Pa/s and up) within a fraction of a second; the position channel
    lives in metres and stays near unit scale.
    """
    pressure = AstwCellParams(epsilon=2.0e4, alpha1=5.0e6, Gamma1=2.0,
                              lambda1=2.0e4, L_floor=0.5, L_ramp=100.0, L1_init=1.0)
    position = AstwCellParams(epsilon=2.0e-5, alpha1=2.0, Gamma1=2.0,
                              lambda1=2000.0, L_floor=5.0e-4, L_ramp=0.1, L1_init=1.0e-3)
    return (pressure, pressure, pressure, position)


def default_observer_config() -> ObserverConfig:
    """All three observer variants parameterized for the default rig.

    The fixed-gain variants are set from conservative worst-case perturbation
    bounds, which is exactly the practice the adaptive law is meant to avoid.
    """
    stw_pressure = StwGains(L1=1.0e5, L2=5.0e9)
    return ObserverConfig(
        kind="astw",
        astw=default_cell_params(),
        stw=(stw_pressure, stw_pressure, stw_pressure, StwGains(L1=50.0, L2=250.0)),
        fosmo=FosmoGains(rho=(1.0e9, 1.0e9, 1.0e8, 0.5), rho4_vel=500.0),
    )


def default_scenario() -> Scenario:
    """Sinusoid tracking at 30 bar supply with the two-stage leakage schedule."""
    return Scenario(
        observer=default_observer_config(),
        faults=(FaultWindow(t_start=12.0, t_end=30.0, C_i=1.0e-11),
                FaultWindow(t_start=23.0, t_end=30.0, C_e2=1.0e-11)),
    )


def nofault_scenario() -> Scenario:
    return replace(default_scenario(), faults=())


def noisy_scenario() -> Scenario:
    """Default fault schedule under measurement noise.

    The adaptive dead-bands sit well above the noise amplitude (several
    standard deviations), otherwise the gains would never stop growing.
    """
    base = default_scenario()
    cells = tuple(
        replace(cp, epsilon=6.0e4) if i < 3 else replace(cp, epsilon=2.0e-4)
        for i, cp in enumerate(base.observer.astw))
    return replace(
        base, seed=3,
        noise_std=NoiseStd(P1=1.0e4, P2=1.0e4, Ps=1.0e4, xc=1.0e-5),
        observer=replace(base.observer, astw=cells),
    )
