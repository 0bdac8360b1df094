import hashlib
import io
import json
import math
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsobs.cells import AstwCellParams
from ehsobs.harness import (
    ConfigError,
    ControllerGains,
    FaultWindow,
    InitialPlantState,
    LoopState,
    MAX_RECORDS,
    NOISE_BLOCK,
    NoiseStd,
    NumericalAbort,
    PositionProfile,
    Scenario,
    SimTrace,
    TRACE_COLUMNS,
    _noise_rows,
    _read_sidecar,
    default_scenario,
    nofault_scenario,
    noisy_scenario,
    pi_controllers,
    read_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step_closed_loop,
    write_scenario,
)
from ehsobs.observer import FosmoGains, ObserverConfig, StwGains
from ehsobs.plant import ControlInputs, PlantParams


# --- noise-free trace digests -------------------------------------------------

# sha256 of trace.data.tobytes() for each noise-free session fixture; like
# perfbench/reference.json these are a contract: a deliberate trace change
# updates them and states why
NOISE_FREE_DIGESTS = {
    "fault_trace": "b21cc5286e44de1ccfe2394846130507ecfd4f3c8f5a103179bfa3f9e6006bb5",
    "stw_trace": "f53ec46990e413f44465bc761f8fbbe2b524ad981df5d92638cff7b723acd03a",
    "fosmo_trace": "0c3db91d3bd3d5f6bc88b562cd735c09fe6973f02a6aee75ec5320f3d6f72870",
    "nofault_trace": "16d6c9ece3ad0f23d5a2f9ccac9529e7b74bbfb40e21f5fc9e04edb06e3e7243",
}


@pytest.mark.parametrize("fixture", sorted(NOISE_FREE_DIGESTS))
def test_noise_free_trace_is_pinned_bit_for_bit(fixture, request):
    trace = request.getfixturevalue(fixture)
    assert hashlib.sha256(trace.data.tobytes()).hexdigest() == NOISE_FREE_DIGESTS[fixture]


# --- PI controllers -----------------------------------------------------------

def test_pi_zero_error_zero_output():
    gains = ControllerGains(10.0, 5.0, 1e-6, 2e-5)
    u, integ = pi_controllers((0.0, 0.0, 3e6, 0.1), (0.1, 3e6), gains, (0.0, 0.0), 1e-3)
    assert u == ControlInputs(0.0, 0.0)
    assert integ == (0.0, 0.0)


def test_pi_saturation_clamps_exactly():
    gains = ControllerGains(10.0, 5.0, 1e-6, 2e-5)
    u, integ = pi_controllers((0.0, 0.0, 0.0, -10.0), (0.1, 3e6), gains, (0.0, 0.0), 1e-3)
    assert u.u1 == 10.0
    u, _ = pi_controllers((0.0, 0.0, 0.0, 10.0), (0.1, 3e6), gains, (0.0, 0.0), 1e-3)
    assert u.u1 == -10.0
    u, _ = pi_controllers((0.0, 0.0, 1e9, 0.1), (0.1, 3e6), gains, (0.0, 0.0), 1e-3)
    assert u.u2 == 0.0
    u, _ = pi_controllers((0.0, 0.0, 0.0, 0.1), (0.1, 1e7), gains, (0.0, 0.0), 1e-3)
    assert u.u2 == 5.0


def test_pi_antiwindup_freezes_integrator():
    gains = ControllerGains(10.0, 5.0, 1e-6, 2e-5)
    integ = (0.0, 0.0)
    for _ in range(100):
        u, integ = pi_controllers((0.0, 0.0, 3e6, -10.0), (0.1, 3e6), gains, integ, 1e-3)
    assert u.u1 == 10.0
    assert integ[0] == 0.0  # never wound up while saturated
    integ = (0.0, 0.0)
    for _ in range(100):
        u, integ = pi_controllers((0.0, 0.0, 0.0, 0.1), (0.1, 1e7), gains, integ, 1e-3)
    assert u.u2 == 5.0
    assert integ[1] == 0.0


# --- scenario validation ------------------------------------------------------

def test_scenario_validation_errors():
    with pytest.raises(ConfigError):
        replace(default_scenario(), dt=0.0)
    with pytest.raises(ConfigError):
        replace(default_scenario(), duration=1e-4)
    with pytest.raises(ConfigError, match=r"^faults\[0\]: window \[12.0, 40.0\) ends after"):
        replace(default_scenario(),
                faults=(FaultWindow(t_start=12.0, t_end=40.0, C_i=1e-11),))
    with pytest.raises(ConfigError):
        replace(default_scenario(),
                initial_state=InitialPlantState(xc=0.5))
    with pytest.raises(ConfigError):
        replace(default_scenario(), reconstruction_tau=1e-4)
    with pytest.raises(ConfigError):
        replace(default_scenario(), reconstruction_tau=0.0)
    for name in ("C_i", "C_e1", "C_e2"):
        with pytest.raises(ValueError, match=rf"^{name} is a leakage coefficient"):
            replace(default_scenario(), faults=(
                FaultWindow(0.0, 1.0), FaultWindow(t_start=0.0, t_end=1.0, **{name: -1e-9})))


def test_signed_fault_inputs_accepted():
    # a disturbance force and a supply-rate delta act in either direction
    fw = FaultWindow(t_start=0.0, t_end=1.0, f_d=-3.0, Delta=-1e5)
    replace(default_scenario(), faults=(fw,))


def test_record_count_ceiling():
    # construct only: a run this long would allocate gigabytes
    at_ceiling = replace(default_scenario(), duration=(MAX_RECORDS - 1) * 1e-3)
    assert at_ceiling.n_records() == MAX_RECORDS
    with pytest.raises(ConfigError, match=f"gives {MAX_RECORDS + 1} records"):
        replace(default_scenario(), duration=MAX_RECORDS * 1e-3)


@pytest.mark.parametrize("build", [
    lambda: ControllerGains(kp_pos=-1.0),
    lambda: NoiseStd(P1=-1.0),
    lambda: StwGains(0.0, 1.0),
    lambda: FosmoGains(rho=(1.0, 1.0, 0.0, 1.0), rho4_vel=1.0),
    lambda: ObserverConfig(kind="stw"),
    lambda: FaultWindow(1.0, 0.0),
    lambda: FaultWindow(0.0, 1.0, C_e1=-1.0),
    lambda: InitialPlantState(P1=-1.0),
    # NaN fails every comparison, so each rule is written to fail on it too
    lambda: ControllerGains(kp_pos=math.nan),
    lambda: NoiseStd(P1=math.nan),
    lambda: StwGains(math.nan, 1.0),
    lambda: FosmoGains(rho=(1.0, 1.0, 1.0, 1.0), rho4_vel=math.nan),
    lambda: FaultWindow(0.0, 1.0, C_i=math.nan),
    lambda: InitialPlantState(P1=math.nan),
    lambda: PlantParams(P_T=math.nan),
    lambda: replace(default_scenario(), reconstruction_tau=math.nan),
], ids=["controller", "noise", "stw", "fosmo", "observer-block", "fault-order",
        "fault-leak", "initial-pressure", "controller-nan", "noise-nan", "stw-nan",
        "fosmo-nan", "fault-leak-nan", "initial-pressure-nan", "plant-tank-nan",
        "reconstruction-tau-nan"])
def test_block_rejects_invalid_fields_when_built(build):
    with pytest.raises(ValueError):
        build()


# (block, the valid fields it needs, its rule): every init field of each block
# is checked, and PlantParams.P_T is the one plant field that may be zero
CHECKED_BLOCKS = ((PlantParams, {}, "must be > 0"),
                  (AstwCellParams, {"epsilon": 1.0}, "must be > 0"),
                  (ControllerGains, {}, "must be >= 0"))


@pytest.mark.parametrize("block, needs, rule, name", [
    pytest.param(block, needs, "must be >= 0" if f.name == "P_T" else rule, f.name,
                 id=f"{block.__name__}.{f.name}")
    for block, needs, rule in CHECKED_BLOCKS for f in fields(block) if f.init])
def test_each_checked_field_is_named_when_bad(block, needs, rule, name):
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^{block.__name__}\.{name} {rule}$"):
            block(**{**needs, name: bad})


def test_fault_inputs_step_quantized():
    sc = default_scenario()
    assert sc.fault_inputs(11.999).C_i == 0.0
    assert sc.fault_inputs(12.0).C_i == 1e-11
    assert sc.fault_inputs(23.0).C_e2 == 1e-11
    assert sc.fault_inputs(29.999).C_i == 1e-11


# --- serialization -------------------------------------------------------------

def test_scenario_round_trip_identity(tmp_path):
    path = tmp_path / "sc.json"
    held = tmp_path / "held.json"  # keeps each old inode from being reused
    for sc in (default_scenario(), nofault_scenario(), noisy_scenario()):
        old = path.stat().st_ino if path.exists() else None
        write_scenario(sc, path)
        assert path.stat().st_ino != old  # a rewrite makes a new file
        held.unlink(missing_ok=True)
        held.hardlink_to(path)
        assert read_scenario(path) == sc


def test_scenario_dict_round_trip():
    sc = default_scenario()
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_unknown_key_rejected_with_path():
    d = scenario_to_dict(default_scenario())
    d["observer"]["kindd"] = "astw"
    with pytest.raises(ConfigError, match=r"observer\.kindd"):
        scenario_from_dict(d)


def test_unknown_top_level_key_rejected():
    d = scenario_to_dict(default_scenario())
    d["duratoin"] = 1.0
    with pytest.raises(ConfigError, match="duratoin"):
        scenario_from_dict(d)


def test_unknown_nested_cell_key_rejected():
    d = scenario_to_dict(default_scenario())
    d["observer"]["astw"][2]["epsilonn"] = 1.0
    with pytest.raises(ConfigError, match=r"observer\.astw\[2\]\.epsilonn"):
        scenario_from_dict(d)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name,build", [("default", default_scenario),
                                        ("nofault", nofault_scenario),
                                        ("noisy", noisy_scenario)])
def test_write_scenario_reproduces_shipped_files(tmp_path, name, build):
    path = tmp_path / f"{name}.json"
    write_scenario(build(), path)
    assert path.read_bytes() == (SCENARIO_DIR / f"{name}.json").read_bytes()


def test_decoder_converts_integers_for_float_fields():
    d = scenario_to_dict(default_scenario())
    d["duration"] = 30
    sc = scenario_from_dict(d)
    assert type(sc.duration) is float and sc == default_scenario()


SHIPPED_DICT = scenario_to_dict(default_scenario())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(sorted(SHIPPED_DICT)) | st.text(),
        children, max_size=4),
    max_leaves=20)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


LEAF_PATHS = _leaf_paths(SHIPPED_DICT)


def _build_or_config_error(d) -> None:
    try:
        assert isinstance(scenario_from_dict(d), Scenario)
    except ConfigError:
        pass


@given(json_values)
def test_any_json_value_builds_or_raises_config_error(value):
    _build_or_config_error(value)


@given(st.sampled_from(LEAF_PATHS), json_values)
def test_one_replaced_leaf_builds_or_raises_config_error(path, value):
    d = json.loads(json.dumps(SHIPPED_DICT))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    _build_or_config_error(d)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"duration": 1.0,,}')
    with pytest.raises(ConfigError, match="line 1"):
        read_scenario(path)


def test_trace_csv_round_trip(tmp_path):
    sc = replace(nofault_scenario(), duration=0.05)
    trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(TRACE_COLUMNS)
    back = SimTrace.read_csv(path)
    assert np.array_equal(back.data, trace.data)  # 17 significant digits replay


def _assert_writes_savetxt_bytes(data: np.ndarray) -> None:
    """SimTrace.write_csv writes the bytes np.savetxt writes for '%.17g'."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
        SimTrace(data=data).write_csv(ours)
        np.savetxt(oracle, data, fmt="%.17g", delimiter=",",
                   header=",".join(TRACE_COLUMNS), comments="")
        assert ours.read_bytes() == oracle.read_bytes()


@st.composite
def double_arrays(draw) -> np.ndarray:
    """(n, 41) doubles, n = 0-4, each from floats() (NaN, infinities, signed
    zeros, subnormals) or from a raw 64-bit pattern."""
    size = 41 * draw(st.integers(0, 4))
    floats = draw(st.lists(st.floats(), min_size=size, max_size=size))
    patterns = np.frombuffer(draw(st.binary(min_size=8 * size, max_size=8 * size)))
    pick = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype=np.uint8) & 1
    return np.where(pick == 1, patterns, np.array(floats, dtype=np.float64)).reshape(-1, 41)


@settings(max_examples=200)
@given(double_arrays())
def test_write_csv_matches_savetxt_on_any_doubles(data):
    _assert_writes_savetxt_bytes(data)


EDGE_VALUES = (
    31888734671842.562,  # an exact decimal tie at 17 digits: ...842.5625
    1e16, 9.9999999999999998e16, 1e17,  # fixed/scientific switch and the carry
    1e-4, 9.9999999999999995e-5, 1e-5,
    1e100, -1e-100,
    5e-324, 1.7976931348623157e308,  # smallest subnormal, largest double
    1e-280, 1e280, 0.1, 0.5, 1.0, -0.0, 0.0, math.nan, math.inf, -math.inf,
)


def test_write_csv_matches_savetxt_on_edge_values():
    edges = np.array(EDGE_VALUES)
    _assert_writes_savetxt_bytes(np.resize(np.concatenate([edges, -edges]), (3, 41)))


@pytest.mark.parametrize("name", ["fault_trace", "noisy_trace"])
def test_write_csv_matches_savetxt_on_traces(name, request):
    _assert_writes_savetxt_bytes(request.getfixturevalue(name).data)


def test_trace_columns_are_41_distinct_names():
    assert len(TRACE_COLUMNS) == 41
    assert len(set(TRACE_COLUMNS)) == 41


def test_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        SimTrace.read_csv(path)


@pytest.fixture(scope="session")
def three_row_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    run_scenario(replace(nofault_scenario(), duration=0.002)).write_csv(path)
    text = path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 4
    return text


def _reads_or_config_error(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "trace.csv"
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(SimTrace.read_csv(path), SimTrace)
        except ConfigError:
            pass


@given(st.data())
def test_truncated_trace_reads_or_raises_config_error(three_row_csv, data):
    _reads_or_config_error(three_row_csv[:data.draw(st.integers(0, len(three_row_csv)))])


@given(row=st.integers(1, 3), column=st.integers(0, 40), text=st.none() | st.text())
def test_edited_trace_cell_reads_or_raises_config_error(three_row_csv, row, column, text):
    lines = three_row_csv.splitlines()
    cells = lines[row].split(",")
    if text is None:
        del cells[column]
    else:
        cells[column] = text
    lines[row] = ",".join(cells)
    _reads_or_config_error("\n".join(lines) + "\n")


# --- trace sidecar ------------------------------------------------------------

def _read(path, parsed: bool):
    """read_csv's array as int64 bits, or its ConfigError text; `parsed` says
    whether the CSV must have been parsed (True) or loaded from its sidecar.
    No thread started by the read outlives it."""
    threads = threading.active_count()
    with warnings.catch_warnings(), mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parse:
        warnings.simplefilter("error")
        try:
            result = SimTrace.read_csv(path).data.view(np.int64)
        except ConfigError as exc:
            result = str(exc)
    assert parse.called == parsed
    assert threading.active_count() == threads
    return result


def _assert_same_read(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, str):
        assert a == b
    else:
        assert a.shape == b.shape and np.array_equal(a, b)


@st.composite
def trace_arrays(draw) -> np.ndarray:
    """(n, 41) doubles, n = 0-4, from floats() (NaN, infinities, signed zeros,
    subnormals) or from its finite part; `t` a 1 ms grid or as drawn."""
    n = draw(st.integers(0, 4))
    finite = draw(st.booleans())
    cells = draw(st.lists(st.floats(allow_nan=not finite, allow_infinity=not finite),
                          min_size=41 * n, max_size=41 * n))
    data = np.array(cells, dtype=np.float64).reshape(n, 41)
    if draw(st.booleans()):
        data[:, 0] = np.arange(n) * 1e-3
    return data


@settings(max_examples=200)
@given(trace_arrays())
def test_sidecar_read_equals_csv_parse(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        SimTrace(data=data).write_csv(path)
        cached = _read(path, parsed=False)
        Path(f"{path}.f64").unlink()
        _assert_same_read(cached, _read(path, parsed=True))


@pytest.mark.parametrize("name", ["fault_trace", "noisy_trace"])
def test_sidecar_read_equals_csv_parse_on_traces(name, request, tmp_path):
    data = request.getfixturevalue(name).data
    path = tmp_path / "trace.csv"
    SimTrace(data=data).write_csv(path)
    cached = _read(path, parsed=False)
    Path(f"{path}.f64").unlink()
    _assert_same_read(cached, _read(path, parsed=True))
    _assert_same_read(cached, data.view(np.int64))


def _short_data() -> np.ndarray:
    return run_scenario(replace(nofault_scenario(), duration=0.002)).data


def _sidecar_of_another_trace(path, sidecar: bytes) -> bytes:
    other = path.with_name("other.csv")
    SimTrace(data=_short_data()[:2]).write_csv(other)
    return Path(f"{other}.f64").read_bytes()


def _csv_rewritten(path, sidecar: bytes) -> bytes:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return sidecar


def _npy_sidecar(version: int, sidecar: bytes) -> bytes:
    """A valid sidecar of an earlier version, behind its magic and both digests:
    the CSV's array as an .npy stream, row-major in version 1 and column-major
    in version 2."""
    data = _short_data()
    if version == 2:
        data = np.asfortranarray(data)
    npy = io.BytesIO()
    np.lib.format.write_array(npy, data)
    return (b"EHSOBS\x00" + bytes([version]) + sidecar[8:40]
            + hashlib.sha256(data.tobytes(order="A")).digest() + npy.getvalue())


# Each maps (CSV path, sidecar bytes) to the sidecar's new bytes, or None to delete it.
SIDECAR_FAULTS = {
    "missing": lambda path, sidecar: None,
    "cut-in-magic": lambda path, sidecar: sidecar[:4],
    "cut-in-digests": lambda path, sidecar: sidecar[:40],
    "cut-in-data": lambda path, sidecar: sidecar[:-8],
    "cut-by-a-row": lambda path, sidecar: sidecar[:-41 * 8],  # whole rows, a stale digest
    "data-byte-flipped": lambda path, sidecar: sidecar[:-1] + bytes([sidecar[-1] ^ 1]),
    "from-another-trace": _sidecar_of_another_trace,
    "csv-rewritten": _csv_rewritten,
    "version-1-sidecar": lambda path, sidecar: _npy_sidecar(1, sidecar),
    "version-2-sidecar": lambda path, sidecar: _npy_sidecar(2, sidecar),
}


@pytest.mark.parametrize("case", sorted(SIDECAR_FAULTS))
def test_sidecar_fault_falls_back_to_csv_parse(case, tmp_path):
    path = tmp_path / "trace.csv"
    SimTrace(data=_short_data()).write_csv(path)
    sidecar = Path(f"{path}.f64")
    changed = SIDECAR_FAULTS[case](path, sidecar.read_bytes())
    if changed is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(changed)
    got = _read(path, parsed=True)
    sidecar.unlink(missing_ok=True)
    _assert_same_read(got, _read(path, parsed=True))


def test_csv_hash_error_falls_back_to_csv_parse(tmp_path, monkeypatch):
    """An OSError while the CSV is hashed, on the worker thread, is a sidecar miss."""
    path = tmp_path / "trace.csv"
    SimTrace(data=_short_data()).write_csv(path)
    cached = _read(path, parsed=False)

    def unreadable(path):
        raise OSError("read error")

    monkeypatch.setattr("ehsobs.harness._file_sha256", unreadable)
    _assert_same_read(_read(path, parsed=True), cached)


def test_rewritten_trace_is_new_files(fault_trace, tmp_path):
    """A rewrite unlinks the old CSV and sidecar rather than truncating them in
    place; links held to the old files keep their bytes whole."""
    path = tmp_path / "trace.csv"
    sidecar = Path(f"{path}.f64")
    SimTrace(data=_short_data()).write_csv(path)
    held = {}
    for name, old in (("csv", path), ("f64", sidecar)):
        link = tmp_path / f"held.{name}"  # keeps the old inode from being reused
        link.hardlink_to(old)
        held[old] = (link, old.stat().st_ino, old.read_bytes())
    new = fault_trace.data[12_000:12_005]  # default, inside the leak window
    SimTrace(data=new).write_csv(path)
    for old, (link, ino, data) in held.items():
        assert old.stat().st_ino != ino
        assert link.read_bytes() == data
    assert _read_sidecar(path) is not None
    assert np.array_equal(SimTrace.read_csv(path).data, new)


# --- closed-loop runs ----------------------------------------------------------

def test_record_count():
    sc = replace(nofault_scenario(), duration=0.5)
    assert len(run_scenario(sc)) == 501
    assert sc.n_records() == 501


def test_equilibrium_is_a_fixed_point():
    # all-zero pressures, disabled controllers: exact rest point of the loop
    sc = replace(
        nofault_scenario(), duration=1.0,
        controller=ControllerGains(0.0, 0.0, 0.0, 0.0),
        supply_setpoint=0.0,
        position_profile=PositionProfile(offset=0.1, amplitude=0.0, frequency_hz=0.0),
        initial_state=InitialPlantState(x1=0.0, P1=0.0, P2=0.0, Ps=0.0,
                                        xc=0.1, velocity=0.0),
    )
    tr = run_scenario(sc)
    for col in ("x1", "x2", "x3", "x4", "x6"):
        assert np.max(np.abs(tr[col])) < 1e-9
    assert np.max(np.abs(tr["x5"] - 0.1)) < 1e-9
    for i in (1, 2, 3, 4):
        assert np.max(np.abs(tr[f"sigma{i}"])) < 1e-9


def test_determinism_bit_identical():
    sc = replace(noisy_scenario(), duration=1.0, faults=())
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("n", [1, NOISE_BLOCK, NOISE_BLOCK + 1, 3 * NOISE_BLOCK - 5])
def test_noise_blocks_equal_one_draw(n):
    std = np.array(astuple(noisy_scenario().noise_std))
    whole = (np.random.default_rng(3).normal(size=(n, 4)) * std).tolist()
    assert list(_noise_rows(np.random.default_rng(3), std, n)) == whole


def test_noisy_run_memory_beyond_trace_does_not_grow_with_duration():
    """Noise is held one block at a time, so a run longer by 1100 records needs no
    more memory than its trace: without blocks the excess grew ~2x (209 -> 413 KB)."""
    run_scenario(replace(noisy_scenario(), duration=0.01, faults=()))  # first-call set-up

    def excess(duration: float) -> int:
        tracemalloc.start()
        try:
            trace = run_scenario(replace(noisy_scenario(), duration=duration, faults=()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - trace.data.nbytes

    short, long = excess(1.1), excess(2.2)  # both past one NOISE_BLOCK of records
    assert long < 1.25 * short


def test_seed_changes_noisy_trace():
    sc = replace(noisy_scenario(), duration=0.2, faults=())
    a = run_scenario(sc, seed=1)
    b = run_scenario(sc, seed=2)
    assert not np.array_equal(a["y1"], b["y1"])


def test_observer_choice_does_not_touch_plant(fault_trace, stw_trace, fosmo_trace):
    for col in ("x1", "x2", "x3", "x4", "x5", "x6", "u1", "u2"):
        assert np.array_equal(fault_trace[col], stw_trace[col])
        assert np.array_equal(fault_trace[col], fosmo_trace[col])


def test_true_leakage_columns_follow_schedule(fault_trace):
    t = fault_trace["t"]
    ql1 = fault_trace["QL1_true"]
    assert np.all(ql1[t < 12.0] == 0.0)
    assert np.abs(ql1[(t >= 12.0) & (t < 13.0)]).max() > 0.0


def test_closed_loop_tracks_position_profile(nofault_trace):
    # steady-state sinusoid amplitude within 20% of the demand
    t = nofault_trace["t"]
    m = t >= 10.0
    w = 2.0 * math.pi * 0.05
    basis = np.column_stack([np.sin(w * t[m]), np.cos(w * t[m]), np.ones(int(m.sum()))])
    coef, *_ = np.linalg.lstsq(basis, nofault_trace["x5"][m], rcond=None)
    amplitude = math.hypot(coef[0], coef[1])
    assert abs(amplitude / 0.05 - 1.0) < 0.2


def test_numerical_abort_carries_time():
    absurd = StwGains(L1=1e160, L2=1e160)
    sc = replace(
        nofault_scenario(), duration=0.1,
        observer=replace(nofault_scenario().observer, kind="stw",
                         stw=(absurd, absurd, absurd, absurd)))
    with pytest.raises(NumericalAbort) as err:
        run_scenario(sc)
    assert err.value.t >= 0.0
    # names the first non-finite component and its value one sample earlier
    assert err.value.detail.startswith(("plant.x", "observer."))
    assert "(last finite " in err.value.detail


def test_step_closed_loop_single_step_matches_run(fault_scenario):
    sc = replace(fault_scenario, duration=0.01, faults=())
    state = LoopState(plant=sc.initial_state.to_state(),
                      integrators=(0.0, sc.supply_setpoint / sc.plant.K_r))
    records = []
    n = sc.n_records()
    for k in range(n):
        state, rec = step_closed_loop(state, sc, k * sc.dt, (0.0, 0.0, 0.0, 0.0),
                                      advance=k < n - 1)
        records.append(rec)
    manual = np.asarray(records)
    trace = run_scenario(sc)
    assert np.array_equal(manual, trace.data)
