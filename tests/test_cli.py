import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from ehsobs.analysis import ChannelMetrics
from ehsobs.cli import main, trace_metrics
from ehsobs.harness import (
    SimTrace,
    default_scenario,
    nofault_scenario,
    run_scenario,
    scenario_to_dict,
    write_scenario,
)
from ehsobs.observer import StwGains


@pytest.fixture()
def short_scenario_file(tmp_path):
    sc = replace(default_scenario(), duration=1.0, faults=())
    path = tmp_path / "short.json"
    write_scenario(sc, path)
    return path


def test_run_writes_trace_and_metrics(short_scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(short_scenario_file), "--out", str(out)])
    assert rc == 0
    assert (out / "trace.csv").exists()
    payload = json.loads((out / "metrics.json").read_text())
    assert list(payload) == ["window", "channels"] and len(payload["window"]) == 2
    assert set(payload["channels"]) == {"e_y1", "e_y2", "e_y3", "e_y4", "e_z1", "e_z2"}
    for channel in payload["channels"].values():
        assert list(channel) == [f.name for f in fields(ChannelMetrics)]
    assert "wrote" in capsys.readouterr().out


def test_run_observer_override(short_scenario_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(short_scenario_file), "--out", str(out),
               "--observer", "stw", "--seed", "5"])
    assert rc == 0


def test_run_uses_the_scenario_observer_kind(tmp_path):
    sc = replace(default_scenario(), duration=0.05, faults=())
    sc = replace(sc, observer=replace(sc.observer, kind="stw"))
    write_scenario(sc, tmp_path / "stw.json")
    assert main(["run", "--scenario", str(tmp_path / "stw.json"),
                 "--out", str(tmp_path / "out")]) == 0
    written = SimTrace.read_csv(tmp_path / "out" / "trace.csv").data
    assert np.array_equal(written, run_scenario(sc, observer_kind="stw").data)
    assert not np.array_equal(written, run_scenario(sc, observer_kind="astw").data)


def test_run_unknown_key_exits_2(tmp_path, capsys):
    d = scenario_to_dict(replace(default_scenario(), duration=1.0, faults=()))
    d["observer"]["kindd"] = "astw"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "observer.kindd" in capsys.readouterr().err


def test_run_numerical_abort_exits_3(tmp_path, capsys):
    sc = replace(nofault_scenario(), duration=0.1)
    absurd = StwGains(L1=1e160, L2=1e160)
    sc = replace(sc, observer=replace(sc.observer, kind="stw",
                                      stw=(absurd,) * 4))
    path = tmp_path / "diverge.json"
    write_scenario(sc, path)
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


def _short_dict() -> dict:
    return scenario_to_dict(replace(default_scenario(), duration=0.05, faults=()))


def _with(path: tuple, value) -> dict:
    d = _short_dict()
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


# case -> (start of the one-line error, naming the dotted path, with {path} the
# file's own; file text or bytes)
MALFORMED = {
    "dt-string": ("dt", json.dumps(_with(("dt",), "abc"))),
    "dt-nan": ("dt", json.dumps(_with(("dt",), float("nan")))),
    "duration-infinity": ("duration", json.dumps(_with(("duration",), float("inf")))),
    "duration-literal-overflow": ("duration: expected a finite number, got inf\n",
                                  json.dumps(_short_dict()).replace('"duration": 0.05',
                                                                    '"duration": 1e400', 1)),
    "substeps-float": ("substeps", json.dumps(_with(("substeps",), 2.5))),
    "substeps-zero": ("substeps must be >= 1\n", json.dumps(_with(("substeps",), 0))),
    "seed-negative": ("seed", json.dumps(_with(("seed",), -1))),
    "seed-string": ("seed", json.dumps(_with(("seed",), "x"))),
    "faults-number": ("faults", json.dumps(_with(("faults",), 5))),
    "plant-null": ("plant", json.dumps(_with(("plant",), None))),
    "observer-array": ("observer", json.dumps(_with(("observer",), []))),
    "duration-array": ("duration", json.dumps(_with(("duration",), [1]))),
    "duration-bool": ("duration", json.dumps(_with(("duration",), True))),
    "nan-token-nested": ("observer.astw[2].epsilon",
                         json.dumps(_with(("observer", "astw", 2, "epsilon"),
                                          float("nan")))),
    "record-count-overflow": ("duration / dt",
                              json.dumps({**_short_dict(), "duration": 1e308,
                                          "dt": 1e-308})),
    "record-count-1e300": ("duration / dt gives 1e+303 records",
                           json.dumps(_with(("duration",), 1e300))),
    "record-count-1e12": ("duration / dt gives 1e+15 records",
                          json.dumps(_with(("duration",), 1e12))),
    "derived-overflow": ("plant: out of range",
                         json.dumps(_with(("plant", "d1"), 1e200))),
    "tuple-length": ("observer.fosmo.rho: expected 4 entries",
                     json.dumps(_with(("observer", "fosmo", "rho"), [1.0, 1.0, 1.0]))),
    "missing-key": ("missing key 'observer.stw[1].L2'",
                    json.dumps(_with(("observer", "stw", 1), {"L1": 1.0}))),
    "reconstruction-tau-zero": ("reconstruction_tau must be >= dt",
                                json.dumps(_with(("reconstruction_tau",), 0))),
    "fault-negative-leak": ("faults[0]: C_i",
                            json.dumps(_with(("faults",), [{"t_start": 0.0, "t_end": 0.05,
                                                            "C_i": -1e-9}]))),
    "fault-window-late": ("faults[0]: window [0.0, 1.0) ends after the run [0, 0.05]\n",
                          json.dumps(_with(("faults",), [{"t_start": 0.0, "t_end": 1.0}]))),
    "observer-missing": ("missing key 'observer'\n",
                         json.dumps({k: v for k, v in _short_dict().items()
                                     if k != "observer"})),
    "astw-leftover-lambda2": ("unknown key 'observer.astw[0].lambda2'\n",
                              json.dumps(_with(("observer", "astw", 0, "lambda2"), 1.0))),
    "duplicate-key": ("duplicate key 'duration'\n",
                      json.dumps(_short_dict())[:-1] + ', "duration": 1.0}'),
    "duplicate-key-nested": ("duplicate key 'observer.stw[0].L1'\n",
                             json.dumps(_with(("observer", "stw", 0), {"L1": 1.0, "L2": 1.0}))
                             .replace('"L2": 1.0}', '"L2": 1.0, "L1": 2.0}', 1)),
    # 2*pi*f*t at f = 1e307 overflows to inf near t = 2.9 s, inside the 4 s run
    **{f"{block}-frequency-overflow": (
        f"{block}.frequency_hz gives no finite phase",
        json.dumps({**_short_dict(), "duration": 4.0,
                    block: {**_short_dict()[block], **edit}}))
       for block, edit in (("position_profile", {"frequency_hz": 1e307}),
                           ("supply_uncertainty", {"frequency_hz": 1e307, "amplitude": 1.0}),
                           ("force_disturbance", {"frequency_hz": 1e307, "amplitude": 1.0}))},
    "undecodable-bytes": ("{path}: invalid JSON: 'utf-8' codec can't decode byte 0xff",
                          b'{"duration": \xff}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_2(case, tmp_path, capsys):
    where, text = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {where.format(path=path)}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["run", "--out", "o"], ["report", "--trace", "none.csv"]])
def test_deeply_nested_scenario_exits_2(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc = main([*command, "--scenario", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {path}: invalid JSON: nested too deeply\n"


def test_run_negative_seed_option_exits_2(short_scenario_file, tmp_path, capsys):
    rc = main(["run", "--scenario", str(short_scenario_file), "--out",
               str(tmp_path / "o"), "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_run_observer_without_its_block_exits_2(tmp_path, capsys):
    path = tmp_path / "astw_only.json"
    path.write_text(json.dumps(_with(("observer", "stw"), None)))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o"),
               "--observer", "stw"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: scenario lacks the 'stw' parameter "
                                       "block required by run\n")


def test_run_domain_violation_exits_3(tmp_path, capsys):
    # position noise of 1 m puts the measured piston beyond the rod-side chamber
    path = tmp_path / "noisy_position.json"
    path.write_text(json.dumps(_with(("noise_std", "xc"), 1.0)))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "collapses a chamber volume" in capsys.readouterr().err


def test_compare_emits_reports(short_scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", str(short_scenario_file), "--out", str(out)])
    assert rc == 0
    for kind in ("astw", "stw", "fosmo"):
        assert (out / f"trace_{kind}.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"astw", "stw", "fosmo"}
    table = (out / "report.txt").read_text()
    assert "Adaptive Super-twisting Obs. (ASTW)" in table
    assert "Comparison of e_y1 observation errors" in capsys.readouterr().out


def test_check_gains_pass_and_fail(capsys):
    assert main(["check-gains", "--l1", "10", "--lambda1", "1", "--lambda2", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and '"margin"' in out
    assert main(["check-gains", "--l1", "1", "--lambda1", "1", "--lambda2", "1"]) == 0
    assert "FAIL" in capsys.readouterr().out


def _reject_constant(token):
    raise AssertionError(f"{token} is not strict JSON")


@pytest.mark.parametrize("l1, T_r_bound", [("10", float),
                                           ("1", type(None))])  # gamma <= 0: no bound
def test_check_gains_prints_strict_json(l1, T_r_bound, capsys):
    assert main(["check-gains", "--l1", l1, "--lambda1", "1", "--lambda2", "1",
                 "--v0", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[:out.index("gain condition:")], parse_constant=_reject_constant)
    assert type(payload["T_r_bound"]) is T_r_bound


CHECK_GAINS_KEYS = ["ok", "margin", "threshold", "P", "Omega", "lambda_min_P",
                    "lambda_max_P", "lambda_min_Omega", "c1", "gamma", "T_r_bound"]


@pytest.mark.parametrize("options", [
    "--l1 2 --lambda1 1 --lambda2 1",
    "--l1 10 --lambda1 1 --lambda2 1 --v0 1",
    "--l1 1 --lambda1 1 --lambda2 1 --v0 1",  # gamma < 0
    "--l1 1e5 --lambda1 3 --lambda2 7 --delta1 0.5 --delta2 2 --v0 4",
])
def test_check_gains_payload_layout(options, capsys):
    assert main(["check-gains", *options.split()]) == 0
    out = capsys.readouterr().out
    text = out[:out.index("gain condition:")]
    payload = json.loads(text)
    assert list(payload) == CHECK_GAINS_KEYS
    assert text == json.dumps(payload, indent=2) + "\n"
    no_bound = payload["gamma"] <= 0.0 or "--v0" not in options
    assert (payload["T_r_bound"] is None) == no_bound


def test_check_gains_rejects_bad_ratio(capsys):
    rc = main(["check-gains", "--l1", "10", "--lambda1", "0", "--lambda2", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: lambda1 and lambda2 must be > 0\n"


@pytest.mark.parametrize("extra, message", [
    (["--v0", "-1"], "V0 must be >= 0"),
    (["--lambda1", "nan"], "--lambda1 must be a finite number, got nan"),
    (["--l1", "inf", "--v0", "1"], "--l1 must be a finite number, got inf"),
    (["--delta2=-inf"], "--delta2 must be a finite number, got -inf"),
    (["--v0", "nan"], "--v0 must be a finite number, got nan"),
    (["--l1", "1e200", "--lambda1", "1e200"], "gain numbers out of range"),
    (["--l1", "1e300", "--lambda1", "1e-300", "--lambda2", "1e-300", "--v0", "1"],
     "gain numbers out of range"),
    (["--l1", "1e308", "--lambda1", "1e150"], "gain numbers out of range"),
    (["--delta1", "-1"], "delta1 and delta2 must be >= 0"),
])
def test_check_gains_rejects_bad_numbers(extra, message, capsys):
    # later occurrences of an option override the valid defaults here
    rc = main(["check-gains", "--l1", "10", "--lambda1", "1", "--lambda2", "1", *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_report_from_trace(tmp_path, capsys):
    sc = replace(nofault_scenario(), duration=1.0)
    trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    sc_path = tmp_path / "sc.json"
    write_scenario(sc, sc_path)
    rc = main(["report", "--trace", str(path), "--window", "0.2:1.0",
               "--scenario", str(sc_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == [0.2, 1.0]
    assert payload["channels"]["e_y1"]["l1"] >= 0.0
    assert payload["channels"]["e_y1"]["reach_time"] == 0.0
    # --out writes what stdout gets, and says where
    options = ["report", "--trace", str(path), "--scenario", str(sc_path)]
    assert main(options) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main([*options, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == printed


def test_report_reach_times_follow_the_scenario_kind(tmp_path, capsys):
    # only an astw scenario has dead-bands: report gives an stw trace the null
    # reach times that run writes to metrics.json
    sc = replace(default_scenario(), duration=1.0, faults=())
    sc = replace(sc, observer=replace(sc.observer, kind="stw"))
    write_scenario(sc, tmp_path / "stw.json")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(tmp_path / "stw.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--trace", str(out / "trace.csv"),
                 "--scenario", str(tmp_path / "stw.json")]) == 0
    printed = json.loads(capsys.readouterr().out)["channels"]
    written = json.loads((out / "metrics.json").read_text())["channels"]
    for name in ("e_y1", "e_y2", "e_y3", "e_y4"):
        assert written[name]["reach_time"] is None
        assert printed[name]["reach_time"] is None


# case -> (edit of the lines of a valid 51-record trace, text the error contains)
MALFORMED_TRACES = {
    "ragged-row": (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]],
                   "malformed trace"),
    "non-numeric-cell": (lambda lines: [*lines[:2], "abc," + lines[2].split(",", 1)[1],
                                        *lines[3:]],
                         "malformed trace"),
    "header-only": (lambda lines: lines[:1], "no rows of 41 columns"),
    "non-finite-cell": (lambda lines: [*lines[:2], ",".join(
                            "nan" if i == 17 else cell
                            for i, cell in enumerate(lines[2].split(","))), *lines[3:]],
                        "non-finite value nan in column 'sigma1' on line 3"),
    "missing-file": (None, "cannot read trace file"),
    "t-swapped": (lambda lines: [*lines[:25], lines[26], lines[25], *lines[27:]],
                  "column 't' does not increase on line 27 (0.024 after 0.025)"),
    "t-reversed": (lambda lines: [lines[0], *lines[:0:-1]],
                   "column 't' does not increase on line 3 (0.049 after 0.05)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_report_malformed_trace_exits_2(case, tmp_path, capsys):
    edit, message = MALFORMED_TRACES[case]
    path = tmp_path / "trace.csv"
    if edit is not None:
        run_scenario(replace(nofault_scenario(), duration=0.05)).write_csv(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["report", "--trace", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "compare", "report", "run-into-dir", "report-into-dir"])
def test_unwritable_output_exits_2(command, short_scenario_file, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    if command.startswith("report"):
        trace = tmp_path / "trace.csv"
        run_scenario(replace(nofault_scenario(), duration=0.05)).write_csv(trace)
        # a missing parent, or a directory where the output file goes (which unlink refuses)
        out = tmp_path / "missing" / "r.json" if command == "report" else tmp_path
        argv = ["report", "--trace", str(trace), "--out", str(out)]
    elif command == "run-into-dir":
        (tmp_path / "D" / "trace.csv").mkdir(parents=True)
        argv = ["run", "--scenario", str(short_scenario_file), "--out", str(tmp_path / "D")]
    else:  # run makes the directory F/x, compare the directory F
        out = blocker / "x" if command == "run" else blocker
        argv = [command, "--scenario", str(short_scenario_file), "--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_report_bad_window_exits_2(tmp_path, capsys):
    sc = replace(nofault_scenario(), duration=0.05)
    trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert main(["report", "--trace", str(path), "--window", "30"]) == 2
    assert main(["report", "--trace", str(path), "--window", "5:1"]) == 2


@pytest.mark.parametrize("rows, options, message", [
    (51, ["--dwell", "0"], "error: dwell must be >= 1\n"),
    (51, ["--dwell", "0", "--scenario", "{dir}/sc.json"], "error: dwell must be >= 1\n"),
    (51, ["--window=-5:-1"], "selects no samples"),
    (1, [], "a report needs >= 2 samples, got 1"),
    (51, ["--window", "40:50"],
     "window [40.0, 50.0] ends after the trace (last sample at 0.05 s)"),
    # the later --trace wins: neither file exists, and the scenario is named
    (51, ["--trace", "{dir}/none.csv", "--scenario", "{dir}/none.json"],
     "cannot read scenario file"),
    (51, ["--window=-inf:0.02"], "need finite LO < HI"),
])
def test_report_bad_request_exits_2(rows, options, message, tmp_path, capsys):
    sc = replace(nofault_scenario(), duration=0.05)
    write_scenario(sc, tmp_path / "sc.json")
    path = tmp_path / "trace.csv"
    SimTrace(data=run_scenario(sc).data[:rows]).write_csv(path)
    rc = main(["report", "--trace", str(path), *(o.format(dir=tmp_path) for o in options)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_trace_metrics_channels(nofault_trace, fault_scenario):
    report = trace_metrics(nofault_trace, epsilons=fault_scenario.observer.epsilons())
    m = report.channels["e_y1"]
    assert m.reach_time == 0.0
    assert m.gain_peak is not None and m.gain_peak > 0.0
    assert report.channels["e_z1"].reach_time is None
