"""The layer boundaries an outside-in tracer wraps, and how often a run crosses them.

A tracer times each layer by swapping these module and class attributes
for wrappers.  That works only while each attribute is defined on its
owner, every caller looks it up at call time, and a run crosses each
boundary a fixed number of times per sample.  The counts below are those
of a 0.05 s default scenario (51 records).
"""

import functools
import importlib.util
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from ehsobs.cli import main
from ehsobs.harness import SimTrace, default_scenario, write_scenario


def _tracer_layers() -> tuple:
    """(module name, class name or None, attribute, ...) per boundary, as the
    benchmark's tracer lists them, so the two cannot drift apart."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


LAYERS = tuple((module, cls, attr) for module, cls, attr, *_ in _tracer_layers())

N = 51  # records of the 0.05 s scenario


class Calls:
    """Count, arguments and results per boundary, named like 'harness.advance_plant'."""

    def __init__(self):
        self.count = Counter()
        self.args = defaultdict(list)
        self.results = defaultdict(list)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count[name] += 1
            self.args[name].append((args, kwargs))
            result = fn(*args, **kwargs)
            self.results[name].append(result)
            return result
        return counted


@pytest.fixture()
def calls(monkeypatch):
    calls = Calls()
    for module, cls, attr in LAYERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]  # on the owner itself, as a tracer reads it
        name = module.removeprefix("ehsobs.") + "." + attr
        if isinstance(original, classmethod):
            wrapped = classmethod(calls.wrap(name, original.__func__))
        else:
            wrapped = calls.wrap(name, original)
        monkeypatch.setattr(owner, attr, wrapped)
    return calls


@pytest.fixture()
def scenario_file(tmp_path):
    sc = replace(default_scenario(), duration=0.05, faults=())
    assert sc.n_records() == N
    path = tmp_path / "short.json"
    write_scenario(sc, path)
    return path


def per_run(kind: str) -> Counter:
    """Boundary crossings of one simulated trace with observer `kind`."""
    counts = Counter({"harness.step_closed_loop": N, "harness.fault_inputs": N,
                      "harness.pi_controllers": N, "harness.observer_step": N,
                      "harness.leakage_flows": N, "harness.lowpass_step": 3 * N,
                      "harness.advance_plant": N - 1, "harness.write_csv": 1,
                      "cli.run_scenario": 1, "cli.trace_metrics": 1,
                      "cli.channel_metrics": 6, f"observer.{kind}_step": 3 * N})
    if kind == "astw":
        counts.update({"cells.adapt_gain": 3 * N, "observer.adapt_gain": N})
    return counts


def check_run_calls(calls: Calls, kinds: tuple[str, ...], seed) -> None:
    substeps = default_scenario().substeps
    for args, _ in calls.args["harness.advance_plant"]:
        assert len(args) == 6 and args[5] == substeps
    run_calls = calls.args["cli.run_scenario"]
    assert [kw for _, kw in run_calls] == [{"observer_kind": k, "seed": seed} for k in kinds]
    assert all(len(args) == 1 for args, _ in run_calls)
    assert all(type(r) is SimTrace for r in calls.results["cli.run_scenario"])


def test_run_crosses_each_layer_per_sample(calls, scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out),
                 "--observer", "astw", "--seed", "4"]) == 0
    assert calls.count == per_run("astw") + Counter({"cli.read_scenario": 1})
    check_run_calls(calls, ("astw",), 4)

    calls.count.clear()
    assert main(["report", "--trace", str(out / "trace.csv")]) == 0
    assert calls.count == Counter({"harness.read_csv": 1, "cli.trace_metrics": 1,
                                   "cli.channel_metrics": 6})
    (cls_arg, path), _ = calls.args["harness.read_csv"][0]
    assert cls_arg is SimTrace and path == str(out / "trace.csv")


def test_compare_runs_each_observer_once(calls, scenario_file, tmp_path):
    assert main(["compare", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "cmp")]) == 0
    expected = per_run("astw") + per_run("stw") + per_run("fosmo")
    assert calls.count == expected + Counter({"cli.read_scenario": 1})
    check_run_calls(calls, ("astw", "stw", "fosmo"), None)


def test_scenario_without_observer_constructs():
    # a measurement stream is keyed by the scenario with its observer removed,
    # so the scenario's own checks must never read the observer block
    stream = replace(default_scenario(), observer=None)
    assert stream.observer is None
