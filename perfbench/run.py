#!/usr/bin/env python3
"""Benchmark for ehsobs: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload run-default --seed 1 --seconds 20 --trace 0

Run it from the root of an ehsobs checkout; it imports the package from
``src``.  Each workload repeats one user operation of the ``ehsobs`` command
line, driven in-process through ``ehsobs.cli.main``, for --seconds, and
checks every output against reference.json.  With --trace 0 it prints the
end-to-end metrics.  With --trace 1 it alternates untraced operations with
operations traced by tracing.py, and prints the per-layer metrics.  The last line of stdout is the JSON result; the lines
before it, and ``.perfbench_work/``, hold the run manifest and the sample
counts.

Workloads.  The program sees only a scenario file and a seed derived from
--seed (``program_seed``).
  run-default    ``ehsobs run`` on scenarios/default.json with the ASTW
                 observer and the two-stage leak: the paper's experiment.
                 The scenario is noise-free, so the seed does not change
                 its trace.
  compare-noisy  ``ehsobs compare`` on scenarios/noisy.json: the only
                 workload with the STW and FOSMO cells and the noise path;
                 it simulates the plant three times for one stream.
  report-replay  ``ehsobs report --scenario`` on a seeded noisy ASTW trace
                 that set-up writes in a child process and does not time.
                 Nothing is simulated in the timed operation; its
                 sim_us_per_sample is that of the set-up simulation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from child import SimTimer
from tracing import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SEEDS = 50                # program seeds covered by reference.json
SETUP_SPAWNS = 3          # fresh processes timed for setup_s at each end of the measurement
REPLAY_SIMS = 7           # set-up simulations timed for report-replay's sim_us_per_sample
REPLAY_DWELL = 100        # samples in band before a reach time counts
LEAK_RMS_LIMIT = 0.05     # acceptance tolerance on leak reconstruction

# workload -> (scenario file, output files checked after every operation)
WORKLOADS = {
    "run-default": ("default.json", ("trace.csv", "metrics.json")),
    "compare-noisy": ("noisy.json", ("trace_astw.csv", "trace_stw.csv",
                                     "trace_fosmo.csv", "report.json")),
    "report-replay": ("noisy.json", ("report.json",)),
}

# spans whose self times add up to the simulation (children of run_scenario)
SIM_LAYERS = ("harness.run_scenario", "harness.step_closed_loop",
              "harness.fault_inputs", "harness.pi_controllers",
              "observer.observer_step", "cells.astw_step", "cells.adapt_gain",
              "cells.stw_step", "cells.fosmo_step", "reconstruction.lowpass_step",
              "plant.leakage_flows", "plant.advance_plant")


def program_seed(seed: int) -> int:
    """Noise seed handed to ehsobs: one of the seeds reference.json covers."""
    return seed % SEEDS


def file_digest(path: Path) -> list:
    """[sha256 hex, size in bytes] of a file."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return [h.hexdigest(), path.stat().st_size]


def leak_rms_error(trace) -> float:
    """Worst relative RMS error of the two leak reconstructions.

    Same post-transient windows as the acceptance suite: 1 s after each
    change of the fault schedule.
    """
    import numpy as np
    t = trace["t"]
    settled = ((t >= 13.0) & (t < 23.0)) | (t >= 24.0)
    worst = 0.0
    for est, true in (("f1_hat", "QL1_true"), ("f2_hat", "QL2_true")):
        e, q = trace[est][settled], trace[true][settled]
        worst = max(worst, float(np.sqrt(np.mean((e - q) ** 2) / np.mean(q ** 2))))
    return worst


@dataclass
class Op:
    """One timed user operation and what its checks found."""

    seconds: float
    sims: list                 # (seconds, samples) per run_scenario call
    runs_per_stream: float
    error: str | None
    summary: dict = field(default_factory=dict)  # span name -> (calls, self ns, total ns)
    counts: dict = field(default_factory=dict)


class Bench:
    """One workload at one program seed; `expected` maps output file to digest."""

    def __init__(self, workload: str, pseed: int, expected: dict, cli):
        self.workload = workload
        self.pseed = pseed
        scenario_file, self.outputs = WORKLOADS[workload]
        self.scenario = str(SCENARIOS / scenario_file)
        self.out = WORK / workload / "out"
        self.replay_input = WORK / workload / "input" / "trace.csv"
        self.expected = expected
        self.timer = SimTimer(cli.run_scenario)

    def argv(self) -> list[str]:
        seed = str(self.pseed)
        if self.workload == "run-default":
            return ["run", "--scenario", self.scenario, "--out", str(self.out),
                    "--observer", "astw", "--seed", seed]
        if self.workload == "compare-noisy":
            return ["compare", "--scenario", self.scenario, "--out", str(self.out),
                    "--seed", seed]
        return ["report", "--trace", str(self.replay_input), "--scenario", self.scenario,
                "--dwell", str(REPLAY_DWELL), "--out", str(self.out / "report.json")]

    def digests(self) -> dict:
        return {name: file_digest(self.out / name) for name in self.outputs}

    def check(self) -> str | None:
        for name, want in self.expected.items():
            path = self.out / name
            if not path.is_file():
                return f"{name} not written"
            if file_digest(path) != want:
                return f"{name} differs from the reference"
        if self.workload == "run-default":
            err = leak_rms_error(self.timer.last)
            if not err < LEAK_RMS_LIMIT:
                return f"leak reconstruction RMS error {err:.4f} >= {LEAK_RMS_LIMIT}"
        return None

    def op(self, main, tracer: Tracer | None = None) -> Op:
        """Run one operation through `main` and check its outputs."""
        self.out.mkdir(parents=True, exist_ok=True)
        for name in self.outputs:
            (self.out / name).unlink(missing_ok=True)
        self.timer.reset()
        if tracer is not None:
            tracer.counts.clear()
            lo = len(tracer.name)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                rc = main(self.argv())
        except Exception as exc:  # counted as a failed operation, never fatal
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        error = f"exit {rc}: {buf.getvalue()[-300:]}" if rc != 0 else self.check()
        runs = len(self.timer.sims)
        op = Op(seconds=seconds, sims=list(self.timer.sims),
                runs_per_stream=runs / len(self.timer.streams) if runs else 0.0,
                error=error)
        if tracer is not None:
            hi = len(tracer.name)
            tracer.ops.append((lo, hi))
            op.summary = tracer.summary(lo, hi)
            op.counts = dict(tracer.counts)
        return op


def measure(seconds: float, step) -> list:
    """Call step() until the next call would end after `seconds`; return the results."""
    results, cycles = [], []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        results.append(step())
        cycles.append(time.perf_counter() - c0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return results


# --- set-up in fresh processes -------------------------------------------------

def child(*args: str) -> dict:
    """Run child.py in a fresh process; RuntimeError if it fails in any way."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"child {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"child {args[0]} printed no result") from exc


def setup_times(scenario: str) -> list[float]:
    return [child("setup", scenario)["setup_s"] for _ in range(SETUP_SPAWNS)]


def make_replay_input(bench: Bench, reference: dict) -> list:
    """Write the replayed trace in a child process; check it against the reference.

    Returns the (seconds, samples) of the set-up simulations.
    """
    result = child("make-trace", bench.scenario, str(bench.pseed),
                   str(bench.replay_input.parent), str(REPLAY_SIMS))
    if result["rc"] != 0:
        raise RuntimeError(f"set-up could not write the replayed trace: exit {result['rc']}")
    want = reference["outputs"]["compare-noisy"][str(bench.pseed)]["trace_astw.csv"]
    if file_digest(bench.replay_input) != want:
        raise RuntimeError("replay input differs from the reference noisy ASTW trace")
    return result["sims"]


# --- metrics --------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def unit_of(name: str) -> str:
    for suffixes, unit in (((".us", "_us", "_per_sample"), "us"), ((".s",), "s"),
                           ((".bytes",), "B"), ((".calls", ".substeps"), "count")):
        if name.endswith(suffixes):
            return unit
    raise ValueError(name)


def layer_values(op: Op) -> dict[str, float]:
    """Per-layer figures of one traced operation.

    ``.us`` is self time per call, ``.self_us`` too, except for
    run_scenario, whose self time is per simulated sample; ``.s`` is time
    per operation.
    """
    s = op.summary
    samples = s["harness.step_closed_loop"][0]

    def self_us(name):
        calls, self_ns, _ = s[name]
        return self_ns / calls / 1e3 if calls else 0.0

    def per_sample_us(ns):
        return ns / samples / 1e3 if samples else 0.0

    values = {
        "harness.run_scenario.self_us": per_sample_us(s["harness.run_scenario"][1]),
        "harness.step_closed_loop.self_us": self_us("harness.step_closed_loop"),
        "harness.fault_inputs.us": self_us("harness.fault_inputs"),
        "harness.pi_controllers.us": self_us("harness.pi_controllers"),
        "observer.observer_step.self_us": self_us("observer.observer_step"),
        "plant.advance_plant.us": self_us("plant.advance_plant"),
        "plant.leakage_flows.us": self_us("plant.leakage_flows"),
        "plant.substeps": op.counts.get("plant.substeps", 0),
        "reconstruction.lowpass_step.us": self_us("reconstruction.lowpass_step"),
        "reconstruction.lowpass_step.calls": s["reconstruction.lowpass_step"][0],
        "harness.write_csv.s": s["harness.write_csv"][2] / 1e9,
        "harness.write_csv.bytes": op.counts.get("harness.write_csv.bytes", 0),
        "harness.read_csv.s": s["harness.read_csv"][2] / 1e9,
        "harness.read_csv.bytes": op.counts.get("harness.read_csv.bytes", 0),
        "harness.read_scenario.s": s["harness.read_scenario"][2] / 1e9,
        "analysis.channel_metrics.s": s["analysis.channel_metrics"][1] / 1e9,
        "cli.trace_metrics.s": s["cli.trace_metrics"][1] / 1e9,
        "trace.sim_us_per_sample": per_sample_us(s["harness.run_scenario"][2]),
    }
    for cell in ("astw_step", "adapt_gain", "stw_step", "fosmo_step"):
        values[f"cells.{cell}.us"] = self_us(f"cells.{cell}")
        values[f"cells.{cell}.calls"] = s[f"cells.{cell}"][0]
    return values


def exact_counts(op: Op) -> dict[str, float]:
    """Figures of a traced operation that must repeat exactly."""
    counts = {f"{name}.calls": calls for name, (calls, _, _) in op.summary.items()}
    counts.update(op.counts)
    counts["harness.plant_runs_per_stream"] = op.runs_per_stream
    return counts


def expected_counts(reference: dict, bench: Bench) -> dict:
    """Exact counts of one traced operation: calls from the reference, bytes from its sizes."""
    want = dict(reference["counts"][bench.workload])
    want["harness.write_csv.bytes"] = sum(
        size for name, (_, size) in bench.expected.items() if name.endswith(".csv"))
    if bench.workload == "report-replay":
        replay = reference["outputs"]["compare-noisy"][str(bench.pseed)]["trace_astw.csv"]
        want["harness.read_csv.bytes"] = replay[1]
    return want


def count_errors(traced: list[Op], want: dict) -> list[str]:
    for op in traced:
        got = exact_counts(op)
        diff = {k: (got.get(k, 0), v) for k, v in want.items() if got.get(k, 0) != v}
        if diff:
            return [f"counts (got, reference) differ: {diff}"]
    return []


def self_sum_ratio(op: Op, medians: dict) -> float:
    """Reported self times, weighted by calls per sample, over the traced sim time.

    Every span inside run_scenario is one of SIM_LAYERS, so per operation
    this is 1 by the definition of self time; only taking medians moves it.
    """
    calls = {name: c for name, (c, _, _) in op.summary.items()}
    samples = calls["harness.step_closed_loop"]
    total = medians["harness.run_scenario.self_us"]
    for name in SIM_LAYERS[1:]:
        metric = f"{name}.self_us" if f"{name}.self_us" in medians else f"{name}.us"
        total += medians[metric] * calls[name] / samples
    return total / medians["trace.sim_us_per_sample"]


# --- run ------------------------------------------------------------------------

def load_ehsobs() -> dict:
    """Import ehsobs from the checkout; return the traced modules by name."""
    sys.path.insert(0, str(SRC))
    import ehsobs.cells
    import ehsobs.cli
    import ehsobs.harness
    import ehsobs.observer
    return {m.__name__: m for m in (ehsobs.cli, ehsobs.harness, ehsobs.observer, ehsobs.cells)}


def manifest(args, pseed: int) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "ehsobs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "program_seed": pseed,
        "run_seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "scenario_sha256": {p.name: file_digest(p)[0]
                            for p in sorted(SCENARIOS.glob("*.json"))},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ehsobs" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no ehsobs checkout at {ROOT} (src/ehsobs and scenarios/ needed)",
              file=sys.stderr)
        return 2
    modules = load_ehsobs()
    cli = modules["ehsobs.cli"]

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pseed = program_seed(args.seed)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    bench = Bench(args.workload, pseed, reference["outputs"][args.workload][str(pseed)], cli)
    info = manifest(args, pseed)
    print("manifest " + json.dumps(info))

    errors, setup, replay_sims = [], [], []
    replaying = args.workload == "report-replay"
    try:  # a failed set-up is counted below, and the run goes on
        child("setup", bench.scenario)  # warm-up: bytecode caches
        setup = setup_times(bench.scenario)
        if replaying:
            replay_sims = make_replay_input(bench, reference)
    except RuntimeError as exc:
        errors.append(f"set-up: {exc}")

    with patched([(cli, "run_scenario", bench.timer)]):
        if not args.trace:
            ops, traced = measure(args.seconds, lambda: bench.op(cli.main)), []
        else:
            # untraced and traced operations alternate, so that both see the same host
            tracer = Tracer()
            replacements = tracer.replacements(modules)
            originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
            traced_main = tracer.wrap("cli.main", cli.main)

            def traced_op():
                with patched(replacements):
                    return bench.op(traced_main, tracer)
            pairs = measure(args.seconds, lambda: (bench.op(cli.main), traced_op()))
            ops, traced = [u for u, _ in pairs], [t for _, t in pairs]
            if any(vars(owner)[attr] is not value for owner, attr, value in originals):
                errors.append("traced functions were not restored")
    if not args.trace and not errors:
        # host speed drifts over tens of seconds: sample set-up at both ends of the run
        try:
            setup += setup_times(bench.scenario)
        except RuntimeError as exc:
            errors.append(f"set-up: {exc}")
    if args.trace:
        per_op = [layer_values(op) for op in traced]
        reported = {name: ([v[name] for v in per_op], unit_of(name)) for name in per_op[0]}
        reported["harness.plant_runs_per_stream"] = (
            [op.runs_per_stream for op in traced], "ratio")
        reported["trace_overhead_pct"] = (
            [100.0 * (t.seconds / u.seconds - 1.0) for u, t in zip(ops, traced)], "%")
        errors += count_errors(traced, expected_counts(reference, bench))
        tracer.save(WORK / args.workload / "spans.npz")
    else:
        if replaying:
            sim_us = [sec / n * 1e6 for sec, n in replay_sims]
        else:  # one figure per operation, so compare's three observers weigh alike
            sim_us = [sum(sec for sec, _ in op.sims) / sum(n for _, n in op.sims) * 1e6
                      for op in ops if op.sims]
        reported = {
            "op_s": ([op.seconds for op in ops], "s"),
            "sim_us_per_sample": (sim_us, "us"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
        }

    metrics, samples = {}, {}
    for name, (values, unit) in reported.items():
        values = values or [0.0]  # no operation got this far; the run is failed anyway
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        samples[name] = {"n": len(values), "q1": q1, "median": med, "q3": q3,
                         "values": values}
        print(f"{name:36s} {med:14.6g} {unit:5s}  n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    if traced and not replaying:
        ratio = self_sum_ratio(traced[0], {k: m["value"] for k, m in metrics.items()})
        print(f"reported self times sum to {100 * ratio:.2f} % of the traced simulation")
    failed_ops = [op.error for op in ops + traced if op.error]
    for err in failed_ops[:5] + errors:
        print(f"check failed: {err}", file=sys.stderr)

    # a failed set-up or trace check counts as one more failed operation
    attempted = len(ops) + len(traced) + len(errors)
    failed = len(failed_ops) + len(errors)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (WORK / f"results-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": info, "samples": samples, "result": result}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
