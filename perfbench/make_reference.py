#!/usr/bin/env python3
"""Record the outputs and exact counts that perfbench/run.py checks against.

    python3 perfbench/make_reference.py

For every program seed 0 .. run.SEEDS - 1 it runs each workload's
operation once and stores the sha256 and size of every output file; one
traced operation per workload gives the call counts.  Run it only on a commit whose traces are the
accepted ones: the contract is that every later commit reproduces these
bytes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from tracing import Tracer, patched


def main() -> int:
    run.WORK = run.WORK / "reference"  # apart from benchmark runs
    modules = run.load_ehsobs()
    cli = modules["ehsobs.cli"]

    outputs = {name: {} for name in run.WORKLOADS}
    counts = {}
    for pseed in range(run.SEEDS):
        for name in run.WORKLOADS:  # compare-noisy writes the replayed trace first
            bench = run.Bench(name, pseed, {}, cli)
            if name == "report-replay":
                bench.replay_input.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(run.WORK / "compare-noisy" / "out" / "trace_astw.csv",
                                bench.replay_input)
            with patched([(cli, "run_scenario", bench.timer)]):
                op = bench.op(cli.main)
                if op.error:
                    raise SystemExit(f"{name} seed {pseed}: {op.error}")
                outputs[name][str(pseed)] = bench.digests()
                if pseed == 0:
                    tracer = Tracer()
                    with patched(tracer.replacements(modules)):
                        traced = bench.op(tracer.wrap("cli.main", cli.main), tracer)
                    counts[name] = {k: v for k, v in run.exact_counts(traced).items()
                                    if not k.endswith(".bytes")}
        print(f"seed {pseed} done", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(
        {"counts": counts, "outputs": outputs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
