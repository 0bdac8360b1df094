"""Fresh-process helpers for the benchmark's set-up; each prints one JSON line.

    python3 perfbench/child.py setup SCENARIO
        seconds to import ehsobs and parse + validate SCENARIO

    python3 perfbench/child.py make-trace SCENARIO SEED OUT REPEAT
        `ehsobs run --observer astw` into OUT, then REPEAT - 1 more
        simulations of the same stream; every simulation is timed

The caller puts the checkout's ``src`` on PYTHONPATH.
"""

import dataclasses
import io
import json
import sys
import time
from contextlib import redirect_stdout


class SimTimer:
    """Stands in for ``ehsobs.cli.run_scenario``: times every call.

    A measurement stream is the scenario with its observer block removed,
    plus the seed; ``runs / streams`` is how often the plant was simulated
    for one stream.
    """

    def __init__(self, run_scenario):
        self.run_scenario = run_scenario
        self.reset()

    def reset(self) -> None:
        self.sims: list[tuple[float, int]] = []  # (seconds, samples) per call
        self.streams: set = set()
        self.last = None  # trace returned by the latest call

    def __call__(self, scenario, **kwargs):
        t0 = time.perf_counter()
        trace = self.run_scenario(scenario, **kwargs)
        self.sims.append((time.perf_counter() - t0, len(trace)))
        self.streams.add((repr(dataclasses.replace(scenario, observer=None)),
                          kwargs.get("seed")))
        self.last = trace
        return trace


def setup(scenario: str) -> dict:
    t0 = time.perf_counter()
    import ehsobs
    ehsobs.read_scenario(scenario)
    return {"setup_s": time.perf_counter() - t0}


def make_trace(scenario: str, seed: str, out: str, repeat: str) -> dict:
    from ehsobs import cli
    timer = cli.run_scenario = SimTimer(cli.run_scenario)
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--scenario", scenario, "--out", out,
                       "--observer", "astw", "--seed", seed])
    if rc != 0:
        return {"rc": rc}
    sc = cli.read_scenario(scenario)
    for _ in range(int(repeat) - 1):
        timer(sc, observer_kind="astw", seed=int(seed))
    return {"rc": rc, "sims": timer.sims}


if __name__ == "__main__":
    mode = {"setup": setup, "make-trace": make_trace}[sys.argv[1]]
    print(json.dumps(mode(*sys.argv[2:])))
