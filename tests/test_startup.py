"""Start-up without numpy.

The package, the scenario codec and the CLI's non-array paths never import
numpy, zlib, hashlib, threading or concurrent.futures: the modules that use
them bind them lazily and load them at first use (argparse loads zlib for
the CLI).  A report read from a trace sidecar loads neither hashlib nor a
thread pool.  Each case runs in a fresh interpreter, since this process has
them loaded already; so does the check that a run leaves nothing behind
that changes the next one.
"""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ehsobs.harness import SimTrace, nofault_scenario, run_scenario
from ehsobs.reconstruction import FaultEstimate

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, cwd: Path, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NON_ARRAY_PATHS = f"""
import contextlib, io, sys, typing
from pathlib import Path

before = set(sys.modules)  # site may load threading through a .pth file
import ehsobs
from ehsobs.cli import main

for path in sorted(Path({str(ROOT / "scenarios")!r}).glob("*.json")):
    sc = ehsobs.read_scenario(path)
    ehsobs.write_scenario(sc, "copy.json")
    assert ehsobs.read_scenario("copy.json") == sc, path
typing.get_type_hints(ehsobs.Scenario)
lazy = {{"numpy", "hashlib", "threading", "concurrent.futures", "zlib"}}
assert not lazy & (sys.modules.keys() - before)

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    assert main(["check-gains", "--l1", "2", "--lambda1", "1", "--lambda2", "1"]) == 0
    assert main(["run", "--scenario", "none.json", "--out", "out"]) == 2
    assert main(["run", "--scenario", "bad.json", "--out", "out"]) == 2
    assert main(["compare", "--scenario", "bad.json", "--out", "out"]) == 2
    assert main(["report", "--trace", "none.csv", "--scenario", "bad.json"]) == 2
lazy.remove("zlib")  # argparse's help formatter imports shutil, which imports zlib
assert not lazy & (sys.modules.keys() - before)
print("ok")
"""


def test_non_array_paths_never_import_numpy(tmp_path):
    (tmp_path / "bad.json").write_text('{"observer": {"kind": "astw", "lambda2": 1}}')
    assert run_fresh(NON_ARRAY_PATHS, tmp_path) == "ok\n"
    # without site, whose .pth files may import threading before the baseline
    assert run_fresh(NON_ARRAY_PATHS, tmp_path, "-S") == "ok\n"


REPORT_FROM_SIDECAR = f"""
import sys
import numpy as np

def parse(*args, **kwargs):
    raise AssertionError("the CSV was parsed, not read from its sidecar")

np.loadtxt = parse
before = set(sys.modules)
from ehsobs.cli import main

assert main(["report", "--trace", "trace.csv", "--scenario",
             {str(ROOT / "scenarios" / "nofault.json")!r}, "--out", "report.json"]) == 0
print(sorted({{"hashlib", "concurrent.futures", "logging"}} & (sys.modules.keys() - before)))
"""


def test_report_from_sidecar_loads_no_hash_or_thread_pool(tmp_path):
    run_scenario(replace(nofault_scenario(), duration=0.05)).write_csv(tmp_path / "trace.csv")
    assert run_fresh(REPORT_FROM_SIDECAR, tmp_path) == "wrote report.json\n[]\n"


def test_array_annotations_resolve():
    assert get_type_hints(SimTrace)["data"] is np.ndarray
    assert get_type_hints(FaultEstimate)["t"] is np.ndarray


def readme_library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path):
    # the example as written simulates and reconstructs; the lines after it
    # write the trace and read it back, through the sidecar and through the CSV
    code = readme_library_example() + """
import os
from ehsobs import SimTrace

trace.write_csv("trace.csv")
assert (SimTrace.read_csv("trace.csv").data == trace.data).all()
os.remove("trace.csv.f64")
assert (SimTrace.read_csv("trace.csv").data == trace.data).all()
"""
    out = run_fresh(code, tmp_path)
    assert "same leak estimate: True" in out


SCENARIO_DIGESTS = """
import hashlib
from dataclasses import replace
import ehsobs

for name in {names!r}:
    sc = replace(getattr(ehsobs, name + "_scenario")(), duration=0.5, faults=())
    print(name, hashlib.sha256(ehsobs.run_scenario(sc).data.tobytes()).hexdigest())
"""


def test_scenarios_in_one_process_run_as_in_fresh_ones(tmp_path):
    # nothing one scenario's run derives or caches reaches the next one's
    def digests(*names: str) -> list[str]:
        return run_fresh(SCENARIO_DIGESTS.format(names=names), tmp_path).splitlines()

    assert digests("default", "noisy") == digests("default") + digests("noisy")
