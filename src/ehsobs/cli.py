"""Command-line interface.

Subcommands:

  run         simulate one scenario, write trace.csv + metrics.json
  compare     run all three observer variants on one scenario and emit a
              comparison report (JSON + aligned text table)
  check-gains evaluate the sliding-gain condition and the stability numbers
  report      compute metrics from an existing trace CSV

Exit codes: 0 success, 2 configuration/file error, 3 numerical abort or
physical-domain violation (DomainViolation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .analysis import (
    EmptyWindow,
    MetricsReport,
    channel_metrics,
    comparison_table,
    lyapunov_matrices,
)
from .cells import check_gain_condition
from .harness import (
    ConfigError,
    NumericalAbort,
    Scenario,
    SimTrace,
    _remove_old,
    read_scenario,
    run_scenario,
)
from .observer import OBSERVER_KINDS
from .plant import DomainViolation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


DEFAULT_WINDOW = (10.0, 30.0)  # [s]


def trace_metrics(trace: SimTrace, window=DEFAULT_WINDOW,
                  epsilons=None, dwell: int = 1) -> MetricsReport:
    """Metrics over the six error channels of one trace.

    Reaching times need the per-channel dead-bands and are reported only for
    the four measured channels when `epsilons` is given.  `window` is used
    as given; a window that ends after the trace is the caller's to clip.
    """
    t = trace["t"]
    errors = {
        "e_y1": trace["sigma1"],
        "e_y2": trace["sigma2"],
        "e_y3": trace["sigma3"],
        "e_y4": trace["sigma4"],
        "e_z1": trace["x1"] - trace["z1_hat"],
        "e_z2": trace["x6"] - trace["z2_hat"],
    }
    gains = {f"e_y{i}": trace[f"L1_{i}"] for i in (1, 2, 3, 4)}
    channels = {}
    for i, (name, e) in enumerate(errors.items()):
        eps = epsilons[i] if epsilons is not None and i < 4 else None
        channels[name] = channel_metrics(t, e, window=window, epsilon=eps,
                                         dwell=dwell, gains=gains.get(name))
    return MetricsReport(channels=channels, window=window)


def _default_window(trace: SimTrace) -> tuple[float, float]:
    """DEFAULT_WINDOW, clipped to a trace that ends before it."""
    lo, hi = DEFAULT_WINDOW
    t_end = float(trace["t"][-1])
    return (lo, hi) if hi <= t_end else (min(lo, t_end / 2.0), t_end)


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        lo_f, hi_f = float(lo), float(hi)
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}, expected LO:HI") from exc
    if not (math.isfinite(lo_f) and math.isfinite(hi_f) and hi_f > lo_f):
        raise ConfigError(f"bad window {text!r}, need finite LO < HI")
    return lo_f, hi_f


def _write_output(path: Path, text: str) -> None:
    _remove_old(path)
    path.write_text(text, encoding="utf-8")


def _require_blocks(scenario: Scenario, kinds, command: str) -> None:
    for kind in kinds:
        if getattr(scenario.observer, kind) is None:
            raise ConfigError(f"scenario lacks the '{kind}' parameter block "
                              f"required by {command}")


def _run_kind(scenario: Scenario, kind: str, seed: int | None, path: Path) -> MetricsReport:
    """Simulate `scenario` with observer `kind`, write the trace at `path` and
    return its metrics.  The trace is dropped on return, so a caller that
    runs several kinds holds one trace at a time."""
    trace = run_scenario(scenario, observer_kind=kind, seed=seed)
    trace.write_csv(path)
    eps = replace(scenario.observer, kind=kind).epsilons()
    return trace_metrics(trace, window=_default_window(trace), epsilons=eps)


def _cmd_run(args) -> int:
    scenario = read_scenario(args.scenario)
    kind = args.observer or scenario.observer.kind
    _require_blocks(scenario, (kind,), "run")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _run_kind(scenario, kind, args.seed, out / "trace.csv")
    _write_output(out / "metrics.json", json.dumps(asdict(report), indent=2) + "\n")
    print(f"wrote {out / 'trace.csv'} ({scenario.n_records()} records) "
          f"and {out / 'metrics.json'}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    scenario = read_scenario(args.scenario)
    _require_blocks(scenario, OBSERVER_KINDS, "compare")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = {kind: _run_kind(scenario, kind, args.seed, out / f"trace_{kind}.csv")
               for kind in OBSERVER_KINDS}
    # baseline first: FOSMO, STW, ASTW
    table = comparison_table({OBSERVER_KINDS[kind]: reports[kind] for kind in reversed(reports)})
    _write_output(out / "report.json",
                  json.dumps({k: asdict(r) for k, r in reports.items()}, indent=2) + "\n")
    _write_output(out / "report.txt", table)
    print(table)
    print(f"wrote traces and reports to {out}")
    return EXIT_OK


def _cmd_check_gains(args) -> int:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name} must be a finite number, got {value}")
    if args.delta1 < 0.0 or args.delta2 < 0.0:
        raise ConfigError("delta1 and delta2 must be >= 0")
    try:
        verdict = check_gain_condition(args.l1, args.lambda1, args.lambda2,
                                       args.delta1, args.delta2)
        check = lyapunov_matrices(args.l1, args.lambda1, args.lambda2,
                                  args.delta1, args.delta2, V0=args.v0)
    except ArithmeticError as exc:  # finite inputs whose powers or ratios overflow
        raise ConfigError(f"gain numbers out of range ({exc})") from exc
    except ValueError as exc:  # lambda1 or lambda2 <= 0, or V0 < 0
        raise ConfigError(str(exc)) from exc
    payload = {**verdict._asdict(), **asdict(check)}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity, which strict JSON lacks
        raise ConfigError(f"gain numbers out of range ({exc})") from exc
    print(text)
    print(f"gain condition: {'PASS' if verdict.ok else 'FAIL'} "
          f"(margin {verdict.margin:.6g})")
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.dwell < 1:
        raise ConfigError("dwell must be >= 1")
    window = None if args.window is None else _parse_window(args.window)
    eps = None
    if args.scenario is not None:  # read before the trace: a bad scenario fails fast
        eps = read_scenario(args.scenario).observer.epsilons()
    trace = SimTrace.read_csv(args.trace)
    if len(trace) < 2:
        raise ConfigError(f"{args.trace}: a report needs >= 2 samples, got {len(trace)}")
    if window is None:
        window = _default_window(trace)
    elif window[1] > trace["t"][-1]:
        raise ConfigError(f"{args.trace}: window [{window[0]}, {window[1]}] ends after "
                          f"the trace (last sample at {float(trace['t'][-1])} s)")
    try:
        report = trace_metrics(trace, window=window, epsilons=eps, dwell=args.dwell)
    except EmptyWindow as exc:
        raise ConfigError(f"{args.trace}: {exc}") from exc
    text = json.dumps(asdict(report), indent=2)
    if args.out:
        _write_output(Path(args.out), text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehsobs",
        description="EHSS simulation, sliding-mode observers and fault reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--observer", choices=OBSERVER_KINDS, default=None,
                       help="override the scenario's observer kind")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all observer variants")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("check-gains", help="evaluate the sliding-gain condition")
    p_chk.add_argument("--l1", type=float, required=True)
    p_chk.add_argument("--lambda1", type=float, required=True)
    p_chk.add_argument("--lambda2", type=float, required=True)
    p_chk.add_argument("--delta1", type=float, default=0.0)
    p_chk.add_argument("--delta2", type=float, default=0.0)
    p_chk.add_argument("--v0", type=float, default=None,
                       help="initial Lyapunov value for the reaching-time bound")
    p_chk.set_defaults(func=_cmd_check_gains)

    p_rep = sub.add_parser("report", help="metrics from an existing trace CSV")
    p_rep.add_argument("--trace", required=True)
    p_rep.add_argument("--window", default=None,
                       help="LO:HI window for the sup-norm (seconds); default 10:30, "
                            "clipped to a shorter trace")
    p_rep.add_argument("--scenario", default=None,
                       help="scenario JSON providing the dead-bands for reach times")
    p_rep.add_argument("--dwell", type=int, default=1)
    p_rep.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalAbort, DomainViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # reads raise ConfigError, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
