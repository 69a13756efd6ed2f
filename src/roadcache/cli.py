"""Command-line front end.

Verbs: ``run`` evaluates one configuration, ``sweep`` expands a grid file
into a combined report, and ``report`` re-renders a saved report between
formats.  Exit codes: 0 on success, 2 for configuration or input
problems, 3 when a runtime invariant is violated.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import known_keys, load_config, read_assignments, SCHEMES
from .errors import ConfigError, DataFormatError, InvariantError, ProtocolError, TrainingError
from .harness import run_simulation, run_sweep
from .report import emit_report, parse_report


def _write_output(blob: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(blob.decode())
        if not blob.endswith(b"\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "wb") as fh:
            fh.write(blob)


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.set)
    report = run_simulation(cfg, trace_path=args.trace, cache_dump_path=args.cache_dump)
    _write_output(emit_report(report, args.format), args.out)
    return 0


# Most values one start:stop:step range may expand to.
MAX_RANGE_VALUES = 1000


def _expand_values(raw: str, cast):
    """Comma lists plus an inclusive ``start:stop:step`` range shorthand; ValueError if malformed."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("a range must be start:stop:step")
        start, stop, step = (cast(p.strip()) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("a range needs step > 0 and stop >= start")
        # Exact for ints; for floats within one of the loop's count, and NaN
        # for an infinite end, which fails the test below too.
        count = (stop - start) // step + 1
        if not count <= MAX_RANGE_VALUES:
            raise ValueError(f"a range may give at most {MAX_RANGE_VALUES} values")
        values = []
        v = start
        # The count also stops a step too small to move v.
        while v <= stop + (1e-9 if cast is float else 0) and len(values) <= count:
            values.append(cast(v))
            v += step
        return values
    return [cast(p.strip()) for p in raw.split(",") if p.strip()]


def _parse_grid(path: str):
    base_path = None
    overrides: list[str] = []
    axes: dict[str, list] = {}
    casts = {"capacities": int, "speeds": float, "seeds": int}
    for lineno, key, raw in read_assignments(path):
        if key == "config":
            base_path = raw if os.path.isabs(raw) else os.path.join(os.path.dirname(path) or ".", raw)
        elif key == "schemes":
            axes[key] = [s.strip() for s in raw.split(",") if s.strip()]
        elif key in casts:
            try:
                axes[key] = _expand_values(raw, casts[key])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} = {raw}: {exc}") from None
        elif "." in key:
            overrides.append(f"{key}={raw}")
        else:
            raise ConfigError(f"{path}:{lineno}: unknown grid key {key!r}")
    base = load_config(base_path, overrides)
    schemes = axes.get("schemes", [base.sim.scheme])
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r} in grid")
    capacities = axes.get("capacities", [base.cache.capacity_n])
    speeds = axes.get("speeds", [base.mobility.mu])
    seeds = axes.get("seeds", [base.sim.seed])
    if not (schemes and capacities and speeds and seeds):
        raise ConfigError("every grid axis needs at least one value")
    if min(capacities) < 1:
        raise ConfigError(f"grid capacities must be >= 1, got {min(capacities)}")
    return base, schemes, capacities, speeds, seeds


def _cmd_sweep(args) -> int:
    base, schemes, capacities, speeds, seeds = _parse_grid(args.grid)
    os.makedirs(args.out, exist_ok=True)

    def progress(text: str) -> None:
        print(text, file=sys.stderr)

    report = run_sweep(base, schemes, capacities, speeds, seeds, progress=progress)
    ext = "csv" if args.format == "csv" else "json"
    out_path = os.path.join(args.out, f"sweep.{ext}")
    with open(out_path, "wb") as fh:
        fh.write(emit_report(report, args.format))
    print(f"wrote {len(report.rows)} rows to {out_path}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.infile, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.infile}: {exc}") from exc
    in_fmt = "json" if blob.lstrip().startswith(b"{") else "csv"
    try:
        report = parse_report(blob, in_fmt)
    except DataFormatError as exc:
        raise DataFormatError(f"{args.infile}: {exc}") from None
    _write_output(emit_report(report, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadcache",
        description="Vehicular edge-caching simulator with knowledge-exchange prediction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="evaluate one configuration")
    run.add_argument("--config", default=None, help="flat key = value config file")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable); see --keys")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="export the message log (time src dst kind bytes per line)")
    run.add_argument("--cache-dump", default=None, metavar="PATH",
                     help="export cache refresh snapshots (time rsu content score)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="expand a grid file into one report")
    sweep.add_argument("--grid", required=True, help="grid file: config/schemes/capacities/speeds/seeds")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="re-render a saved report")
    rep.add_argument("--in", dest="infile", required=True, help="saved csv or json report")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--keys":
        for key in known_keys():
            print(key)
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, ProtocolError, TrainingError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
