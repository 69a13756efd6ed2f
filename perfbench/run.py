"""roadcache benchmark: one workload, one batch job, in this fresh process.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 60 --trace 0

The workload seed becomes ``sim.seed``; the simulator sees only the
generated config.  The run drives the public entry points
(``harness.run_simulation`` / ``harness.run_sweep``) once, closed loop with
one client, then checks the outputs and fingerprints them.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every public function of the package is wrapped and the
per-layer metrics are reported instead.  The line before it
(``report {...}``) holds the environment, the fingerprint and any failed
check.  ``--seconds`` is recorded only: a run is one whole job.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()   # setup_s and wall_s count from here, imports included

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from layers import TRACE_SCHEMES, Recorder, Stack, install, layer_metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "hit_pct": "%", "bytes_per_visit": "B"}
# A lighter model for workloads that are about evaluation or sampling, not training.
LIGHT_MODEL = ("codec.epochs=20", "codec.finetune_epochs=2")


class SetupError(Exception):
    """The program or its inputs are missing: no result can be produced."""


@dataclass
class Job:
    kind: str                     # "simulation" or "sweep"
    cfg: object
    schemes: tuple = ()
    capacities: tuple = ()

    def expected_cells(self) -> int:
        return 1 if self.kind == "simulation" else len(self.schemes) * len(self.capacities)


@dataclass
class Workload:
    jobs: list
    headline_capacity: int        # capacity of the proposed cell behind hit_pct


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import roadcache
        from roadcache import harness
    except ImportError as exc:
        raise SetupError(f"cannot import roadcache from {src}: {exc}") from None
    if Path(roadcache.__file__).resolve().parent.parent != src.resolve():
        raise SetupError(f"roadcache resolved outside this checkout: {roadcache.__file__}")
    return harness


def desk_config(seed: int, *overrides: str):
    from roadcache.config import load_config
    from roadcache.errors import ConfigError
    path = ROOT / "configs" / "desk.cfg"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    try:
        return load_config(str(path), [f"sim.seed={seed}", *overrides])
    except ConfigError as exc:
        raise SetupError(str(exc)) from None


def smoke_config(seed: int, scheme: str = "proposed"):
    """The 5-vehicle config of harness.validate_suite, at the workload seed."""
    from roadcache.config import SimConfig
    cfg = SimConfig()
    cfg.sim.seed = seed
    cfg.sim.scheme = scheme
    cfg.sim.duration = 80.0
    cfg.data.path = "synth://users=40,contents=200,seed=3"
    cfg.data.num_vehicles = 5
    cfg.codec.latent_dim = 4
    cfg.codec.hidden = 16
    cfg.codec.epochs = 4
    cfg.codec.finetune_epochs = 2
    cfg.ldpm.steps = 10
    cfg.ldpm.hidden = 16
    cfg.ldpm.time_embed = 4
    cfg.ldpm.episodes = 2
    cfg.ldpm.sample_count = 4
    cfg.kc.sync_period = 40.0
    cfg.cache.capacity_n = 20
    cfg.cache.list_m = 20   # pinned like desk.cfg, so sweep cells replay the same lists
    return cfg


def build_workload(name: str, seed: int) -> Workload:
    from roadcache.config import SCHEMES
    if name == "desk":
        return Workload([Job("simulation", desk_config(seed))], 500)
    if name == "capacity-sweep":
        cfg = desk_config(seed, *LIGHT_MODEL, "ldpm.T=10", "ldpm.episodes=2", "ldpm.F=8",
                          "sim.duration=200")
        return Workload([Job("sweep", cfg, SCHEMES, tuple(range(150, 501, 50)))], 500)
    if name == "wide-sample":
        cfg = desk_config(seed, *LIGHT_MODEL, "ldpm.F=500", "sim.duration=45")
        return Workload([Job("simulation", cfg)], 500)
    if name == "smoke":
        # The last cell is invalid on purpose: it must count as failed, not abort.
        return Workload([Job("simulation", smoke_config(seed)),
                         Job("sweep", smoke_config(seed), SCHEMES, (10, 20)),
                         Job("simulation", smoke_config(seed, scheme="no-such-scheme"))], 20)
    raise SetupError(f"unknown workload {name!r}")


def run_job(harness, job: Job):
    if job.kind == "simulation":
        return harness.run_simulation(job.cfg)
    return harness.run_sweep(job.cfg, list(job.schemes), list(job.capacities),
                             [job.cfg.mobility.mu], [job.cfg.sim.seed])


# ---------------------------------------------------------------------------
# output checks and fingerprint


_MB = float(2**20)   # the report's megabyte


@dataclass
class Cell:
    """One evaluation cell, as the public report row and its stack give it."""

    job: int
    row: object                  # roadcache.report.ReportRow
    requests: int | None         # replayed requests, from the cell's motion env
    stack: Stack | None          # protocol phase the cell replays (trace schemes only)

    @property
    def key(self) -> tuple:
        return self.job, int(self.row.seed), float(self.row.speed)

    @property
    def hits(self) -> int | None:
        """Exact: hit_pct has 4 decimals, so it fixes hits for fewer than 10**6 requests."""
        if self.requests is None:
            return None
        return round(self.row.hit_pct * self.requests / 100.0)


def ledger_bytes(trace) -> tuple[dict, int, int]:
    from roadcache.fed_distill import UPLINK_KINDS
    by_kind: dict[str, int] = {}
    up = down = 0
    for m in trace.messages:
        by_kind[m.kind] = by_kind.get(m.kind, 0) + m.nbytes
        if m.kind in UPLINK_KINDS:
            up += m.nbytes
        else:
            down += m.nbytes
    return by_kind, up, down


def build_cells(reports: dict, rec: Recorder) -> list[Cell]:
    cells = []
    for job, report in sorted(reports.items()):
        for row in report.rows:
            key = (job, int(row.seed), float(row.speed))
            motion = rec.motions.get(key)
            requests = len(motion.request_times) if motion is not None else None
            stack = rec.stacks.get(key) if row.scheme in TRACE_SCHEMES else None
            cells.append(Cell(job, row, requests, stack))
    return cells


def check_cells(cells: list[Cell], rec: Recorder) -> list[list[str]]:
    """Problems per cell; an empty list means the cell passed."""
    problems: list[list[str]] = [[] for _ in cells]
    for i, c in enumerate(cells):
        row = c.row
        if c.requests is None:
            problems[i].append("no motion env was recorded for this cell")
            continue
        pct = round(100.0 * c.hits / c.requests, 4) if c.requests else 0.0
        if pct != row.hit_pct:
            problems[i].append(f"hit_pct {row.hit_pct} is not hits/{c.requests} requests")
        counts = rec.counters.get((*c.key, row.scheme, int(row.capacity)))
        if counts is not None:
            hits, misses, up, down = counts
            if hits + misses != c.requests:
                problems[i].append(f"hits {hits} + misses {misses} != {c.requests} requests")
            if hits != c.hits:
                problems[i].append(f"counted hits {hits} != report row's {c.hits}")
        if row.scheme == "proposed" and c.stack is not None:
            _, up_l, down_l = ledger_bytes(c.stack.trace)
            if (round(up_l / _MB, 2), round(down_l / _MB, 2)) != (row.uplink_mb,
                                                                   row.downlink_mb):
                problems[i].append(f"ledger recount {up_l}+{down_l} B != report row "
                                   f"{row.uplink_mb}+{row.downlink_mb} MB")
            if counts is not None and (up_l, down_l) != (counts[2], counts[3]):
                problems[i].append(f"ledger recount {up_l}+{down_l} != byte counters "
                                   f"{counts[2]}+{counts[3]}")

    curves: dict[tuple, list] = {}
    for i, c in enumerate(cells):
        if c.requests is not None:
            curves.setdefault((*c.key, c.row.scheme), []).append((c.row.capacity, i))
    for curve in curves.values():
        curve.sort()
        for (n0, i0), (n1, i1) in zip(curve, curve[1:]):
            if cells[i1].hits < cells[i0].hits:
                problems[i1].append(f"hits fall from N={n0} to N={n1}")

    for st in rec.stacks.values():
        t = st.trace
        stack_problems = []
        if t.completed_visits + t.aborted_visits != len(t.entries):
            stack_problems.append(f"completed {t.completed_visits} + aborted "
                                  f"{t.aborted_visits} != {len(t.entries)} entries")
        if not all(math.isfinite(x) for x in t.losses):
            stack_problems.append("a visit loss is not finite")
        for i, c in enumerate(cells):
            if c.stack is st:
                problems[i].extend(stack_problems)
    return problems


def count_failures(jobs: list[Job], cells: list[Cell], problems: list[list[str]]):
    """(attempted, failed) cells: a job that raised has no report, so all its cells fail."""
    attempted = failed = 0
    for index, job in enumerate(jobs):
        expected = job.expected_cells()
        passed = sum(1 for c, p in zip(cells, problems) if c.job == index and not p)
        attempted += expected
        failed += expected - min(passed, expected)
    return attempted, failed


def fingerprint(cells: list[Cell], rec: Recorder) -> dict:
    rows = sorted([c.row.seed, c.row.speed, c.row.scheme, c.row.capacity, c.hits,
                   None if c.requests is None else c.requests - c.hits,
                   c.row.uplink_mb, c.row.downlink_mb] for c in cells)
    stacks = []
    for st in rec.stacks.values():
        by_kind, _, _ = ledger_bytes(st.trace)
        stacks.append({"seed": st.cfg.sim.seed, "speed": st.cfg.mobility.mu,
                       "ledger_bytes": dict(sorted(by_kind.items())),
                       "completed_visits": st.trace.completed_visits,
                       "aborted_visits": st.trace.aborted_visits})
    return {"cells": rows, "stacks": sorted(stacks, key=lambda s: (s["seed"], s["speed"]))}


def behaviour(workload: str, seed: int, fp: dict) -> str:
    """'unchanged' / 'changed' against the recorded baseline, if one exists."""
    try:
        recorded = json.loads(BASELINE.read_text())["workloads"][workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return "no baseline for this seed"
    return "unchanged" if recorded["fingerprint"] == fp else "behaviour changed"


def headline(cells: list[Cell], capacity: int) -> tuple[float | None, float | None]:
    """hit_pct and bytes_per_visit of the first proposed cell at the headline capacity."""
    for c in cells:
        if c.row.scheme == "proposed" and c.row.capacity == capacity and c.stack is not None:
            hit = 100.0 * c.hits / c.requests if c.requests else None
            _, up, down = ledger_bytes(c.stack.trace)
            visits = c.stack.trace.completed_visits
            return hit, (up + down) / visits if visits else None
    return None, None


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = ap.parse_args(argv)

    try:
        harness = import_program()
        workload = build_workload(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer(timed=bool(args.trace))
    rec = Recorder()
    install(tracer, rec)
    reports, crashed = {}, {}
    for index, job in enumerate(workload.jobs):
        rec.job = index
        try:
            reports[index] = run_job(harness, job)
        except Exception as exc:  # a failing cell is counted, not fatal
            crashed[index] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    wall_s = time.perf_counter() - T0
    tracer.uninstall()

    check_error = None
    try:
        cells = build_cells(reports, rec)
        problems = check_cells(cells, rec)
        hit_pct, bytes_per_visit = headline(cells, workload.headline_capacity)
        fp = fingerprint(cells, rec)
    except Exception as exc:  # outputs the checks cannot read fail every cell
        check_error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        cells, problems, hit_pct, bytes_per_visit, fp = [], [], None, None, None
    attempted, failed = count_failures(workload.jobs, cells, problems)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = rec.setup_end - T0 if rec.setup_end is not None else None
    e2e = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
           "hit_pct": hit_pct, "bytes_per_visit": bytes_per_visit}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed),
        "error_rate": failed / attempted if attempted else 0.0,
        "crashed_jobs": crashed,
        "check_error": check_error,
        "failed_checks": {f"{c.row.scheme}@{c.row.capacity}": p
                          for c, p in zip(cells, problems) if p},
        "counter_checked_cells": sum(
            (*c.key, c.row.scheme, int(c.row.capacity)) in rec.counters for c in cells),
        "behaviour": behaviour(args.workload, args.seed, fp) if fp else "not fingerprinted",
        "fingerprint_sha256": (hashlib.sha256(json.dumps(fp, sort_keys=True).encode())
                               .hexdigest() if fp else None),
        "fingerprint": fp,
        "end_to_end": e2e,
        "absent_targets": tracer.absent,
        "observer_errors": tracer.observer_errors,
    }
    if args.trace:
        metrics = layer_metrics(rec, tracer)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()
                   if v is not None}
    report["metrics"] = metrics
    print("report " + json.dumps(report, sort_keys=True))
    complete = bool(args.trace) or all(v is not None for v in e2e.values())
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
