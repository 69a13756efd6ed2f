"""Self-test of the benchmark on the 5-vehicle smoke workload; runs in seconds.

    python3 perfbench/selftest.py

Checks that
  * an untraced run emits every end-to-end metric of BENCHMARK.json, and a
    traced run every per-layer metric, each with its declared unit;
  * the smoke workload's deliberately invalid cell (unknown scheme, which
    raises ConfigError) is counted as failed without aborting the other cells;
  * each output check fires: a tampered cell or stack (hits off by one,
    hits falling with N, a report row that disagrees with the ledger,
    visits that do not add up, a non-finite loss) is flagged and counted
    as failed, and the untampered cells pass;
  * tracing leaves the result fingerprint unchanged, and the spans it
    writes nest inside their parents;
  * without the program (only BENCHMARK.json and perfbench/ present) the
    benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_CELLS = 1 + 6 * 2 + 1     # one simulation, a 6-scheme x 2-capacity sweep, one invalid cell


def run(root: Path, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


def check_spans(path: Path) -> None:
    spans = {}
    for line in path.read_text().splitlines():
        span_id, parent, name, start, end = json.loads(line)
        spans[span_id] = (parent, name, start, end)
    if not spans:
        raise AssertionError("the traced run recorded no spans")
    for span_id, (parent, name, start, end) in spans.items():
        if parent == -1:
            continue
        outer = spans.get(parent)
        if outer is None or not outer[2] <= start <= end <= outer[3]:
            raise AssertionError(f"span {span_id} ({name}) is not nested in its parent {parent}")


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    return report, json.loads(lines[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def check_tampering() -> None:
    """Every output check of run.py flags a cell tampered to break it, and only that cell."""
    sys.path.insert(0, str(HERE))
    import run
    from layers import Recorder, Stack

    run.import_program()
    from roadcache.caching import Metrics
    from roadcache.fed_distill import Message
    from roadcache.report import Report, ReportRow

    requests, capacities = 1000, (10, 20, 30)
    messages = [Message(0.0, "v0", "r0", "HI", 300_000), Message(1.0, "r0", "v0",
                                                                 "KNOWLEDGE_DOWN", 70_000)]
    cfg = SimpleNamespace(sim=SimpleNamespace(seed=0), mobility=SimpleNamespace(mu=25.0))
    job = run.Job("sweep", cfg, ("proposed", "random"), capacities)

    def recorder(hits_of):
        rec = Recorder()
        rec.motions[(0, 0, 25.0)] = SimpleNamespace(request_times=[0.0] * requests)
        rec.stacks[(0, 0, 25.0)] = Stack(cfg, SimpleNamespace(
            messages=messages, completed_visits=9, aborted_visits=1, entries=[None] * 10,
            losses=[0.5] * 9))
        rows = []
        for scheme in job.schemes:
            for n in capacities:
                hits = hits_of(scheme, n)
                m = Metrics(hits=hits, misses=requests - hits)
                if scheme == "proposed":
                    m.uplink_bytes, m.downlink_bytes = 300_000, 70_000
                rec.counters[(0, 0, 25.0, scheme, n)] = (hits, m.misses, m.uplink_bytes,
                                                         m.downlink_bytes)
                rows.append(ReportRow.build(scheme, n, 25.0, 0, m))
        return rec, {0: Report(rows)}

    def failed(rec, reports):
        cells = run.build_cells(reports, rec)
        problems = run.check_cells(cells, rec)
        attempted, n_failed = run.count_failures([job], cells, problems)
        assert attempted == len(capacities) * 2, attempted
        return n_failed, {(c.row.scheme, c.row.capacity) for c, p in zip(cells, problems) if p}

    def hits(scheme, n):
        return 100 + n * (3 if scheme == "proposed" else 2)

    rec, reports = recorder(hits)
    if failed(rec, reports) != (0, set()):
        raise AssertionError(f"untampered cells fail: {failed(rec, reports)}")

    def tampered(label, edit, want):
        t_rec, t_reports = copy.deepcopy((rec, reports))
        edit(t_rec, t_reports)
        got = failed(t_rec, t_reports)
        if got != (len(want), want):
            raise AssertionError(f"tampered {label}: want {want} flagged, got {got}")

    def extra_hit(r, _):
        h, m, up, down = r.counters[(0, 0, 25.0, "random", 20)]
        r.counters[(0, 0, 25.0, "random", 20)] = (h + 1, m, up, down)

    def falling(r, reps):
        # counters and row agree, so only the curve check can flag it
        r.counters[(0, 0, 25.0, "proposed", 20)] = (50, requests - 50, 300_000, 70_000)
        reps[0].rows[1] = ReportRow.build("proposed", 20, 25.0, 0,
                                          Metrics(hits=50, misses=requests - 50,
                                                  uplink_bytes=300_000, downlink_bytes=70_000))

    def row_bytes(_, reps):
        row = reps[0].rows[2]
        reps[0].rows[2] = ReportRow(**{**row.__dict__, "uplink_mb": row.uplink_mb + 0.01})

    proposed = {("proposed", n) for n in capacities}
    tampered("counters (hits + 1)", extra_hit, {("random", 20)})
    tampered("hits falling with N", falling, {("proposed", 20)})
    tampered("report row bytes", row_bytes, {("proposed", 30)})
    tampered("visit count", lambda r, _: setattr(r.stacks[(0, 0, 25.0)].trace,
                                                 "aborted_visits", 2), proposed)
    tampered("visit loss", lambda r, _: r.stacks[(0, 0, 25.0)].trace.losses.append(math.nan),
             proposed)


def main() -> int:
    check_tampering()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fingerprints = []
    with tempfile.TemporaryDirectory() as tmp:
        spans = Path(tmp) / "spans.jsonl"
        runs = [(0, spec["end_to_end"], parse(run(ROOT, 0))),
                (1, spec["per_layer"], parse(run(ROOT, 1, "--spans", str(spans))))]
        check_spans(spans)
    for trace, declared, (report, result) in runs:
        label = f"smoke --trace {trace}"
        check_metrics(result, declared, label)
        if (result["attempted"], result["failed"], result["correct"]) != (SMOKE_CELLS, 1, False):
            raise AssertionError(f"{label}: want {SMOKE_CELLS} attempted, 1 failed, got {result}")
        crashes = list(report["crashed_jobs"].values())
        if len(crashes) != 1 or not crashes[0].startswith("ConfigError"):
            raise AssertionError(f"{label}: unexpected crashes {report['crashed_jobs']}")
        if report["failed_checks"]:
            raise AssertionError(f"{label}: output checks failed {report['failed_checks']}")
        if abs(report["error_rate"] - 1 / SMOKE_CELLS) > 1e-12:
            raise AssertionError(f"{label}: error_rate {report['error_rate']}")
        fingerprints.append(report["fingerprint_sha256"])
    if fingerprints[0] != fingerprints[1]:
        raise AssertionError("tracing changed the result fingerprint")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError("benchmark without the program must fail without a result")

    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
