"""Record perfbench/baseline.json: result fingerprints and metrics per workload and seed.

    python3 perfbench/record.py

Each (workload, seed) is run untraced and then traced, one process at a
time.  run.py compares every later run's fingerprint with the entry for
its workload and seed and reports "unchanged" or "behaviour changed".
Seed 0 is the baseline a change is developed against; seed 1 is held out
to confirm a claim on inputs the change was not tuned on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk", "capacity-sweep", "wide-sample")
SEEDS = (0, 1)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "40", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    report, result = json.loads(lines[-2].removeprefix("report ")), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {report['failed_checks']}")
    return report, result


def main() -> int:
    path = HERE / "baseline.json"
    baseline: dict = {"workloads": {}}
    for workload in WORKLOADS:
        for seed in SEEDS:
            report, result = run(workload, seed, 0)
            traced, layers = run(workload, seed, 1)
            if traced["fingerprint_sha256"] != report["fingerprint_sha256"]:
                raise SystemExit(f"{workload} seed {seed}: tracing changed the fingerprint")
            baseline["environment"] = report["environment"]
            baseline["workloads"].setdefault(workload, {})[str(seed)] = {
                "fingerprint_sha256": report["fingerprint_sha256"],
                "fingerprint": report["fingerprint"],
                "end_to_end": result["metrics"],
                "traced_wall_s": traced["end_to_end"]["wall_s"],
                "per_layer": layers["metrics"],
            }
            print(f"{workload} seed {seed}: recorded", flush=True)
            path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
