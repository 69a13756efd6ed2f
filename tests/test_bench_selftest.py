"""The benchmark's own self-test passes against the package as it stands.

``perfbench/selftest.py`` runs the 5-vehicle smoke workload untraced and
traced and checks that every metric of ``BENCHMARK.json`` comes out, that
its output checks fire on tampered cells, and that tracing leaves the
result fingerprint alone.  It takes a few seconds, so it runs here as is,
in a subprocess that writes no bytecode under ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "perfbench selftest: ok" in proc.stdout
