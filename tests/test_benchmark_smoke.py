"""The benchmark harness runs end to end in its tiny smoke mode."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_mode():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert any(line.startswith("smoke ok") for line in proc.stdout.splitlines()), proc.stdout
