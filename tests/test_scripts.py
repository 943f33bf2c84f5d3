import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_vs_linear.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_oracle_vs_linear_script_runs():
    proc = run_script("--probe-points", "3")
    assert proc.returncode == 0, proc.stderr
    assert "monotone decreasing: True" in proc.stdout


def test_oracle_vs_linear_script_refuses_a_negative_probe_count():
    proc = run_script("--probe-points", "-3")
    assert proc.returncode == 2
    assert "--probe-points" in proc.stderr and "Traceback" not in proc.stderr
