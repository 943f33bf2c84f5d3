import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_vs_linear_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_vs_linear.py"), "--probe-points", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "monotone decreasing: True" in proc.stdout
