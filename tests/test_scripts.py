import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_audit_report_script_runs():
    proc = run_script("audit_report.py")
    assert proc.returncode == 0, proc.stderr
    assert "== paper-dims ==" in proc.stdout


def test_reference_run_script_writes_report(tmp_path):
    proc = run_script("reference_run.py", "--episodes", "2", "--eval-episodes", "1",
                      "--steps", "2", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert "success_rate" in report
    assert (tmp_path / "checkpoint.json").exists()
