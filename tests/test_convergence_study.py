"""Smoke test of scripts/convergence_study.py, run as a script."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "convergence_study.py")


def run_study(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True, env=env, timeout=120)


def test_prints_both_tables():
    proc = run_study("--paths", "64", "--levels", "5", "10", "20")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "Euler weak error" in out and "RK4 order" in out
    for s in (5, 10, 20):
        assert f"steps {s:>5}: mc" in out
    assert out.count("bias gap") == 2
    assert out.count(": err ") == 4


def test_bad_levels_exit_2_without_traceback():
    proc = run_study("--paths", "64", "--levels", "0", "10")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].endswith("step counts must be distinct and positive, got [0, 10]")
