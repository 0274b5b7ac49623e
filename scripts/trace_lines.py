#!/usr/bin/env python3
"""The lines of the package that only unit tests execute, found by a line trace.

Two sets of runs are traced, each in a process of its own, by a stdlib
``sys.settrace``/``threading.settrace`` collector that records line events in
the frames of ``src/affinebsde`` only:

system  the CLI on every shipped configuration in both formats, ``simulate``
        on the shipped Heston and BNS models, the benchmark's generated
        riccati-solve configurations at seeds 0 and 1 under every method,
        ``scripts/convergence_study.py`` at a small size and
        ``tests/test_acceptance.py``;
unit    the tests under ``tests/`` except the acceptance module.

The report lists, per function, the executed lines that the unit set reaches
and the system set does not, leaving out ``raise`` statements (an error branch
stays whatever reaches it), then their total.  A test that fails under the
trace (the acceptance module asserts wall-time budgets) is reported on stderr;
the lines it ran still count.  Run from anywhere:

    python scripts/trace_lines.py
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affinebsde"
CONFIGS = ROOT / "configs"
SHIPPED = {
    "bns_exp_verify_martingale.json": "verify",
    "heston_exp_swap_price.json": "price",
    "heston_numeraire_price.json": "price",
    "heston_power_portfolio.json": "portfolio",
    "heston_power_verify_drift_match.json": "verify",
    "heston_verify_transform.json": "verify",
    "riccati_degenerate_1d.json": "riccati-solve",
}
SIMULATED = ("heston_power_portfolio.json", "bns_exp_verify_martingale.json")
GENERATED_SEEDS = (0, 1)
GENERATED_STEPS = 500  # the benchmark's full size


def trace(run) -> dict:
    """{module file name: sorted line numbers} that ``run()`` executes in the package."""
    hits = defaultdict(set)
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return local if inside[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {Path(name).name: sorted(lines) for name, lines in hits.items()}


def _pytest(*args) -> None:
    import pytest

    rc = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    if rc != 0:
        print(f"pytest {' '.join(args)} exited {rc} under the trace", file=sys.stderr)


def run_system() -> None:
    from affinebsde import cli

    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)

    with tempfile.TemporaryDirectory() as tmp:
        def cli_run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([*argv, "--out", os.path.join(tmp, "out")])
            if rc != 0:
                raise SystemExit(f"affinebsde {' '.join(argv)} exited {rc}")

        for name, command in SHIPPED.items():
            for fmt in ("csv", "json"):
                cli_run(command, "--config", str(CONFIGS / name), "--format", fmt)
        for name in SIMULATED:
            cli_run("simulate", "--config", str(CONFIGS / name))
        for seed in GENERATED_SEEDS:
            for tag, (cfg, methods) in workloads.generated_configs(seed, GENERATED_STEPS).items():
                for method in methods:
                    path = os.path.join(tmp, f"{tag}-{method}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(dict(cfg, solver=dict(cfg["solver"], method=method)), fh)
                    cli_run("riccati-solve", "--config", path)
    sys.argv = ["convergence_study.py", "--paths", "2000", "--levels", "10", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "scripts" / "convergence_study.py"), run_name="__main__")
    _pytest("tests/test_acceptance.py")


def run_unit() -> None:
    _pytest("tests", "--ignore=tests/test_acceptance.py")


RUNS = {"system": run_system, "unit": run_unit}


def _owners_and_raises(path: Path):
    """{line: qualified name of the innermost function holding it} and the lines of raise statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners, raises = {}, set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    owners.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
                name += "."
            elif isinstance(child, ast.Raise):
                raises.update(range(child.lineno, child.end_lineno + 1))
            visit(child, name)

    visit(tree, "")
    return owners, raises


def _ranges(lines) -> str:
    out, start = [], lines[0]
    for prev, cur in zip(lines, lines[1:] + [None]):
        if cur != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = cur
    return ", ".join(out)


def report(system: dict, unit: dict) -> int:
    total = 0
    for fname in sorted(unit):
        owners, raises = _owners_and_raises(PACKAGE / fname)
        reached = set(system.get(fname, ()))
        by_function = defaultdict(list)
        for line in unit[fname]:
            if line not in reached and line not in raises:
                by_function[owners.get(line, "<module>")].append(line)
        for function, lines in sorted(by_function.items(), key=lambda item: item[1][0]):
            print(f"{fname}:{function}: {len(lines)} ({_ranges(lines)})")
            total += len(lines)
    print(f"total: {total} lines that only unit tests execute")
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--collect", choices=sorted(RUNS), help=argparse.SUPPRESS)
    ap.add_argument("--to", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.collect:
        Path(args.to).write_text(json.dumps(trace(RUNS[args.collect])), encoding="utf-8")
        return
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    sets = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            path = os.path.join(tmp, f"{name}.json")
            subprocess.run([sys.executable, __file__, "--collect", name, "--to", path], cwd=ROOT, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            sets[name] = json.loads(Path(path).read_text(encoding="utf-8"))
    report(sets["system"], sets["unit"])


if __name__ == "__main__":
    main()
