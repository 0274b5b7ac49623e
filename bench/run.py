"""Benchmark of affinebsde: Monte Carlo audit throughput and Riccati/CLI latency.

Run from the root of a checkout:

    python3 bench/run.py --workload heston-audit --seed 0 --trace 0

One process, one closed-loop client at threads=1: each operation starts after
the previous one has finished and its output has been checked.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, with every time scaled to a
nominal host speed by the reference quanta of speed.py; ``--trace 1`` wraps the
public functions of the package (see tracing.py) and reports the per-layer
metrics instead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, per-operation values, output fingerprint) is written under
``bench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS threads must be fixed before numpy is imported (threadpoolctl is not used).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
THREADS = 1

# The layers: span names whose self time excludes nested layers (see
# tracing.layer_table) and counts as accounted in trace.unaccounted_frac.
LAYERS = (
    "symcone.project_and_sqrt_psd_batch", "symcone.mat_exp", "affine_model.solve_transform",
    "riccati.solve_rk.rk4", "riccati.solve_rk.rk45", "riccati.solve_block_exp", "riccati.varpi_eval",
    "riccati.theta_eval", "riccati.validate_assumptions", "bsde.drift_match_stats",
    "simulator.heston_functionals", "simulator.bns_functionals", "simulator.wishart_weak_errors",
    "simulator._proj_sqrt_components_2x2", "simulator.simulate_wishart",
    "portfolio.UtilityPreset.audit_strategies", "portfolio.heston_power_solve",
    "portfolio.heston_exp_solve", "portfolio.bns_power_solve", "portfolio.bns_exp_solve",
    "portfolio.heston_power_numeraire_value", "portfolio.linear_backward_closed_form",
    "riccati.RiccatiSolution.to_csv", "cli.cmd_riccati_solve", "cli.cmd_portfolio", "cli.cmd_price", "cli.cmd_verify", "cli.cmd_simulate",
    "cli.parse_model", "cli.write_json", "cli.write_csv",
)
CLI_COMMANDS = {"riccati-solve": "cli.cmd_riccati_solve", "portfolio": "cli.cmd_portfolio",
                "price": "cli.cmd_price", "verify": "cli.cmd_verify", "simulate": "cli.cmd_simulate"}


def parse_args(argv, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed; 0 gives the acceptance seeds")
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return ap.parse_args(argv)


def git_commit(root: str):
    """Commit of the checkout, or None outside a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    import affinebsde
    from affinebsde import simulator

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
        "package": os.path.relpath(affinebsde.__file__, ROOT),
        "seed": args.seed,
        "stream_block": simulator.STREAM_BLOCK,
        "threads": THREADS,
        "sizes": "smoke" if args.smoke else "full",
    }


# -- timed loop --------------------------------------------------------------------------


class Runner:
    """Closed loop over rounds of a workload's operations; checks every output."""

    def __init__(self, wl):
        self.wl = wl
        self.records = []  # per operation: name, round, latency_s, path_steps, ok, failures
        self.first = {}  # op name -> (digest, values) of the first round
        self.failures = []

    def rounds(self, seconds: float, label: str) -> list[float]:
        """Run the whole number of rounds that lasts closest to ``seconds`` (at least one).

        A workload may ask for more timed rounds (``min_rounds``).  Returns each
        round's timed seconds.  Stopping at a round boundary keeps every
        operation type equally represented, which keeps the median and the
        tail percentile on the same operation types from run to run.
        """
        times = []
        begin = time.perf_counter()
        min_rounds = getattr(self.wl, "min_rounds", 1) if label == "timed" else 1
        while len(times) < min_rounds or time.perf_counter() - begin < seconds - 0.5 * statistics.mean(times):
            spent = 0.0
            for op in self.wl.round():
                t0 = time.perf_counter()
                raw = op.run()
                t1 = time.perf_counter()
                spent += t1 - t0
                chk = op.check(raw)
                failures = list(chk.failures)
                if op.name not in self.first:
                    self.first[op.name] = (chk.digest, chk.values)
                elif chk.digest != self.first[op.name][0]:
                    failures.append("output differs from the first round (criterion 10)")
                self.records.append({"op": op.name, "phase": label, "t0": t0, "t1": t1,
                                     "latency_s": t1 - t0, "path_steps": op.path_steps, "ok": not failures,
                                     "failures": failures, "values": chk.values})
                self.failures += [f"{op.name}: {f}" for f in failures]
            times.append(spent)
        return times

    def fingerprint(self, setup_digest: bytes) -> str:
        h = hashlib.sha256(setup_digest)
        for name in sorted(self.first):
            h.update(name.encode())
            h.update(self.first[name][0])
        return h.hexdigest()


def tail_latency(lats: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    xs = sorted(lats)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(records, setup_s: float, key: str) -> tuple[dict, dict]:
    """The end-to-end metrics from each record's ``key`` latency."""
    lats = [r[key] for r in records]
    timed = sum(lats)
    tail, pct, beyond = tail_latency(lats)
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r[key])
    metrics = {
        "setup_s": setup_s,
        "path_steps_per_s": sum(r["path_steps"] for r in records) / timed,
        "ops_per_s": len(records) / timed,
        "op_p50_ms": 1e3 * statistics.median(statistics.mean(v) for v in by_op.values()),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"timed_s": timed, "samples": len(lats), "tail_percentile": pct, "tail_beyond": beyond}
    return metrics, notes


# -- per-layer metrics from spans ----------------------------------------------------------


def layer_metrics(setup_table, round_table, n_rounds, wl, runner, extra) -> dict:
    """One set-up plus the mean traced round, per layer."""

    def per(name, key):
        return (setup_table.get(name, {}).get(key, 0)
                + round_table.get(name, {}).get(key, 0) / n_rounds)

    def rnd(name, key):
        return round_table.get(name, {}).get(key, 0) / n_rounds

    m = {}
    for key in ("calls", "matrices", "busy_s"):
        m[f"symcone.project_and_sqrt_psd_batch.{key}"] = per("symcone.project_and_sqrt_psd_batch", key)
    for key in ("calls", "busy_s"):
        m[f"symcone.mat_exp.{key}"] = per("symcone.mat_exp", key)
    m["affine_model.solve_transform.busy_s"] = per("affine_model.solve_transform", "busy_s")
    for meth in ("rk4", "rk45"):
        for key in ("calls", "busy_s"):
            m[f"riccati.solve_rk.{meth}.{key}"] = per(f"riccati.solve_rk.{meth}", key)
    m["riccati.solve_rk.rk45.knots"] = per("riccati.solve_rk.rk45", "knots")
    for key in ("calls", "busy_s"):
        m[f"riccati.solve_block_exp.{key}"] = per("riccati.solve_block_exp", key)
    m["riccati.varpi_eval.calls"] = per("riccati.varpi_eval", "calls")
    m["riccati.theta_eval.calls"] = per("riccati.theta_eval", "calls")
    m["riccati.validate_assumptions.busy_s"] = per("riccati.validate_assumptions", "busy_s")
    acc = wl.accuracy()
    m["riccati.route_gap_max"] = acc["route_gap_max"]
    for key in ("calls", "busy_s"):
        m[f"bsde.drift_match_stats.{key}"] = per("bsde.drift_match_stats", key)
    m["bsde.drift_match.max_rel_residual"] = acc["drift_match_max_rel"]
    for fn in ("heston_functionals", "bns_functionals", "wishart_weak_errors"):
        for key in ("busy_s", "self_s"):
            m[f"simulator.{fn}.{key}"] = per(f"simulator.{fn}", key)
    for key in ("calls", "busy_s"):
        m[f"simulator.proj_sqrt_components_2x2.{key}"] = per("simulator._proj_sqrt_components_2x2", key)
    m["simulator.simulate_wishart.busy_s"] = per("simulator.simulate_wishart", "busy_s")
    path_steps = sum(rnd(f"simulator.{fn}", "path_steps") for fn in
                     ("heston_functionals", "bns_functionals", "wishart_weak_errors"))
    evolved = sum(rnd(f"simulator.{fn}", "evolved_path_steps") for fn in
                  ("heston_functionals", "bns_functionals", "wishart_weak_errors"))
    m["simulator.path_steps"] = path_steps
    m["simulator.evolved_path_steps"] = evolved
    m["simulator.useful_path_frac"] = path_steps / evolved if evolved else 0.0
    hf = round_table.get("simulator.heston_functionals", {})
    m["simulator.projection_fraction"] = hf.get("projection_fraction", 0.0) / hf["calls"] if hf else 0.0
    m["simulator.rng_floor_s"] = extra["rng_floor_s"]
    m["simulator.thread_speedup_t2"] = extra["thread_speedup_t2"]
    for key in ("busy_s", "self_s"):
        m[f"portfolio.audit_strategies.{key}"] = per("portfolio.UtilityPreset.audit_strategies", key)
    for fn in ("heston_power_solve", "heston_exp_solve", "bns_power_solve", "bns_exp_solve",
               "heston_power_numeraire_value"):
        m[f"portfolio.{fn}.busy_s"] = per(f"portfolio.{fn}", "busy_s")
    for key in ("calls", "busy_s"):
        m[f"portfolio.linear_backward_closed_form.{key}"] = per("portfolio.linear_backward_closed_form", key)
    for cmd, span in CLI_COMMANDS.items():
        for key in ("calls", "busy_s"):
            m[f"cli.{cmd}.{key}"] = per(span, key)
    for fn in ("parse_model", "write_json", "write_csv"):
        m[f"cli.{fn}.busy_s"] = per(f"cli.{fn}", "busy_s")
    traced = [r for r in runner.records if r["phase"] == "traced"]
    m["cli.bytes_written"] = sum(r["values"].get("bytes_written", 0) for r in traced) / n_rounds
    m["cli.exit_nonzero"] = sum(r["values"].get("exit_code", 0) != 0 for r in traced) / n_rounds
    m["trace.overhead_frac"] = extra["overhead_frac"]
    timed = sum(r["latency_s"] for r in traced)
    accounted = sum(round_table.get(name, {}).get("self_s", 0.0) for name in LAYERS)
    m["trace.unaccounted_frac"] = 1.0 - accounted / timed
    m["failed_op_frac"] = sum(not r["ok"] for r in runner.records) / len(runner.records)
    return m


# A fresh interpreter imports the package and builds one workload's inputs; it
# prints the wall and the scaled time of that (see speed.py) and the digest of
# the inputs.  numpy is imported before the clock starts, because the reference
# quantum needs it; quanta are sampled back to back just before and after the
# set-up and every SETUP_PERIOD_S seconds during it.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
sampler = speed.SpeedSampler(float(sys.argv[7]))
sampler.burst(0.15)
with sampler:
    t0 = time.perf_counter()
    import affinebsde, workloads
    wl = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), getattr(workloads, sys.argv[5]), sys.argv[6])
    wl.setup()
    t1 = time.perf_counter()
sampler.burst(0.15)
print(*sampler.scaled(t0, t1), wl.setup_digest().hex())
getattr(wl, "cleanup", lambda: None)()
"""
SETUP_PERIOD_S = 0.05


def cold_setup(args, size_name: str) -> tuple[float, float, str]:
    """Import plus input build in a fresh interpreter: wall time, scaled time, inputs' digest."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, HERE, args.workload, str(args.seed),
                          size_name, ROOT, str(SETUP_PERIOD_S)],
                         capture_output=True, text=True, check=True, timeout=150)
    wall, scaled, digest = out.stdout.split()[-3:]
    return float(wall), float(scaled), digest


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- main --------------------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "affinebsde", "__init__.py")) or \
            not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"no affinebsde sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    import affinebsde  # noqa: F401  (imports all seven modules)

    import speed
    import tracing
    import workloads

    import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(affinebsde.__file__)) != os.path.join(SRC, "affinebsde"):
        print(f"affinebsde was imported from {affinebsde.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    size_name = "SMOKE" if args.smoke else "FULL"
    wl = workloads.WORKLOADS[args.workload](args.seed, getattr(workloads, size_name), ROOT)
    runner = Runner(wl)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is None:
            # each set-up repeat imports the package and builds the inputs in a fresh interpreter
            setup_wall, setup_scaled, digests = [], [], set()
            for _ in range(SETUP_REPEATS):
                t, scaled, digest = cold_setup(args, size_name)
                setup_wall.append(t)
                setup_scaled.append(scaled)
                digests.add(digest)
            wl.setup()
            digests.add(wl.setup_digest().hex())
            if len(digests) != 1:
                runner.failures.append("set-up: repeated set-ups gave different inputs")
            sampler = speed.SpeedSampler()
            with sampler:
                runner.rounds(args.seconds, "timed")
            for r in runner.records:
                r["wall_s"], r["scaled_s"] = sampler.scaled(r["t0"], r["t1"])
        else:
            tracer.install()
            wl.setup()
            n_setup = len(tracer.spans)
            tracer.uninstall()
            untraced = runner.rounds(args.seconds / 2, "untraced")
            tracer.install()
            traced = runner.rounds(args.seconds / 2, "traced")
            tracer.uninstall()
            extra = {"overhead_frac": statistics.mean(traced) / statistics.mean(untraced) - 1.0,
                     "rng_floor_s": median_time(wl.rng_replay, 1) if hasattr(wl, "rng_replay") else 0.0,
                     "thread_speedup_t2": 0.0}
            if hasattr(wl, "thread_sweep_op"):
                extra["thread_speedup_t2"] = (median_time(wl.thread_sweep_op(1), 1)
                                              / median_time(wl.thread_sweep_op(2), 1))
            setup_table = tracing.layer_table(tracer.spans[:n_setup], LAYERS)
            round_table = tracing.layer_table(tracer.spans[n_setup:], LAYERS)
        fingerprint = runner.fingerprint(wl.setup_digest())
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()

    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    if tracer is None:
        values, notes = end_to_end(runner.records, statistics.median(setup_scaled), "scaled_s")
        wall, _ = end_to_end(runner.records, statistics.median(setup_wall), "wall_s")
        notes.update(import_s=import_s, setup_wall_s=setup_wall, setup_scaled_s=setup_scaled,
                     wall_metrics=wall,
                     nominal_quantum_s=speed.NOMINAL_QUANTUM_S,
                     typical_quantum_s=speed.typical([e - t for t, e in zip(sampler.timed, sampler.ends)]),
                     quanta_s=[[t, e] for t, e in zip(sampler.timed, sampler.ends)])
        wanted = spec["end_to_end"]
    else:
        values = layer_metrics(setup_table, round_table, len(traced), wl, runner, extra)
        notes = {"traced_round_s": traced, "untraced_round_s": untraced, "spans": len(tracer.spans),
                 "setup_layers": setup_table, "round_layers": round_table}
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not runner.failures

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args), "metrics": metrics, "notes": notes,
        "fingerprint": fingerprint, "failures": runner.failures,
        "operations": runner.records,
        "first_round_values": {name: v for name, (_, v) in runner.first.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"{tag}.spans.jsonl"))

    for f in runner.failures:
        print(f"FAILED {f}")
    for m in wanted:
        v = values[m["name"]]
        print(f"{m['name']:<48} {v:>16.6g} {m['unit']:<6} ({m['better']} is better)")
    print(f"fingerprint {fingerprint}  ops {attempted} failed {failed}  record bench/out/{tag}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
