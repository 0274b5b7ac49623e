"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo work (criteria 5 and 6 share their simulations) runs in
module-scoped fixtures; stated runtime budgets are asserted on the measured
wall time of the gated computation.
"""

import json
import time

import numpy as np
import pytest

from affinebsde.affine_model import AffineParams, HFormDrift, solve_transform
from affinebsde.bsde import classify_ratio, drift_match_stats, orient_ratio
from affinebsde.cli import main as cli_main
from affinebsde.portfolio import (
    EndowmentSpec,
    bns_exp_solve,
    heston1d_exp_closed_form,
    heston1d_exp_riccati_inputs,
    heston_exp_solve,
    heston_power_indifference_value,
    heston_power_solve,
    preset_bns_exp,
    preset_bns_power,
    preset_heston_exp,
    preset_heston_power,
    quasi_monotone_jump_instance,
    _heston_model_d2,
)
from affinebsde.riccati import GeneratorCoeffs, quasi_monotone_probe, solve_block_exp, solve_rk
from affinebsde.simulator import wishart_weak_errors
from affinebsde.symcone import symmetrize

AUDIT_PATHS = 100_000
AUDIT_STEPS = 500
AUDIT_SEEDS = {"heston-power-d2": 101, "heston-exp-d2": 202, "bns-power-d2": 303, "bns-exp-d2": 404}


def _report(num, name, ok, detail=""):
    print(f"\nacceptance {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def presets():
    return {
        "heston-power-d2": preset_heston_power(steps=2000),
        "heston-exp-d2": preset_heston_exp(steps=2000),
        "bns-power-d2": preset_bns_power(steps=2000),
        "bns-exp-d2": preset_bns_exp(steps=2000),
    }


@pytest.fixture(scope="module")
def audit_data(presets):
    """Simulated L_T statistics for the optimal and 8 perturbed strategies."""
    out = {}
    t0 = time.perf_counter()
    for name, preset in presets.items():
        strategies = [preset.opt_strategy_grid(AUDIT_STEPS)]
        strategies += preset.perturbed_strategies(AUDIT_STEPS)
        means, ses, l0 = preset.audit_strategies(
            strategies, n_paths=AUDIT_PATHS, seed=AUDIT_SEEDS[name], n_steps=AUDIT_STEPS)
        out[name] = (np.asarray(means), np.asarray(ses), l0)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_golden_1d_closed_form():
    param_sets = [
        (0.8, -0.6, 0.9, -0.5, 1.3, 0.04),
        (1.0, 1.0, 1.0, 1.0, 1.0, 0.0),     # degenerate branch, Gamma(0) = 1/2
        (0.5, -0.3, 0.7, 0.3, 0.8, 0.1),
        (1.2, 0.2, 1.1, -0.9, 2.0, 0.02),
        (0.0, -0.5, 0.8, 0.4, 1.0, 0.05),
        (0.9, -1.2, 0.6, 0.0, 0.6, 0.03),
        (0.7, 0.5, 1.3, -0.2, 1.5, 0.0),
        (2.0, 2.0, 1.0, 1.0, 1.0, 0.1),     # degenerate branch again
        (0.4, -0.8, 0.5, -1.0, 0.9, 0.06),
        (1.5, -0.1, 1.0, 0.6, 1.1, 0.08),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    pinned = None
    for (eta, lam, sig, rho, gam, b) in param_sets:
        gold = heston1d_exp_closed_form(eta, lam, sig, rho, gam, b, 1.0)
        params, coeffs = heston1d_exp_riccati_inputs(eta, lam, sig, rho, gam)
        sol = solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 1.0, steps=2000)
        worst = max(worst, float(np.max(np.abs(sol.gammas[:, 0, 0] - gold.gamma(sol.grid)))))
        if (eta, lam, sig, rho, gam) == (1.0, 1.0, 1.0, 1.0, 1.0):
            pinned = sol.gammas[0, 0, 0]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and abs(pinned - 0.5) <= 1e-12 and elapsed < 1.0
    _report(1, "golden 1-d closed form", ok,
            f"max |dGamma| = {worst:.3e}, Gamma(0) = {pinned:.12f}, {elapsed:.3f} s")


def test_criterion_02_dual_route_riccati():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        g = rng.standard_normal((d, d))
        alpha = 0.3 * (g @ g.T) / d + 0.05 * np.eye(d)
        h = -0.5 * np.eye(d) + 0.1 * rng.standard_normal((d, d))
        params = AffineParams(alpha=alpha, b=(d + 0.5) * alpha, drift=HFormDrift(h))
        g2 = rng.standard_normal((d, d))
        c_zz = 0.3 * (g2 @ g2.T) / d + 0.1 * np.eye(d)
        g3 = rng.standard_normal((d, d))
        kw = dict(
            c_zz=c_zz,
            c_zsqrtx=0.2 * rng.standard_normal((d, d)),
            c_x=0.2 * symmetrize(g3 @ g3.T) / d,
            c_y=0.2 if trial % 3 == 0 else 0.0,
            c_t=0.1,
        )
        if trial % 4 == 0:
            kw["a"] = 0.2 * np.eye(d)
            kw["sigma"] = 0.3 * np.eye(d)
            kw["o1"] = 0.02 * np.eye(d)
            kw["o2"] = 0.03 * np.eye(d)
            kw["c_hzhz"] = 0.2 * np.eye(d)
        coeffs = GeneratorCoeffs.build(d, **kw)
        be = solve_block_exp(params, coeffs, 1.0, steps=500)
        rk = solve_rk(params, coeffs, np.zeros((d, d)), 0.0, 1.0, steps=500)
        worst = max(worst, float(np.max(np.abs(be.gammas - rk.gammas))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(2, "dual-route Riccati", ok, f"max entry gap = {worst:.3e}, {elapsed:.2f} s")


def test_criterion_03_drift_match_arbiter(presets):
    t0 = time.perf_counter()
    worst = {}
    for name, preset in presets.items():
        stats = drift_match_stats(preset.bsde_eval(), n_samples=50, seed=7)
        worst[name] = stats["max_rel_residual"]
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    _report(3, "drift-match residual", ok, f"{detail}; {elapsed:.2f} s")


def test_criterion_04_affine_transform_audit():
    t0 = time.perf_counter()
    model = _heston_model_d2()
    params, r0 = model.params, model.r0
    u = np.array([[0.8, 0.2], [0.2, 0.6]])
    exact = solve_transform(params, u, 1.0, steps=2000).laplace(r0)
    res = wishart_weak_errors(params, r0, u, 1.0, [250, 500, 1000], AUDIT_PATHS, 7, exact)
    elapsed = time.perf_counter() - t0

    gate = abs(res[500]["mean"] - exact) <= 3.0 * res[500]["stderr"]
    d1, d2 = res["differences"]
    bias_measurable = (d1["mean"] > 3.0 * d1["stderr"] and d2["mean"] > 3.0 * d2["stderr"])
    ratio = d1["mean"] / d2["mean"]
    linear = 1.3 <= ratio <= 3.2  # pure O(h) bias gives 2
    ok = gate and bias_measurable and linear and elapsed < 60.0
    _report(4, "affine transform MC audit", ok,
            f"|mc-exact| = {abs(res[500]['mean'] - exact):.2e} (3se = {3 * res[500]['stderr']:.2e}), "
            f"bias ratio = {ratio:.2f}, {elapsed:.1f} s")


def test_criterion_05_martingale_audits(presets, audit_data):
    lines = []
    ok = True
    for name in presets:
        means, ses, l0 = audit_data[name]
        ratio, se = orient_ratio(float(means[0]), float(ses[0]), l0)
        verdict = classify_ratio(ratio, se)
        ok = ok and verdict == "MARTINGALE"
        lines.append(f"{name}: opt ratio {ratio:.4f} (se {se:.4f}) {verdict}")
        for k in range(1, len(means)):
            r_k, se_k = orient_ratio(float(means[k]), float(ses[k]), l0)
            if r_k > 1.0 + 3.0 * se_k:
                ok = False
                lines.append(f"{name}: perturbation {k} violates the supermartingale bound")
    elapsed = audit_data["elapsed"]
    ok = ok and elapsed < 300.0
    _report(5, "martingale/supermartingale audit", ok,
            "; ".join(lines) + f"; sims {elapsed:.0f} s")


def test_criterion_06_optimality_probe(presets, audit_data):
    lines = []
    ok = True
    for name, preset in presets.items():
        means, ses, l0 = audit_data[name]
        gap = abs(float(means[0]) - l0) / (3.0 * float(ses[0]))
        ok = ok and gap <= 1.0
        lines.append(f"{name}: |EU - V| = {gap:.2f} x 3se")
        beats = sum(float(means[k]) > l0 + 3.0 * float(ses[k]) for k in range(1, len(means)))
        if beats:
            ok = False
            lines.append(f"{name}: {beats} perturbed strategies beat the closed form")
    _report(6, "optimality probe", ok, "; ".join(lines))


def test_criterion_07_indifference_plug_back():
    rng = np.random.default_rng(5)
    model = _heston_model_d2()
    gamma = 0.35
    checks = []

    res_exp = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.2, steps=1500)
    base_exp = heston_exp_solve(model, 0.7, 1.0, steps=1500)
    worst = max(
        abs(res_exp.value_at(x - res_exp.price) - base_exp.value_at(x)) / abs(base_exp.value_at(x))
        for x in rng.uniform(0.5, 4.0, size=5)
    )
    checks.append(("heston-exp swap", worst))

    bns = preset_bns_exp(steps=1500)
    bns_base = bns_exp_solve(bns.model, bns.gamma, 1.0, steps=1500)
    worst = max(
        abs(bns.solve.value_at(x - bns.solve.price) - bns_base.value_at(x)) / abs(bns_base.value_at(x))
        for x in rng.uniform(0.5, 4.0, size=5)
    )
    checks.append(("bns-exp swap", worst))

    floating = EndowmentSpec(a=-np.eye(2), sigma=np.zeros((2, 2)),
                             o1=0.02 * np.eye(2), o2=0.04 * np.eye(2))
    fixed = EndowmentSpec(a=-np.eye(2), sigma=np.zeros((2, 2)),
                          o1=0.025 * np.eye(2), o2=np.zeros((2, 2)))
    vf = heston_power_solve(model, gamma, floating, 1.0, steps=1000, cross_check=False,
                            drift_match_samples=0)
    vx = heston_power_solve(model, gamma, fixed, 1.0, steps=1000, cross_check=False,
                            drift_match_samples=0)
    worst = 0.0
    for x in rng.uniform(0.5, 4.0, size=5):
        p = heston_power_indifference_value(model, gamma, floating, fixed, 1.0, float(x), steps=1000)
        worst = max(worst, abs(vf.value_at(x - p) - vx.value_at(x)) / abs(vx.value_at(x)))
    checks.append(("power numeraire", worst))

    p_trivial = heston_power_indifference_value(model, gamma, fixed, fixed, 1.0, 2.0, steps=400)
    checks.append(("identical legs", abs(p_trivial)))

    ok = all(v <= 1e-10 for _, v in checks) and p_trivial == 0.0
    _report(7, "indifference plug-back", ok,
            ", ".join(f"{n}: {v:.2e}" for n, v in checks))


def test_criterion_08_cone_invariants(presets):
    exp_min = float(np.min(presets["heston-exp-d2"].solve.riccati.min_eigenvalues()))
    bns_max = float(np.max(presets["bns-power-d2"].solve.riccati.max_eigenvalues()))
    params, coeffs, _ = quasi_monotone_jump_instance()
    probe = quasi_monotone_probe(params, coeffs, n_samples=500, seed=77)
    ok = exp_min >= -1e-9 and bns_max <= 1e-9 and probe.min_value >= -1e-9
    _report(8, "cone invariants", ok,
            f"exp lambda_min = {exp_min:.2e}, bns lambda_max = {bns_max:.2e}, "
            f"probe min = {probe.min_value:.2e} ({probe.n_samples} boundary samples)")


def test_criterion_09_rk4_order():
    from affinebsde.portfolio import heston_exp_coeffs

    model = _heston_model_d2()
    coeffs = heston_exp_coeffs(model, 0.7, np.eye(2))
    ref = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=4000)
    errs = {}
    for n in (200, 400):
        sol = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=n)
        idx = np.linspace(0, n, 21).astype(int)
        errs[n] = float(np.max(np.abs(sol.gammas[idx] - ref.gammas[idx * (4000 // n)])))
    factor = errs[200] / errs[400]
    ok = factor >= 14.0
    _report(9, "RK4 order", ok, f"error factor on halving = {factor:.1f}")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": {
            "kind": "heston",
            "alpha": [[0.0493, 0.012], [0.012, 0.0333]],
            "b": [[0.1479, 0.036], [0.036, 0.0999]],
            "drift_h": [[-0.7, 0.06], [0.03, -0.55]],
            "eta": [0.65, 0.4],
            "rho": [-0.45, -0.25],
            "r0": [[0.32, 0.04], [0.04, 0.26]],
        },
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "verification": {"which": "transform", "paths": 20000, "steps": 100, "seed": 9,
                         "u": [[0.6, 0.1], [0.1, 0.5]]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["verify", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = cli_main(["verify", "--config", str(cfg_path), "--out", str(out2)])
    b1 = (out1 / "verify.json").read_bytes()
    b2 = (out2 / "verify.json").read_bytes()
    ok = rc1 == rc2 == 0 and b1 == b2
    _report(10, "byte-identical verification payloads", ok,
            f"{len(b1)} bytes compared")
