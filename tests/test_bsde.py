import numpy as np
import pytest

from affinebsde.affine_model import AffineParams, ConstantJumps, HFormDrift, LinearJumps
from affinebsde.bsde import (
    BsdeSolutionEval,
    classify_ratio,
    drift_match_residual,
    drift_match_stats,
    eval_generator,
    eval_solution,
    orient_ratio,
)
from affinebsde.portfolio import (
    SHIPPED_PRESETS,
    EndowmentSpec,
    HestonModel,
    heston1d_exp_riccati_inputs,
    make_preset,
    _heston_model_d2,
)
from affinebsde.riccati import GeneratorCoeffs, RiccatiSolution, solve_rk
from affinebsde.simulator import CorrelationSpec
from affinebsde.symcone import psd_sqrt, symmetrize, trace_inner
from conftest import rand_pd, rand_psd, rand_sym


def jump_drift_match_instance(rng, with_feedback=True):
    """Random theta-consistent instance exercising every jump channel (a = 0)."""
    d = 2
    params = AffineParams(
        alpha=rand_pd(rng, d, 0.15),
        b=rand_psd(rng, d, 0.3, ridge=0.25),
        drift=HFormDrift(-0.4 * np.eye(d) + 0.05 * rng.standard_normal((d, d))),
        m=ConstantJumps.from_atoms([
            (rand_psd(rng, d, 0.2, ridge=0.02), 0.8),
            (rand_psd(rng, d, 0.2, ridge=0.02), 0.5),
        ]),
        mu=LinearJumps.from_atoms([
            (rand_psd(rng, d, 0.3, ridge=0.05), rand_psd(rng, d, 0.1, ridge=0.01)),
        ]),
    )
    eye = np.eye(d)
    coeffs = GeneratorCoeffs.build(
        d,
        c_zz=-0.2 * eye + 0.02 * rand_sym(rng, d),
        c_zsqrtx=0.1 * rng.standard_normal((d, d)),
        c_x=0.15 * rand_sym(rng, d),
        c_y=0.3 if with_feedback else 0.0,
        c_t=0.1,
        g_M=lambda y: 0.2 * np.tanh(y),
        g_t=lambda y: -0.1 * (np.expm1(-y) + y),
        g_y=(lambda y: 0.05 * np.cos(y)) if with_feedback else None,
        g_zsqrtx=lambda y: 0.04 * np.sin(y) * eye,
        g_x=lambda y: 0.06 * y * eye,
    )
    return params, coeffs


class TestEvalSolution:
    def test_terminal_identity(self, rng):
        model = _heston_model_d2()
        preset = make_preset(model, "power", 0.35, 1.0, steps=200,
                             endow=EndowmentSpec(
                                 a=-0.2 * np.eye(2), sigma=0.1 * np.eye(2),
                                 o1=0.02 * np.eye(2), o2=0.03 * np.eye(2)))
        ev = preset.bsde_eval()
        T = preset.horizon
        for _ in range(100):
            x = rand_psd(rng, 2)
            o = rng.standard_normal((2, 2))
            vals = eval_solution(ev, T, x, o)
            assert abs(vals.y - ev.terminal_value(x, o)) <= 1e-12

    def test_zero_gamma_and_weight(self, rng):
        d = 2
        params = AffineParams(alpha=np.eye(d), b=np.eye(d) * 2, drift=HFormDrift(np.zeros((d, d))))
        coeffs = GeneratorCoeffs.build(d)
        grid = np.linspace(0.0, 1.0, 11)
        sol = RiccatiSolution(grid=grid, gammas=np.zeros((11, d, d)), w=np.full(11, 0.7),
                              terminal_u=np.zeros((d, d)), terminal_v=0.7, method="RK4")
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        vals = eval_solution(ev, 0.4, rand_psd(rng, d), rng.standard_normal((d, d)))
        assert vals.y == pytest.approx(0.7)
        assert np.allclose(vals.z, 0.0) and np.allclose(vals.zhat, 0.0)
        assert vals.k(np.eye(d)) == 0.0

    def test_formulas_match_direct_reimplementation(self, rng):
        params, coeffs = jump_drift_match_instance(rng, with_feedback=False)
        sol = solve_rk(params, coeffs, rand_psd(rng, 2), 0.1, 1.0, steps=100)
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        t, x, o = 0.37, rand_psd(rng, 2), rng.standard_normal((2, 2))
        vals = eval_solution(ev, t, x, o)
        gam = sol.gamma_at(t)
        assert vals.y == pytest.approx(
            trace_inner(gam, x) + float(np.trace(coeffs.a @ o)) + sol.w_at(t), rel=1e-12)
        assert np.allclose(vals.z, 2.0 * psd_sqrt(x) @ gam @ params.sigma.T, atol=1e-13)
        xi = rand_psd(rng, 2)
        assert vals.k(xi) == pytest.approx(trace_inner(gam, xi), rel=1e-12)


class TestEvalGenerator:
    def test_zero_coefficients(self, rng):
        d = 2
        params = AffineParams(alpha=np.eye(d), b=np.eye(d), drift=HFormDrift(np.zeros((d, d))))
        coeffs = GeneratorCoeffs.build(d)
        val = eval_generator(coeffs, params, rand_psd(rng, d), 1.0,
                             rng.standard_normal((d, d)), rng.standard_normal((d, d)),
                             lambda xi: 0.0)
        assert val == 0.0

    def test_heston_1d_exponential_form(self, rng):
        eta, lam, sigma, rho, gamma = 0.9, -0.5, 0.8, -0.4, 1.4
        params, coeffs = heston1d_exp_riccati_inputs(eta, lam, sigma, rho, gamma)
        for _ in range(10):
            r = float(rng.uniform(0.05, 2.0))
            z = float(rng.standard_normal())
            val = eval_generator(coeffs, params, np.array([[r]]), 0.0,
                                 np.array([[z]]), np.zeros((1, 1)), lambda xi: 0.0)
            expected = (0.5 * gamma * (rho**2 - 1.0) * z**2
                        + eta**2 * r / (2.0 * gamma**3)
                        - eta * rho * z * np.sqrt(r) / gamma)
            assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_term_sum_oracle(self, rng):
        params, coeffs = jump_drift_match_instance(rng)
        x = rand_psd(rng, 2)
        y = 0.4
        z = rng.standard_normal((2, 2))
        zh = rng.standard_normal((2, 2))
        gam = rand_sym(rng, 2)
        k = lambda xi: trace_inner(gam, xi)
        sx = psd_sqrt(x)
        expected = float(np.trace(z @ coeffs.c_zz @ z.T))
        expected += float(np.trace(z @ coeffs.c_zsqrtx @ sx))
        expected += float(np.trace(coeffs.c_x @ x))
        expected += coeffs.c_y * y + coeffs.c_t
        for i in range(params.mu.n):
            kk = k(params.mu.xis[i])
            den = min(np.linalg.norm(params.mu.xis[i]) ** 2, 1.0)
            expected += coeffs.g_M(kk) * trace_inner(x, params.mu.us[i]) / den
        for i in range(params.m.n):
            w = params.m.weights[i]
            kk = k(params.m.xis[i])
            expected += w * float(np.trace(z @ coeffs.g_zsqrtx(kk) @ sx))
            expected += w * float(np.sum(x * coeffs.g_x(kk)))
            expected += w * coeffs.g_t(kk)
            expected += w * y * coeffs.g_y(kk)
        val = eval_generator(coeffs, params, x, y, z, zh, k)
        assert val == pytest.approx(expected, rel=1e-11)

    def test_quadratic_growth_in_z(self, rng):
        params, coeffs = jump_drift_match_instance(rng)
        x = rand_psd(rng, 2)
        z0 = rng.standard_normal((2, 2))
        zero = np.zeros((2, 2))
        ss = np.linspace(-2.0, 2.0, 9)
        vals = [eval_generator(coeffs, params, x, 0.0, s * z0, zero, lambda xi: 0.0)
                for s in ss]
        base = eval_generator(coeffs, params, x, 0.0, zero, zero, lambda xi: 0.0)
        diffs = np.array(vals) - base
        fit = np.polynomial.polynomial.polyfit(ss, diffs, 2)
        resid = diffs - np.polynomial.polynomial.polyval(ss, fit)
        assert np.max(np.abs(resid)) <= 1e-10


class TestDriftMatch:
    def test_zero_instance_exact(self):
        d = 2
        params = AffineParams(alpha=np.zeros((d, d)), b=np.zeros((d, d)),
                              drift=HFormDrift(np.zeros((d, d))))
        coeffs = GeneratorCoeffs.build(d)
        sol = solve_rk(params, coeffs, np.zeros((d, d)), 0.0, 1.0, steps=50)
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        assert drift_match_residual(ev, 0.5, np.eye(d)) == 0.0

    def test_jump_instance_residual_small(self, rng):
        params, coeffs = jump_drift_match_instance(rng)
        sol = solve_rk(params, coeffs, rand_psd(rng, 2, 0.3), -0.2, 1.0, steps=2000)
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        stats = drift_match_stats(ev, n_samples=30, seed=9)
        assert stats["max_rel_residual"] <= 1e-6

    def test_perturbation_sensitivity(self, rng):
        params, coeffs = jump_drift_match_instance(rng, with_feedback=False)
        sol = solve_rk(params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=1000)
        x = rand_psd(rng, 2)
        resid = {}
        for eps in (0.005, 0.01):
            pert = RiccatiSolution(
                grid=sol.grid, gammas=sol.gammas + eps * np.eye(2), w=sol.w,
                terminal_u=sol.terminal_u + eps * np.eye(2), terminal_v=sol.terminal_v,
                method=sol.method)
            ev = BsdeSolutionEval(riccati=pert, coeffs=coeffs, params=params)
            resid[eps] = drift_match_residual(ev, 0.5, x)
        assert resid[0.01] > 50.0 * 1e-6  # far above the matched residual
        assert resid[0.01] / resid[0.005] == pytest.approx(2.0, rel=0.3)

    def test_rejects_y_feedback_with_terminal_weight(self, rng):
        params, coeffs = jump_drift_match_instance(rng)
        bad = GeneratorCoeffs.build(2, c_y=0.3, a=np.eye(2))
        sol = solve_rk(params, bad, np.zeros((2, 2)), 0.0, 1.0, steps=20)
        with pytest.raises(ValueError):
            BsdeSolutionEval(riccati=sol, coeffs=bad, params=params)

    def test_t_near_grid_ends_raises(self, rng):
        params, coeffs = jump_drift_match_instance(rng, with_feedback=False)
        sol = solve_rk(params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=100)
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        with pytest.raises(ValueError):
            drift_match_residual(ev, 0.0, np.eye(2))
        with pytest.raises(ValueError):
            drift_match_residual(ev, 1.0, np.eye(2))


def _frozen_drift_match_residual(sol, t, x):
    """drift_match_residual when it evaluated the solution and the generator through the public functions."""
    grid = sol.riccati.grid
    idx = int(round((t - grid[0]) / (grid[-1] - grid[0]) * (len(grid) - 1)))
    tk, xa = float(grid[idx]), np.asarray(x, dtype=float)
    gam = sol.riccati.gammas[idx]
    dt2 = grid[idx + 1] - grid[idx - 1]
    dgam = (sol.riccati.gammas[idx + 1] - sol.riccati.gammas[idx - 1]) / dt2
    dw = (sol.riccati.w[idx + 1] - sol.riccati.w[idx - 1]) / dt2
    vals = eval_solution(sol, tk, xa, np.zeros((sol.params.d, sol.params.d)))
    f = eval_generator(sol.coeffs, sol.params, xa, vals.y, vals.z, vals.zhat, vals.k)
    r = f + trace_inner(dgam, xa) + dw
    r += trace_inner(gam, sol.params.b + sol.params.drift.apply(xa))
    if sol.params.m.n:
        chi_tr = sol.params.chi_traces(gam, sol.params.m)
        full_tr = np.einsum("ij,nij->n", gam, sol.params.m.xis)
        r += float(np.dot(sol.params.m.weights, chi_tr))
        r += float(np.dot(sol.params.m.weights, full_tr - chi_tr))
    if sol.params.mu.n:
        full_tr = np.einsum("ij,nij->n", gam, sol.params.mu.xis)
        chi_tr = sol.params.chi_traces(gam, sol.params.mu)
        r += float(np.dot(full_tr - chi_tr, sol.params.mu.kernel_weights(xa)))
    r += float(np.trace(sol.coeffs.a @ (sol.coeffs.o1 + sol.coeffs.o2 @ xa)))
    return abs(float(r))


def _frozen_drift_match_maxima(sol, n_samples, seed):
    """(max |r|, max |r| / (1 + |f|)) of drift_match_stats when it evaluated each sample twice."""
    rng = np.random.default_rng(seed)
    grid, d = sol.riccati.grid, sol.params.d
    worst_abs = worst_rel = 0.0
    for _ in range(n_samples):
        t = float(grid[int(rng.integers(1, len(grid) - 1))])
        g = rng.standard_normal((d, d))
        x = symmetrize(g @ g.T) * (1.0 / d) + 0.05 * np.eye(d)
        vals = eval_solution(sol, t, x, np.zeros((d, d)))
        f = eval_generator(sol.coeffs, sol.params, x, vals.y, vals.z, vals.zhat, vals.k)
        r = _frozen_drift_match_residual(sol, t, x)
        worst_abs, worst_rel = max(worst_abs, r), max(worst_rel, r / (1.0 + abs(f)))
    return worst_abs, worst_rel


class TestDriftMatchOnePass:
    """drift_match_stats forms each sample's residual and generator value in one pass."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_PRESETS))
    def test_maxima_match_frozen_evaluation(self, name):
        ev = SHIPPED_PRESETS[name](steps=200).bsde_eval()
        stats = drift_match_stats(ev, n_samples=20, seed=3)
        ref = _frozen_drift_match_maxima(ev, 20, 3)
        got = (stats["max_abs_residual"], stats["max_rel_residual"])
        assert np.array_equal(np.array(got).view(np.uint64), np.array(ref).view(np.uint64))

    def test_one_evaluation_per_sample(self, monkeypatch):
        from affinebsde import bsde

        # one root in eval_solution and one in eval_generator; each sample used to take both twice
        ev, sqrt, calls = SHIPPED_PRESETS["heston-power-d2"](steps=200).bsde_eval(), bsde.psd_sqrt, []
        monkeypatch.setattr(bsde, "psd_sqrt", lambda x: calls.append(1) or sqrt(x))
        drift_match_stats(ev, n_samples=7)
        assert len(calls) == 2 * 7


class TestKBound:
    def test_k_bounded_by_cauchy_schwarz(self, rng):
        params, coeffs = jump_drift_match_instance(rng)
        sol = solve_rk(params, coeffs, rand_psd(rng, 2, 0.3), 0.0, 1.0, steps=200)
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=params)
        for t in (0.1, 0.5, 0.9):
            vals = eval_solution(ev, t, rand_psd(rng, 2), np.zeros((2, 2)))
            gam_norm = np.linalg.norm(sol.gamma_at(t))
            for xi in params.m.xis:
                assert abs(vals.k(xi)) <= gam_norm * np.linalg.norm(xi) + 1e-14


class TestMartingaleAudit:
    def test_orientation(self):
        r, se = orient_ratio(0.98, 0.01, 1.0)
        assert r == pytest.approx(0.98)
        # negative L_0: E[L_T] <= L_0 means a *more negative* mean; the
        # orientation maps that back below 1, and violations above 1
        r_ok, se_ok = orient_ratio(-1.1, 0.01, -1.0)
        assert r_ok == pytest.approx(1.0 / 1.1) and r_ok < 1.0 and se_ok > 0
        r_bad, _ = orient_ratio(-0.9, 0.01, -1.0)
        assert r_bad > 1.0

    @pytest.mark.parametrize("mean_lt, se_lt", [(np.inf, 0.0), (1.0, np.nan)])
    def test_non_finite_sample_is_refused(self, mean_lt, se_lt):
        with pytest.raises(FloatingPointError, match=r"E\[L_T\] estimate is not finite"):
            orient_ratio(mean_lt, se_lt, 1.0)

    def test_classify(self):
        assert classify_ratio(1.001, 0.001) == "MARTINGALE"
        assert classify_ratio(0.99, 0.001) == "SUPERMARTINGALE_OK"
        assert classify_ratio(1.05, 0.001) == "FAIL"

    def test_zero_market_ratio_exactly_one(self):
        model = HestonModel(
            params=_heston_model_d2().params,
            eta=np.zeros(2),
            corr=CorrelationSpec(np.zeros(2)),
            r0=np.array([[0.32, 0.04], [0.04, 0.26]]),
        )
        preset = make_preset(model, "power", 0.5, 1.0, steps=100)
        means, ses, l0 = preset.audit_strategies([np.zeros(2)], n_paths=512, seed=1, n_steps=20)
        ratio, se = orient_ratio(float(means[0]), float(ses[0]), l0)
        assert ratio == 1.0
        assert se == 0.0
        assert classify_ratio(ratio, se) == "MARTINGALE"
