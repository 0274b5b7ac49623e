from types import SimpleNamespace

import numpy as np
import pytest

from affinebsde.portfolio import (
    ROUTE_GAP_TOL,
    BnsModel,
    EndowmentSpec,
    HestonModel,
    SHIPPED_PRESETS,
    UtilityPreset,
    bns_exp_solve,
    bns_power_solve,
    heston1d_exp_closed_form,
    heston1d_exp_riccati_inputs,
    heston_exp_solve,
    heston_power_indifference_value,
    heston_power_coeffs,
    heston_power_numeraire_value,
    heston_power_solve,
    linear_backward_closed_form,
    _bns_model_d2,
    _heston_model_d2,
)
from affinebsde.riccati import solve_rk
from affinebsde.simulator import BnsJumpSpec, ConstantJumps, CorrelationSpec
from affinebsde.affine_model import HFormDrift
from conftest import rand_psd


class TestGolden1d:
    def test_degenerate_branch_pinned_value(self):
        sol = heston1d_exp_closed_form(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert sol.form.disc == pytest.approx(0.0, abs=1e-14)
        assert sol.gamma(0.0) == pytest.approx(0.5)

    def test_no_drift_gives_flat_solution(self):
        sol = heston1d_exp_closed_form(0.0, -0.5, 0.8, 0.4, 1.2, 0.05, 1.0)
        assert sol.gamma(0.0) == 0.0
        assert sol.pi_opt(0.3) == 0.0
        assert sol.value_at(2.0, 0.4) == pytest.approx(-np.exp(-1.2 * 2.0))

    def test_generic_branch_matches_rk(self):
        eta, lam, sigma, rho, gamma = 1.1, 0.3, 0.7, -0.8, 1.7
        gold = heston1d_exp_closed_form(eta, lam, sigma, rho, gamma, 0.02, 1.0)
        params, coeffs = heston1d_exp_riccati_inputs(eta, lam, sigma, rho, gamma)
        sol = solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 1.0, steps=2000)
        assert np.max(np.abs(sol.gammas[:, 0, 0] - gold.gamma(sol.grid))) <= 1e-9

    def test_solution_solves_its_ode(self):
        # independent check: plug the closed form into the quadratic ODE
        gold = heston1d_exp_closed_form(0.9, -0.2, 1.1, 0.5, 0.8, 0.0, 1.0)
        f = gold.form
        for t in np.linspace(0.05, 0.95, 7):
            h = 1e-6
            lhs = -(f.gamma(t + h) - f.gamma(t - h)) / (2 * h)
            g = f.gamma(t)
            assert lhs == pytest.approx(f.q * g * g + f.l * g + f.c, rel=1e-6, abs=1e-8)


class TestHestonPower:
    def test_zero_market(self):
        model = HestonModel(params=_heston_model_d2().params, eta=np.zeros(2),
                            corr=CorrelationSpec(np.zeros(2)), r0=np.eye(2) * 0.3)
        res = heston_power_solve(model, 0.4, EndowmentSpec.zero(2), 1.0, steps=200)
        assert res.value_at(1.0) == pytest.approx(1.0 / 0.4)
        assert np.allclose(res.strategy(0.5), 0.0)
        assert np.max(np.abs(res.riccati.gammas)) <= 1e-12

    def test_scale_covariance(self):
        model = _heston_model_d2()
        res = heston_power_solve(model, 0.35, EndowmentSpec.zero(2), 1.0, steps=200)
        for c in (0.5, 2.0, 7.3):
            assert res.value_at(c * 1.7) == pytest.approx(c**0.35 * res.value_at(1.7), rel=1e-12)

    def test_odd_step_count_keeps_the_route_cross_check(self):
        # block-exp used to round 101 up to 102 steps, and the RK cross-check then
        # compared arrays of 102 and 103 knots
        res = heston_power_solve(_heston_model_d2(), 0.35, EndowmentSpec.zero(2), 1.0, steps=101)
        assert len(res.riccati.grid) == 102
        assert res.diagnostics["route_gap"] <= ROUTE_GAP_TOL

    def test_strategy_formula_consistency(self):
        model = _heston_model_d2()
        res = heston_power_solve(model, 0.35, EndowmentSpec.zero(2), 1.0, steps=400)
        s_rho = model.params.sigma.T @ model.corr.rho
        for t in np.linspace(0.0, 1.0, 20):
            expected = (model.eta + 2.0 * res.riccati.gamma_at(t) @ s_rho) / (1.0 - 0.35)
            assert np.allclose(res.strategy(t), expected, atol=1e-12)

    def test_route_equivalence_on_value(self):
        model = _heston_model_d2()
        endow = EndowmentSpec(a=-0.2 * np.eye(2), sigma=0.2 * np.eye(2),
                              o1=0.01 * np.eye(2), o2=0.02 * np.eye(2))
        res = heston_power_solve(model, 0.35, endow, 1.0, steps=600)
        assert res.diagnostics["route_gap"] <= 1e-8
        rk = solve_rk(model.params, heston_power_coeffs(model, 0.35, endow),
                      np.zeros((2, 2)), 0.0, 1.0, steps=600)
        v_rk = 1.0 / 0.35 * np.exp(np.sum(rk.gammas[0] * model.r0) + rk.w[0])
        assert res.value_at(1.0) == pytest.approx(v_rk, rel=1e-7)

    def test_d1_matches_scalar_riccati_closed_form(self):
        from affinebsde.portfolio import ScalarRiccatiClosedForm

        alpha, h, rho, eta, gamma = 0.04, -0.6, -0.5, 0.7, 0.3
        params = type(_heston_model_d2().params)(
            alpha=np.array([[alpha]]), b=np.array([[3 * alpha]]),
            drift=HFormDrift(np.array([[h]])))
        model = HestonModel(params=params, eta=np.array([eta]),
                            corr=CorrelationSpec(np.array([rho])), r0=np.array([[0.3]]))
        res = heston_power_solve(model, gamma, EndowmentSpec.zero(1), 1.0, steps=1000)
        # scalar reduction of the quadratic equation solved by the block route
        sig = np.sqrt(alpha)
        fac = gamma / (1.0 - gamma)
        q = 4.0 * sig * (0.5 + 0.5 * fac * rho**2) * sig
        l = 2.0 * (fac * eta * rho * sig + h)
        c = 0.5 * fac * eta**2
        form = ScalarRiccatiClosedForm(q=q, l=l, c=c, T=1.0)
        gaps = [abs(res.riccati.gamma_at(t)[0, 0] - form.gamma(t))
                for t in np.linspace(0, 1, 21)]
        assert max(gaps) <= 1e-10

    def test_requires_pd_alpha(self):
        params = _heston_model_d2().params
        degenerate = HestonModel(
            params=type(params)(alpha=np.diag([0.04, 0.0]), b=np.diag([0.2, 0.1]),
                                drift=HFormDrift(-0.5 * np.eye(2))),
            eta=np.zeros(2), corr=CorrelationSpec(np.zeros(2)), r0=np.eye(2))
        with pytest.raises(ValueError):
            heston_power_solve(degenerate, 0.3, EndowmentSpec.zero(2), 1.0)

    def test_ordinary_exponential_flag_shifts_eta(self):
        base = _heston_model_d2()
        flagged = HestonModel(params=base.params, eta=base.eta, corr=base.corr,
                              r0=base.r0, ordinary_exponential=True)
        assert np.allclose(flagged.eta_eff, base.eta + 0.5)
        r1 = heston_power_solve(base, 0.35, EndowmentSpec.zero(2), 1.0, steps=100)
        r2 = heston_power_solve(flagged, 0.35, EndowmentSpec.zero(2), 1.0, steps=100)
        assert not np.allclose(r1.strategy(0.0), r2.strategy(0.0))


class TestHestonPowerIndifference:
    def test_identical_legs_price_zero(self):
        model = _heston_model_d2()
        o1 = 0.03 * np.eye(2)
        o3 = o1.copy()
        p = heston_power_numeraire_value(model, 0.35, o1, np.zeros((2, 2)), o3, 1.0, 2.0,
                                         steps=200)
        assert p == 0.0

    def test_plug_back_identity(self):
        model = _heston_model_d2()
        gamma = 0.35
        floating = EndowmentSpec(a=-np.eye(2), sigma=np.zeros((2, 2)),
                                 o1=0.02 * np.eye(2), o2=0.04 * np.eye(2))
        fixed = EndowmentSpec(a=-np.eye(2), sigma=np.zeros((2, 2)),
                              o1=0.025 * np.eye(2), o2=np.zeros((2, 2)))
        v_float = heston_power_solve(model, gamma, floating, 1.0, steps=400,
                                     cross_check=False, drift_match_samples=0)
        v_fixed = heston_power_solve(model, gamma, fixed, 1.0, steps=400,
                                     cross_check=False, drift_match_samples=0)
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.5, 4.0, size=5):
            p = heston_power_indifference_value(model, gamma, floating, fixed, 1.0, x, steps=400)
            assert abs(v_float.value_at(x - p) - v_fixed.value_at(x)) <= 1e-10 * abs(v_fixed.value_at(x))

    def test_exchange_rate_variant_with_noise_leg(self):
        model = _heston_model_d2()
        floating = EndowmentSpec(a=0.3 * np.eye(2), sigma=0.25 * np.eye(2),
                                 o1=0.01 * np.eye(2), o2=0.02 * np.eye(2))
        fixed = EndowmentSpec(a=0.3 * np.eye(2), sigma=np.zeros((2, 2)),
                              o1=0.015 * np.eye(2), o2=np.zeros((2, 2)))
        p = heston_power_indifference_value(model, 0.4, floating, fixed, 1.0, 1.0, steps=300)
        assert np.isfinite(p) and p != 0.0

    def test_o2_monotonicity_scan_reported(self):
        # numerical scan only; monotone movement is reported, not asserted as a theorem
        model = _heston_model_d2()
        scales = [0.0, 0.02, 0.04]
        prices = [
            heston_power_numeraire_value(model, 0.35, 0.02 * np.eye(2), s * np.eye(2),
                                         0.02 * np.eye(2), 1.0, 1.0, steps=200)
            for s in scales
        ]
        assert all(np.isfinite(p) for p in prices)
        diffs = np.diff(prices)
        print(f"numeraire o2 scan: prices={prices} monotone={bool(np.all(diffs > 0) or np.all(diffs < 0))}")


class TestHestonExp:
    def test_wealth_translation(self):
        model = _heston_model_d2()
        res = heston_exp_solve(model, 0.7, 1.0, steps=200)
        for c in (0.3, 1.1):
            assert res.value_at(1.0 + c) == pytest.approx(
                np.exp(-0.7 * c) * res.value_at(1.0), rel=1e-12)

    def test_strategy_formula_consistency(self):
        model = _heston_model_d2()
        res = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.2, steps=400)
        s_rho = model.params.sigma.T @ model.corr.rho
        for t in np.linspace(0.0, 1.0, 20):
            expected = model.eta / 0.7 - 2.0 * res.riccati.gamma_at(t) @ s_rho
            assert np.allclose(res.strategy(t), expected, atol=1e-12)

    def test_d1_matches_golden_form_after_risk_scaling(self):
        # the multivariate solver carries the martingale-consistent eta scaling;
        # the golden form's convention maps onto it through eta -> gamma * eta
        eta, lam, sigma_v, rho, gamma = 0.6, -0.5, 0.8, -0.7, 1.6
        h = np.array([[lam / 2.0]])
        params = type(_heston_model_d2().params)(
            alpha=np.array([[sigma_v**2 / 4.0]]), b=np.array([[0.05]]), drift=HFormDrift(h))
        model = HestonModel(params=params, eta=np.array([eta]),
                            corr=CorrelationSpec(np.array([rho])), r0=np.array([[0.4]]))
        res = heston_exp_solve(model, gamma, 1.0, steps=2000)
        gold = heston1d_exp_closed_form(gamma * eta, lam, sigma_v, rho, gamma, 0.05, 1.0)
        ts = np.linspace(0.0, 1.0, 21)
        gaps = [abs(res.riccati.gamma_at(t)[0, 0] - gold.gamma(t)) for t in ts]
        assert max(gaps) <= 1e-9
        assert res.strategy(0.3)[0] == pytest.approx(gold.pi_opt(0.3), rel=1e-9)
        assert res.value_at(1.2) == pytest.approx(gold.value_at(1.2, 0.4), rel=1e-7)

    def test_gamma_stays_psd(self):
        model = _heston_model_d2()
        res = heston_exp_solve(model, 0.7, 1.0, swap_asset=2, strike=0.1, steps=400)
        assert np.min(res.riccati.min_eigenvalues()) >= -1e-9

    def test_zero_rho_kills_hedge(self):
        base = _heston_model_d2()
        model = HestonModel(params=base.params, eta=base.eta,
                            corr=CorrelationSpec(np.zeros(2)), r0=base.r0)
        res = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.2, steps=200)
        for t in np.linspace(0.0, 1.0, 7):
            assert np.allclose(res.hedge(t), 0.0)
        assert res.price != 0.0  # the price survives; only the hedge dies

    def test_plug_back_identity(self):
        model = _heston_model_d2()
        res = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.2, steps=400)
        base = heston_exp_solve(model, 0.7, 1.0, steps=400)
        rng = np.random.default_rng(1)
        for x in rng.uniform(0.5, 3.0, size=5):
            assert abs(res.value_at(x - res.price) - base.value_at(x)) \
                <= 1e-10 * abs(base.value_at(x))

    def test_pure_investment_has_no_price(self):
        res = heston_exp_solve(_heston_model_d2(), 0.7, 1.0, swap_asset=0, steps=100)
        assert res.price is None and res.hedge is None

    def test_strike_enters_price_linearly(self):
        model = _heston_model_d2()
        p0 = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.0, steps=200).price
        p1 = heston_exp_solve(model, 0.7, 1.0, swap_asset=1, strike=0.25, steps=200).price
        assert p1 - p0 == pytest.approx(-0.25, abs=1e-12)


class TestBnsSolvers:
    def test_power_flat_drift_closed_form(self):
        d = 2
        eta = np.array([0.5, 0.3])
        spec = BnsJumpSpec(lam=0.05 * np.eye(d), lam_op=HFormDrift(np.zeros((d, d))),
                           b_j=0.02 * np.eye(d), m_j=ConstantJumps.empty(d))
        model = BnsModel(spec=spec, eta=eta, r0=0.3 * np.eye(d))
        gamma = 0.3
        res = bns_power_solve(model, gamma, 1.0, steps=400)
        const = -gamma / (2 * (1 - gamma)) * np.outer(eta, eta)
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(res.riccati.gamma_at(t), const * (1.0 - t), atol=1e-12)
        assert np.allclose(res.strategy(0.2), eta / (1 - gamma))

    def test_power_no_jumps_value_reduction(self):
        d = 2
        spec = BnsJumpSpec(lam=0.05 * np.eye(d),
                           lam_op=HFormDrift(np.array([[-0.6, 0.05], [0.0, -0.45]])),
                           b_j=0.02 * np.eye(d), m_j=ConstantJumps.empty(d))
        model = BnsModel(spec=spec, eta=np.array([0.5, 0.3]), r0=0.3 * np.eye(d))
        res = bns_power_solve(model, 0.3, 1.0, steps=400)
        sol = res.riccati
        drift_int = np.trapezoid([np.sum(sol.gamma_at(t) * (spec.lam + spec.b_j))
                              for t in sol.grid], sol.grid)
        expected = (1.0 / 0.3) * np.exp(-np.sum(sol.gammas[0] * model.r0) - drift_int)
        assert res.value_at(1.0) == pytest.approx(expected, rel=1e-6)

    def test_power_zero_eta(self):
        model = _bns_model_d2()
        zero = BnsModel(spec=model.spec, eta=np.zeros(2), r0=model.r0)
        res = bns_power_solve(zero, 0.3, 1.0, steps=200)
        assert np.max(np.abs(res.riccati.gammas)) <= 1e-14
        assert res.value_at(1.0) == pytest.approx(1.0 / 0.3)
        assert np.allclose(res.strategy(0.1), 0.0)

    def test_power_gamma_stays_nsd(self):
        res = bns_power_solve(_bns_model_d2(), 0.3, 1.0, steps=300)
        assert np.max(res.riccati.max_eigenvalues()) <= 1e-9

    def test_exp_flat_drift_closed_form(self):
        d = 2
        eta = np.array([0.5, 0.3])
        spec = BnsJumpSpec(lam=0.05 * np.eye(d), lam_op=HFormDrift(np.zeros((d, d))),
                           b_j=0.02 * np.eye(d), m_j=ConstantJumps.empty(d))
        model = BnsModel(spec=spec, eta=eta, r0=0.3 * np.eye(d))
        gamma = 0.8
        res = bns_exp_solve(model, gamma, 1.0, swap_asset=1, strike=0.0, steps=400)
        a11 = np.zeros((d, d))
        a11[0, 0] = 1.0
        const = np.outer(eta, eta) / (2 * gamma) + a11
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(res.riccati.gamma_at(t), const * (1.0 - t), atol=1e-12)

    def test_exp_plug_back_identity(self):
        model = _bns_model_d2()
        res = bns_exp_solve(model, 0.8, 1.0, swap_asset=1, strike=0.15, steps=400)
        base = bns_exp_solve(model, 0.8, 1.0, steps=400)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.5, 3.0, size=5):
            assert abs(res.value_at(x - res.price) - base.value_at(x)) \
                <= 1e-10 * abs(base.value_at(x))

    def test_exp_gamma_stays_psd(self):
        res = bns_exp_solve(_bns_model_d2(), 0.8, 1.0, swap_asset=1, strike=0.1, steps=300)
        assert np.min(res.riccati.min_eigenvalues()) >= -1e-9

    def test_exp_moment_gate_logged(self):
        res = bns_exp_solve(_bns_model_d2(), 0.8, 1.0, swap_asset=1, strike=0.1, steps=200)
        assert np.isfinite(res.diagnostics["exp_moment_mass"])

    def test_linear_closed_form_vs_rk(self):
        h = np.array([[-0.6, 0.05], [0.02, -0.45]])
        const = np.array([[0.3, 0.05], [0.05, 0.2]])
        gammas = linear_backward_closed_form(h, const, 1.0, 200)
        # finite differences satisfy the linear backward equation
        dt = 1.0 / 200
        for k in (50, 100, 150):
            lhs = -(gammas[k + 1] - gammas[k - 1]) / (2 * dt)
            rhs = gammas[k] @ h + h.T @ gammas[k] + const
            assert np.allclose(lhs, rhs, atol=5e-5)


class TestPresetsStateTheProblemOnce:
    """A preset reads the coefficients, parameters and endowment its solver used."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_PRESETS))
    def test_preset_solves_on_exactly_its_steps(self, name):
        assert len(SHIPPED_PRESETS[name](steps=101).solve.riccati.grid) == 102

    @pytest.mark.parametrize("name", sorted(SHIPPED_PRESETS))
    def test_preset_holds_the_solved_problem(self, name):
        preset = SHIPPED_PRESETS[name](steps=200)
        assert preset.coeffs is preset.solve.coeffs
        assert preset.params is preset.solve.params
        assert preset.endow is preset.solve.endow
        assert isinstance(preset.endow, EndowmentSpec)

    @staticmethod
    def assert_linear_closed_form(solve, h, const, steps):
        ref = linear_backward_closed_form(h, const, solve.horizon, steps)
        assert np.array_equal(solve.riccati.gammas.view(np.uint64), ref.view(np.uint64))

    def test_bns_power_constant_is_the_generators(self):
        preset = SHIPPED_PRESETS["bns-power-d2"](steps=200)
        gamma, eta = preset.gamma, preset.model.eta_eff
        const = -gamma / (2.0 * (1.0 - gamma)) * np.outer(eta, eta)
        self.assert_linear_closed_form(preset.solve, preset.model.spec.lam_op.h, const, 200)

    def test_bns_exp_constant_is_the_generators(self):
        preset = SHIPPED_PRESETS["bns-exp-d2"](steps=200)
        model, gamma, T = preset.model, preset.gamma, preset.horizon
        eta = model.eta_eff
        base = bns_exp_solve(model, gamma, T, swap_asset=0, steps=200)
        for solve, asset in ((preset.solve, 1), (base, 0)):
            endow = EndowmentSpec.variance_swap(asset, model.d, T, 0.15 if asset else 0.0)
            const = np.outer(eta, eta) / (2.0 * gamma) + endow.a
            self.assert_linear_closed_form(solve, model.spec.lam_op.h, const, 200)


class TestPerturbedStrategies:
    """The audits' perturbed strategies: the optimal grid plus deltas derived from d."""

    D2_DELTAS = [[0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3],
                 [0.25, 0.25], [-0.25, -0.25], [0.8, 0.0], [0.0, -0.8]]

    @staticmethod
    def zero_preset(d):
        """A preset whose optimal grid is -0.0 everywhere, so the sign of each zero delta shows."""
        solve = SimpleNamespace(horizon=1.0, strategy_grid=lambda ts: np.full((len(ts), d), -0.0))
        return UtilityPreset(model=None, solve=solve)

    def assert_d2_list(self, preset, n_steps):
        base = preset.opt_strategy_grid(n_steps)
        got = preset.perturbed_strategies(n_steps)
        assert len(got) == len(self.D2_DELTAS)
        for grid, delta in zip(got, self.D2_DELTAS):
            ref = base + np.array(delta)
            assert np.array_equal(grid.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(SHIPPED_PRESETS))
    def test_d2_shipped_presets_bitwise(self, name):
        self.assert_d2_list(SHIPPED_PRESETS[name](steps=200), 50)

    def test_d2_zero_grid_bitwise(self):
        self.assert_d2_list(self.zero_preset(2), 7)

    @pytest.mark.parametrize("d", [1, 3])
    def test_deltas_follow_d(self, d):
        got = self.zero_preset(d).perturbed_strategies(5)
        assert len(got) == 2 * d + 4
        assert all(g.shape == (5, d) for g in got)
        deltas = np.array([g[0] for g in got])
        eye = np.eye(d)
        expected = [s * eye[i] for i in range(d) for s in (0.3, -0.3)]
        expected += [np.full(d, 0.25), np.full(d, -0.25), 0.8 * eye[0], -0.8 * eye[d - 1]]
        assert np.array_equal(deltas, np.array(expected))
        assert not np.any(np.signbit(deltas[deltas == 0.0]))  # +0.0 off the support
