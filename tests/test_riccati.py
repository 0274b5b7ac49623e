import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from affinebsde.affine_model import (
    AffineParams,
    ConstantJumps,
    GeneralFormDrift,
    HFormDrift,
    LinearJumps,
    truncation,
)
from affinebsde.portfolio import (
    EndowmentSpec,
    heston1d_exp_closed_form,
    heston1d_exp_riccati_inputs,
    heston_exp_coeffs,
    heston_power_coeffs,
    quasi_monotone_jump_instance,
    _heston_model_d2,
)
from affinebsde.riccati import (
    JUMP_COEFFS,
    BlockExpSingularError,
    GeneratorCoeffs,
    RiccatiBlowUpError,
    quasi_monotone_probe,
    script_C,
    script_L,
    solve_block_exp,
    solve_rk,
    theta_eval,
    validate_assumptions,
    varpi_eval,
)
from affinebsde.symcone import frobenius, symmetrize, trace_inner
from conftest import rand_pd, rand_psd, rand_sym


def theta_oracle(params, coeffs, u):
    """Term-by-term re-implementation with explicit loops (test-side oracle)."""
    s = params.sigma
    d = params.d
    sta = coeffs.sigma.T @ coeffs.a.T
    out = 4.0 * u @ s.T @ coeffs.c_zz @ s @ u
    ll = 0.5 * coeffs.c_y * np.eye(d) + coeffs.c_zsqrtx.T @ s
    ll = ll + sta @ coeffs.c_hzz @ s
    out = out + ll @ u + u @ ll.T + params.drift.adjoint(u)
    out = out + coeffs.c_x + sta @ coeffs.c_hzhz @ sta.T
    out = out + sta @ coeffs.c_hzsqrtx + coeffs.a @ coeffs.o2
    for k in range(params.mu.n):
        xi, umat = params.mu.xis[k], params.mu.us[k]
        kk = trace_inner(u, xi)
        den = min(frobenius(xi) ** 2, 1.0)
        val = trace_inner(u, xi - truncation(xi, params.trunc_radius))
        if coeffs.g_M is not None:
            val += coeffs.g_M(kk)
        out = out + val / den * umat
    for k in range(params.m.n):
        w, xi = params.m.weights[k], params.m.xis[k]
        kk = trace_inner(u, xi)
        term = np.zeros((d, d))
        if coeffs.g_zsqrtx is not None:
            gz = np.asarray(coeffs.g_zsqrtx(kk))
            term = term + u @ s.T @ gz + gz.T @ s @ u
        if coeffs.g_y is not None:
            term = term + u * float(coeffs.g_y(kk))
        if coeffs.g_x is not None:
            term = term + np.asarray(coeffs.g_x(kk))
        if coeffs.g_hzhz is not None:
            term = term + sta @ np.asarray(coeffs.g_hzhz(kk)) @ sta.T
        if coeffs.g_hzz is not None:
            gh = np.asarray(coeffs.g_hzz(kk))
            term = term + sta @ gh @ s @ u + u @ s.T @ gh.T @ sta.T
        if coeffs.g_hzsqrtx is not None:
            term = term + sta @ np.asarray(coeffs.g_hzsqrtx(kk))
        out = out + w * term
    return symmetrize(out)


class TestThetaEval:
    def test_reduces_to_script_C_at_zero(self, rng):
        params, coeffs, _ = quasi_monotone_jump_instance()
        # kill the jump coefficients at k = 0 paths: theta(0) = C + g-at-zero terms
        th = theta_eval(params, coeffs, np.zeros((2, 2)))
        expected = symmetrize(script_C(params, coeffs))
        # jump g's vanish at k = Tr(0 xi) = 0 for this instance (g(., 0) = 0)
        assert np.allclose(th, expected, atol=1e-14)

    def test_heston_1d_collapse(self):
        eta, lam, sigma, rho, gamma = 0.8, -0.4, 0.9, -0.6, 1.2
        params, coeffs = heston1d_exp_riccati_inputs(eta, lam, sigma, rho, gamma)
        q = 0.5 * gamma * sigma**2 * (rho**2 - 1.0)
        l = lam - sigma * rho * eta / gamma
        c = eta**2 / (2.0 * gamma**3)
        for u in (0.0, 0.3, -0.7, 1.5):
            um = np.array([[u]])
            assert theta_eval(params, coeffs, um)[0, 0] == pytest.approx(
                q * u * u + l * u + c, rel=1e-12, abs=1e-14
            )

    def test_matches_independent_oracle(self, rng):
        params, coeffs, _ = quasi_monotone_jump_instance()
        for _ in range(10):
            u = rand_sym(rng, 2)
            th = theta_eval(params, coeffs, u)
            assert np.array_equal(th, th.T)
            assert np.allclose(th, theta_oracle(params, coeffs, u), atol=1e-12)

    def test_matches_independent_oracle_atom_inside_ball(self, rng):
        # a wider truncation ball takes in the linear-jump atom (||xi||_F = 1.42), so chi(xi) = xi
        params, coeffs, _ = quasi_monotone_jump_instance()
        params = dataclasses.replace(params, trunc_radius=2.0)
        for _ in range(10):
            u = rand_sym(rng, 2)
            assert np.allclose(theta_eval(params, coeffs, u), theta_oracle(params, coeffs, u), atol=1e-12)


class TestVarpiEval:
    def test_zero_everything(self):
        params, coeffs, _ = quasi_monotone_jump_instance()
        z = np.zeros((2, 2))
        # u = 0, v = 0: only c_t, Tr(a o1) and g-at-zero survive; all zero here
        assert varpi_eval(params, coeffs, z, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_formula_reduction_no_jumps(self, rng):
        d = 2
        params = AffineParams(alpha=rand_pd(rng, d, 0.2), b=rand_psd(rng, d, 0.5, ridge=0.4),
                              drift=HFormDrift(-0.3 * np.eye(d)))
        a = rand_sym(rng, d)
        o1 = rng.standard_normal((d, d))
        coeffs = GeneratorCoeffs.build(d, c_t=0.7, a=a, o1=o1)
        u = rand_sym(rng, d)
        expected = 0.7 + float(np.trace(a @ o1)) + trace_inner(u, params.b)
        assert varpi_eval(params, coeffs, u, 5.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_atom_oracle(self, rng):
        params, coeffs, _ = quasi_monotone_jump_instance()
        u = rand_psd(rng, 2)
        v = 0.8
        expected = coeffs.c_y * v + coeffs.c_t
        expected += float(np.trace(coeffs.a @ coeffs.o1))
        expected += trace_inner(u, params.b)
        for k in range(params.m.n):
            kk = trace_inner(u, params.m.xis[k])
            w = params.m.weights[k]
            expected += w * (kk + coeffs.g_y(kk) * v + coeffs.g_t(kk))
        assert varpi_eval(params, coeffs, u, v) == pytest.approx(expected, rel=1e-12)


class TestSolveRk:
    def test_constant_solution_for_zero_theta(self, rng):
        d = 2
        params = AffineParams(alpha=np.zeros((d, d)), b=np.zeros((d, d)),
                              drift=HFormDrift(np.zeros((d, d))))
        coeffs = GeneratorCoeffs.build(d)
        u = rand_sym(rng, d)
        sol = solve_rk(params, coeffs, u, 1.5, 1.0, steps=50)
        assert np.allclose(sol.gammas, u[None], atol=0.0)
        assert np.allclose(sol.w, 1.5)

    def test_degenerate_heston_branch_value(self):
        # rho = 1, lam = sigma eta / gamma, eta = gamma = sigma = 1: Gamma(0) = 1/2
        params, coeffs = heston1d_exp_riccati_inputs(1.0, 1.0, 1.0, 1.0, 1.0)
        sol = solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 1.0, steps=400)
        assert sol.gammas[0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_terminal_exact_bitwise(self, rng):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.zeros((2, 2)))
        u = rand_psd(rng, 2)
        sol = solve_rk(model.params, coeffs, u, -0.3, 1.0, steps=64)
        assert np.array_equal(sol.gammas[-1], symmetrize(u))
        assert sol.w[-1] == -0.3

    def test_symmetry_on_grid(self, rng):
        model = _heston_model_d2()
        coeffs = heston_power_coeffs(model, 0.35, EndowmentSpec.zero(2))
        sol = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=128)
        assert np.max(np.abs(sol.gammas - sol.gammas.transpose(0, 2, 1))) == 0.0

    def test_flow_property(self):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.zeros((2, 2)))
        T, s = 1.0, 0.4
        full = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, T, steps=1000)
        right = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, T - s, steps=600)
        # restart on [0, s] from the value at t = s (right segment's time origin shifts)
        left = solve_rk(model.params, coeffs, right.gammas[0], right.w[0], s, steps=400)
        assert np.max(np.abs(left.gammas[0] - full.gammas[0])) <= 1e-9
        assert abs(left.w[0] - full.w[0]) <= 1e-9

    def test_rk4_order(self):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.eye(2))
        ref = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=4000)
        e = {}
        for n in (200, 400):
            sol = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=n)
            idx = np.linspace(0, n, 21).astype(int)
            ref_idx = (idx * (4000 // n)).astype(int)
            e[n] = np.max(np.abs(sol.gammas[idx] - ref.gammas[ref_idx]))
        assert e[200] / e[400] >= 14.0

    def test_rk45_matches_rk4_at_nodes(self):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.zeros((2, 2)))
        rk4 = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=2000)
        rk45 = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, method="rk45",
                        adaptive_tol=1e-11)
        # endpoints are exact nodes of both solvers (interior comparisons would
        # be dominated by the documented linear-interpolation error)
        assert np.max(np.abs(rk45.gammas[0] - rk4.gammas[0])) <= 1e-9
        assert abs(rk45.w[0] - rk4.w[0]) <= 1e-9

    def test_blow_up_names_time(self):
        # positive quadratic coefficient: tangent-type explosion before t = 0
        params = AffineParams(alpha=np.array([[1.0]]), b=np.zeros((1, 1)),
                              drift=HFormDrift(np.zeros((1, 1))))
        coeffs = GeneratorCoeffs.build(1, c_zz=np.array([[0.25]]), c_x=np.array([[2.5]]))
        with pytest.raises(RiccatiBlowUpError) as exc:
            solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 1.0, steps=2000, blowup_norm=1e6)
        assert 0.0 <= exc.value.time < 1.0


class TestBlockExp:
    def test_zero_inhomogeneity_gives_zero(self, rng):
        model = _heston_model_d2()
        coeffs = GeneratorCoeffs.build(2, c_zz=0.5 * np.eye(2))
        sol = solve_block_exp(model.params, coeffs, 1.0, steps=100)
        assert np.max(np.abs(sol.gammas)) <= 1e-14
        assert np.allclose(sol.w, 0.0)

    def test_matches_1d_closed_form(self):
        eta, lam, sigma, rho, gamma = 0.8, -0.4, 0.9, -0.6, 1.2
        params, coeffs = heston1d_exp_riccati_inputs(eta, lam, sigma, rho, gamma)
        # c_zz < 0 here: the block linearization itself does not require a sign
        gold = heston1d_exp_closed_form(eta, lam, sigma, rho, gamma, 0.0, 1.0)
        sol = solve_block_exp(params, coeffs, 1.0, steps=200)
        errs = np.abs(sol.gammas[:, 0, 0] - gold.gamma(sol.grid))
        assert errs.max() <= 1e-12

    def test_matches_rk_on_d2_instance(self, rng):
        model = _heston_model_d2()
        coeffs = heston_power_coeffs(
            model, 0.35,
            EndowmentSpec.zero(2),
        )
        be = solve_block_exp(model.params, coeffs, 1.0, steps=500)
        rk = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=500)
        assert np.max(np.abs(be.gammas - rk.gammas)) <= 1e-8
        assert np.max(np.abs(be.w - rk.w)) <= 1e-8

    def test_c_y_integrating_factor(self, rng):
        model = _heston_model_d2()
        coeffs = GeneratorCoeffs.build(
            2, c_zz=0.4 * np.eye(2), c_x=0.2 * np.eye(2), c_y=0.5, c_t=0.1,
        )
        be = solve_block_exp(model.params, coeffs, 1.0, steps=400)
        rk = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=400)
        assert np.max(np.abs(be.w - rk.w)) <= 1e-9

    @pytest.mark.parametrize("v", [1.5, -2.0])
    def test_terminal_v_matches_rk(self, v):
        model = _heston_model_d2()
        coeffs = GeneratorCoeffs.build(2, c_zz=0.4 * np.eye(2), c_x=0.2 * np.eye(2), c_y=0.5, c_t=0.1)
        be = solve_block_exp(model.params, coeffs, 1.0, steps=2000, terminal_v=v)
        rk = solve_rk(model.params, coeffs, np.zeros((2, 2)), v, 1.0, steps=2000)
        assert be.terminal_v == v
        assert np.max(np.abs(be.w - rk.w)) <= 1e-12

    def test_singular_a22_raises(self):
        params = AffineParams(alpha=np.array([[1.0]]), b=np.zeros((1, 1)),
                              drift=HFormDrift(np.zeros((1, 1))))
        # sqrt(4 c_zz c_x) T = pi/2 puts the A_22 zero crossing exactly at t = 0
        c_x = (np.pi / 2.0) ** 2
        coeffs = GeneratorCoeffs.build(1, c_zz=np.array([[0.25]]), c_x=np.array([[c_x]]))
        with pytest.raises(BlockExpSingularError) as exc:
            solve_block_exp(params, coeffs, 1.0, steps=2000)
        assert 0.0 <= exc.value.time <= 1.0

    def test_pole_inside_horizon_raises_blow_up(self):
        # c_x = c_zz = 5, sigma = 1/2: going backward from T = 2, Gamma reaches a
        # pole near t = 1.704, where det A_22 changes sign between two knots
        params = AffineParams(alpha=np.array([[0.25]]), b=np.zeros((1, 1)),
                              drift=HFormDrift(np.array([[0.5]])))
        coeffs = GeneratorCoeffs.build(1, c_zz=np.array([[5.0]]), c_x=np.array([[5.0]]))
        with pytest.raises(RiccatiBlowUpError) as be:
            solve_block_exp(params, coeffs, 2.0, steps=2000)
        with pytest.raises(RiccatiBlowUpError) as rk:
            solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 2.0, steps=2000)
        assert be.value.time == pytest.approx(rk.value.time, abs=0.01)
        assert be.value.norm == np.inf
        # a horizon that stops short of the pole still solves, and matches rk4
        short = solve_block_exp(params, coeffs, 0.25, steps=500)
        ref = solve_rk(params, coeffs, np.zeros((1, 1)), 0.0, 0.25, steps=500)
        assert np.max(np.abs(short.gammas - ref.gammas)) <= 1e-8


class TestAssumptions:
    def test_heston_power_czz_positive(self):
        model = _heston_model_d2()
        coeffs = heston_power_coeffs(
            model, 0.35,
            EndowmentSpec.zero(2),
        )
        report = validate_assumptions(model.params, coeffs)
        assert report["A5m"]  # c_zz is PD, hence in S^+
        assert not report["A2p"]  # and therefore not in S^-

    def test_heston_power_zero_market_a2m(self):
        model = _heston_model_d2()
        zero_eta = type(model)(params=model.params, eta=np.zeros(2), corr=model.corr, r0=model.r0)
        coeffs = heston_power_coeffs(
            zero_eta, 0.35,
            EndowmentSpec.zero(2),
        )
        report = validate_assumptions(model.params, coeffs)
        assert report["A2m"]

    def test_heston_exp_czz_negative(self):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.zeros((2, 2)))
        report = validate_assumptions(model.params, coeffs)
        assert report["A2p"]  # c_zz ND and script C PSD

    def test_zero_coefficients_pass_cones(self):
        d = 2
        params = AffineParams(alpha=np.eye(d), b=2.0 * np.eye(d), drift=HFormDrift(np.zeros((d, d))))
        coeffs = GeneratorCoeffs.build(d)
        report = validate_assumptions(params, coeffs)
        assert report["A2p"] and report["A2m"]

    def test_full_report_of_an_a2p_and_an_a2m_generator(self):
        d = 2
        params = AffineParams(alpha=np.eye(d), b=2.0 * np.eye(d),
                              drift=HFormDrift(np.array([[-0.5, 0.1], [0.0, -0.3]])))
        vacuous = dict.fromkeys(("A3p", "A3m", "A4p", "A4m", "A6p", "A6m", "A7"), True)
        a2p = GeneratorCoeffs.build(d, c_zz=-0.3 * np.eye(d), c_x=np.array([[0.4, 0.1], [0.1, 0.2]]))
        assert validate_assumptions(params, a2p) == {
            "A1": True, "A2p": True, "A2m": False, "A5p": True, "A5m": False, **vacuous}
        # the mirror, under a general-form drift: A1 fails; then a PD c_x keeps A2m
        # out while c_zz stays in S^+
        general = AffineParams(alpha=np.eye(d), b=2.0 * np.eye(d),
                               drift=GeneralFormDrift(np.zeros((d, d, d, d))))
        a2m = GeneratorCoeffs.build(d, c_zz=0.3 * np.eye(d), c_x=-0.2 * np.eye(d))
        assert validate_assumptions(general, a2m) == {
            "A1": False, "A2p": False, "A2m": True, "A5p": False, "A5m": True, **vacuous}
        assert validate_assumptions(general, dataclasses.replace(a2m, c_x=0.2 * np.eye(d))) == {
            "A1": False, "A2p": False, "A2m": False, "A5p": False, "A5m": True, **vacuous}

    def test_jump_coefficients_are_refused(self):
        params, coeffs, _ = quasi_monotone_jump_instance()
        with pytest.raises(ValueError, match="not decidable"):
            validate_assumptions(params, coeffs)
        d = params.d
        only_g_t = GeneratorCoeffs.build(d, g_t=lambda y: 0.1 * y)
        with pytest.raises(ValueError, match=r"\['g_t'\]"):
            validate_assumptions(params, only_g_t)


class TestQuasiMonotone:
    def test_compliant_instance_non_negative(self):
        params, coeffs, _ = quasi_monotone_jump_instance()
        probe = quasi_monotone_probe(params, coeffs, n_samples=200, seed=1)
        assert probe.min_value >= -1e-9

    def test_no_jump_psd_script_c(self, rng):
        model = _heston_model_d2()
        coeffs = GeneratorCoeffs.build(2, c_zz=-0.3 * np.eye(2), c_x=0.4 * np.eye(2))
        probe = quasi_monotone_probe(model.params, coeffs, n_samples=150, seed=2)
        assert probe.min_value >= -1e-9

    def test_adversarial_decreasing_g_x_detected(self):
        d = 2
        params = AffineParams(
            alpha=np.zeros((d, d)), b=np.zeros((d, d)), drift=HFormDrift(np.zeros((d, d))),
            m=ConstantJumps.from_atoms([(0.3 * np.eye(d), 1.0)]),
        )
        coeffs = GeneratorCoeffs.build(d, g_x=lambda y: -0.5 * y * np.eye(d))
        probe = quasi_monotone_probe(params, coeffs, n_samples=100, seed=3)
        assert probe.min_value < -1e-6


class TestConePreservationAndGrowth:
    def test_pd_terminal_stays_pd(self):
        params, coeffs, u = quasi_monotone_jump_instance()
        sol = solve_rk(params, coeffs, u, 0.0, 1.0, steps=600)
        assert np.min(sol.min_eigenvalues()) > 0.0

    def test_mirrored_nsd_instance_stays_nsd(self):
        d = 2
        eye = np.eye(d)
        params = AffineParams(
            alpha=0.09 * eye, b=0.18 * eye, drift=HFormDrift(np.array([[-0.5, 0.02], [0.01, -0.4]])),
            m=ConstantJumps.from_atoms([(np.array([[0.10, 0.02], [0.02, 0.06]]), 0.8)]),
        )
        coeffs = GeneratorCoeffs.build(
            d,
            c_zz=0.4 * eye,
            c_x=-0.3 * eye,
            g_M=lambda y: 0.1 * y,
            g_x=lambda y: 0.08 * y * eye,
            g_zsqrtx=lambda y: -0.03 * np.tanh(y) * eye,
            g_y=lambda y: -0.01 * np.tanh(y),
        )
        twin = dataclasses.replace(coeffs, **dict.fromkeys(JUMP_COEFFS))  # same c_zz and c_x
        assert validate_assumptions(params, twin)["A2m"]
        sol = solve_rk(params, coeffs, -0.2 * eye, 0.0, 1.0, steps=600)
        assert np.max(sol.max_eigenvalues()) < 1e-12


def square_2x2():
    """A 2x2 matrix with entries in [-1, 1]."""
    entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.lists(entry, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))


class TestConeInvariance:
    """Under A2+ (c_zz <= 0, C >= 0, u >= 0) Gamma stays in S+; mirrored (A2-), in S-."""

    # a failing example is reported as drawn: shrinking it would re-solve the
    # Riccati system thousands of times
    @pytest.mark.parametrize("sign, tag", [(1.0, "A2p"), (-1.0, "A2m")])
    @settings(max_examples=40, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
    @given(h=square_2x2(), g_alpha=square_2x2(), g_czz=square_2x2(), g_c=square_2x2(),
           g_u=square_2x2(), c_zsqrtx=square_2x2(), c_y=st.floats(-1.0, 1.0))
    def test_rk4_gamma_stays_in_cone(self, sign, tag, h, g_alpha, g_czz, g_c, g_u, c_zsqrtx, c_y):
        alpha = symmetrize(g_alpha @ g_alpha.T)
        params = AffineParams(alpha=alpha, b=alpha, drift=HFormDrift(h))
        coeffs = GeneratorCoeffs.build(2, c_zz=-sign * symmetrize(g_czz @ g_czz.T),
                                       c_x=sign * symmetrize(g_c @ g_c.T), c_zsqrtx=c_zsqrtx, c_y=c_y)
        assert validate_assumptions(params, coeffs)[tag]
        sol = solve_rk(params, coeffs, sign * symmetrize(g_u @ g_u.T), 0.0, 1.0, steps=100)
        outside = -np.linalg.eigvalsh(sign * sol.gammas)[:, 0]  # distance out of the cone
        assert np.all(outside <= 1e-10 * (1.0 + np.linalg.norm(sol.gammas, axis=(1, 2))))


def h_form_model(data, d):
    """An H-form model drawn the way the benchmark's generated riccati-solve configs are.

    Norms are capped (a PSD draw is scaled to Frobenius norm ``scale``) so that
    nothing explodes before t = 0; constant-jump atoms are optional.
    """
    entry = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)

    def square():
        return np.array(data.draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)

    def psd(scale):
        g = square()
        m = g @ g.T
        return scale * m / (np.linalg.norm(m) or 1.0)

    alpha = psd(0.2) + 0.05 * np.eye(d)
    atoms = [(psd(0.3), data.draw(st.floats(0.3, 1.0))) for _ in range(data.draw(st.integers(0, 2)))]
    h = -0.5 * np.eye(d) + 0.1 * square()
    coeffs = GeneratorCoeffs.build(d, c_zz=psd(0.2) + 0.1 * np.eye(d), c_zsqrtx=0.2 * square(),
                                   c_x=psd(0.2), c_y=0.2, c_t=0.1)
    m = ConstantJumps.from_atoms(atoms) if atoms else None
    return alpha, (d + 0.5) * alpha, h, m, coeffs, psd(0.1)


# a failing example is reported as drawn: shrinking it would re-solve the Riccati system many times
@settings(max_examples=60, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
@given(data=st.data(), d=st.sampled_from([2, 3]))
def test_h_form_and_its_betas_expansion_solve_alike(data, d):
    """The general-form right-hand side (a betas drift) agrees with the H-form one under rk4 and rk45."""
    alpha, b, h, m, coeffs, u = h_form_model(data, d)
    eye = np.eye(d)
    betas = np.einsum("ki,jl->ijkl", h, eye) + np.einsum("ik,lj->ijkl", eye, h)
    sols = {}
    for form, drift in (("h", HFormDrift(h)), ("betas", GeneralFormDrift(betas))):
        params = AffineParams(alpha=alpha, b=b, drift=drift, m=m)
        sols[form] = {method: solve_rk(params, coeffs, u, 0.3, 1.0, steps=100, method=method)
                      for method in ("rk4", "rk45")}
    for method in ("rk4", "rk45"):
        ref, got = sols["h"][method], sols["betas"][method]
        # rk45's knots are chosen from the local error, so compare it at t = 0 and t = T
        knots = slice(None) if method == "rk4" else [0, -1]
        if method == "rk4":
            assert np.array_equal(ref.grid, got.grid)
        scale = max(1.0, float(np.max(np.abs(ref.gammas))))
        assert np.max(np.abs(got.gammas[knots] - ref.gammas[knots])) <= 1e-12 * scale
        assert np.max(np.abs(got.w[knots] - ref.w[knots])) <= 1e-12 * max(1.0, float(np.max(np.abs(ref.w))))
