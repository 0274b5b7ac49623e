import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinebsde.affine_model import (
    AffineParams,
    BlowUpError,
    ConstantJumps,
    GeneralFormDrift,
    HFormDrift,
    LinearJumps,
    solve_transform,
    transform_rhs_F,
    transform_rhs_R,
    truncation,
    validate_admissibility,
    wishart_params,
)
from affinebsde.symcone import frobenius, mat_exp, psd_sqrt, symmetrize, trace_inner
from conftest import rand_pd, rand_psd, rand_sym


def random_general_drift(rng, d):
    betas = rng.standard_normal((d, d, d, d))
    return GeneralFormDrift(betas)  # constructor symmetrizes


def test_sigma_is_the_psd_root_of_alpha(rng):
    alpha = rand_pd(rng, 3, 0.5)
    params = AffineParams(alpha=alpha, b=3.0 * alpha, drift=HFormDrift(np.zeros((3, 3))))
    assert np.array_equal(params.sigma, psd_sqrt(params.alpha))
    with pytest.raises(TypeError):  # not a constructor argument
        AffineParams(alpha=alpha, b=3.0 * alpha, drift=HFormDrift(np.zeros((3, 3))), sigma=np.eye(3))


class TestTruncation:
    def test_inside_ball(self):
        xi = 0.5 * np.eye(1)
        assert np.array_equal(truncation(xi, 1.0), xi)

    def test_outside_ball(self):
        assert np.array_equal(truncation(2.0 * np.eye(1), 1.0), np.zeros((1, 1)))

    def test_boundary_is_kept(self):
        # closed ball: ||xi|| == r keeps the atom
        xi = np.diag([1.0, 0.0])
        assert np.array_equal(truncation(xi, 1.0), xi)


class TestDriftMaps:
    def test_hform_identity(self, rng):
        x = rand_sym(rng, 3)
        assert np.allclose(HFormDrift(np.eye(3)).apply(x), 2.0 * x)

    def test_hform_zero(self, rng):
        assert np.allclose(HFormDrift(np.zeros((2, 2))).apply(rand_sym(rng, 2)), 0.0)

    def test_general_form_matches_double_sum(self, rng):
        d = 3
        drift = random_general_drift(rng, d)
        x = rand_sym(rng, d)
        oracle = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                oracle += drift.betas[i, j] * x[i, j]
        assert np.allclose(drift.apply(x), oracle, atol=1e-13)

    def test_adjoint_identity_both_forms(self, rng):
        for d in (2, 3):
            drifts = [HFormDrift(rng.standard_normal((d, d))), random_general_drift(rng, d)]
            for drift in drifts:
                for _ in range(50):
                    x, u = rand_sym(rng, d), rand_sym(rng, d)
                    lhs = trace_inner(drift.apply(x), u)
                    rhs = trace_inner(x, drift.adjoint(u))
                    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_bstar_single_beta_block(self):
        d = 2
        betas = np.zeros((d, d, d, d))
        betas[0, 0] = np.eye(d)
        drift = GeneralFormDrift(betas)
        u = np.array([[1.0, 0.5], [0.5, 2.0]])
        expected = np.zeros((d, d))
        expected[0, 0] = np.trace(u)
        assert np.allclose(drift.adjoint(u), expected)


class TestKernelWeight:
    def test_zero_state(self):
        mu = LinearJumps.from_atoms([(np.eye(2), np.eye(2))])
        assert mu.kernel_weights(np.zeros((2, 2)))[0] == 0.0

    def test_identity_case(self):
        # ||xi|| >= 1 so the denominator saturates at 1; Tr(I U)=d
        mu = LinearJumps.from_atoms([(np.eye(2), np.eye(2))])
        assert mu.kernel_weights(np.eye(2))[0] == pytest.approx(2.0)

    def test_matches_formula(self, rng):
        xi = rand_psd(rng, 2, ridge=0.05)
        u_mat = rand_psd(rng, 2, ridge=0.05)
        mu = LinearJumps.from_atoms([(xi, u_mat)])
        x = rand_psd(rng, 2)
        expected = trace_inner(x, u_mat) / min(frobenius(xi) ** 2, 1.0)
        assert mu.kernel_weights(x)[0] == pytest.approx(expected, rel=1e-12)


class TestAtoms:
    """An atom must be nonzero as stored, i.e. after symmetrization."""

    SKEW = np.array([[[0.0, 1.0], [-1.0, 0.0]]])  # nonzero, but its symmetric part is 0

    def test_constant_jumps_reject_skew_atom(self):
        with pytest.raises(ValueError, match="nonzero"):
            ConstantJumps(self.SKEW, np.array([1.0]))

    def test_linear_jumps_reject_skew_atom(self):
        with pytest.raises(ValueError, match="nonzero"):
            LinearJumps(self.SKEW, np.eye(2)[None])


def jump_params(rng, d=2):
    m = ConstantJumps.from_atoms([
        (rand_psd(rng, d, ridge=0.02), 0.7),
        (rand_psd(rng, d, ridge=0.02), 0.4),
    ])
    mu = LinearJumps.from_atoms([
        (rand_psd(rng, d, ridge=0.02), rand_psd(rng, d, ridge=0.02)),
    ])
    alpha = rand_pd(rng, d, scale=0.3)
    return AffineParams(alpha=alpha, b=(d + 0.5) * alpha, drift=HFormDrift(-0.4 * np.eye(d)),
                        m=m, mu=mu)


class TestTransformRhs:
    def test_zero_argument_no_jumps(self, rng):
        params = wishart_params(rand_pd(rng, 2, 0.4), 3.0, -0.5 * np.eye(2))
        assert transform_rhs_F(params, np.zeros((2, 2))) == 0.0
        assert np.allclose(transform_rhs_R(params, np.zeros((2, 2))), 0.0)

    def test_zero_argument_with_jumps(self, rng):
        params = jump_params(rng)
        # exp(0)-1 = 0 and the chi-compensation vanishes at u = 0
        assert transform_rhs_F(params, np.zeros((2, 2))) == 0.0
        assert np.allclose(transform_rhs_R(params, np.zeros((2, 2))), 0.0)

    def test_matches_atom_sum_oracle(self, rng):
        params = jump_params(rng)
        u = rand_psd(rng, 2)
        f_oracle = trace_inner(params.b, u)
        for k in range(params.m.n):
            f_oracle -= params.m.weights[k] * (np.exp(-trace_inner(u, params.m.xis[k])) - 1.0)
        assert transform_rhs_F(params, u) == pytest.approx(f_oracle, rel=1e-12)

        r_oracle = -2.0 * u @ params.alpha @ u + params.drift.adjoint(u)
        for k in range(params.mu.n):
            xi, umat = params.mu.xis[k], params.mu.us[k]
            den = min(frobenius(xi) ** 2, 1.0)
            chi = truncation(xi, params.trunc_radius)
            val = np.exp(-trace_inner(u, xi)) - 1.0 + trace_inner(chi, u)
            r_oracle = r_oracle - val / den * umat
        assert np.allclose(transform_rhs_R(params, u), symmetrize(r_oracle), atol=1e-12)

    def test_rhs_R_is_symmetric(self, rng):
        params = jump_params(rng)
        for _ in range(20):
            out = transform_rhs_R(params, rand_psd(rng, 2))
            assert frobenius(out - out.T) <= 1e-14


class TestSolveTransform:
    def test_initial_condition(self, rng):
        params = wishart_params(rand_pd(rng, 2, 0.4), 3.0, -0.5 * np.eye(2))
        u0 = rand_psd(rng, 2)
        sol = solve_transform(params, u0, 0.0)
        assert sol.phi == 0.0
        assert np.array_equal(sol.psi, symmetrize(u0))

    def test_pure_drift_exp_conjugation(self, rng):
        # alpha = 0, no jumps: psi(t) = e^{H^T t} u0 e^{H t}
        d = 2
        h = rng.standard_normal((d, d)) * 0.5
        params = AffineParams(alpha=np.zeros((d, d)), b=np.zeros((d, d)), drift=HFormDrift(h))
        u0 = rand_psd(rng, d)
        t = 0.8
        sol = solve_transform(params, u0, t, steps=400)
        e = mat_exp(h * t)
        assert np.allclose(sol.psi, e.T @ symmetrize(u0) @ e, atol=1e-10)

    def test_psd_violation_is_smallest_eigenvalue_along_psi(self, rng):
        params = jump_params(rng)
        u0 = np.array([[0.6, 0.2], [0.2, -0.3]])  # indefinite start
        t, steps = 0.5, 40
        sol = solve_transform(params, u0, t, steps=steps)
        # psi at knot k, from a k-step prefix solve with the same step length
        lmins = [np.linalg.eigvalsh(solve_transform(params, u0, k * t / steps, steps=k).psi)[0]
                 for k in range(1, steps + 1)]
        assert sol.psd_violation < 0.0
        assert sol.psd_violation == pytest.approx(min(lmins), rel=1e-10)

    def test_psd_violation_zero_along_pd_trajectory(self, rng):
        # alpha = 0, no jumps: psi(t) = e^{H^T t} u0 e^{H t} stays positive definite
        params = AffineParams(alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                              drift=HFormDrift(rng.standard_normal((2, 2)) * 0.5))
        sol = solve_transform(params, rand_pd(rng, 2), 0.8, steps=100)
        assert sol.psd_violation == 0.0

    def test_zero_start_is_fixed_point(self, rng):
        params = jump_params(rng)
        sol = solve_transform(params, np.zeros((2, 2)), 1.0, steps=100)
        assert sol.phi == 0.0
        assert np.allclose(sol.psi, 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_wishart_closed_form(self, rng, d):
        # E exp(-Tr(u X_t)) = det(I + 2 V_t u)^(-beta/2) exp(-Tr(u (I + 2 V_t u)^-1 e^{tH} x e^{tH'}))
        # for b = beta alpha, with V_t = int_0^t e^{sH} alpha e^{sH'} ds read off one
        # block exponential (Van Loan 1978); an oracle independent of the RK4 solve.
        import scipy.linalg

        t, eye = 1.3, np.eye(d)
        for _ in range(3):
            alpha = rand_pd(rng, d, 0.5)
            h = -0.4 * eye + 0.3 * rng.standard_normal((d, d))
            beta = d - 1 + rng.uniform(0.0, 2.0)
            u, x = rand_psd(rng, d, 0.8), rand_pd(rng, d)
            params = AffineParams(alpha=alpha, b=beta * alpha, drift=HFormDrift(h))
            flow = scipy.linalg.expm(t * np.block([[-h, alpha], [np.zeros((d, d)), h.T]]))
            v_t = flow[d:, d:].T @ flow[:d, d:]
            m = eye + 2.0 * v_t @ u
            e = flow[d:, d:].T  # e^{tH}
            exact = np.linalg.det(m) ** (-beta / 2.0) * np.exp(-np.trace(u @ np.linalg.solve(m, e @ x @ e.T)))
            got = solve_transform(params, u, t, steps=2000).laplace(x)
            assert abs(got - exact) <= 1e-10 * exact

    def test_blow_up_raises(self):
        # R(u) ~ -2u alpha u stays bounded; force explosion with a huge linear drift
        params = AffineParams(alpha=np.zeros((1, 1)), b=np.zeros((1, 1)),
                              drift=HFormDrift(np.array([[40.0]])))
        with pytest.raises(BlowUpError) as exc:
            solve_transform(params, np.eye(1), 1.0, steps=200, blowup_norm=1e6)
        assert 0.0 < exc.value.time <= 1.0


def inward_value(report) -> float:
    """The inward-drift minimum, as the report's detail prints it (exactly, via repr)."""
    return float(report.checks["inward_drift"].detail.rsplit("= ", 1)[1])


def sampled_inward_minimum(params, n_boundary=200, seed=0) -> float:
    """The sampled inward-drift check the exact one replaced, kept as its oracle.

    Random (x, u) with Tr(x u) = 0 from complementary eigenspaces of a random
    orthogonal matrix; the value Tr(B(x) u) - sum_k Tr(chi(xi_k) u) M(x, xi_k).
    """
    rng = np.random.default_rng(seed)
    d = params.d
    worst = np.inf
    for _ in range(n_boundary):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        r = int(rng.integers(1, d))
        x = symmetrize((q[:, :r] * rng.uniform(0.2, 2.0, size=r)) @ q[:, :r].T)
        u = symmetrize((q[:, r:] * rng.uniform(0.2, 2.0, size=d - r)) @ q[:, r:].T)
        val = trace_inner(params.drift.apply(x), u)
        if params.mu.n:
            val -= float(np.dot(params.chi_traces(u, params.mu), params.mu.kernel_weights(x)))
        worst = min(worst, val)
    return worst


def random_h_form_model(rng, d):
    """An H-form model with constant jumps and a linear-jump atom outside the truncation ball."""
    alpha = rand_pd(rng, d, scale=0.3)
    xi = rand_psd(rng, d, ridge=0.02)
    return AffineParams(
        alpha=alpha, b=(d + 0.5) * alpha, drift=HFormDrift(rng.standard_normal((d, d))),
        m=ConstantJumps.from_atoms([(rand_psd(rng, d, ridge=0.02), 0.7)]),
        mu=LinearJumps.from_atoms([((1.5 / frobenius(xi)) * xi, rand_psd(rng, d, ridge=0.02))]),
    )


class TestAdmissibility:
    def test_wishart_set_accepted(self, rng):
        sig = rand_pd(rng, 2, 0.5)
        params = wishart_params(sig, k=2.5, h=rng.standard_normal((2, 2)))
        report = validate_admissibility(params)
        assert report.passed, str(report)

    def test_b_below_threshold_rejected(self, rng):
        alpha = rand_pd(rng, 3, 0.5)
        params = AffineParams(alpha=alpha, b=(3 - 1 - 0.5) * alpha, drift=HFormDrift(np.zeros((3, 3))))
        report = validate_admissibility(params)
        assert not report.checks["b_dominates"].passed

    def test_outward_linear_drift_rejected(self, rng):
        # B(x) = -Tr(x) I gives Tr(B(x)u) = -Tr(x)Tr(u) < 0 on boundary pairs
        d = 2
        betas = np.zeros((d, d, d, d))
        for i in range(d):
            betas[i, i] = -np.eye(d)
        alpha = np.eye(d)
        params = AffineParams(alpha=alpha, b=2.0 * alpha, drift=GeneralFormDrift(betas))
        report = validate_admissibility(params)
        assert not report.checks["inward_drift"].passed
        assert inward_value(report) == -1.0  # -Tr(v v^T) Tr(w w^T) for every unit pair

    @pytest.mark.parametrize("h", [np.zeros((2, 2)), np.array([[0.3, -1.2], [0.7, 2.0]])])
    def test_linear_jump_inside_ball_closed_form_witness(self, h):
        # xi = e1 e1^T / 2, U = e2 e2^T: the value -(w^T xi w / 0.25)(v^T U v) = -2 w1^2 v2^2
        # is least, -2, at w = e1, v = e2; the H-form drift adds nothing on w-perp
        e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        params = AffineParams(alpha=np.eye(2), b=2.0 * np.eye(2), drift=HFormDrift(h),
                              mu=LinearJumps.from_atoms([(0.5 * e1, e2)]))
        report = validate_admissibility(params)
        check = report.checks["inward_drift"]
        assert not check.passed
        assert inward_value(report) == -2.0
        x, u = check.witness
        assert np.array_equal(x, e2) and np.array_equal(u, e1)

    def test_large_h_form_drift_passes_without_round_off(self):
        # drift_h x 1e8: the sampled check saw -3.7e-8 from round-off alone and failed it
        from affinebsde.portfolio import preset_heston_power

        params = preset_heston_power(steps=10).params
        big = AffineParams(alpha=params.alpha, b=params.b, drift=HFormDrift(1e8 * params.drift.h))
        report = validate_admissibility(big)
        assert report.passed, str(report)
        assert inward_value(report) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_h_form_minimum_is_exactly_zero(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            params = random_h_form_model(rng, d)
            report = validate_admissibility(params)
            assert report.passed, str(report)
            assert inward_value(report) == 0.0
            # the sampled check only ever saw round-off around the exact 0
            assert abs(sampled_inward_minimum(params)) <= 1e-14 * (1.0 + frobenius(params.drift.h))

    def test_reports_only_checks_that_can_fail(self, rng):
        # alpha PSD, U_k PSD and the integrability of m hold by construction
        for params in (jump_params(rng), random_h_form_model(rng, 3)):
            assert set(validate_admissibility(params).checks) == {"b_dominates", "inward_drift"}
