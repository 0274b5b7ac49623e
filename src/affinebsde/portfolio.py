"""Utility maximization and indifference pricing in affine volatility models.

Four solvers, all reducing to the backward matrix Riccati system:

* power utility in the continuous matrix-Heston model (closed form through a
  block matrix exponential, cross-checked by Runge-Kutta),
* exponential utility in the same model with variance-swap endowments
  (Runge-Kutta; the quadratic coefficient is negative semidefinite so the
  block-exponential hypotheses fail),
* power and exponential utility in the jump-OU (BNS-type) model, whose
  Riccati equations are linear and admit exact solutions for H-form drifts.

Every solver wires its generator coefficients through the same machinery that
the drift-match verifier consumes, so the constant factors shipped here are
exactly the ones that make the finite-variation residual vanish; the Monte
Carlo martingale and optimality audits check the same claims in distribution.
Each solve result carries the problem it solved (coefficients, parameters,
endowment); a :class:`UtilityPreset` binds one to its model for the audits.

Strategy units follow the objective: power-utility strategies are wealth
fractions, exponential-utility strategies are monetary positions; both are
deterministic functions of time here, which is the class the optimizers
belong to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .affine_model import AffineParams, ConstantJumps, HFormDrift, LinearJumps
from .bsde import BsdeSolutionEval, drift_match_stats
from .riccati import (
    GeneratorCoeffs,
    RiccatiSolution,
    backward_flow,
    script_C,
    solve_block_exp,
    solve_rk,
    varpi_quadrature,
)
from .simulator import (
    BnsJumpSpec,
    CorrelationSpec,
    PathFunctionals,
    bns_functionals,
    heston_functionals,
    mean_stderr,
)
from .symcone import ConeClass, as_sym, cone_classify, mat_exp, symmetrize, trace_inner


# -- model containers ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HestonModel:
    """Continuous matrix-valued stochastic volatility model.

    dR = (b + B(R)) dt + sqrt(R) dW S + S^T dW^T sqrt(R) with H-form B,
    dN = R eta dt + sqrt(R) dQ, dQ = dW rho + sqrt(1 - rho'rho) dD.
    ``ordinary_exponential`` switches the price convention from the stochastic
    exponential H = H0 E(N) to H = H0 e^N, which shifts eta by one half.
    """

    params: AffineParams
    eta: np.ndarray
    corr: CorrelationSpec
    r0: np.ndarray
    ordinary_exponential: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "r0", symmetrize(as_sym(self.r0)))
        if not isinstance(self.params.drift, HFormDrift):
            raise ValueError("the Heston solvers require an H-form linear drift")
        if not self.params.continuous:
            raise ValueError("the continuous model admits no jump atoms")
        if self.eta.shape != (self.params.d,) or self.corr.d != self.params.d:
            raise ValueError("eta/rho dimension mismatch")

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def eta_eff(self) -> np.ndarray:
        return self.eta + 0.5 if self.ordinary_exponential else self.eta


@dataclass(frozen=True, eq=False)
class BnsModel:
    """Jump-OU stochastic volatility model dR = (lam + Lambda(R)) dt + dJ."""

    spec: BnsJumpSpec
    eta: np.ndarray
    r0: np.ndarray
    ordinary_exponential: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "r0", symmetrize(as_sym(self.r0)))
        if self.eta.shape != (self.spec.d,):
            raise ValueError("eta dimension mismatch")

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def eta_eff(self) -> np.ndarray:
        return self.eta + 0.5 if self.ordinary_exponential else self.eta


@dataclass(frozen=True, eq=False)
class EndowmentSpec:
    """Terminal payoff weight on the auxiliary process: F = Tr(a O_T) - strike.

    O follows dO = sigma sqrt(R) dQhat + (o1 + o2 R) dt.  The variance-swap
    payoff on asset i uses a = e^{ii}/T, sigma = 0, o1 = 0, o2 = I (O is then
    realized covariance).
    """

    a: np.ndarray
    sigma: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    strike: float = 0.0

    def __post_init__(self):
        for name in ("a", "sigma", "o1", "o2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def zero(cls, d: int) -> "EndowmentSpec":
        z = np.zeros((d, d))
        return cls(a=z, sigma=z, o1=z, o2=z, strike=0.0)

    @classmethod
    def variance_swap(cls, asset: int, d: int, horizon: float, strike: float) -> "EndowmentSpec":
        """asset is 1-based; asset = 0 means no swap, which takes no strike (ValueError)."""
        z = np.zeros((d, d))
        if asset == 0:
            if strike:
                raise ValueError("a variance-swap strike needs an asset (asset 0 means no swap)")
            return cls(a=z, sigma=z, o1=z, o2=z, strike=0.0)
        if not 1 <= asset <= d:
            raise ValueError(f"variance-swap asset {asset} out of range 1..{d}")
        a = np.zeros((d, d))
        a[asset - 1, asset - 1] = 1.0 / horizon
        return cls(a=a, sigma=z, o1=z, o2=np.eye(d), strike=strike)


@dataclass(frozen=True, eq=False)
class UtilitySolveResult:
    """Value function, optimal strategy, the Riccati data behind them and the problem solved."""

    kind: str  # heston_power | heston_exp | bns_power | bns_exp
    gamma: float
    horizon: float
    riccati: RiccatiSolution
    coeffs: GeneratorCoeffs
    params: AffineParams
    endow: EndowmentSpec
    value_at: Callable[[float], float]
    strategy: Callable  # pi(t) at a time, or one row per time of an array
    diagnostics: dict = field(default_factory=dict)
    price: Optional[float] = None
    hedge: Optional[Callable] = None  # Delta(t), called like strategy

    def strategy_grid(self, times) -> np.ndarray:
        return _on_grid(self.strategy, times)

    def hedge_grid(self, times) -> np.ndarray:
        if self.hedge is None:
            raise ValueError("no hedge attached to this result")
        return _on_grid(self.hedge, times)


def _on_grid(fn: Callable, times) -> np.ndarray:
    """(K, d) rows fn(t_k): one call of fn on the array of times (a constant fn returns one row)."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    rows = np.asarray(fn(ts), dtype=float)
    return np.array(np.broadcast_to(rows, ts.shape + rows.shape[-1:]))


# -- generator-coefficient builders ---------------------------------------------------


def heston_power_coeffs(model: HestonModel, gamma: float, endow: EndowmentSpec) -> GeneratorCoeffs:
    """Quadratic-generator coefficients of the power-utility opportunity BSDE.

    The BSDE terminal value is gamma * Tr(a O_T), so the terminal weight fed
    into the Riccati machinery is gamma * a.
    """
    d = model.d
    rho = model.corr.rho
    eta = model.eta_eff
    fac = gamma / (2.0 * (1.0 - gamma))
    return GeneratorCoeffs.build(
        d,
        c_zz=0.5 * np.eye(d) + fac * np.outer(rho, rho),
        c_zsqrtx=2.0 * fac * np.outer(rho, eta),
        c_x=fac * np.outer(eta, eta),
        c_hzhz=0.5 * np.eye(d),
        a=gamma * endow.a,
        sigma=endow.sigma,
        o1=endow.o1,
        o2=endow.o2,
    )


def heston_exp_coeffs(model: HestonModel, gamma: float, swap_a: np.ndarray) -> GeneratorCoeffs:
    """Generator coefficients of the exponential-utility BSDE with payoff weight swap_a."""
    d = model.d
    rho = model.corr.rho
    eta = model.eta_eff
    return GeneratorCoeffs.build(
        d,
        c_zz=0.5 * gamma * (np.outer(rho, rho) - np.eye(d)),
        c_zsqrtx=-np.outer(rho, eta),
        c_x=np.outer(eta, eta) / (2.0 * gamma),
        a=np.asarray(swap_a, dtype=float),
        o2=np.eye(d),
    )


def bns_power_coeffs(model: BnsModel, gamma: float) -> GeneratorCoeffs:
    d = model.d
    eta = model.eta_eff
    return GeneratorCoeffs.build(
        d,
        c_x=-gamma / (2.0 * (1.0 - gamma)) * np.outer(eta, eta),
        g_t=lambda y: -(np.expm1(-y) + y),
    )


def bns_exp_coeffs(model: BnsModel, gamma: float, swap_a: np.ndarray) -> GeneratorCoeffs:
    d = model.d
    eta = model.eta_eff
    return GeneratorCoeffs.build(
        d,
        c_x=np.outer(eta, eta) / (2.0 * gamma),
        a=np.asarray(swap_a, dtype=float),
        o2=np.eye(d),
        g_t=lambda y: -(np.expm1(gamma * y) - gamma * y) / gamma,
    )


# -- linear matrix ODE closed form ------------------------------------------------------


def linear_backward_closed_form(h_mat: np.ndarray, const: np.ndarray, T: float, steps: int) -> np.ndarray:
    """Exact grid solution of -Gamma' = Gamma H + H^T Gamma + C, Gamma(T) = 0.

    Vectorized as y' = -K y - c with K = I (x) H^T + H^T (x) I and solved with
    one augmented matrix exponential per step, accumulated backwards by
    :func:`~affinebsde.riccati.backward_flow`.
    """
    d = h_mat.shape[0]
    eye = np.eye(d)
    kmat = np.kron(eye, h_mat.T) + np.kron(h_mat.T, eye)
    z = np.zeros((d * d + 1, d * d + 1))
    z[: d * d, : d * d] = kmat
    z[: d * d, -1] = symmetrize(const).ravel()
    flows = backward_flow(mat_exp((T / steps) * z), steps)
    gammas = symmetrize(flows[:, : d * d, -1].reshape(steps + 1, d, d))
    gammas[-1] = 0.0
    return gammas


def _bns_solve(params: AffineParams, coeffs: GeneratorCoeffs, terminal_v: float, T: float,
               steps: int) -> RiccatiSolution:
    """Linear Riccati solve for the jump-OU models: closed form when H-form.

    -Gamma' = B*(Gamma) + C with C = script_C, the generator having no
    quadratic term.  The c_y/g_y-free varpi is a plain integral given Gamma,
    evaluated by the cumulative Simpson chain on the grid.
    """
    zero = np.zeros((params.d, params.d))
    if isinstance(params.drift, HFormDrift):
        # B*(u) = u H + H^T u
        gammas = linear_backward_closed_form(params.drift.h, script_C(params, coeffs), T, steps)
        grid = np.linspace(0.0, T, steps + 1)
        w = varpi_quadrature(params, coeffs, grid, gammas, terminal_v)
        return RiccatiSolution(
            grid=grid, gammas=gammas, w=w, terminal_u=zero,
            terminal_v=terminal_v, method="LinearExp",
        )
    return solve_rk(params, coeffs, zero, terminal_v, T, steps=steps)


# -- Heston power utility ----------------------------------------------------------------

# Largest max-abs Gamma gap allowed between the block-exponential and RK routes.
ROUTE_GAP_TOL = 1e-6


def heston_power_solve(
    model: HestonModel,
    gamma: float,
    endow: EndowmentSpec,
    T: float,
    steps: int = 2000,
    cross_check: bool = True,
    drift_match_samples: int = 20,
) -> UtilitySolveResult:
    """Maximal expected power utility of terminal wealth times exp(Tr(a O_T)).

    The opportunity exponent Gamma solves a constant-coefficient Riccati
    equation whose quadratic coefficient 2 alpha + 2 gamma/(1-gamma)
    S' rho rho' S is positive definite, so the block-matrix-exponential closed
    form applies (alpha must be PD).  With ``cross_check`` the Runge-Kutta
    route re-solves the same equation and the two Gamma trajectories must agree
    to ``ROUTE_GAP_TOL`` (max abs gap, otherwise RuntimeError); the drift-match
    residual of the assembled BSDE solution is sampled into diagnostics.

    V(x) = (x^gamma / gamma) exp(Tr(Gamma(0) r0) + w(0)),
    pi(t) = (eta + 2 Gamma(t) S' rho) / (1 - gamma)  (wealth fractions).
    The payoff factor has no strike: a nonzero ``endow.strike`` raises ValueError.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("power utility needs gamma in (0, 1)")
    if endow.strike:
        raise ValueError("power utility takes no endowment strike: its payoff factor is exp(Tr(a O_T))")
    if cone_classify(model.params.alpha) is not ConeClass.PD:
        raise ValueError("the closed-form route requires alpha positive definite")
    coeffs = heston_power_coeffs(model, gamma, endow)
    sol = solve_block_exp(model.params, coeffs, T, steps=steps)
    diagnostics: dict = {"method": "BlockExp"}
    if cross_check:
        rk = solve_rk(model.params, coeffs, np.zeros((model.d, model.d)), 0.0, T, steps=steps)
        gap = float(np.max(np.abs(rk.gammas - sol.gammas)))
        diagnostics["route_gap"] = gap
        if gap > ROUTE_GAP_TOL:
            raise RuntimeError(f"block-exponential and RK routes disagree (max gap {gap:.3e})")
    if drift_match_samples:
        ev = BsdeSolutionEval(riccati=sol, coeffs=coeffs, params=model.params)
        diagnostics["drift_match"] = drift_match_stats(ev, n_samples=drift_match_samples)

    s_rho = model.params.sigma.T @ model.corr.rho
    eta = model.eta_eff
    gamma0 = sol.gammas[0]
    y0 = trace_inner(gamma0, model.r0) + sol.w[0]
    opportunity = float(np.exp(y0))
    diagnostics["log_opportunity"] = y0

    def value_at(x: float) -> float:
        return x**gamma / gamma * opportunity

    def strategy(t) -> np.ndarray:
        return (eta + 2.0 * sol.gamma_at(t) @ s_rho) / (1.0 - gamma)

    return UtilitySolveResult(
        kind="heston_power", gamma=gamma, horizon=T, riccati=sol, coeffs=coeffs,
        params=model.params, endow=endow, value_at=value_at, strategy=strategy,
        diagnostics=diagnostics,
    )


def heston_power_indifference_value(
    model: HestonModel,
    gamma: float,
    endow_float: EndowmentSpec,
    endow_fixed: EndowmentSpec,
    T: float,
    x: float,
    steps: int = 2000,
) -> float:
    """Cash amount p with V^float(x - p) = V^fixed(x).

    Power utility scales as x^gamma, so
    p = x - x (C_fixed / C_float)^(1/gamma) with C the opportunity factors.
    """
    v_float = heston_power_solve(model, gamma, endow_float, T, steps=steps, cross_check=False,
                                 drift_match_samples=0)
    v_fixed = heston_power_solve(model, gamma, endow_fixed, T, steps=steps, cross_check=False,
                                 drift_match_samples=0)
    log_c_float = v_float.diagnostics["log_opportunity"]
    log_c_fixed = v_fixed.diagnostics["log_opportunity"]
    return x - x * float(np.exp((log_c_fixed - log_c_float) / gamma))


def heston_power_numeraire_value(
    model: HestonModel,
    gamma: float,
    o1,
    o2,
    o3,
    T: float,
    x: float,
    steps: int = 2000,
) -> float:
    """Indifference value of switching a fixed discounting rate for a floating one.

    The fixed leg discounts by -Tr(o3) T, the floating leg by
    -int Tr(o1 + o2 R) dt; both enter through the endowment weight a = -I.
    """
    d = model.d
    z = np.zeros((d, d))
    floating = EndowmentSpec(a=-np.eye(d), sigma=z, o1=np.asarray(o1, dtype=float),
                             o2=np.asarray(o2, dtype=float), strike=0.0)
    fixed = EndowmentSpec(a=-np.eye(d), sigma=z, o1=np.asarray(o3, dtype=float), o2=z, strike=0.0)
    return heston_power_indifference_value(model, gamma, floating, fixed, T, x, steps=steps)


# -- Heston exponential utility -----------------------------------------------------------


def heston_exp_solve(
    model: HestonModel,
    gamma: float,
    T: float,
    swap_asset: int = 0,
    strike: float = 0.0,
    steps: int = 2000,
) -> UtilitySolveResult:
    """Maximal expected exponential utility with an optional variance swap.

    The quadratic Riccati coefficient 2 gamma (S' rho rho' S - alpha) is
    negative semidefinite, which places the solution in the PSD cone but rules
    out the block-exponential closed form; the equation is integrated by RK4.
    ``swap_asset`` = 0 solves the pure investment problem; i in 1..d adds the
    variance swap paying realized variance of asset i against ``strike``.

    V(x) = -exp(-gamma (x - K + Tr(Gamma(0) r0) + int Tr(Gamma b) dt)),
    pi(t) = eta/gamma - 2 Gamma(t) S' rho (monetary positions); for i >= 1 the
    result carries the indifference price p = Y0^i - Y0^0 and the hedge
    Delta(t) = pi^i(t) - pi^0(t) = -2 (Gamma^i - Gamma^0)(t) S' rho.
    """
    if gamma <= 0:
        raise ValueError("exponential utility needs gamma > 0")
    endow = EndowmentSpec.variance_swap(swap_asset, model.d, T, strike)
    coeffs = heston_exp_coeffs(model, gamma, endow.a)
    sol = solve_rk(model.params, coeffs, np.zeros((model.d, model.d)), -endow.strike, T, steps=steps)
    diagnostics: dict = {"method": "RK4"}
    diagnostics["gamma_min_eig"] = float(np.min(sol.min_eigenvalues()))

    s_rho = model.params.sigma.T @ model.corr.rho
    eta = model.eta_eff
    y0 = trace_inner(sol.gammas[0], model.r0) + sol.w[0]
    diagnostics["y0"] = y0

    def value_at(x: float) -> float:
        return -float(np.exp(-gamma * (x + y0)))

    def strategy(t) -> np.ndarray:
        return eta / gamma - 2.0 * sol.gamma_at(t) @ s_rho

    price = None
    hedge = None
    if swap_asset:
        # the pure investment problem: no payoff weight, w(T) = -strike = -0.0
        zero = np.zeros((model.d, model.d))
        base = solve_rk(model.params, heston_exp_coeffs(model, gamma, zero), zero, -0.0, T, steps=steps)
        base_y0 = trace_inner(base.gammas[0], model.r0) + base.w[0]
        price = y0 - base_y0

        def hedge(t) -> np.ndarray:
            return -2.0 * (sol.gamma_at(t) - base.gamma_at(t)) @ s_rho

        diagnostics["base_y0"] = base_y0

    return UtilitySolveResult(
        kind="heston_exp", gamma=gamma, horizon=T, riccati=sol, coeffs=coeffs,
        params=model.params, endow=endow, value_at=value_at, strategy=strategy,
        diagnostics=diagnostics, price=price, hedge=hedge,
    )


# -- BNS solvers -----------------------------------------------------------------------


def _bns_exp_moment_mass(spec: BnsJumpSpec, sol: RiccatiSolution, scale: float) -> float:
    """sum over grid x atoms of w e^{-scale Tr(Gamma xi)} over |scale Tr| > 1 (diagnostic)."""
    if spec.m_j.n == 0:
        return 0.0
    tr = np.einsum("kij,nij->kn", sol.gammas, spec.m_j.xis) * scale
    mask = np.abs(tr) > 1.0
    vals = np.where(mask, np.exp(-tr), 0.0)
    return float(np.max(vals @ spec.m_j.weights))


def bns_power_solve(
    model: BnsModel,
    gamma: float,
    T: float,
    steps: int = 2000,
) -> UtilitySolveResult:
    """Power utility in the jump-OU model.

    The Riccati equation is linear, -Gamma' = Lambda*(Gamma) - gamma/(2(1-gamma))
    eta eta', with NSD solution; the optimal fraction is the constant
    eta/(1-gamma) and the value function is
    V(x) = (x^gamma/gamma) exp(-Tr(Gamma(0) r0) - w(0)) where w collects the
    drift and jump integrals (the opportunity enters with a minus sign here).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("power utility needs gamma in (0, 1)")
    params = model.spec.affine_params()
    coeffs = bns_power_coeffs(model, gamma)
    sol = _bns_solve(params, coeffs, 0.0, T, steps)
    diagnostics: dict = {
        "method": sol.method,
        "gamma_max_eig": float(np.max(sol.max_eigenvalues())),
        "exp_moment_mass": _bns_exp_moment_mass(model.spec, sol, 1.0),
    }

    y0 = trace_inner(sol.gammas[0], model.r0) + sol.w[0]
    diagnostics["y0"] = y0
    opportunity = float(np.exp(-y0))

    def value_at(x: float) -> float:
        return x**gamma / gamma * opportunity

    pi_const = model.eta_eff / (1.0 - gamma)

    return UtilitySolveResult(
        kind="bns_power", gamma=gamma, horizon=T, riccati=sol, coeffs=coeffs, params=params,
        endow=EndowmentSpec.zero(model.d), value_at=value_at, strategy=lambda t: pi_const,
        diagnostics=diagnostics,
    )


def bns_exp_solve(
    model: BnsModel,
    gamma: float,
    T: float,
    swap_asset: int = 0,
    strike: float = 0.0,
    steps: int = 2000,
) -> UtilitySolveResult:
    """Exponential utility in the jump-OU model, with variance-swap pricing.

    -Gamma' = Lambda*(Gamma) + eta eta'/(2 gamma) + a^{ii}; Gamma is PSD and
    the optimal monetary position is the constant eta/gamma.  The indifference
    price of the swap is p = Y0^i - Y0^0.
    """
    if gamma <= 0:
        raise ValueError("exponential utility needs gamma > 0")
    params = model.spec.affine_params()
    endow = EndowmentSpec.variance_swap(swap_asset, model.d, T, strike)
    coeffs = bns_exp_coeffs(model, gamma, endow.a)
    sol = _bns_solve(params, coeffs, -endow.strike, T, steps)
    diagnostics: dict = {
        "method": sol.method,
        "gamma_min_eig": float(np.min(sol.min_eigenvalues())),
        "exp_moment_mass": _bns_exp_moment_mass(model.spec, sol, gamma),
    }

    y0 = trace_inner(sol.gammas[0], model.r0) + sol.w[0]
    diagnostics["y0"] = y0

    def value_at(x: float) -> float:
        return -float(np.exp(-gamma * (x + y0)))

    pi_const = model.eta_eff / gamma

    price = None
    if swap_asset:
        # the pure investment problem: no payoff weight, w(T) = -strike = -0.0
        base = _bns_solve(params, bns_exp_coeffs(model, gamma, np.zeros((model.d, model.d))), -0.0, T, steps)
        diagnostics["base_y0"] = trace_inner(base.gammas[0], model.r0) + base.w[0]
        price = y0 - diagnostics["base_y0"]

    return UtilitySolveResult(
        kind="bns_exp", gamma=gamma, horizon=T, riccati=sol, coeffs=coeffs, params=params,
        endow=endow, value_at=value_at, strategy=lambda t: pi_const, diagnostics=diagnostics,
        price=price,
    )


# -- 1-d golden closed form ----------------------------------------------------------------


@dataclass(frozen=True)
class ScalarRiccatiClosedForm:
    """Exact solution of -G' = q G^2 + l G + c, G(T) = 0, on [0, T].

    With D = sqrt(l^2 - 4 q c) >= 0 (the relevant parameter family has q <= 0,
    c >= 0, so the discriminant is never negative and the solution never
    explodes):

        G(t) = 2 c (e^{D (T-t)} - 1) / ((D - l) e^{D (T-t)} + D + l),   D > 0,
        G(t) = c (T - t),                                               D = 0,

    where the degenerate branch occurs exactly when l = 0 and q c = 0.
    """

    q: float
    l: float
    c: float
    T: float

    @property
    def disc(self) -> float:
        return self.l * self.l - 4.0 * self.q * self.c

    def gamma(self, t):
        """Gamma at t; accepts scalars or arrays of times."""
        tau = self.T - np.asarray(t, dtype=float)
        dsc = self.disc
        if dsc > 1e-14 * (1.0 + self.l**2 + abs(self.q * self.c)):
            rt = np.sqrt(dsc)
            e = np.exp(rt * tau)
            out = 2.0 * self.c * (e - 1.0) / ((rt - self.l) * e + rt + self.l)
        else:
            out = self.c * tau
        return float(out) if np.ndim(out) == 0 else out

    def gamma_integral(self) -> float:
        """int_0^T G(s) ds by composite Simpson on 4000 intervals (G is smooth and explicit)."""
        nodes = 4000
        ts = np.linspace(0.0, self.T, nodes + 1)
        vals = np.array([self.gamma(t) for t in ts])
        wts = np.ones(nodes + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        return float(np.dot(wts, vals) * (self.T / nodes) / 3.0)


@dataclass(frozen=True)
class Heston1dExpSolution:
    """Golden closed form for the 1-d exponential-utility problem."""

    form: ScalarRiccatiClosedForm
    eta: float
    lam: float
    sigma: float
    rho: float
    gamma_ra: float
    b: float
    T: float

    def gamma(self, t: float) -> float:
        return self.form.gamma(t)

    def pi_opt(self, t: float) -> float:
        return self.eta / self.gamma_ra**2 - self.form.gamma(t) * self.sigma * self.rho

    def value_at(self, x: float, r0: float) -> float:
        y0 = self.form.gamma(0.0) * r0 + self.b * self.form.gamma_integral()
        return -float(np.exp(-self.gamma_ra * (x + y0)))


def heston1d_exp_closed_form(
    eta: float, lam: float, sigma: float, rho: float, gamma: float, b: float, T: float
) -> Heston1dExpSolution:
    """Closed-form 1-d Heston exponential-utility solution (golden oracle).

    dR = (b + lam R) dt + sigma sqrt(R) dW, dN = eta R dt + sqrt(R) dQ,
    corr(Q, W) = rho; risk aversion gamma.  The opportunity coefficient solves
    -G' = q G^2 + l G + c with

        q = gamma sigma^2 (rho^2 - 1) / 2,
        l = lam - sigma rho eta / gamma,
        c = eta^2 / (2 gamma^3),

    and discriminant l^2 - 4 q c = (lam - sigma eta rho / gamma)^2
    + sigma^2 eta^2 (1 - rho^2) / gamma^2 >= 0.  The degenerate branch
    (rho = 1, lam = sigma eta / gamma) gives G(t) = eta^2 (T - t) / (2 gamma^3).
    """
    if sigma <= 0 or b < 0 or gamma <= 0 or T <= 0:
        raise ValueError("need sigma > 0, b >= 0, gamma > 0, T > 0")
    q = 0.5 * gamma * sigma**2 * (rho**2 - 1.0)
    l = lam - sigma * rho * eta / gamma
    c = eta**2 / (2.0 * gamma**3)
    form = ScalarRiccatiClosedForm(q=q, l=l, c=c, T=T)
    return Heston1dExpSolution(form=form, eta=eta, lam=lam, sigma=sigma, rho=rho,
                               gamma_ra=gamma, b=b, T=T)


def heston1d_exp_riccati_inputs(eta, lam, sigma, rho, gamma):
    """(params, coeffs) whose theta collapses to the golden scalar ODE.

    The 1-d model has alpha = sigma^2/4 and linear drift lam R (H = lam/2), and
    the coefficient convention follows the golden form above (c_zsqrtx =
    -rho eta / gamma, c_x = eta^2/(2 gamma^3)), so solve_rk applied to these
    inputs integrates exactly -G' = q G^2 + l G + c.
    """
    params = AffineParams(
        alpha=np.array([[sigma**2 / 4.0]]),
        b=np.array([[0.0]]),
        drift=HFormDrift(np.array([[lam / 2.0]])),
    )
    coeffs = GeneratorCoeffs.build(
        1,
        c_zz=np.array([[0.5 * gamma * (rho**2 - 1.0)]]),
        c_zsqrtx=np.array([[-rho * eta / gamma]]),
        c_x=np.array([[eta**2 / (2.0 * gamma**3)]]),
    )
    return params, coeffs


# -- presets and Monte Carlo audits ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UtilityPreset:
    """A solved utility problem bound to its model, for the Monte Carlo audits at wealth 1."""

    model: object
    solve: UtilitySolveResult
    # the solved problem, as the solver used it
    kind = property(lambda self: self.solve.kind)
    gamma = property(lambda self: self.solve.gamma)
    horizon = property(lambda self: self.solve.horizon)
    coeffs = property(lambda self: self.solve.coeffs)
    params = property(lambda self: self.solve.params)
    endow = property(lambda self: self.solve.endow)

    def bsde_eval(self) -> BsdeSolutionEval:
        return BsdeSolutionEval(riccati=self.solve.riccati, coeffs=self.coeffs, params=self.params)

    def opt_strategy_grid(self, n_steps: int) -> np.ndarray:
        ts = np.linspace(0.0, self.horizon, n_steps + 1)[:-1]
        return self.solve.strategy_grid(ts)

    def perturbed_strategies(self, n_steps: int) -> list[np.ndarray]:
        """The optimal grid shifted by +-0.3 e_i for each i, +-0.25 (1, ..., 1), +0.8 e_0 and -0.8 e_{d-1}."""
        base = self.opt_strategy_grid(n_steps)
        d = base.shape[1]

        def shift(i: int, size: float) -> np.ndarray:
            delta = np.zeros(d)  # +0.0, not -0.0, off the support: base + delta keeps the audits' bits
            delta[i] = size
            return delta

        deltas = [shift(i, size) for i in range(d) for size in (0.3, -0.3)]
        deltas += [np.full(d, 0.25), np.full(d, -0.25), shift(0, 0.8), shift(d - 1, -0.8)]
        return [base + dl for dl in deltas]

    def l_terminal(self, fn: PathFunctionals, strat_idx: int) -> np.ndarray:
        """Per-path L_T for strategy column strat_idx, at wealth 1."""
        g = self.gamma
        i_dn = fn.int_pi_dn[:, strat_idx]
        i_q = fn.int_pi_r_pi[:, strat_idx]
        if self.kind == "heston_power":
            tr_ao = np.einsum("ij,bji->b", self.endow.a, fn.o_terminal)
            return np.exp(g * i_dn - 0.5 * g * i_q + g * tr_ao)
        if self.kind == "bns_power":
            return np.exp(g * i_dn - 0.5 * g * i_q)
        # exponential kinds: monetary strategies, additive endowment
        f_pay = 0.0
        if np.any(self.endow.a):
            f_pay = np.einsum("ij,bji->b", self.endow.a, fn.o_terminal) - self.endow.strike
        return -np.exp(-g * (1.0 + i_dn + f_pay))

    @property
    def l0(self) -> float:
        if self.kind == "heston_power":
            return float(np.exp(self.solve.diagnostics["log_opportunity"]))
        if self.kind == "bns_power":
            return float(np.exp(-self.solve.diagnostics["y0"]))
        return self.solve.value_at(1.0)

    def simulate(self, strategies: list[np.ndarray], n_paths: int, seed: int, n_steps: int,
                 threads: int = 1) -> PathFunctionals:
        arr = np.stack(strategies)
        if self.kind.startswith("heston"):
            return heston_functionals(
                self.params, self.model.r0, self.model.corr, self.model.eta_eff,
                self.horizon, n_steps, arr, n_paths, seed,
                o_sigma=self.endow.sigma, o1=self.endow.o1, o2=self.endow.o2, threads=threads,
            )
        return bns_functionals(
            self.model.spec, self.model.r0, self.model.eta_eff, self.horizon,
            n_steps, arr, n_paths, seed, threads=threads,
        )

    def audit_strategies(self, strategies, n_paths: int, seed: int, n_steps: int = 500,
                         threads: int = 1):
        """(means, stderrs) of L_T across strategies, plus L_0."""
        strategies = [np.asarray(s, dtype=float) for s in strategies]
        grids = []
        for s in strategies:
            if s.ndim == 1:
                s = np.repeat(s[None, :], n_steps, axis=0)
            grids.append(s)
        fn = self.simulate(grids, n_paths, seed, n_steps, threads=threads)
        vals = np.stack([self.l_terminal(fn, i) for i in range(len(grids))], axis=1)
        means, ses = mean_stderr(vals)
        return means, ses, self.l0


def _heston_model_d2() -> HestonModel:
    sig = np.array([[0.22, 0.03], [0.03, 0.18]])
    params = AffineParams(alpha=sig @ sig, b=3.0 * sig @ sig,
                          drift=HFormDrift(np.array([[-0.7, 0.06], [0.03, -0.55]])))
    return HestonModel(
        params=params,
        eta=np.array([0.65, 0.4]),
        corr=CorrelationSpec(np.array([-0.45, -0.25])),
        r0=np.array([[0.32, 0.04], [0.04, 0.26]]),
    )


def _bns_model_d2() -> BnsModel:
    atoms = ConstantJumps.from_atoms([
        (np.array([[0.12, 0.03], [0.03, 0.08]]), 1.1),
        (np.array([[0.15, 0.0], [0.0, 0.02]]), 0.7),
        (np.array([[0.05, -0.02], [-0.02, 0.09]]), 0.5),
    ])
    spec = BnsJumpSpec(
        lam=np.array([[0.09, 0.01], [0.01, 0.07]]),
        lam_op=HFormDrift(np.array([[-0.6, 0.05], [0.0, -0.45]])),
        b_j=np.array([[0.02, 0.0], [0.0, 0.015]]),
        m_j=atoms,
    )
    return BnsModel(spec=spec, eta=np.array([0.6, 0.35]), r0=np.array([[0.3, 0.03], [0.03, 0.22]]))


def make_preset(
    model,
    utility_kind: str,
    gamma: float,
    T: float,
    steps: int = 2000,
    endow: Optional[EndowmentSpec] = None,
    swap_asset: int = 0,
    strike: float = 0.0,
) -> UtilityPreset:
    """Solve a utility problem and bind it to its model for audits (shipped presets and the CLI).

    Each problem takes one endowment form, and a term it would drop raises
    ValueError: Heston power utility takes ``endow`` (zero when None), the
    exponential kinds a variance swap on ``swap_asset`` against ``strike``,
    BNS power utility neither.
    """
    power = utility_kind == "power"
    if power and (swap_asset or strike):
        raise ValueError("power utility takes no variance swap")
    if endow is not None and not (power and isinstance(model, HestonModel)):
        raise ValueError("only Heston power utility takes a general endowment {a, sigma, o1, o2}")
    if isinstance(model, HestonModel):
        if power:
            endow = endow or EndowmentSpec.zero(model.d)
            solve = heston_power_solve(model, gamma, endow, T, steps=steps)
        else:
            solve = heston_exp_solve(model, gamma, T, swap_asset=swap_asset, strike=strike, steps=steps)
    elif power:
        solve = bns_power_solve(model, gamma, T, steps=steps)
    else:
        solve = bns_exp_solve(model, gamma, T, swap_asset=swap_asset, strike=strike, steps=steps)
    return UtilityPreset(model=model, solve=solve)


def preset_heston_power(T: float = 1.0, steps: int = 2000) -> UtilityPreset:
    endow = EndowmentSpec(
        a=np.array([[-0.25, 0.0], [0.0, -0.15]]),
        sigma=np.array([[0.3, 0.0], [0.0, 0.2]]),
        o1=np.array([[0.02, 0.0], [0.0, 0.015]]),
        o2=np.array([[0.04, 0.01], [0.01, 0.03]]),
    )
    return make_preset(_heston_model_d2(), "power", 0.35, T, steps=steps, endow=endow)


def preset_heston_exp(T: float = 1.0, steps: int = 2000) -> UtilityPreset:
    return make_preset(_heston_model_d2(), "exponential", 0.7, T, steps=steps,
                       swap_asset=1, strike=0.2)


def preset_bns_power(T: float = 1.0, steps: int = 2000) -> UtilityPreset:
    return make_preset(_bns_model_d2(), "power", 0.3, T, steps=steps)


def preset_bns_exp(T: float = 1.0, steps: int = 2000) -> UtilityPreset:
    return make_preset(_bns_model_d2(), "exponential", 0.8, T, steps=steps,
                       swap_asset=1, strike=0.15)


SHIPPED_PRESETS = {
    "heston-power-d2": preset_heston_power,
    "heston-exp-d2": preset_heston_exp,
    "bns-power-d2": preset_bns_power,
    "bns-exp-d2": preset_bns_exp,
}


def quasi_monotone_jump_instance():
    """(params, coeffs, terminal) satisfying the increasing-map conditions.

    The linear-jump atom sits outside the truncation ball so the H-form drift
    keeps the inward-pointing condition; every jump coefficient is
    non-decreasing with the cone signs required for quasi-monotonicity and the
    growth bounds (tanh caps the coefficients that must stay bounded).
    """
    alpha = 0.09 * np.eye(2)
    params = AffineParams(
        alpha=alpha,
        b=2.0 * alpha,
        drift=HFormDrift(np.array([[-0.5, 0.02], [0.01, -0.4]])),
        m=ConstantJumps.from_atoms([
            (np.array([[0.10, 0.02], [0.02, 0.06]]), 0.8),
            (np.array([[0.04, 0.0], [0.0, 0.12]]), 0.5),
        ]),
        mu=LinearJumps.from_atoms([
            (np.array([[1.1, 0.0], [0.0, 0.9]]), np.array([[0.05, 0.01], [0.01, 0.04]])),
        ]),
        trunc_radius=1.0,
    )
    eye = np.eye(2)
    coeffs = GeneratorCoeffs.build(
        2,
        c_zz=-0.4 * eye,
        c_x=0.3 * eye,
        c_zsqrtx=0.05 * eye,
        c_hzhz=0.15 * eye,
        a=0.1 * eye,
        sigma=0.2 * eye,
        o2=0.05 * eye,
        g_M=lambda y: 0.1 * y,
        g_x=lambda y, _e=eye: 0.08 * y * _e,
        g_zsqrtx=lambda y, _e=eye: 0.03 * np.tanh(y) * _e,
        g_y=lambda y: 0.01 * np.tanh(y),
        g_t=lambda y: -0.05 * (np.expm1(-y) + y),
        g_hzhz=lambda y, _e=eye: 0.06 * y * _e,
        g_hzz=lambda y, _e=eye: 0.02 * np.arctan(y) * _e,
        g_hzsqrtx=lambda y, _e=eye: 0.01 * y * _e,
    )
    terminal_u = 0.2 * np.eye(2)
    return params, coeffs, terminal_u
