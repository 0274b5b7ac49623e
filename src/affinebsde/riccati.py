"""Generalized matrix Riccati ODEs driving explicit quadratic-BSDE solutions.

The generator coefficients are constant in time.  The backward system solved
here is

    -dGamma/dt = theta(Gamma(t)),   Gamma(T) = u,
    -dw/dt     = varpi(Gamma(t), w(t)),   w(T) = v,

with

    theta(u) = 4 u S^T c_zz S u + L u + u L^T + B*(u) + C
               + sum_mu  [Tr(u (xi - chi(xi))) + g_M(Tr(u xi))] / (||xi||^2 ^ 1) * U
               + sum_m w [ u S^T g_zsqrtx + g_zsqrtx^T S u + u g_y + g_x
                           + s^T a^T g_hzhz a s + s^T a^T g_hzz S u
                           + u S^T g_hzz^T a s + s^T a^T g_hzsqrtx ](Tr(u xi))

    L = (1/2) c_y I + c_zsqrtx^T S + s^T a^T c_hzz S
    C = c_x + s^T a^T c_hzhz a s + s^T a^T c_hzsqrtx + a o2

    varpi(u, v) = c_y v + c_t + Tr(a o1) + Tr(u b)
                  + sum_m w [Tr(u xi) + g_y(Tr(u xi)) v + g_t(Tr(u xi))]

where S is the diffusion factor (S S^T = alpha), s the auxiliary-process
volatility, a its terminal weight, and B* the adjoint of the linear drift.
Every theta output is symmetrized.

Two solvers are provided: a closed-form route via a 2d x 2d block matrix
exponential (H-form drift, zero terminal value) and Runge-Kutta integration
of the time-reversed ODE (fixed-step RK4 by default, embedded Dormand-Prince
5(4) optionally).  Both detect blow-up, which the quadratic term can force in
finite time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .affine_model import AffineParams, BlowUpError, HFormDrift
from .symcone import (
    DimensionMismatchError,
    as_sym,
    frobenius,
    mat_exp,
    symmetrize,
    trace_inner,
)


DEFAULT_BLOWUP_NORM = 1e8


class RiccatiBlowUpError(BlowUpError):
    """The Riccati trajectory exploded before reaching t = 0."""


class BlockExpSingularError(RuntimeError):
    """A_22(t) is numerically singular; the closed form is unavailable there."""

    def __init__(self, time: float):
        super().__init__(f"A_22 singular at t={time:.6g}; use the RK solver")
        self.time = time


# -- generator coefficients --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratorCoeffs:
    """All coefficients of the admissible quadratic generator, constant in time.

    d x d matrices: c_zz, c_zsqrtx, c_x, c_hzhz, c_hzz, c_hzsqrtx, sigma, o1,
    o2 and the terminal weight a of the auxiliary process; scalars: c_y, c_t.
    Jump coefficients are callables k -> value (scalar for g_M, g_t, g_y;
    d x d for the rest) or None, evaluated at k = Tr(u xi) per atom.
    """

    d: int
    c_zz: np.ndarray
    c_zsqrtx: np.ndarray
    c_x: np.ndarray
    c_y: float
    c_t: float
    c_hzhz: np.ndarray
    c_hzz: np.ndarray
    c_hzsqrtx: np.ndarray
    a: np.ndarray
    sigma: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    g_M: Optional[Callable] = None
    g_t: Optional[Callable] = None
    g_y: Optional[Callable] = None
    g_zsqrtx: Optional[Callable] = None
    g_x: Optional[Callable] = None
    g_hzhz: Optional[Callable] = None
    g_hzz: Optional[Callable] = None
    g_hzsqrtx: Optional[Callable] = None

    @classmethod
    def build(cls, d: int, **kw) -> "GeneratorCoeffs":
        zero_m = np.zeros((d, d))
        vals = {}
        for name in ("c_zz", "c_zsqrtx", "c_x", "c_hzhz", "c_hzz", "c_hzsqrtx", "a", "sigma", "o1", "o2"):
            vals[name] = np.asarray(kw.pop(name, zero_m), dtype=float)
        for name in ("c_y", "c_t"):
            vals[name] = float(kw.pop(name, 0.0))
        for name in ("g_M", "g_t", "g_y", "g_zsqrtx", "g_x", "g_hzhz", "g_hzz", "g_hzsqrtx"):
            vals[name] = kw.pop(name, None)
        if kw:
            raise TypeError(f"unknown coefficients: {sorted(kw)}")
        return cls(d=d, **vals)

    @property
    def has_jump_matrix_terms(self) -> bool:
        return any(
            g is not None
            for g in (self.g_M, self.g_y, self.g_zsqrtx, self.g_x, self.g_hzhz, self.g_hzz, self.g_hzsqrtx)
        )


def script_L(params: AffineParams, coeffs: GeneratorCoeffs) -> np.ndarray:
    """Linear coefficient L of theta."""
    s = params.sigma
    out = 0.5 * coeffs.c_y * np.eye(params.d)
    out = out + coeffs.c_zsqrtx.T @ s
    if np.any(coeffs.sigma) and np.any(coeffs.a):
        out = out + coeffs.sigma.T @ coeffs.a.T @ coeffs.c_hzz @ s
    return out


def script_C(params: AffineParams, coeffs: GeneratorCoeffs) -> np.ndarray:
    """Constant coefficient C of theta (symmetrized)."""
    out = coeffs.c_x
    a = coeffs.a
    if np.any(coeffs.sigma) and np.any(a):
        sta = coeffs.sigma.T @ a.T
        out = out + sta @ coeffs.c_hzhz @ sta.T
        out = out + sta @ coeffs.c_hzsqrtx
    if np.any(a):
        out = out + a @ coeffs.o2
    return symmetrize(out)


def _theta_consts(params: AffineParams, coeffs: GeneratorCoeffs):
    """The u-free factors of theta: S^T c_zz S, L, C, s^T a^T, the mu atoms inside
    the truncation ball, g_M's values when it is None and whether the m atoms add terms."""
    s = params.sigma
    q = s.T @ coeffs.c_zz @ s
    sta = coeffs.sigma.T @ coeffs.a.T
    inside = params.mu.norms <= params.trunc_radius
    m_terms = bool(params.m.n) and coeffs.has_jump_matrix_terms
    return (q, script_L(params, coeffs), script_C(params, coeffs), sta, inside, np.zeros(params.mu.n),
            m_terms)


def theta_eval(params: AffineParams, coeffs: GeneratorCoeffs, u) -> np.ndarray:
    """Right-hand side theta(u), symmetrized."""
    return _theta(params, coeffs, as_sym(u), _theta_consts(params, coeffs))


def _theta(params, coeffs, ua, consts):
    """theta(ua) given the factors ``_theta_consts(params, coeffs)``."""
    q, ll, cc, sta, inside, gm, m_terms = consts
    s = params.sigma
    out = 4.0 * ua @ q @ ua
    out = out + ll @ ua + ua @ ll.T
    out = out + params.drift.adjoint(ua)
    out = out + cc

    if params.mu.n:
        k = np.einsum("ij,nij->n", ua, params.mu.xis)
        chi_tr = np.where(inside, k, 0.0)  # params.chi_traces(ua, params.mu), its mask hoisted
        if coeffs.g_M is not None:
            gm = np.array([coeffs.g_M(kk) for kk in k])
        coef = (k - chi_tr + gm) / params.mu.denominators  # gm = +0.0 turns a -0.0 into +0.0
        out = out + np.einsum("n,nij->ij", coef, params.mu.us)

    if m_terms:
        ks = np.einsum("ij,nij->n", ua, params.m.xis)
        for i in range(params.m.n):
            w, kk = params.m.weights[i], ks[i]
            term = np.zeros_like(ua)
            if coeffs.g_zsqrtx is not None:
                gz = np.asarray(coeffs.g_zsqrtx(kk))
                term = term + ua @ s.T @ gz + gz.T @ s @ ua
            if coeffs.g_y is not None:
                term = term + float(coeffs.g_y(kk)) * ua
            if coeffs.g_x is not None:
                term = term + np.asarray(coeffs.g_x(kk))
            if coeffs.g_hzhz is not None:
                term = term + sta @ np.asarray(coeffs.g_hzhz(kk)) @ sta.T
            if coeffs.g_hzz is not None:
                gh = np.asarray(coeffs.g_hzz(kk))
                term = term + sta @ gh @ s @ ua + ua @ s.T @ gh.T @ sta.T
            if coeffs.g_hzsqrtx is not None:
                term = term + sta @ np.asarray(coeffs.g_hzsqrtx(kk))
            out = out + w * term

    if not np.all(np.isfinite(out)):
        raise FloatingPointError("theta produced non-finite entries (coefficient blow-up?)")
    return symmetrize(out)


def varpi_eval(params: AffineParams, coeffs: GeneratorCoeffs, u, v: float) -> float:
    """Right-hand side varpi(u, v) of the scalar companion ODE."""
    return _varpi(params, coeffs, as_sym(u), v, float(np.trace(coeffs.a @ coeffs.o1)))


def _varpi(params, coeffs, ua, v, tr_ao1):
    """varpi(ua, v) given the u-free Tr(a o1)."""
    val = coeffs.c_y * v + coeffs.c_t
    val += tr_ao1
    val += float(np.sum(ua * params.b))
    if params.m.n:
        ks = np.einsum("ij,nij->n", ua, params.m.xis)
        val += float(np.dot(params.m.weights, ks))
        if coeffs.g_y is not None:
            val += v * float(np.dot(params.m.weights, [coeffs.g_y(kk) for kk in ks]))
        if coeffs.g_t is not None:
            val += float(np.dot(params.m.weights, [coeffs.g_t(kk) for kk in ks]))
    if not np.isfinite(val):
        raise FloatingPointError("varpi produced a non-finite value")
    return val


# -- solutions ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Gamma(t) and w(t) on a time grid; gamma[-1] == terminal_u exactly."""

    grid: np.ndarray  # (N+1,) ascending, grid[0]=0, grid[-1]=T
    gammas: np.ndarray  # (N+1, d, d), symmetric
    w: np.ndarray  # (N+1,)
    terminal_u: np.ndarray
    terminal_v: float
    method: str

    @property
    def d(self) -> int:
        return self.gammas.shape[-1]

    def _locate(self, t):
        """Knot index j and weight lam of t (a time or an array of times) in [t_j, t_j+1]."""
        grid = self.grid
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
        lam = np.where(t <= grid[0], 0.0,
                       np.where(t >= grid[-1], 1.0, (t - grid[j]) / (grid[j + 1] - grid[j])))
        return j, lam

    def gamma_at(self, t) -> np.ndarray:
        """Gamma at time t, or stacked at an array of times; linear between knots (O(h^2))."""
        j, lam = self._locate(t)
        lam = lam[..., None, None]
        return (1.0 - lam) * self.gammas[j] + lam * self.gammas[j + 1]

    def w_at(self, t: float) -> float:
        j, lam = self._locate(t)
        return float((1.0 - lam) * self.w[j] + lam * self.w[j + 1])

    def min_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gammas)[:, 0]

    def max_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gammas)[:, -1]

    def to_csv(self) -> tuple[list, np.ndarray]:
        """(header, rows) of the solution table: t, Gamma upper triangle (row-major), w."""
        iu = np.triu_indices(self.d)
        return (["t"] + [f"gamma_{i}{j}" for i, j in zip(*iu)] + ["w"],
                np.column_stack([self.grid, self.gammas[:, iu[0], iu[1]], self.w]))


# -- RK solvers ---------------------------------------------------------------------


def _compile_backward_rhs(params: AffineParams, coeffs: GeneratorCoeffs):
    """Return f(G, w) -> (theta, varpi), with a fast path when no jump
    coefficient function (g_t aside) and no linear-jump atom is present.

    Either path evaluates theta's u-free factors once per solve.
    """
    fast = not coeffs.has_jump_matrix_terms and coeffs.g_t is None and params.mu.n == 0
    if not fast:
        consts = _theta_consts(params, coeffs)
        tr_ao1 = float(np.trace(coeffs.a @ coeffs.o1))

        def rhs(g, w):
            return _theta(params, coeffs, g, consts), _varpi(params, coeffs, g, w, tr_ao1)

        return rhs, False

    s = params.sigma
    q4 = 4.0 * s.T @ coeffs.c_zz @ s
    ll = script_L(params, coeffs)
    cc = script_C(params, coeffs)
    cy = coeffs.c_y
    w_const = coeffs.c_t + float(np.trace(coeffs.a @ coeffs.o1))
    # constant-jump atoms contribute Tr(u, sum w xi) to varpi even without g's
    b_eff = params.b.copy()
    if params.m.n:
        b_eff = b_eff + np.einsum("n,nij->ij", params.m.weights, params.m.xis)
    drift = params.drift
    if isinstance(drift, HFormDrift):
        aeff = ll + drift.h.T

        def rhs(g, w):
            th = g @ q4 @ g + aeff @ g + g @ aeff.T + cc
            return th, cy * w + w_const + float((g * b_eff).sum())

    else:
        def rhs(g, w):
            th = g @ q4 @ g + ll @ g + g @ ll.T + drift.adjoint(g) + cc
            return th, cy * w + w_const + float((g * b_eff).sum())

    return rhs, True


def solve_rk(
    params: AffineParams,
    coeffs: GeneratorCoeffs,
    terminal_u,
    terminal_v: float,
    T: float,
    steps: int = 2000,
    method: str = "rk4",
    adaptive_tol: float = 1e-10,
    blowup_norm: float = DEFAULT_BLOWUP_NORM,
) -> RiccatiSolution:
    """Integrate the backward Riccati system by Runge-Kutta.

    Time is reversed (s = T - t) and the forward system marched with classic
    fixed-step RK4, or with an embedded Dormand-Prince 5(4) pair when
    ``method='rk45'`` (per-entry absolute error ``adaptive_tol``).  The state
    is symmetrized at every stage; w is carried in the same state so the
    scalar ODE inherits the integrator's order.  Blow-up (Frobenius norm above
    ``blowup_norm``, or non-finite stages) raises :class:`RiccatiBlowUpError`
    naming the forward time of the explosion.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    u = symmetrize(as_sym(terminal_u))
    if u.shape[0] != params.d:
        raise DimensionMismatchError("terminal value dimension mismatch")
    rhs, fast = _compile_backward_rhs(params, coeffs)
    if method == "rk4" and fast and params.d == 1:
        grid_s, gs, ws = _rk4_fixed_scalar(params, coeffs, u, float(terminal_v), T, steps, blowup_norm)
    elif method == "rk4":
        grid_s, gs, ws = _rk4_fixed(rhs, u, float(terminal_v), T, steps, blowup_norm)
    elif method == "rk45":
        grid_s, gs, ws = _rk45_adaptive(rhs, u, float(terminal_v), T, adaptive_tol, blowup_norm)
    else:
        raise ValueError("method must be 'rk4' or 'rk45'")

    # s ascending corresponds to t = T - s descending; flip to forward time
    grid_t = (T - grid_s)[::-1].copy()
    gammas = gs[::-1].copy()
    w = ws[::-1].copy()
    gammas[-1] = u
    w[-1] = float(terminal_v)
    return RiccatiSolution(
        grid=grid_t, gammas=gammas, w=w, terminal_u=u, terminal_v=float(terminal_v),
        method=method.upper(),
    )


def _check_state(g, s, T, blowup_norm):
    nrm = float(np.linalg.norm(g))
    if not np.isfinite(nrm) or nrm > blowup_norm:
        raise RiccatiBlowUpError(time=T - s, norm=nrm, bound=blowup_norm)


def _rk4_fixed(f, g0, w0, T, steps, blowup_norm):
    """Classic RK4 for the autonomous system (g, w)' = f(g, w) on s in [0, T]."""
    h = T / steps
    grid = np.linspace(0.0, T, steps + 1)
    d = g0.shape[0]
    gs = np.empty((steps + 1, d, d))
    ws = np.empty(steps + 1)
    g, w = g0.copy(), w0
    gs[0], ws[0] = g, w
    for k in range(steps):
        k1, l1 = f(g, w)
        g2 = symmetrize(g + 0.5 * h * k1)
        k2, l2 = f(g2, w + 0.5 * h * l1)
        g3 = symmetrize(g + 0.5 * h * k2)
        k3, l3 = f(g3, w + 0.5 * h * l2)
        g4 = symmetrize(g + h * k3)
        k4, l4 = f(g4, w + h * l3)
        g = symmetrize(g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        w = w + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        _check_state(g, grid[k] + h, T, blowup_norm)
        gs[k + 1], ws[k + 1] = g, w
    return grid, gs, ws


def _rk4_fixed_scalar(params, coeffs, u0, w0, T, steps, blowup_norm):
    """Dimension-1 specialization of the constant-coefficient fast path."""
    s = float(params.sigma[0, 0])
    q = 4.0 * s * float(coeffs.c_zz.reshape(())) * s
    ll = float(script_L(params, coeffs)[0, 0])
    if isinstance(params.drift, HFormDrift):
        lin = 2.0 * (ll + float(params.drift.h[0, 0]))
    else:
        lin = 2.0 * ll + float(params.drift.adjoint(np.ones((1, 1)))[0, 0])
    con = float(script_C(params, coeffs)[0, 0])
    cy = coeffs.c_y
    w_const = coeffs.c_t + float(np.trace(coeffs.a @ coeffs.o1))
    b_eff = float(params.b[0, 0])
    if params.m.n:
        b_eff += float(np.dot(params.m.weights, params.m.xis[:, 0, 0]))

    h = T / steps
    grid = np.linspace(0.0, T, steps + 1)
    gs = np.empty(steps + 1)
    ws = np.empty(steps + 1)
    g = float(u0[0, 0])
    w = w0
    gs[0], ws[0] = g, w
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(steps):
        k1 = q * g * g + lin * g + con
        l1 = cy * w + w_const + g * b_eff
        g2 = g + half * k1
        k2 = q * g2 * g2 + lin * g2 + con
        l2 = cy * (w + half * l1) + w_const + g2 * b_eff
        g3 = g + half * k2
        k3 = q * g3 * g3 + lin * g3 + con
        l3 = cy * (w + half * l2) + w_const + g3 * b_eff
        g4 = g + h * k3
        k4 = q * g4 * g4 + lin * g4 + con
        l4 = cy * (w + h * l3) + w_const + g4 * b_eff
        g = g + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        w = w + sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if not (abs(g) <= blowup_norm):
            raise RiccatiBlowUpError(time=T - grid[k + 1], norm=abs(g), bound=blowup_norm)
        gs[k + 1], ws[k + 1] = g, w
    return grid, gs.reshape(-1, 1, 1), ws


# Dormand-Prince 5(4) tableau
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_RK45_MAX_STEPS = 200000  # accepted-step budget


def _rk45_adaptive(f, g0, w0, T, tol, blowup_norm):
    s = 0.0
    g, w = g0.copy(), w0
    grid = [0.0]
    gs = [g.copy()]
    ws = [w]
    h = T / 100.0
    n_acc = 0
    while s < T:
        h = min(h, T - s)
        kg = []
        kw = []
        for i in range(7):
            gi = g.copy()
            wi = w
            for j, aij in enumerate(_DP_A[i]):
                if aij:
                    gi = gi + h * aij * kg[j]
                    wi = wi + h * aij * kw[j]
            tg, tw = f(symmetrize(gi), wi)
            kg.append(tg)
            kw.append(tw)
        g5 = g + h * sum(b * k for b, k in zip(_DP_B5, kg) if b)
        w5 = w + h * sum(b * k for b, k in zip(_DP_B5, kw) if b)
        g4 = g + h * sum(b * k for b, k in zip(_DP_B4, kg) if b)
        w4 = w + h * sum(b * k for b, k in zip(_DP_B4, kw) if b)
        err = max(float(np.max(np.abs(g5 - g4))), abs(w5 - w4))
        if not np.isfinite(err):
            raise RiccatiBlowUpError(time=T - s, norm=float("inf"), bound=blowup_norm)
        if err <= tol or h <= 1e-14 * T:
            s += h
            g, w = symmetrize(g5), w5
            _check_state(g, s, T, blowup_norm)
            grid.append(s)
            gs.append(g.copy())
            ws.append(w)
            n_acc += 1
            if n_acc > _RK45_MAX_STEPS:
                raise RuntimeError("rk45: step budget exceeded")
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return np.array(grid), np.array(gs), np.array(ws)


# -- closed form via block matrix exponential ---------------------------------------


def simpson_cumulative_backward(fvals: np.ndarray, h: float, vT: float) -> np.ndarray:
    """W[k] ~= vT + int_{t_k}^{T} f dt on a uniform grid, fourth order.

    Overlapping Simpson pairs anchored at each k; the final half-step uses the
    three-point right-anchored Newton-Cotes rule.
    """
    n = len(fvals) - 1
    out = np.empty(n + 1)
    out[n] = vT
    if n >= 2:
        out[n - 1] = vT + (h / 12.0) * (-fvals[n - 2] + 8.0 * fvals[n - 1] + 5.0 * fvals[n])
    elif n == 1:
        out[0] = vT + 0.5 * h * (fvals[0] + fvals[1])
        return out
    for k in range(n - 2, -1, -1):
        out[k] = out[k + 2] + (h / 3.0) * (fvals[k] + 4.0 * fvals[k + 1] + fvals[k + 2])
    return out


def backward_flow(step_exp: np.ndarray, steps: int) -> np.ndarray:
    """Flows from each grid knot t_k to T: step_exp^(steps - k), accumulated from T backward."""
    flows = np.empty((steps + 1,) + step_exp.shape)
    acc = np.eye(step_exp.shape[0])
    for k in range(steps, -1, -1):
        flows[k] = acc
        if k:
            acc = acc @ step_exp
    return flows


def _varpi_grid(params: AffineParams, coeffs: GeneratorCoeffs, gammas: np.ndarray) -> np.ndarray:
    """varpi(Gamma_k, 0) at every knot, bit for bit varpi_eval's value.

    The Gamma terms take one call over the whole stack; the jump callables
    (g_y, g_t) are still evaluated per knot and atom.
    """
    val = coeffs.c_y * 0.0 + coeffs.c_t + float(np.trace(coeffs.a @ coeffs.o1))
    val = val + (gammas * params.b).reshape(len(gammas), -1).sum(axis=1)
    if params.m.n:
        wts = params.m.weights

        def wdot(vals):  # np.dot(wts, vals[k]) per knot, as one call
            return np.matmul(wts, np.asarray(vals, dtype=float)[:, :, None])[:, 0]

        ks = np.einsum("kij,nij->kn", gammas, params.m.xis)
        val = val + wdot(ks)
        # varpi_eval adds v * (g_y sum) at v = 0: a NaN or a sign of zero survives it
        for g, scale in ((coeffs.g_y, 0.0), (coeffs.g_t, 1.0)):
            if g is not None:
                val = val + scale * wdot([[g(kk) for kk in row] for row in ks])
    if not np.all(np.isfinite(val)):
        raise FloatingPointError("varpi produced a non-finite value")
    return val


def varpi_quadrature(params: AffineParams, coeffs: GeneratorCoeffs, grid: np.ndarray,
                     gammas: np.ndarray, terminal_v: float) -> np.ndarray:
    """w on a uniform grid from -dw/dt = varpi(Gamma(t), w), w(T) = terminal_v.

    varpi = c_y w + varpi(Gamma, 0): the second part is integrated along
    Gamma by the Simpson chain with the integrating factor exp(c_y t), which
    is exactly 1 (so changes no bit) when c_y = 0.
    """
    steps = len(grid) - 1
    base = _varpi_grid(params, coeffs, gammas)
    cy = coeffs.c_y
    integral = simpson_cumulative_backward(np.exp(cy * grid) * base, grid[-1] / steps,
                                           np.exp(cy * grid[-1]) * terminal_v)
    return np.exp(-cy * grid) * integral


def _check_no_pole(grid: np.ndarray, a22s: np.ndarray, gammas: np.ndarray) -> None:
    """Raise RiccatiBlowUpError if Gamma = A_22^{-1} A_21 has a pole on the grid.

    det A_22 is 1 at T; a sign change between two knots means A_22 is singular
    in between, where Gamma is infinite and every knot below belongs to no
    solution of the Riccati equation.  Non-finite knots count as blow-up too.
    The time reported is the knot on the T side of the first pole met going
    backward, with norm inf (the trajectory passes through infinity).
    """
    dets = np.linalg.det(a22s)
    bad = np.signbit(dets[:-1]) != np.signbit(dets[1:])
    bad |= ~np.isfinite(dets[:-1]) | ~np.all(np.isfinite(gammas[:-1]), axis=(1, 2))
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[-1])
        raise RiccatiBlowUpError(time=float(grid[k + 1]), norm=float("inf"), bound=DEFAULT_BLOWUP_NORM)


def _raise_if_singular(grid: np.ndarray, a22s: np.ndarray, lo: int, hi: int) -> None:
    """Raise BlockExpSingularError at the highest knot of lo..hi-1 where A_22 is singular."""
    if lo < hi:
        svals = np.linalg.svd(a22s[lo:hi], compute_uv=False)
        hits = np.flatnonzero(svals[:, -1] <= 1e-13 * np.fmax(1.0, svals[:, 0]))
        if hits.size:
            raise BlockExpSingularError(time=float(grid[lo + hits[-1]]))


def _check_a22_regular(grid: np.ndarray, a22s: np.ndarray) -> None:
    """Raise BlockExpSingularError at the knot nearest T where A_22 is numerically singular.

    One batched svd covers each run of finite knots.  A knot with a non-finite
    entry gets an svd of its own, met in the order of a per-knot sweep from T
    backward: LAPACK may reject such a matrix (LinAlgError), and a batch that
    holds it would fail as a whole, before the singular knots above it count.
    """
    hi = len(a22s)
    for k in np.flatnonzero(~np.all(np.isfinite(a22s), axis=(1, 2)))[::-1]:
        _raise_if_singular(grid, a22s, k + 1, hi)
        _raise_if_singular(grid, a22s, k, k + 1)
        hi = k
    _raise_if_singular(grid, a22s, 0, hi)


def solve_block_exp(
    params: AffineParams,
    coeffs: GeneratorCoeffs,
    T: float,
    steps: int = 2000,
    terminal_v: float = 0.0,
) -> RiccatiSolution:
    """Closed-form Riccati solution Gamma(t) = A_22(t)^{-1} A_21(t), terminal (0, terminal_v).

    Requires H-form linear drift, no linear-jump atoms and no jump coefficient
    functions besides g_t; Gamma(T) is zero.  The Riccati flow linearizes as

        -d/dt (G  J) = (G  J) @ [[L^T + H,  -4 S^T c_zz S], [C,  -L - H^T]],

    (H-form B(x) = Hx + xH^T, so B* contributes through H^T) with terminal
    (0, I); exponentiating gives the block rows A_21, A_22 of
    A(t) = exp((T-t) M) and Gamma = A_22^{-1} A_21.  w is recovered by
    composite-Simpson quadrature of varpi along Gamma from w(T) =
    ``terminal_v`` (integrating factor exp(c_y s) when c_y != 0).
    """
    if not isinstance(params.drift, HFormDrift):
        raise ValueError("closed form requires an H-form linear drift")
    if params.mu.n:
        raise ValueError("closed form requires no linear-jump atoms")
    if coeffs.has_jump_matrix_terms or coeffs.g_y is not None:
        raise ValueError("closed form supports only the g_t jump coefficient")

    d = params.d
    s = params.sigma
    q4 = 4.0 * s.T @ coeffs.c_zz @ s
    ll = script_L(params, coeffs)
    cc = script_C(params, coeffs)
    h_drift = params.drift.h
    aeff = ll + h_drift.T
    m_block = np.zeros((2 * d, 2 * d))
    m_block[:d, :d] = aeff.T
    m_block[:d, d:] = -q4
    m_block[d:, :d] = cc
    m_block[d:, d:] = -aeff

    grid = np.linspace(0.0, T, steps + 1)
    flows = backward_flow(mat_exp((T / steps) * m_block), steps)
    a22s = flows[:, d:, d:]
    _check_a22_regular(grid, a22s)
    gammas = symmetrize(np.linalg.solve(a22s, flows[:, d:, :d]))
    gammas[-1] = 0.0
    _check_no_pole(grid, a22s, gammas)
    w = varpi_quadrature(params, coeffs, grid, gammas, float(terminal_v))

    return RiccatiSolution(
        grid=grid, gammas=gammas, w=w, terminal_u=np.zeros((d, d)), terminal_v=float(terminal_v),
        method="BlockExp",
    )


# -- assumption validation -----------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    passed: bool
    detail: dict
    notes: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: dict
    k_grid: np.ndarray
    tol: float


def _cone_ok(mat, cone: str, tol: float) -> bool:
    """Membership in the closed cone S^+ or S^- (the zero matrix is in both)."""
    arr = symmetrize(as_sym(mat))
    w = np.linalg.eigvalsh(arr)
    eff = tol * (1.0 + float(np.linalg.norm(arr)))
    if cone == "+":
        return bool(w[0] >= -eff)
    return bool(w[-1] <= eff)


def _monotone(vals, direction: str, tol: float) -> bool:
    """Monotonicity of scalar samples, or of matrix samples in the PSD order."""
    for p, q in zip(vals[:-1], vals[1:]):
        diff = q - p if direction == "up" else p - q
        if np.ndim(diff) == 0:
            if diff < -tol:
                return False
        else:
            if not _cone_ok(diff, "+", tol):
                return False
    return True


def validate_assumptions(
    params: AffineParams,
    coeffs: GeneratorCoeffs,
    which=None,
    tol: float = 1e-9,
) -> AssumptionReport:
    """Sampling-based validation of the existence assumptions A1 -- A7.

    Cone and sign conditions are checked exactly on the constant coefficients
    and at sampled jump arguments; monotonicity uses the PSD order on a k-grid;
    growth (A5/A6) reports the smallest sampled linear-growth constants and
    flags ratios that are still climbing at the edge of the grid; A7 reports
    finite-difference Lipschitz estimates.  The report records the k-grid and
    the tolerance; it never raises.
    """
    k_max, n_k = 5.0, 21  # k-grids of n_k points up to |k| = k_max
    all_names = ["A1", "A2p", "A2m", "A3p", "A3m", "A4p", "A4m", "A5p", "A5m", "A6p", "A6m", "A7"]
    names = list(which) if which else all_names
    kg_pos = np.linspace(0.0, k_max, n_k)
    kg_neg = -kg_pos[::-1]
    checks: dict = {}
    s = params.sigma

    def sample_matrix(g, karr):
        return [np.asarray(g(kk)) for kk in karr]

    def sample_scalar(g, karr):
        return [float(g(kk)) for kk in karr]

    if "A1" in names:
        ok = isinstance(params.drift, HFormDrift)
        checks["A1"] = AssumptionCheck(ok, {"drift_form": type(params.drift).__name__},
                                       "linear drift has the H-form")

    for tag, cone_czz, cone_C in (("A2p", "-", "+"), ("A2m", "+", "-")):
        if tag not in names:
            continue
        czz_ok = _cone_ok(coeffs.c_zz, cone_czz, tol)
        c_ok = _cone_ok(script_C(params, coeffs), cone_C, tol)
        checks[tag] = AssumptionCheck(
            czz_ok and c_ok, {"c_zz": czz_ok, "script_C": c_ok},
            f"c_zz in S^{cone_czz}, C in S^{cone_C}",
        )

    for tag, kg, sgn in (("A3p", kg_pos, "+"), ("A3m", kg_neg, "-")):
        if tag not in names:
            continue
        detail = {}
        if coeffs.g_M is not None:
            vals = sample_scalar(coeffs.g_M, kg)
            detail["g_M_monotone"] = _monotone(vals, "up", tol)
            detail["g_M_sign"] = all((v >= -tol) if sgn == "+" else (v <= tol) for v in vals)
        if coeffs.g_x is not None:
            vals = sample_matrix(coeffs.g_x, kg)
            detail["g_x_monotone"] = _monotone(vals, "up", tol)
            detail["g_x_cone"] = all(_cone_ok(v, sgn, tol) for v in vals)
        if coeffs.g_zsqrtx is not None or coeffs.g_y is not None:
            direction = "up" if sgn == "+" else "down"
            if coeffs.g_zsqrtx is not None:
                detail["g_zsqrtx_monotone"] = _monotone(sample_matrix(coeffs.g_zsqrtx, kg), direction, tol)
            if coeffs.g_y is not None:
                detail["g_y_monotone"] = _monotone(sample_scalar(coeffs.g_y, kg), direction, tol)
            combos = []
            for kk in kg:
                gz = np.asarray(coeffs.g_zsqrtx(kk)) if coeffs.g_zsqrtx else np.zeros((params.d,) * 2)
                gy = float(coeffs.g_y(kk)) if coeffs.g_y else 0.0
                combos.append(s.T @ gz + gz.T @ s + gy * np.eye(params.d))
            detail["combo_psd"] = all(_cone_ok(v, "+", tol) for v in combos)
        ok = all(bool(v) for v in detail.values())
        checks[tag] = AssumptionCheck(ok, detail, "jump coefficients entering theta's drift part")

    sta = coeffs.sigma.T @ coeffs.a.T
    for tag, kg, sgn in (("A4p", kg_pos, "+"), ("A4m", kg_neg, "-")):
        if tag not in names:
            continue
        detail = {}
        if coeffs.g_hzhz is not None:
            vals = sample_matrix(coeffs.g_hzhz, kg)
            detail["g_hzhz_monotone"] = _monotone(vals, "up", tol)
            if sgn == "+":
                detail["g_hzhz_cone"] = all(_cone_ok(v, "+", tol) for v in vals)
        if coeffs.g_hzz is not None:
            direction = "up" if sgn == "+" else "down"
            vals = sample_matrix(coeffs.g_hzz, kg)
            detail["g_hzz_monotone"] = _monotone(vals, direction, tol)
            detail["g_hzz_combo"] = all(
                _cone_ok(sta @ v @ s + s.T @ v.T @ sta.T, "+", tol) for v in vals
            )
        if coeffs.g_hzsqrtx is not None:
            vals = sample_matrix(coeffs.g_hzsqrtx, kg)
            detail["g_hzsqrtx_monotone"] = _monotone(vals, "up", tol)
            detail["g_hzsqrtx_cone"] = all(
                _cone_ok(symmetrize(sta @ v), sgn, tol) for v in vals
            )
        ok = all(bool(v) for v in detail.values())
        checks[tag] = AssumptionCheck(ok, detail, "jump coefficients of the auxiliary control")

    def growth_ratios(g, kg, matrix: bool):
        out = []
        for kk in kg:
            v = g(kk)
            mag = frobenius(v) if matrix else abs(float(v))
            out.append(mag / (abs(kk) + 1.0))
        return np.array(out)

    for tag, kg, flip in (("A5p", kg_pos, 1.0), ("A5m", kg_neg, -1.0)):
        if tag not in names:
            continue
        detail = {}
        cone = "-" if flip > 0 else "+"
        detail["c_zz_cone"] = _cone_ok(coeffs.c_zz, cone, tol)
        for gname, matrix in (("g_M", False), ("g_x", True)):
            g = getattr(coeffs, gname)
            if g is None:
                continue
            r = growth_ratios(g, kg[1:], matrix)
            detail[f"{gname}_growth_const"] = float(r.max()) if r.size else 0.0
            detail[f"{gname}_growth_bounded"] = bool(r.size < 4 or r[-1] <= 2.0 * r[: max(1, r.size // 2)].max() + tol)
        for gname, matrix in (("g_zsqrtx", True), ("g_y", False)):
            g = getattr(coeffs, gname)
            if g is None:
                continue
            mags = [frobenius(g(kk)) if matrix else abs(float(g(kk))) for kk in kg]
            detail[f"{gname}_bounded"] = bool(max(mags) <= max(mags[: max(1, len(mags) // 2)]) * 2.0 + tol)
        ok = all(bool(v) for k, v in detail.items() if not k.endswith("_const"))
        checks[tag] = AssumptionCheck(ok, detail, "growth control for the comparison bound")

    for tag, kg in (("A6p", kg_pos), ("A6m", kg_neg)):
        if tag not in names:
            continue
        detail = {}
        for gname in ("g_hzhz", "g_hzsqrtx"):
            g = getattr(coeffs, gname)
            if g is None:
                continue
            r = growth_ratios(g, kg[1:], True)
            detail[f"{gname}_growth_const"] = float(r.max()) if r.size else 0.0
            detail[f"{gname}_growth_bounded"] = bool(r.size < 4 or r[-1] <= 2.0 * r[: max(1, r.size // 2)].max() + tol)
        if coeffs.g_hzz is not None:
            mags = [frobenius(coeffs.g_hzz(kk)) for kk in kg]
            detail["g_hzz_bounded"] = bool(max(mags) <= max(mags[: max(1, len(mags) // 2)]) * 2.0 + tol)
        ok = all(bool(v) for k, v in detail.items() if not k.endswith("_const"))
        checks[tag] = AssumptionCheck(ok, detail, "growth control for the auxiliary jump terms")

    if "A7" in names:
        detail = {}
        dk = 1e-5
        for gname in ("g_M", "g_t", "g_y", "g_zsqrtx", "g_x", "g_hzhz", "g_hzz", "g_hzsqrtx"):
            g = getattr(coeffs, gname)
            if g is None:
                continue
            lip = 0.0
            for kk in np.linspace(-k_max, k_max, n_k):
                d1 = np.asarray(g(kk + dk), dtype=float) - np.asarray(g(kk), dtype=float)
                lip = max(lip, float(np.max(np.abs(d1))) / dk)
            detail[f"{gname}_lipschitz_est"] = lip
        ok = all(np.isfinite(v) for v in detail.values())
        checks["A7"] = AssumptionCheck(ok, detail, "finite-difference Lipschitz estimates")

    return AssumptionReport(checks=checks, k_grid=kg_pos, tol=tol)


# -- quasi-monotonicity probe ---------------------------------------------------------


@dataclass(frozen=True)
class QuasiMonotoneProbe:
    min_value: float
    n_samples: int
    witness: Optional[tuple] = None


def quasi_monotone_probe(
    params: AffineParams,
    coeffs: GeneratorCoeffs,
    n_samples: int = 200,
    seed: int = 0,
) -> QuasiMonotoneProbe:
    """Probe Tr((theta(w+v) - theta(v)) x) >= 0 for Tr(w x) = 0.

    A positive-definite increment w forces x = 0, so the probe draws boundary
    increments: w = Q diag(l_1..l_{d-1}, 0) Q^T of rank d-1 and x = q q^T from
    the null eigenvector, which gives Tr(w x) = 0 exactly; v is a random PD
    base point.  Returns the minimum over samples (negative values witness a
    quasi-monotonicity violation).
    """
    d = params.d
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    for _ in range(n_samples):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lams = rng.uniform(0.1, 1.0, size=d)
        lams[-1] = 0.0
        w = symmetrize((q * lams) @ q.T)
        x = np.outer(q[:, -1], q[:, -1])
        gv = rng.standard_normal((d, d))
        v = symmetrize(gv @ gv.T * (1.0 / d) + 0.05 * np.eye(d))
        val = trace_inner(theta_eval(params, coeffs, w + v) - theta_eval(params, coeffs, v), x)
        if val < worst:
            worst = val
            witness = (w, v, x)
    return QuasiMonotoneProbe(min_value=float(worst), n_samples=n_samples, witness=witness)
