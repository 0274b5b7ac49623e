"""Assemble explicit BSDE solutions from a Riccati solution and verify them.

Given Gamma(t), w(t) solving the backward Riccati system for generator
coefficients (c_*, g_*, a, sigma, o1, o2) and an affine forward process, the
candidate solution of the BSDE with terminal value Tr(u X_T) + Tr(a O_T) + v
is

    Y_t      = Tr(Gamma(t) X_t) + Tr(a O_t) + w(t)
    Z_t      = 2 sqrt(X_t) Gamma(t) S^T
    Zhat_t   = sqrt(X_t) s^T a^T
    K_t(xi)  = Tr(Gamma(t) xi).

``drift_match_residual`` is the arbiter for every constant-factor ambiguity:
it evaluates the generator at the candidate solution and checks that it
cancels the finite-variation part produced by the Ito expansion,

    r(t, x) = f(x, Y, Z, Zhat, K) + Tr(dGamma/dt x) + dw/dt
              + Tr(Gamma (b + B(x)))
              + sum_m w Tr(Gamma chi(xi)) + sum_{m + M(x)} Tr(Gamma (xi - chi(xi)))
              + Tr(a (o1 + o2 x)),

which must vanish identically when theta and varpi carry the right factors.

Restriction inherited from the ansatz: when the terminal weight a is nonzero,
the generator must not feed Y back through c_y or g_y (the candidate Y then
contains Tr(a O_t) terms that no admissible generator can cancel).  All
shipped presets satisfy this; ``BsdeSolutionEval`` enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .affine_model import AffineParams
from .riccati import GeneratorCoeffs, RiccatiSolution
from .symcone import as_sym, psd_sqrt, symmetrize, trace_inner


@dataclass(frozen=True)
class BsdeValues:
    y: float
    z: np.ndarray
    zhat: np.ndarray
    k: Callable[[np.ndarray], float]


@dataclass(frozen=True, eq=False)
class BsdeSolutionEval:
    """Explicit BSDE solution bound to its Riccati data and model."""

    riccati: RiccatiSolution
    coeffs: GeneratorCoeffs
    params: AffineParams

    def __post_init__(self):
        if self.riccati.d != self.params.d or self.coeffs.d != self.params.d:
            raise ValueError("dimension mismatch between solution, coefficients and model")
        feeds_y = self.coeffs.c_y != 0.0 or self.coeffs.g_y is not None
        if feeds_y and np.any(self.coeffs.a):
            raise ValueError("c_y/g_y feedback is incompatible with a nonzero terminal weight a")

    @property
    def terminal_u(self) -> np.ndarray:
        return self.riccati.terminal_u

    @property
    def terminal_v(self) -> float:
        return self.riccati.terminal_v

    def terminal_value(self, x, o) -> float:
        """F(x, o) = Tr(u x) + Tr(a o) + v."""
        return (
            trace_inner(self.terminal_u, x)
            + float(np.trace(self.coeffs.a @ np.asarray(o, dtype=float)))
            + self.terminal_v
        )


def eval_solution(sol: BsdeSolutionEval, t: float, x, o) -> BsdeValues:
    """Evaluate (Y, Z, Zhat, K) at time t, state x (PSD) and auxiliary state o.

    Gamma and w are interpolated linearly between grid knots (error O(h^2),
    below every verification tolerance used here).  K is returned as a closure
    over Gamma(t).
    """
    xa = as_sym(x)
    oa = np.asarray(o, dtype=float)
    gam = sol.riccati.gamma_at(t)
    w = sol.riccati.w_at(t)
    y = trace_inner(gam, xa) + float(np.trace(sol.coeffs.a @ oa)) + w
    sx = psd_sqrt(xa)
    z = 2.0 * sx @ gam @ sol.params.sigma.T
    zhat = sx @ sol.coeffs.sigma.T @ sol.coeffs.a.T

    def k(xi) -> float:
        return trace_inner(gam, xi)

    return BsdeValues(y=float(y), z=z, zhat=zhat, k=k)


def eval_generator(
    coeffs: GeneratorCoeffs,
    params: AffineParams,
    x,
    y: float,
    z,
    zhat,
    k: Callable[[np.ndarray], float],
) -> float:
    """Evaluate the quadratic generator at an arbitrary point of its domain."""
    xa = as_sym(x)
    za = np.asarray(z, dtype=float)
    ha = np.asarray(zhat, dtype=float)
    sx = psd_sqrt(xa)

    val = float(np.trace(za @ coeffs.c_zz @ za.T))
    val += float(np.trace(za @ coeffs.c_zsqrtx @ sx))
    val += float(np.trace(coeffs.c_x @ xa))
    val += coeffs.c_y * y + coeffs.c_t
    val += float(np.trace(ha @ coeffs.c_hzhz @ ha.T))
    val += float(np.trace(ha @ coeffs.c_hzz @ za.T))
    val += float(np.trace(ha @ coeffs.c_hzsqrtx @ sx))

    if params.mu.n and coeffs.g_M is not None:
        mw = params.mu.kernel_weights(xa)
        for i in range(params.mu.n):
            val += float(coeffs.g_M(k(params.mu.xis[i]))) * mw[i]

    if params.m.n:
        for i in range(params.m.n):
            w_i = params.m.weights[i]
            kk = k(params.m.xis[i])
            if coeffs.g_zsqrtx is not None:
                val += w_i * float(np.trace(za @ np.asarray(coeffs.g_zsqrtx(kk)) @ sx))
            if coeffs.g_x is not None:
                val += w_i * float(np.sum(xa * symmetrize(coeffs.g_x(kk))))
            if coeffs.g_t is not None:
                val += w_i * float(coeffs.g_t(kk))
            if coeffs.g_y is not None:
                val += w_i * y * float(coeffs.g_y(kk))
            if coeffs.g_hzhz is not None:
                val += w_i * float(np.trace(ha @ np.asarray(coeffs.g_hzhz(kk)) @ ha.T))
            if coeffs.g_hzz is not None:
                val += w_i * float(np.trace(ha @ np.asarray(coeffs.g_hzz(kk)) @ za.T))
            if coeffs.g_hzsqrtx is not None:
                val += w_i * float(np.trace(ha @ np.asarray(coeffs.g_hzsqrtx(kk)) @ sx))
    return val


def drift_match_residual(sol: BsdeSolutionEval, t: float, x) -> float:
    """|finite-variation residual| of the candidate solution at (t, x).

    Time derivatives of Gamma and w use centered differences on the solution's
    own grid; t is snapped to the nearest interior grid point.  Raises if t is
    too close to the grid ends for a centered stencil.
    """
    return _drift_match_terms(sol, t, x)[0]


def _drift_match_terms(sol: BsdeSolutionEval, t: float, x) -> tuple[float, float]:
    """(|r|, f): ``drift_match_residual`` at (t, x) and the generator value f in it."""
    grid = sol.riccati.grid
    n = len(grid) - 1
    idx = int(round((t - grid[0]) / (grid[-1] - grid[0]) * n))
    if idx < 1 or idx > n - 1:
        raise ValueError("t too close to the grid ends for centered differences")
    tk = float(grid[idx])
    xa = as_sym(x)

    gam = sol.riccati.gammas[idx]
    dt2 = grid[idx + 1] - grid[idx - 1]
    dgam = (sol.riccati.gammas[idx + 1] - sol.riccati.gammas[idx - 1]) / dt2
    dw = (sol.riccati.w[idx + 1] - sol.riccati.w[idx - 1]) / dt2

    o = np.zeros((sol.params.d, sol.params.d))
    vals = eval_solution(sol, tk, xa, o)
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
    a = sol.coeffs.a
    r += float(np.trace(a @ (sol.coeffs.o1 + sol.coeffs.o2 @ xa)))
    return abs(float(r)), f


def drift_match_stats(
    sol: BsdeSolutionEval,
    n_samples: int = 50,
    seed: int = 0,
) -> dict:
    """Max absolute and relative drift-match residual over random (t, x), x = G G^T / d + I / 20."""
    rng = np.random.default_rng(seed)
    grid = sol.riccati.grid
    d = sol.params.d
    worst_abs = 0.0
    worst_rel = 0.0
    for _ in range(n_samples):
        idx = int(rng.integers(1, len(grid) - 1))
        t = float(grid[idx])
        g = rng.standard_normal((d, d))
        x = symmetrize(g @ g.T) * (1.0 / d) + 0.05 * np.eye(d)
        r, f = _drift_match_terms(sol, t, x)
        worst_abs = max(worst_abs, r)
        worst_rel = max(worst_rel, r / (1.0 + abs(f)))
    return {"max_abs_residual": worst_abs, "max_rel_residual": worst_rel, "n_samples": n_samples}


# -- Monte Carlo martingale audit verdicts ---------------------------------------------


def orient_ratio(mean_lt: float, se_lt: float, l0: float) -> tuple[float, float]:
    """Normalize E[L_T] against L_0 so the supermartingale direction is <= 1.

    The ratio is E[L_T]/L_0 when L_0 > 0 and L_0/E[L_T] when L_0 < 0, so the
    supermartingale bound always reads ratio <= 1 and a martingale gives
    ratio = 1.  The returned standard error is the delta-method standard
    error of the oriented ratio.  A non-finite sample, E[L_T] = 0 with
    L_0 < 0, or a non-finite result raises FloatingPointError.
    """
    if not (math.isfinite(mean_lt) and math.isfinite(se_lt)):
        raise FloatingPointError(f"E[L_T] estimate is not finite (mean {mean_lt}, stderr {se_lt})")
    if l0 > 0:
        ratio, se = mean_lt / l0, se_lt / abs(l0)
    elif mean_lt == 0.0:
        raise FloatingPointError("E[L_T] = 0 with L_0 < 0: the ratio L_0/E[L_T] is undefined")
    else:
        ratio = l0 / mean_lt
        try:
            se = se_lt * abs(l0) / mean_lt**2
        except (OverflowError, ZeroDivisionError):  # E[L_T]^2 out of float range
            se = math.inf
    if not (math.isfinite(ratio) and math.isfinite(se)):
        raise FloatingPointError(f"oriented ratio is not finite (ratio {ratio}, stderr {se})")
    return ratio, se


def classify_ratio(ratio: float, se: float) -> str:
    """MARTINGALE within 3 standard errors of 1, SUPERMARTINGALE_OK below, else FAIL."""
    if abs(ratio - 1.0) <= 3.0 * se:
        return "MARTINGALE"
    if ratio <= 1.0 + 3.0 * se:
        return "SUPERMARTINGALE_OK"
    return "FAIL"
