"""Admissible parameter sets for affine processes on the PSD cone.

A process on S_d^+ is described by a tuple (alpha, b, B, m, mu): constant
diffusion coefficient alpha in S_d^+, constant drift b, a linear drift map
B: S_d -> S_d, a constant jump measure m, and a linear jump measure mu whose
state-dependent kernel is ``M(x, dxi) = Tr(x mu(dxi)) / (||xi||^2 ^ 1)``.
Killing rates are identically zero.  Jump measures are represented as finite
atom lists, so every integral against m or M becomes a weighted sum and all
the transform formulas admit exact oracles.

The module also evaluates the log-Laplace-transform ODE right-hand sides

    F(u) = Tr(b u) - sum_i w_i (exp(-Tr(u xi_i)) - 1)
    R(u) = -2 u alpha u + B*(u)
           - sum_k (exp(-Tr(u xi_k)) - 1 + Tr(chi(xi_k) u)) / (||xi_k||^2 ^ 1) * U_k

and integrates them on the fixed-step RK4 kernel of :mod:`affinebsde.riccati`
so that E[exp(-Tr(X_t u))] = exp(-phi - Tr(psi X_0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .symcone import (
    ConeClass,
    DimensionMismatchError,
    IndefiniteMatrixError,
    NonFiniteMatrixError,
    as_sym,
    cone_classify,
    frobenius,
    psd_sqrt,
    symmetrize,
    trace_inner,
)


class BlowUpError(RuntimeError):
    """An ODE trajectory exceeded the configured norm bound."""

    def __init__(self, time: float, norm: float, bound: float):
        if np.isnan(norm):  # the state went non-finite: it passed through infinity
            norm = float("inf")
        super().__init__(f"trajectory norm {norm:.3e} exceeded {bound:.3e} at t={time:.6g}")
        self.time = time
        self.norm = norm
        self.bound = bound


# -- jump measures --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstantJumps:
    """Finite-atom constant jump measure: atoms (xi_i, w_i), xi_i PSD nonzero."""

    xis: np.ndarray  # (n, d, d)
    weights: np.ndarray  # (n,)
    norms: np.ndarray = field(init=False, repr=False)  # (n,) ||xi_i||_F

    def __post_init__(self):
        xis = np.asarray(self.xis, dtype=float)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if xis.ndim != 3 or xis.shape[1] != xis.shape[2]:
            raise DimensionMismatchError("atoms must have shape (n, d, d)")
        if xis.shape[0] != w.shape[0]:
            raise DimensionMismatchError("atom/weight count mismatch")
        if not (np.all(np.isfinite(xis)) and np.all(np.isfinite(w))):
            raise NonFiniteMatrixError("non-finite atom data")
        if np.any(w <= 0):
            raise ValueError("atom weights must be > 0")
        xis = symmetrize(xis)  # the stored atoms, so the checks below are on them
        for k in range(xis.shape[0]):
            if frobenius(xis[k]) == 0.0:
                raise ValueError("atoms must be nonzero")
            if cone_classify(xis[k]) not in (ConeClass.PSD, ConeClass.PD):
                raise IndefiniteMatrixError(f"atom {k} is not PSD")
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "norms", np.array([frobenius(x) for x in self.xis]))

    @classmethod
    def empty(cls, d: int) -> "ConstantJumps":
        return cls(np.zeros((0, d, d)), np.zeros(0))

    @classmethod
    def from_atoms(cls, atoms) -> "ConstantJumps":
        if not atoms:
            raise ValueError("use ConstantJumps.empty for no atoms")
        xis = np.stack([as_sym(x) for x, _ in atoms])
        w = np.array([float(wt) for _, wt in atoms])
        return cls(xis, w)

    @property
    def n(self) -> int:
        return self.xis.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True, eq=False)
class LinearJumps:
    """Finite-atom linear jump measure: atoms (xi_k, U_k) with U_k PSD.

    The state-dependent kernel weight at x is Tr(x U_k) / (||xi_k||^2 ^ 1).
    """

    xis: np.ndarray  # (n, d, d)
    us: np.ndarray  # (n, d, d)
    norms: np.ndarray = field(init=False, repr=False)  # (n,) ||xi_k||_F
    denominators: np.ndarray = field(init=False, repr=False)  # (n,) ||xi_k||^2 ^ 1

    def __post_init__(self):
        xis = np.asarray(self.xis, dtype=float)
        us = np.asarray(self.us, dtype=float)
        if xis.ndim != 3 or xis.shape[1] != xis.shape[2]:
            raise DimensionMismatchError("atoms must have shape (n, d, d)")
        if xis.shape != us.shape:
            raise DimensionMismatchError("xi/U shape mismatch")
        xis, us = symmetrize(xis), symmetrize(us)  # the stored atoms, so the checks below are on them
        for k in range(xis.shape[0]):
            if frobenius(xis[k]) == 0.0:
                raise ValueError("atoms must be nonzero")
            if cone_classify(xis[k]) not in (ConeClass.PSD, ConeClass.PD):
                raise IndefiniteMatrixError(f"atom {k} location is not PSD")
            if cone_classify(us[k]) not in (ConeClass.PSD, ConeClass.PD):
                raise IndefiniteMatrixError(f"atom {k} weight matrix is not PSD")
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "norms", np.array([frobenius(x) for x in self.xis]))
        norms2 = np.einsum("nij,nij->n", self.xis, self.xis)
        object.__setattr__(self, "denominators", np.minimum(norms2, 1.0))

    @classmethod
    def empty(cls, d: int) -> "LinearJumps":
        return cls(np.zeros((0, d, d)), np.zeros((0, d, d)))

    @classmethod
    def from_atoms(cls, atoms) -> "LinearJumps":
        xis = np.stack([as_sym(x) for x, _ in atoms])
        us = np.stack([as_sym(u) for _, u in atoms])
        return cls(xis, us)

    @property
    def n(self) -> int:
        return self.xis.shape[0]

    def kernel_weights(self, x) -> np.ndarray:
        """M(x, .) mass at every atom: Tr(x U_k) / (||xi_k||^2 ^ 1)."""
        xa = as_sym(x)
        return np.einsum("ij,nij->n", xa, self.us) / self.denominators


# -- linear drift maps -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HFormDrift:
    """B(x) = H x + x H^T; adjoint B*(u) = u H + H^T u."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatchError("H must be square")
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def apply(self, x) -> np.ndarray:
        xa = as_sym(x)
        return self.h @ xa + xa @ self.h.T

    def adjoint(self, u) -> np.ndarray:
        ua = as_sym(u)
        return ua @ self.h + self.h.T @ ua


@dataclass(frozen=True, eq=False)
class GeneralFormDrift:
    """B(x) = sum_{ij} beta[i,j] x_{ij} with beta[i,j] = beta[j,i] in S_d."""

    betas: np.ndarray  # (d, d, d, d)

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        if b.ndim != 4 or len(set(b.shape)) != 1:
            raise DimensionMismatchError("betas must have shape (d, d, d, d)")
        # enforce beta^{ij} = beta^{ji} and beta^{ij} symmetric
        b = 0.5 * (b + b.transpose(1, 0, 2, 3))
        b = 0.5 * (b + b.transpose(0, 1, 3, 2))
        object.__setattr__(self, "betas", b)

    @property
    def dim(self) -> int:
        return self.betas.shape[0]

    def apply(self, x) -> np.ndarray:
        return np.einsum("ijkl,ij->kl", self.betas, as_sym(x))

    def adjoint(self, u) -> np.ndarray:
        return np.einsum("ijkl,kl->ij", self.betas, as_sym(u))


LinearDrift = Union[HFormDrift, GeneralFormDrift]


def truncation(xi, trunc_radius: float) -> np.ndarray:
    """chi(xi) = xi 1{||xi|| <= r}: identity on the closed ball, zero outside."""
    xa = as_sym(xi)
    return xa if frobenius(xa) <= trunc_radius else np.zeros_like(xa)


# -- parameter sets ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AffineParams:
    """Admissible parameter set (alpha, b, B, m, mu) with a truncation radius.

    ``sigma`` is the diffusion factor, the symmetric PSD square root of alpha
    (so sigma sigma^T = sigma^T sigma = alpha).
    """

    alpha: np.ndarray
    b: np.ndarray
    drift: LinearDrift
    m: ConstantJumps = None
    mu: LinearJumps = None
    trunc_radius: float = 1.0
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        alpha = symmetrize(as_sym(self.alpha))
        b = symmetrize(as_sym(self.b))
        d = alpha.shape[0]
        if b.shape != alpha.shape or self.drift.dim != d:
            raise DimensionMismatchError("alpha, b and drift dimensions disagree")
        if cone_classify(alpha) not in (ConeClass.PSD, ConeClass.PD):
            raise IndefiniteMatrixError("alpha must be PSD")
        if self.trunc_radius <= 0:
            raise ValueError("trunc_radius must be > 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b)
        if self.m is None:
            object.__setattr__(self, "m", ConstantJumps.empty(d))
        if self.mu is None:
            object.__setattr__(self, "mu", LinearJumps.empty(d))
        if self.m.n and self.m.xis.shape[1] != d:
            raise DimensionMismatchError("m atom dimension mismatch")
        if self.mu.n and self.mu.xis.shape[1] != d:
            raise DimensionMismatchError("mu atom dimension mismatch")
        object.__setattr__(self, "sigma", psd_sqrt(alpha))

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    @property
    def continuous(self) -> bool:
        return self.m.n == 0 and self.mu.n == 0

    def chi_traces(self, u, jumps: Union[ConstantJumps, LinearJumps]) -> np.ndarray:
        """Tr(u chi(xi)) per atom of ``jumps`` (``self.m`` or ``self.mu``), chi the truncation."""
        if jumps.n == 0:
            return np.zeros(0)
        k = np.einsum("ij,nij->n", as_sym(u), jumps.xis)
        return np.where(jumps.norms <= self.trunc_radius, k, 0.0)


def wishart_params(sigma: np.ndarray, k: float, h: np.ndarray) -> AffineParams:
    """Continuous parameter set (sigma^T sigma, k sigma^T sigma, Hx + xH^T, 0, 0).

    ``k > d - 1`` keeps the constant drift admissible.
    """
    sigma = np.asarray(sigma, dtype=float)
    alpha = symmetrize(sigma.T @ sigma)
    return AffineParams(alpha=alpha, b=k * alpha, drift=HFormDrift(h))


# -- transform ODE right-hand sides ----------------------------------------------


def transform_rhs_F(params: AffineParams, u) -> float:
    """Drift part of the log-Laplace transform ODE (constant coefficient)."""
    ua = as_sym(u)
    val = float(np.sum(params.b * ua))
    if params.m.n:
        k = np.einsum("ij,nij->n", ua, params.m.xis)
        val -= float(np.dot(params.m.weights, np.expm1(-k)))
    return val


def transform_rhs_R(params: AffineParams, u) -> np.ndarray:
    """State part of the log-Laplace transform ODE; returns a symmetric matrix."""
    ua = as_sym(u)
    out = -2.0 * ua @ params.alpha @ ua + params.drift.adjoint(ua)
    if params.mu.n:
        k = np.einsum("ij,nij->n", ua, params.mu.xis)
        chi_tr = params.chi_traces(ua, params.mu)
        coef = (np.expm1(-k) + chi_tr) / params.mu.denominators
        out = out - np.einsum("n,nij->ij", coef, params.mu.us)
    return symmetrize(out)


@dataclass(frozen=True)
class TransformSolution:
    """phi(t, u0), psi(t, u0) plus PSD diagnostics of the psi trajectory."""

    phi: float
    psi: np.ndarray
    t: float
    steps: int
    psd_violation: float  # most negative eigenvalue seen along psi (0 if none)

    def log_laplace(self, x0) -> float:
        return -self.phi - trace_inner(self.psi, x0)

    def laplace(self, x0) -> float:
        return float(np.exp(self.log_laplace(x0)))


def solve_transform(
    params: AffineParams,
    u0,
    t: float,
    steps: int = 500,
    blowup_norm: float = 1e8,
) -> TransformSolution:
    """Integrate d(psi)/ds = R(psi), psi(0)=u0 and d(phi)/ds = F(psi), phi(0)=0.

    Classic RK4 on the joint state (the Riccati solvers' kernel, phi in the w
    slot).  psi is expected to stay PSD for PSD u0; violations are *reported*
    via ``psd_violation`` (most negative eigenvalue at the knots), never repaired.
    """
    from .riccati import _rk4_fixed  # riccati imports this module

    if t < 0:
        raise ValueError("t must be >= 0")
    psi = symmetrize(as_sym(u0)).copy()
    if t == 0.0:
        return TransformSolution(phi=0.0, psi=psi, t=0.0, steps=0, psd_violation=0.0)

    def rhs(p, phi):
        return transform_rhs_R(params, p), transform_rhs_F(params, p)

    h = t / steps
    try:
        _, psis, phis = _rk4_fixed(rhs, psi, 0.0, t, steps, blowup_norm)
    except BlowUpError as exc:  # the kernel reports the backward time t - s; s is a whole step
        s = round((t - exc.time) / h) * h
        raise BlowUpError(time=s, norm=exc.norm, bound=exc.bound) from None
    worst = min(0.0, float(np.linalg.eigvalsh(psis[1:])[:, 0].min()))
    return TransformSolution(phi=float(phis[-1]), psi=psis[-1], t=t, steps=steps, psd_violation=worst)


# -- admissibility validation ------------------------------------------------------

# The inward-drift sweep, when one is needed, runs over this many fixed directions
# w: the axes and odd (so nonzero) integer points of (-_SWEEP_GRID, _SWEEP_GRID)^d.
_SWEEP_DIRECTIONS = 2048
_SWEEP_GRID = 1024


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str
    witness: object = None


@dataclass(frozen=True)
class AdmissibilityReport:
    checks: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def validate_admissibility(params: AffineParams, tol: float = 1e-9) -> AdmissibilityReport:
    """Check the conditions of an admissible parameter set, exactly where they allow.

    The conditions are those of Cuchiero, Filipovic, Mayerhofer and Teichmann,
    "Affine processes on positive semidefinite matrices" (Ann. Appl. Probab.
    2011).  alpha and the U_k are PSD and the finite atom lists integrable by
    construction, so two conditions are left: b - (d - 1) alpha PSD, an
    eigenvalue check, and the inward-pointing drift
    Tr(B(x) u) - sum_k Tr(chi(xi_k) u) Tr(x U_k) / den_k must be >= 0 for x, u
    PSD with Tr(x u) = 0.  It is bilinear in (x, u) and their ranges are
    orthogonal, so pairs x = v v^T, u = w w^T with unit v _|_ w suffice.  For
    fixed w it is v^T G(w) v, G(w) = B*(w w^T) - sum_{||xi_k|| <= r}
    (w^T xi_k w / den_k) U_k, so its minimum over v is the least eigenvalue of
    G(w) on w-perp.  An H-form B adds nothing there (Tr(B(x) u) = 0 when
    x u = 0): with no linear-jump atom inside the ball the minimum is 0
    exactly.  Otherwise w sweeps the axes and Roberts' R_d points, the least
    value is compared with -tol (1 + max ||G(w)||_F / |w|^2), and its pair
    (v v^T, w w^T) is the witness.
    """
    d, mu = params.d, params.mu
    cls = cone_classify(params.b - (d - 1) * params.alpha, tol=tol)
    checks = {"b_dominates": CheckResult(
        cls in (ConeClass.PSD, ConeClass.PD), f"b - (d-1) alpha classified {cls.value}"
    )}

    inside = mu.norms <= params.trunc_radius
    h_form = isinstance(params.drift, HFormDrift)
    if d == 1:
        checks["inward_drift"] = CheckResult(True, "d=1: no boundary pair has Tr(xu)=0; vacuous")
        return AdmissibilityReport(checks=checks, tol=tol)
    if h_form and not inside.any():
        checks["inward_drift"] = CheckResult(
            True, "H-form drift, no linear-jump atom inside the truncation ball: min = 0.0"
        )
        return AdmissibilityReport(checks=checks, tol=tol)
    phi = 2.0  # R_d points frac(1/2 + i a), a_j = phi^-j with phi^(d+1) = phi + 1
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    k = np.arange(1, _SWEEP_DIRECTIONS - d + 1)[:, None]
    pts = (0.5 + k * phi ** -np.arange(1.0, d + 1)) % 1.0
    w = np.concatenate([np.eye(d), 2.0 * np.floor(_SWEEP_GRID * pts) + 1.0 - _SWEEP_GRID])
    ww = np.einsum("ni,ni->n", w, w)
    c = np.einsum("ni,kij,nj->nk", w, mu.xis[inside], w) / mu.denominators[inside]
    g = -np.einsum("nk,kij->nij", c, mu.us[inside])
    if not h_form:
        g = g + np.einsum("ijkl,nk,nl->nij", params.drift.betas, w, w)
    if d == 2:  # the integer vector J w spans w-perp: no basis to round
        q, norm = np.stack([-w[:, 1], w[:, 0]], axis=1)[:, :, None], ww * ww
    else:
        q, norm = np.linalg.qr(w[:, :, None], mode="complete")[0][:, :, 1:], ww
    lam, vec = np.linalg.eigh(q.transpose(0, 2, 1) @ g @ q)
    vals = lam[:, 0] / norm
    i = int(np.argmin(vals))
    v, u = q[i] @ vec[i, :, 0], w[i]
    v, u = v / np.linalg.norm(v), u / np.linalg.norm(u)
    scale = 1.0 + float(np.max(np.linalg.norm(g, axis=(1, 2)) / ww))
    checks["inward_drift"] = CheckResult(
        bool(vals[i] >= -tol * scale), f"min over rank-one boundary pairs = {float(vals[i])!r}",
        (np.outer(v, v), np.outer(u, u)),
    )
    return AdmissibilityReport(checks=checks, tol=tol)
