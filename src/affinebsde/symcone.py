"""Symmetric-matrix linear algebra specialized to the positive-semidefinite cone.

Conventions used throughout the package:

* symmetric matrices are dense float64 arrays,
* general square matrices ("GenMat") are bare float64 ``ndarray``s with no
  invariant beyond their shape,
* the inner product is ``Tr(x y)`` with induced (Frobenius) norm
  ``||x|| = sqrt(Tr(x x))``,
* cone tests use a tolerance relative to ``1 + ||x||_F`` (round-off in long
  simulations accumulates proportionally to the matrix scale),
* eigendecompositions order eigenvalues descending so repeated runs are
  bit-for-bit reproducible.

All operations are pure; values can be shared freely across threads.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.linalg

DEFAULT_CONE_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NonFiniteMatrixError(ValueError):
    """A matrix contains NaN or infinite entries."""


class IndefiniteMatrixError(ValueError):
    """A PSD-only operation received a matrix that is indefinite beyond tolerance."""


class ConeClass(enum.Enum):
    PD = "PD"
    PSD = "PSD"
    NSD = "NSD"
    ND = "ND"
    INDEFINITE = "Indefinite"


def symmetrize(a) -> np.ndarray:
    """(a + a^T)/2, batched over leading axes."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def as_sym(x) -> np.ndarray:
    """x as a square float64 array (no copy when it already is one)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def trace_inner(x, y) -> float:
    """Tr(x y) for symmetric x, y; equals the elementwise product sum."""
    xa, ya = as_sym(x), as_sym(y)
    if xa.shape != ya.shape:
        raise DimensionMismatchError(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    return float(np.sum(xa * ya))


def eigh_desc(x) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition with eigenvalues sorted descending."""
    w, v = np.linalg.eigh(symmetrize(as_sym(x)))
    return w[::-1].copy(), v[:, ::-1].copy()


def cone_classify(x, tol: float = DEFAULT_CONE_TOL) -> ConeClass:
    """Classify a symmetric matrix against the PSD/NSD cones.

    The effective eigenvalue threshold is ``tol * (1 + ||x||_F)``.  The zero
    matrix classifies as PSD (tie-break documented here).
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    xa = as_sym(x)
    w = np.linalg.eigvalsh(symmetrize(xa))
    eff = tol * (1.0 + float(np.linalg.norm(xa)))
    lmin, lmax = float(w[0]), float(w[-1])
    if lmin > eff:
        return ConeClass.PD
    if lmax < -eff:
        return ConeClass.ND
    if lmin >= -eff:
        return ConeClass.PSD
    if lmax <= eff:
        return ConeClass.NSD
    return ConeClass.INDEFINITE


def psd_sqrt(x, tol: float = DEFAULT_CONE_TOL) -> np.ndarray:
    """Symmetric PSD square root; negative eigenvalues within tol are clamped.

    Raises :class:`IndefiniteMatrixError` if the most negative eigenvalue
    falls below ``-tol * (1 + ||x||_F)``.
    """
    xa = as_sym(x)
    w, v = eigh_desc(xa)
    eff = tol * (1.0 + float(np.linalg.norm(xa)))
    if w[-1] < -eff:
        raise IndefiniteMatrixError(f"matrix indefinite beyond tolerance (lambda_min={w[-1]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return symmetrize(root)


def psd_project(x) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize and clamp negative eigenvalues."""
    w, v = eigh_desc(symmetrize(as_sym(x)))
    return symmetrize((v * np.clip(w, 0.0, None)) @ v.T)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Backed by scipy.linalg.expm: Al-Mohy/Higham scaling-and-squaring with Pade
    approximants of orders {3, 5, 7, 9, 13}, the order and squaring count
    selected from 1-norm bounds (theta_3=1.495585217958292e-2, ...,
    theta_13=4.25; above theta_13 the input is scaled by 2^-s).  Relative
    Frobenius accuracy is ~1e-13 or better for well-conditioned inputs.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteMatrixError("matrix has non-finite entries")
    return scipy.linalg.expm(arr)


# -- batched kernels used by the Monte Carlo engines ---------------------------


def _spectral_combine_2x2(f1, f2, p00, p01, p11, degen, f_degen) -> np.ndarray:
    """f1 P1 + f2 (I - P1) from the components of P1; f_degen I where degenerate."""
    out = np.empty(p00.shape + (2, 2))
    out[..., 0, 0] = f1 * p00 + f2 * (1.0 - p00)
    off = f1 * p01 - f2 * p01
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    out[..., 1, 1] = f1 * p11 + f2 * (1.0 - p11)
    if degen.any():
        fd = f_degen[degen]
        out[degen, 0, 0] = fd
        out[degen, 0, 1] = fd * 0.0
        out[degen, 1, 0] = fd * 0.0
        out[degen, 1, 1] = fd
    return out


def _clamp_spectrum_2x2(mats: np.ndarray):
    """Closed-form eigenvalue clamp and sqrt for stacked 2x2 matrices.

    Works on the components a = x00, b = (x01 + x10)/2, c = x11 of the
    symmetric part, so the input need not be symmetrized first; both outputs
    are exactly symmetric.  Each entry is bitwise the one the matrix expression
    f1 P1 + f2 (I - P1) gives, signs of zero included.
    """
    a = mats[..., 0, 0]
    c = mats[..., 1, 1]
    b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    mean = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    l1 = mean + disc
    l2 = mean - disc
    l1c = np.maximum(l1, 0.0)
    l2c = np.maximum(l2, 0.0)
    shift = np.sqrt(np.minimum(l1, 0.0) ** 2 + np.minimum(l2, 0.0) ** 2)

    scale = np.abs(a) + np.abs(c) + np.abs(b)
    degen = disc <= 1e-14 * (1.0 + scale)
    safe = np.where(degen, 1.0, 2.0 * disc)

    # spectral projector P1 = (R - l2 I)/(2 disc) onto the top eigenvalue;
    # arbitrary when degenerate, where the result is overwritten by a multiple of I
    p00 = (a - l2) / safe
    p01 = b / safe
    p11 = (c - l2) / safe
    md = np.maximum(mean, 0.0)
    proj = _spectral_combine_2x2(l1c, l2c, p00, p01, p11, degen, md)
    root = _spectral_combine_2x2(np.sqrt(l1c), np.sqrt(l2c), p00, p01, p11, degen, np.sqrt(md))
    return proj, root, shift


def project_and_sqrt_psd_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project onto the PSD cone and take the PSD square root in one pass.

    Returns (projected, sqrt, shift) where shift is the Frobenius norm of the
    clamped negative part, per matrix; a closed-form spectral path handles
    d = 2, batched LAPACK eigh handles general d.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 2:
        return _clamp_spectrum_2x2(mats)
    w, v = np.linalg.eigh(symmetrize(mats))
    wc = np.clip(w, 0.0, None)
    shift = np.linalg.norm(np.minimum(w, 0.0), axis=-1)
    proj = np.einsum("...ik,...k,...jk->...ij", v, wc, v)
    root = np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(wc), v)
    return symmetrize(proj), symmetrize(root), shift
