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

All operations are pure, except that the 2x2 clamp writes into the caller's
``Clamp2x2Scratch`` when given one; values can be shared freely across threads.

scipy serves only :func:`mat_exp` and is imported on its first call, so a
process that never exponentiates a matrix never loads it.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

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
    scipy.linalg is imported on the first call (about 0.2 s), not with the
    package; the import lock makes a first call from two threads at once safe.
    """
    import scipy.linalg

    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteMatrixError("matrix has non-finite entries")
    return scipy.linalg.expm(arr)


# -- batched kernels used by the Monte Carlo engines ---------------------------


# Rows of ``Clamp2x2Scratch.work``; the d = 2 jump-OU engine keeps its flow
# temporaries (2 d^2 = 8 rows) in the same rows between clamps.
CLAMP_2X2_WORK_ROWS = 10


class Clamp2x2Scratch:
    """Caller-owned buffers of the closed-form 2x2 clamp for a batch of shape ``batch``.

    ``root`` (``batch`` + (2, 2)) always; ``proj`` (``batch`` + (2, 2)) and
    ``shift`` (``batch``) unless built ``root_only``, else None.  ``work``
    (``CLAMP_2X2_WORK_ROWS`` rows of shape ``batch``) and the bool ``degen``
    are scratch that every clamp into these buffers overwrites.
    """

    def __init__(self, batch: tuple, root_only: bool = False):
        self.work = np.empty((CLAMP_2X2_WORK_ROWS,) + batch)
        self.degen = np.empty(batch, dtype=bool)
        self.root = np.empty(batch + (2, 2))
        self.proj = None if root_only else np.empty(batch + (2, 2))
        self.shift = None if root_only else np.empty(batch)


def _spectral_fill_2x2(m, f1, f2, p00, p01, p11, degen, f_degen, x, y) -> None:
    """m = f1 P1 + f2 (I - P1) from the components of P1; f_degen I where ``degen`` (None: nowhere).

    x and y are scratch rows.
    """
    for i, p in ((0, p00), (1, p11)):  # f1 p + f2 (1 - p) on the diagonal
        np.multiply(f1, p, out=x)
        np.subtract(1.0, p, out=y)
        np.multiply(f2, y, out=y)
        np.add(x, y, out=m[..., i, i])
    np.multiply(f1, p01, out=x)  # f1 p01 - f2 p01 off it
    np.multiply(f2, p01, out=y)
    np.subtract(x, y, out=m[..., 0, 1])
    np.copyto(m[..., 1, 0], m[..., 0, 1])
    if degen is not None:
        zero = np.multiply(f_degen, 0.0, out=x)
        for i, j, value in ((0, 0, f_degen), (0, 1, zero), (1, 0, zero), (1, 1, f_degen)):
            np.copyto(m[..., i, j], value, where=degen)


def _clamp_spectrum_2x2(mats: np.ndarray, out: Clamp2x2Scratch):
    """Closed-form eigenvalue clamp and sqrt for stacked 2x2 matrices, into ``out``.

    Works on the components a = x00, b = (x01 + x10)/2, c = x11 of the
    symmetric part, so the input need not be symmetrized first; both outputs
    are exactly symmetric.  Each output is f1 P1 + f2 (I - P1), with P1 the
    spectral projector onto the top eigenvalue and f1, f2 the clamped
    eigenvalues (projection) or their roots (sqrt); f_degen I where the
    spectrum is degenerate.  Every entry is one fixed sequence of ``out=``
    ufuncs, signs of zero included, so the bits do not depend on what the
    buffers held.  A root-only ``out`` skips the projection and the shift.
    ``mats`` may not overlap ``out``.  Returns (proj, root, shift) of ``out``.
    """
    a, c = mats[..., 0, 0], mats[..., 1, 1]
    b, mean, disc, l1, l2, p00, p01, p11, x, y = out.work
    degen = out.degen
    np.add(mats[..., 0, 1], mats[..., 1, 0], out=b)
    np.multiply(0.5, b, out=b)
    np.add(a, c, out=mean)
    np.multiply(0.5, mean, out=mean)
    # disc = sqrt(max(0.25 (a - c)^2 + b b, 0)), l1, l2 = mean +- disc
    np.subtract(a, c, out=disc)
    np.square(disc, out=disc)
    np.multiply(0.25, disc, out=disc)
    np.multiply(b, b, out=x)
    np.add(disc, x, out=disc)
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    np.add(mean, disc, out=l1)
    np.subtract(mean, disc, out=l2)
    if out.shift is not None:  # sqrt(min(l1, 0)^2 + min(l2, 0)^2)
        np.minimum(l1, 0.0, out=x)
        np.square(x, out=x)
        np.minimum(l2, 0.0, out=y)
        np.square(y, out=y)
        np.add(x, y, out=out.shift)
        np.sqrt(out.shift, out=out.shift)
    # degenerate where disc <= 1e-14 (1 + |a| + |c| + |b|)
    np.abs(a, out=x)
    np.abs(c, out=y)
    np.add(x, y, out=x)
    np.abs(b, out=y)
    np.add(x, y, out=x)
    np.add(1.0, x, out=x)
    np.multiply(1e-14, x, out=x)
    np.less_equal(disc, x, out=degen)
    # P1 = (R - l2 I)/(2 disc); arbitrary where degenerate, where the result is overwritten
    safe = np.multiply(2.0, disc, out=x)
    any_degen = degen.any()
    if any_degen:
        np.copyto(safe, 1.0, where=degen)
    np.subtract(a, l2, out=p00)
    np.divide(p00, safe, out=p00)
    np.divide(b, safe, out=p01)
    np.subtract(c, l2, out=p11)
    np.divide(p11, safe, out=p11)
    l1c, l2c = np.maximum(l1, 0.0, out=l1), np.maximum(l2, 0.0, out=l2)
    md = np.maximum(mean, 0.0, out=mean)
    where = degen if any_degen else None
    if out.proj is not None:
        _spectral_fill_2x2(out.proj, l1c, l2c, p00, p01, p11, where, md, x, y)
    _spectral_fill_2x2(out.root, np.sqrt(l1c, out=l1c), np.sqrt(l2c, out=l2c), p00, p01, p11, where,
                       np.sqrt(md, out=md), x, y)
    return out.proj, out.root, out.shift


def project_and_sqrt_psd_batch(mats: np.ndarray, out: Optional[Clamp2x2Scratch] = None
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project onto the PSD cone and take the PSD square root in one pass.

    Returns (projected, sqrt, shift) where shift is the Frobenius norm of the
    clamped negative part, per matrix; a closed-form spectral path handles
    d = 2, batched LAPACK eigh handles general d.  At d = 2 the results are
    written into the buffers ``out`` (a root-only one gives None for the
    projection and the shift); without ``out`` each call allocates its own.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 2:
        return _clamp_spectrum_2x2(mats, Clamp2x2Scratch(mats.shape[:-2]) if out is None else out)
    if out is not None:
        raise ValueError("caller-owned clamp buffers are for 2x2 matrices only")
    w, v = np.linalg.eigh(symmetrize(mats))
    wc = np.clip(w, 0.0, None)
    shift = np.linalg.norm(np.minimum(w, 0.0), axis=-1)
    proj = np.einsum("...ik,...k,...jk->...ij", v, wc, v)
    root = np.einsum("...ik,...k,...jk->...ij", v, np.sqrt(wc), v)
    return symmetrize(proj), symmetrize(root), shift
