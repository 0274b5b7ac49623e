"""Monte Carlo engines for the forward processes.

Engines
-------
* Euler-Maruyama for the matrix square-root diffusion
  dR = (b + B(R)) dt + sqrt(R) dW S + S^T dW^T sqrt(R), with eigenvalue
  clamping onto the PSD cone after every step (full truncation); the price
  log-dynamics dN = R eta dt + sqrt(R) dQ with dQ = dW rho + sqrt(1-rho'rho) dD,
  and the auxiliary process dO = s sqrt(R) dQhat + (o1 + o2 R) dt.
* Exact affine flow for the jump-OU process dR = (lam + Lambda(R)) dt + dJ:
  between grid points R is propagated by the exact semigroup (H-form Lambda),
  jump marks drawn from exponential clocks are conjugated by the flow over the
  remaining sub-interval; plain Euler handles general Lambda.

Each engine steps the (R, O) state of one RNG block in one iterator
(``_EulerPaths``, ``_JumpOuPaths``): it yields ``(r, o, sr, dq)`` before each
step (the state, sqrt(R) and the price noise dQ, valid until the next step is
requested) and afterwards exposes ``r`` and ``o`` at T and ``n_clamped`` (0
for the jump-OU engine's exact flow, which stays in the cone).  One audit loop
(``_audit``: strategy integrals, quadratic variation, terminal R and O, clamp
count) and one bundle loop (``_bundles``: R, N and O per step) serve both
engines.  The public ``simulate_wishart`` keeps O at 0.

Randomness: Philox4x64-10 counter-based bit generator, one stream per fixed
block of ``STREAM_BLOCK`` path indices with key (seed, block start).
``_BlockStream`` owns that contract: every draw covers the whole block and
returns the used paths' rows only, so increasing the path count never changes
earlier paths.  The Heston and Wishart engines draw only Gaussian noise,
which never depends on the simulated state, so one helper thread per block
fills the next step's draws (``_BlockStream.normals_ahead``, ``AHEAD_DEPTH``
buffers reused for the whole block) while the block's worker does the step's
arithmetic; the helper is the block's only caller of its stream and draws in
the serial order, so the stream order is unchanged.  The weak-error study and
the jump-OU engine draw in their own serial loop, each step ``fill``-ing one
reused buffer.  At d = 2 the weak-error study steps and clamps in place, and
so does the jump-OU engine's exact flow (one ``Clamp2x2Scratch`` per block,
whose work rows also hold the flow's temporaries), so neither allocates array
memory per step apart from the jump draws; ``_audit`` keeps its per-step
arrays in per-block buffers too.
Path generation parallelizes over blocks (``threads``); per-block results are
reduced in block order, which keeps every output bit-identical regardless of
the thread count.  Products of a path batch with a constant matrix or vector
(``_const_batch``, ``_batch_const``) are single BLAS calls whose bitwise
equality with stacked ``matmul`` a test of the suite pins; the in-place flow
step and quadratic forms are pinned to them the same way.
"""

from __future__ import annotations

import contextvars
import math
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .affine_model import AffineParams, ConstantJumps, HFormDrift, LinearDrift
from .symcone import (
    Clamp2x2Scratch,
    as_sym,
    mat_exp,
    project_and_sqrt_psd_batch,
    symmetrize,
)

STREAM_BLOCK = 16384
# Steps of Gaussian draws a block holds at once: the step being simulated and
# the one its helper thread draws ahead.
AHEAD_DEPTH = 2
JUMP_MARK_BUDGET = 1e8
# Paths x (steps + 1) that simulate_wishart and simulate_bns may stream.  The
# simulate command writes each bundle (one block of paths) to paths.csv as it
# arrives: about 230 B per path-step of the bundle at d = 2 (peak RSS of 8 000
# against 2 000 paths x 100 steps), so the budget stands for at most about
# 460 MB there, more at larger d.
PATH_STEP_BUDGET = 2e6


def _block_rng(seed: int, block_start: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_start)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n_paths: int) -> list[tuple[int, int]]:
    out = []
    start = 0
    while start < n_paths:
        out.append((start, min(STREAM_BLOCK, n_paths - start)))
        start += STREAM_BLOCK
    return out


class _BlockStream:
    """Draws of the path block at ``start``: each covers the whole block, returns ``count`` rows."""

    def __init__(self, seed: int, start: int, count: int):
        self.rng = _block_rng(seed, start)
        self.count = count

    def fill(self, buf: np.ndarray) -> np.ndarray:
        """One step's N(0, 1) draws over the whole block, into the flat ``buf``.

        ``buf`` holds ``STREAM_BLOCK`` times the per-path sizes of the step's
        shapes; one ``standard_normal`` call fills it in the serial stream
        order, without allocating and without the GIL.
        """
        return self.rng.standard_normal(out=buf)

    def used_rows(self, raw: np.ndarray, shapes, scale: float) -> tuple:
        """The used paths' rows of each per-path shape in a ``fill``-ed buffer, scaled in place.

        The shapes lie in turn in ``raw``, each over the whole block; the
        arrays are views of ``raw``, bitwise the used rows of
        ``scale * standard_normal((STREAM_BLOCK,) + shape)`` drawn in turn.
        """
        step, lo = [], 0
        for shape in shapes:
            size = math.prod(shape)
            x = raw[lo: lo + self.count * size].reshape((self.count,) + tuple(shape))
            step.append(np.multiply(x, scale, out=x))
            lo += STREAM_BLOCK * size
        return tuple(step)

    def normals_ahead(self, shapes, scale: float, n: int) -> Iterator[tuple]:
        """Per step, for n steps, scale * N(0, 1) draws of each per-path shape, used paths only.

        The helper of ``_ahead`` ``fill``s each step into one of
        ``AHEAD_DEPTH`` buffers reused for every step; the used rows are
        scaled here.  A step's arrays are views of its buffer, valid until the
        next step is requested.
        """
        ring = np.empty((AHEAD_DEPTH, STREAM_BLOCK * sum(math.prod(shape) for shape in shapes)))
        for raw in _ahead(lambda slot: self.fill(ring[slot]), n):
            yield self.used_rows(raw, shapes, scale)

    def jumps(self, rate: float, cdf: np.ndarray, dt: float):
        """(path ids, times in [0, dt), atom marks by ``cdf``) of Poisson(rate) jumps."""
        ids = np.repeat(np.arange(STREAM_BLOCK), self.rng.poisson(rate, size=STREAM_BLOCK))
        taus = self.rng.uniform(0.0, dt, size=ids.size)
        marks = np.searchsorted(cdf, self.rng.uniform(size=ids.size), side="left")
        keep = ids < self.count
        return ids[keep], taus[keep], marks[keep]


def _ahead(draw: Callable[[int], object], n: int) -> Iterator:
    """Yield ``draw(k % AHEAD_DEPTH)`` for k < n, each drawn ahead in a helper thread.

    The helper is the only caller of ``draw`` and calls it in order, so the
    items are those of n serial calls.  It starts item k only once the caller
    has asked for item k - AHEAD_DEPTH + 1, so a draw may fill buffer ``slot``
    in place: an item stays valid until the next one is requested.  The helper
    runs in a copy of the caller's context (numpy's error state included) and
    hands the items over through C-level queues that block without polling; an
    exception it meets is raised here with its own type.  However the caller
    stops, the helper is stopped and joined before the generator ends.
    """
    items: queue.SimpleQueue = queue.SimpleQueue()
    credits: queue.SimpleQueue = queue.SimpleQueue()  # one per item the helper may draw now
    for _ in range(AHEAD_DEPTH):
        credits.put(None)
    stop = threading.Event()

    def produce():
        try:
            for k in range(n):
                credits.get()
                if stop.is_set():
                    return
                items.put((draw(k % AHEAD_DEPTH), None))
        except BaseException as exc:  # raised again in the caller
            items.put((None, exc))

    helper = threading.Thread(target=contextvars.copy_context().run, args=(produce,), daemon=True)
    helper.start()
    try:
        for _ in range(n):
            item, exc = items.get()
            if exc is not None:
                raise exc
            yield item
            credits.put(None)  # the caller is done with the item, and with its slot
    finally:
        stop.set()
        credits.put(None)
        helper.join()


def _run_blocks(worker: Callable[[_BlockStream], object], seed: int, n_paths: int, threads: int) -> list:
    def run(block):
        return worker(_BlockStream(seed, *block))

    blocks = _blocks(n_paths)
    if threads <= 1 or len(blocks) == 1:
        return [run(block) for block in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # each block runs in a copy of the caller's context, numpy's error state included
        futures = [pool.submit(contextvars.copy_context().run, run, block) for block in blocks]
        return [f.result() for f in futures]


def mean_stderr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the leading (path) axis."""
    n = x.shape[0]
    m = np.mean(x, axis=0)
    se = np.std(x, axis=0, ddof=1) / np.sqrt(n)
    return m, se


def _check_jump_budget(lam_tot: float, T: float, n_paths: int) -> None:
    """Refuse a run whose expected jump marks, drawn over whole blocks, exceed JUMP_MARK_BUDGET."""
    marks = lam_tot * T * STREAM_BLOCK * len(_blocks(n_paths))
    if not marks <= JUMP_MARK_BUDGET:
        raise ValueError(f"the jump draws need about {marks:.3g} marks, over the budget of "
                         f"{JUMP_MARK_BUDGET:.0e} (total intensity x horizon x {STREAM_BLOCK} x blocks)")


def _check_path_step_budget(n_paths: int, n_steps: int) -> None:
    """Refuse a run that would keep more than PATH_STEP_BUDGET path-steps."""
    stored = n_paths * (n_steps + 1)
    if not stored <= PATH_STEP_BUDGET:
        raise ValueError(f"{n_paths} paths x {n_steps + 1} times are {stored:.3g} stored path-steps, "
                         f"over the budget of {PATH_STEP_BUDGET:.0e}")


def _const_batch(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """c @ r for a constant matrix c and a (B, d, k) batch r, as one gemm."""
    b, d, k = r.shape
    return (c @ r.transpose(1, 0, 2).reshape(d, -1)).reshape(-1, b, k).transpose(1, 0, 2)


def _batch_const(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """r @ c for a batch r with contiguous rows and a constant matrix or vector c, as one call."""
    return (r.reshape(-1, r.shape[-1]) @ c).reshape(r.shape[:-1] + c.shape[1:])


def _quad_form(rc: np.ndarray, p: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """p' r_b p for each matrix r_b of a batch, into ``out`` (B,); ``t`` (B,) is scratch.

    ``rc`` (d^2, B) holds the entries of the batch, one row per entry in
    row-major order.  The terms r_ij p_i p_j are summed from 0 in that order,
    so for p = pk[k] the result is bitwise column k of einsum "bij,ki,kj->bk".
    """
    for n, (i, j) in enumerate(np.ndindex(len(p), len(p))):
        np.multiply(rc[n], p[i], out=t)
        t *= p[j]
        np.add(out if n else 0.0, t, out=out)
    return out


def _drift_apply_batch(drift: LinearDrift, r: np.ndarray) -> np.ndarray:
    if isinstance(drift, HFormDrift):
        return _const_batch(drift.h, r) + _batch_const(r, drift.h.T)
    return np.einsum("ijkl,bij->bkl", drift.betas, r)


def _euler_update(r: np.ndarray, sr: np.ndarray, params: AffineParams, dt: float,
                  dw: np.ndarray) -> np.ndarray:
    """Euler step r + (b + B(r)) dt + M + M^T of the square-root diffusion, in place.

    M = sqrt(R) dW Sigma with ``sr`` = sqrt(R); the sum is formed left to right,
    so the result is bitwise that of the written-out expression.  Returns ``r``.
    """
    m = _batch_const(np.matmul(sr, dw), params.sigma)
    inc = _drift_apply_batch(params.drift, r)
    inc += params.b
    inc *= dt
    r += inc
    r += m
    r += m.transpose(0, 2, 1)
    return r


@dataclass(frozen=True, eq=False)
class CorrelationSpec:
    """Correlation rho between the price and covariance noises; rho'rho <= 1."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if rho.ndim != 1:
            raise ValueError("rho must be a vector")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise ValueError("components of rho must lie in [-1, 1]")
        if float(rho @ rho) > 1.0 + 1e-12:
            raise ValueError("rho'rho must be <= 1")
        object.__setattr__(self, "rho", rho)

    @property
    def d(self) -> int:
        return self.rho.shape[0]

    @property
    def orth(self) -> float:
        """sqrt(1 - rho'rho), clamped at 0 (rho'rho = 1 is allowed)."""
        return float(np.sqrt(max(1.0 - float(self.rho @ self.rho), 0.0)))


class _EulerPaths:
    """Euler steps of (R, O) for one RNG block, R clamped onto the PSD cone after each step.

    O moves by dO = (o1 + o2 R) dt + o_sigma sqrt(R) dQhat, added in that
    order, when ``o_terms`` = (o_sigma, o1, o2) has a nonzero entry, and stays
    0 otherwise.  dQhat is drawn when o_sigma is nonzero or ``draw_qhat`` is
    set.  ``n_clamped`` counts the path-steps whose clamp removed a negative
    part above 1e-13 (Frobenius).
    """

    def __init__(self, params: AffineParams, r0: np.ndarray, corr: CorrelationSpec, dt: float,
                 n_steps: int, stream: _BlockStream, o_terms=(), draw_qhat: bool = False):
        self.params, self.r0, self.corr, self.dt, self.n_steps = params, r0, corr, dt, n_steps
        self.stream = stream
        self.o_terms = o_terms if any(map(np.any, o_terms)) else None
        self.draw_qhat = draw_qhat or (self.o_terms is not None and bool(np.any(o_terms[0])))
        self.r = self.o = None
        self.n_clamped = 0

    def __iter__(self):
        params, corr, dt = self.params, self.corr, self.dt
        d = params.d
        r, sr, _ = project_and_sqrt_psd_batch(np.broadcast_to(self.r0, (self.stream.count, d, d)).copy())
        o = np.zeros((self.stream.count, d, d))
        shapes = [(d, d), (d,), (d, d)] if self.draw_qhat else [(d, d), (d,)]
        for dw, dd, *dqh in self.stream.normals_ahead(shapes, np.sqrt(dt), self.n_steps):
            dq = _batch_const(dw, corr.rho) + corr.orth * dd
            yield r, o, sr, dq
            if self.o_terms is not None:
                o_sigma, o1, o2 = self.o_terms
                o += (o1 + _const_batch(o2, r)) * dt
                if dqh:  # drawn for a nonzero o_sigma
                    o += _const_batch(o_sigma, np.matmul(sr, dqh[0]))
            r = _euler_update(r, sr, params, dt, dw)
            r, sr, shift = project_and_sqrt_psd_batch(r)
            self.n_clamped += int(np.count_nonzero(shift > 1e-13))
        self.r, self.o = r, o


# -- full-storage bundles -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathBundle:
    """One batch of simulated paths on the time grid ``times``.

    Arrays carry a leading batch axis; ``path_offset`` is the absolute index
    of the first path.  ``projection_fraction`` is the share of the bundle's
    path-steps whose PSD clamp fired, as in ``PathFunctionals``.
    """

    times: np.ndarray
    r: np.ndarray  # (B, n+1, d, d)
    n_log: np.ndarray  # (B, n+1, d)
    o: np.ndarray  # (B, n+1, d, d)
    path_offset: int
    projection_fraction: float


def _bundles(paths_of: Callable[[_BlockStream], Iterator], d: int, eta, T: float, n_steps: int,
             n_paths: int, seed: int) -> Iterator[PathBundle]:
    """PathBundles of R, N and O, one per RNG block, stepped by the engine ``paths_of(stream)``."""
    _check_path_step_budget(n_paths, n_steps)
    eta = np.asarray(eta, dtype=float)
    dt = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    for start, count in _blocks(n_paths):
        paths = paths_of(_BlockStream(seed, start, count))
        rs = np.empty((count, n_steps + 1, d, d))
        ns = np.zeros((count, n_steps + 1, d))
        os_ = np.empty((count, n_steps + 1, d, d))
        for k, (r, o, sr, dq) in enumerate(paths):
            rs[:, k] = r
            os_[:, k] = o
            ns[:, k + 1] = ns[:, k] + _batch_const(r, eta) * dt + np.einsum("bij,bj->bi", sr, dq)
        rs[:, n_steps] = paths.r
        os_[:, n_steps] = paths.o
        yield PathBundle(times=times, r=rs, n_log=ns, o=os_, path_offset=start,
                         projection_fraction=paths.n_clamped / (count * n_steps))


def simulate_wishart(
    params: AffineParams,
    r0,
    corr: CorrelationSpec,
    eta,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> Iterator[PathBundle]:
    """Stream PathBundles of the continuous matrix diffusion (Euler + clamp); O stays 0.

    Deterministic given ``seed``; one bundle per RNG block.  Every step draws
    dQhat, so the paths are those of ``heston_functionals`` with ``o_sigma`` set.
    """
    if not params.continuous:
        raise ValueError("simulate_wishart expects a continuous parameter set")
    r0 = as_sym(r0)
    dt = T / n_steps
    yield from _bundles(lambda stream: _EulerPaths(params, r0, corr, dt, n_steps, stream, draw_qhat=True),
                        params.d, eta, T, n_steps, n_paths, seed)


# -- jump-OU (BNS-type) engine --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BnsJumpSpec:
    """Jump-OU covariance dynamics dR = (lam + Lambda(R)) dt + dJ.

    ``lam`` is the constant PSD drift, ``lam_op`` the inward-pointing linear
    map, and J an independent finite-activity subordinator with constant drift
    ``b_j`` and compound-Poisson part ``m_j`` (total intensity = sum of atom
    weights, mark law proportional to the weights).
    """

    lam: np.ndarray
    lam_op: LinearDrift
    b_j: np.ndarray
    m_j: ConstantJumps

    def __post_init__(self):
        object.__setattr__(self, "lam", symmetrize(as_sym(self.lam)))
        object.__setattr__(self, "b_j", symmetrize(as_sym(self.b_j)))

    @property
    def d(self) -> int:
        return self.lam.shape[0]

    @property
    def total_intensity(self) -> float:
        return self.m_j.total_weight if self.m_j.n else 0.0

    def affine_params(self) -> AffineParams:
        """Equivalent affine parameter set (0, lam + b_j, Lambda, m_j, 0)."""
        d = self.d
        return AffineParams(
            alpha=np.zeros((d, d)), b=self.lam + self.b_j, drift=self.lam_op, m=self.m_j,
        )


class _AffineFlow:
    """Exact flow of dR/dt = lam_tot + H R + R H^T over sub-intervals."""

    def __init__(self, h_mat: np.ndarray, const: np.ndarray, dt: float):
        self.h = h_mat
        self.const = const
        self.e_dt = mat_exp(h_mat * dt)
        self.d_dt = self._drift_integral(dt)
        try:
            evals, evecs = np.linalg.eig(h_mat)
            cond = np.linalg.cond(evecs)
            self._eig = (evals, evecs, np.linalg.inv(evecs)) if cond < 1e8 else None
        except np.linalg.LinAlgError:
            self._eig = None

    def _drift_integral(self, delta: float) -> np.ndarray:
        # Simpson quadrature of int_0^delta e^{Hs} C e^{H^T s} ds on 20 intervals
        nodes = 20
        if delta == 0.0:
            return np.zeros_like(self.const)
        ss = np.linspace(0.0, delta, nodes + 1)
        props = [mat_exp(self.h * s) for s in ss]
        vals = np.array([e @ self.const @ e.T for e in props])
        w = np.ones(nodes + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return np.einsum("n,nij->ij", w, vals) * (delta / nodes) / 3.0

    def step(self, r: np.ndarray, work: np.ndarray) -> None:
        """r <- e^{H dt} r e^{H^T dt} + D(dt) in place for a C-contiguous (B, d, d) batch r.

        Two gemms with the operand shapes of ``_const_batch`` and
        ``_batch_const``, so r is bitwise ``_batch_const(_const_batch(e, r),
        e.T) + d_dt``.  ``work`` is a C-contiguous scratch of at least
        2 B d^2 entries, for the transposed copies.
        """
        b, d, _ = r.shape
        n = b * d * d
        flat = work.reshape(-1)
        rt, er = flat[:n].reshape(d, b * d), flat[n: 2 * n].reshape(d, b * d)
        row = np.dtype((np.void, 8 * d))  # the transposed copies move whole matrix rows
        np.copyto(rt.view(row), r.view(row)[..., 0].T)  # rt[i, b d + k] = r[b, i, k]
        np.matmul(self.e_dt, rt, out=er)
        np.copyto(rt.view(row).reshape(b, d), er.view(row).T)  # rt is e r in (B, d, d) order
        np.matmul(rt.reshape(b * d, d), self.e_dt.T, out=r.reshape(b * d, d))
        for (i, j), v in np.ndenumerate(self.d_dt):
            r[:, i, j] += v

    def propagators(self, deltas: np.ndarray) -> np.ndarray:
        """exp(H delta_k) for a batch of sub-interval lengths."""
        if self._eig is not None:
            evals, evecs, vinv = self._eig
            expd = np.exp(np.multiply.outer(deltas, evals))
            out = np.einsum("ik,nk,kj->nij", evecs, expd, vinv)
            return np.ascontiguousarray(out.real)
        return np.array([mat_exp(self.h * dl) for dl in deltas])


class _JumpOuPaths:
    """Steps of (R, O) of the jump-OU model for one RNG block: flow or Euler drift, then jumps.

    O accumulates realized covariance, O += R dt.  The price noise dQ = dD is
    drawn before the step's jumps.  ``flow`` is the exact flow over one step
    of an H-form drift; it keeps R in the cone, so only sqrt(R) of the clamp
    is formed and ``n_clamped`` stays 0.  Without one the drift is an Euler
    step, which can leave the cone: as in ``_EulerPaths``, R after the drift
    and the jumps is replaced by its PSD clamp, and ``n_clamped`` counts the
    path-steps whose clamp removed a negative part above 1e-13 (Frobenius).  The block
    allocates its state and step buffers once (at d = 2 the clamp's too); the
    exact-flow step then allocates only its jump draws.
    """

    def __init__(self, spec: BnsJumpSpec, r0: np.ndarray, dt: float, n_steps: int,
                 stream: _BlockStream, flow: Optional[_AffineFlow]):
        self.spec, self.r0, self.dt, self.n_steps = spec, r0, dt, n_steps
        self.stream, self.flow = stream, flow
        self.r = self.o = None
        self.n_clamped = 0

    def __iter__(self):
        spec, dt, stream, flow = self.spec, self.dt, self.stream, self.flow
        d, count = spec.d, stream.count
        sdt = np.sqrt(dt)
        const = spec.lam + spec.b_j
        lam_tot = spec.total_intensity
        cdf = np.cumsum(spec.m_j.weights) / lam_tot if lam_tot > 0 else None
        clamp = Clamp2x2Scratch((count,), root_only=flow is not None) if d == 2 else None
        # the flow's transposed copies and R dt live in the clamp's work rows between clamps
        work = clamp.work if clamp is not None else np.empty((2 * d * d, count))
        r_dt = work[: d * d].reshape(count, d, d)
        raw = np.empty(STREAM_BLOCK * d)
        r = np.broadcast_to(self.r0, (count, d, d)).copy()
        o = np.zeros((count, d, d))
        _, sr, _ = project_and_sqrt_psd_batch(r, clamp)
        for k in range(self.n_steps):
            (dd,) = stream.used_rows(stream.fill(raw), [(d,)], sdt)
            yield r, o, sr, dd
            o += np.multiply(r, dt, out=r_dt)
            if flow is not None:
                flow.step(r, work)
            else:
                r = r + (const + _drift_apply_batch(spec.lam_op, r)) * dt
            if lam_tot > 0:
                ids, taus, marks = stream.jumps(lam_tot * dt, cdf, dt)
                if ids.size:
                    xis = spec.m_j.xis[marks]
                    if flow is not None:
                        props = flow.propagators(dt - taus)
                        xis = np.matmul(np.matmul(props, xis), props.transpose(0, 2, 1))
                    np.add.at(r, ids, xis)
            if flow is None:  # the Euler drift may have left the cone
                r, sr, shift = project_and_sqrt_psd_batch(r, clamp)
                self.n_clamped += int(np.count_nonzero(shift > 1e-13))
            elif k + 1 < self.n_steps:
                _, sr, _ = project_and_sqrt_psd_batch(r, clamp)
        self.r, self.o = r, o


def _jump_ou_engine(spec: BnsJumpSpec, r0, T: float, n_steps: int,
                    n_paths: int) -> Callable[[_BlockStream], _JumpOuPaths]:
    """The ``_JumpOuPaths`` of each block stream; checks the jump budget and builds the flow once."""
    _check_jump_budget(spec.total_intensity, T, n_paths)
    r0, dt = as_sym(r0), T / n_steps
    flow = _AffineFlow(spec.lam_op.h, spec.lam + spec.b_j, dt) if isinstance(spec.lam_op, HFormDrift) else None
    return lambda stream: _JumpOuPaths(spec, r0, dt, n_steps, stream, flow)


def simulate_bns(
    spec: BnsJumpSpec,
    r0,
    eta,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
) -> Iterator[PathBundle]:
    """Stream PathBundles of the jump-OU model; O accumulates realized covariance."""
    yield from _bundles(_jump_ou_engine(spec, r0, T, n_steps, n_paths), spec.d, eta, T, n_steps,
                        n_paths, seed)


# -- terminal functionals for audits ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathFunctionals:
    """Per-path functionals consumed by the martingale/optimality audits.

    ``int_pi_dn[p, k]`` is the accumulated strategy-k integral of dN,
    ``int_pi_r_pi[p, k]`` the accumulated quadratic variation pi' R pi dt,
    ``o_terminal`` the auxiliary state at T, ``r_terminal`` the covariance
    state at T; all evaluated on the simulation grid with left endpoints.
    ``projection_fraction`` is the share of used path-steps (n_paths x n_steps)
    whose PSD clamp removed a negative part above 1e-13 (Frobenius).  The
    jump-OU engine's exact flow stays in the cone and reports 0; its Euler
    drift (a drift that is not H-form) keeps R unprojected but counts the
    path-steps after which R left the cone.
    """

    int_pi_dn: np.ndarray
    int_pi_r_pi: np.ndarray
    o_terminal: np.ndarray
    r_terminal: np.ndarray
    projection_fraction: float


def _strategies_on_grid(strategies, n_steps: int, d: int) -> np.ndarray:
    arr = np.asarray(strategies, dtype=float)
    if arr.ndim == 2:  # (K, d) constants
        arr = np.repeat(arr[:, None, :], n_steps, axis=1)
    if arr.ndim != 3 or arr.shape[1] != n_steps or arr.shape[2] != d:
        raise ValueError("strategies must have shape (K, d) or (K, n_steps, d)")
    return arr


def _audit(paths_of: Callable[[_BlockStream], Iterator], pis: np.ndarray, eta, dt: float,
           n_paths: int, seed: int, threads: int) -> PathFunctionals:
    """PathFunctionals of the strategies ``pis`` (K, n_steps, d) on the paths of ``paths_of(stream)``."""
    eta = np.asarray(eta, dtype=float)
    n_strat, n_steps = pis.shape[:2]

    def worker(stream):
        count = stream.count
        i_dn = np.zeros((count, n_strat))
        i_quad = np.zeros((n_strat, count))
        d = pis.shape[2]
        dn, noise = np.empty((2, count, d))
        rc, (q, t) = np.empty((d * d, count)), np.empty((2, count))
        paths = paths_of(stream)
        for k, (r, _, sr, dq) in enumerate(paths):
            # dn = (r eta) dt + sqrt(R) dQ, as _batch_const(r, eta) * dt + einsum(...)
            np.matmul(r.reshape(-1, d), eta, out=dn.reshape(-1))
            dn *= dt
            dn += np.einsum("bij,bj->bi", sr, dq, out=noise)
            pk = pis[:, k, :]
            i_dn += dn @ pk.T
            np.copyto(rc, r.reshape(count, -1).T)
            for acc, p in zip(i_quad, pk):
                acc += np.multiply(_quad_form(rc, p, q, t), dt, out=q)
        return (i_dn, i_quad.T.copy(), paths.o, paths.r, paths.n_clamped)

    *parts, n_clamped = zip(*_run_blocks(worker, seed, n_paths, threads))
    return PathFunctionals(*map(np.concatenate, parts),
                           projection_fraction=sum(n_clamped) / (n_paths * n_steps))


def heston_functionals(
    params: AffineParams,
    r0,
    corr: CorrelationSpec,
    eta,
    T: float,
    n_steps: int,
    strategies,
    n_paths: int,
    seed: int,
    o_sigma=None,
    o1=None,
    o2=None,
    threads: int = 1,
) -> PathFunctionals:
    """Vectorized terminal functionals of the continuous model (no trajectory storage).

    O follows dO = o_sigma sqrt(R) dQhat + (o1 + o2 R) dt; an absent term is 0.
    """
    if not params.continuous:
        raise ValueError("heston_functionals expects a continuous parameter set")
    d = params.d
    r0 = as_sym(r0)
    pis = _strategies_on_grid(strategies, n_steps, d)
    o_terms = [np.zeros((d, d)) if x is None else np.asarray(x, dtype=float) for x in (o_sigma, o1, o2)]
    dt = T / n_steps
    return _audit(lambda stream: _EulerPaths(params, r0, corr, dt, n_steps, stream, o_terms),
                  pis, eta, dt, n_paths, seed, threads)


def bns_functionals(
    spec: BnsJumpSpec,
    r0,
    eta,
    T: float,
    n_steps: int,
    strategies,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> PathFunctionals:
    """Terminal functionals of the jump-OU model; O is realized covariance int R dt."""
    pis = _strategies_on_grid(strategies, n_steps, spec.d)
    return _audit(_jump_ou_engine(spec, r0, T, n_steps, n_paths), pis, eta, T / n_steps, n_paths, seed,
                  threads)


# -- weak-error study with common random numbers ----------------------------------------


# Rows of the scratch array that _proj_sqrt_components_2x2 works in; the d = 2
# weak-error step keeps its nine temporaries in the first rows of the same array.
CLAMP_2X2_ROWS = 11


def _proj_sqrt_components_2x2(a, bb, c, out, work, degen):
    """PSD clamp + sqrt of symmetric 2x2 matrices given as component arrays.

    Writes (pa, pb, pc, qa, qb, qc), the components of the projection and of
    its square root, into the rows of ``out`` and returns it.  ``work``
    (``CLAMP_2X2_ROWS`` rows) and the bool ``degen`` are scratch; no buffer may
    overlap a, bb or c.  Each entry is one fixed sequence of ufuncs, so the
    bits do not depend on the buffers.
    """
    mean, disc, l1, l2, s1, s2, a_l2, l1_a, c_l2, l1_c, x = work
    pa, pb, pc, qa, qb, qc = out
    np.add(a, c, out=mean)
    np.multiply(0.5, mean, out=mean)
    np.subtract(a, c, out=disc)
    np.square(disc, out=disc)
    np.multiply(0.25, disc, out=disc)
    np.multiply(bb, bb, out=x)
    np.add(disc, x, out=disc)
    np.sqrt(disc, out=disc)
    np.add(mean, disc, out=l1)
    np.subtract(mean, disc, out=l2)
    # R - l2 I and l1 I - R, shared by the projection and the root
    np.subtract(a, l2, out=a_l2)
    np.subtract(l1, a, out=l1_a)
    np.subtract(c, l2, out=c_l2)
    np.subtract(l1, c, out=l1_c)
    l1p, l2p = np.maximum(l1, 0.0, out=l1), np.maximum(l2, 0.0, out=l2)
    np.sqrt(l1p, out=s1)
    np.sqrt(l2p, out=s2)
    # degenerate where disc <= 1e-14 (1 + |a| + |c| + |bb|)
    np.abs(a, out=pa)
    np.abs(c, out=x)
    np.add(pa, x, out=pa)
    np.abs(bb, out=x)
    np.add(pa, x, out=pa)
    np.add(1.0, pa, out=pa)
    np.multiply(1e-14, pa, out=pa)
    np.less_equal(disc, pa, out=degen)
    any_degen = degen.any()
    inv = np.multiply(2.0, disc, out=disc)
    if any_degen:
        np.copyto(inv, 1.0, where=degen)
    np.divide(1.0, inv, out=inv)
    # proj = [l1p (R - l2 I) + l2p (l1 I - R)] / (2 disc) with l1p, l2p the
    # clamped eigenvalues; sqrt likewise with their roots s1, s2
    for lo, hi, ra, rb, rc in ((l1p, l2p, pa, pb, pc), (s1, s2, qa, qb, qc)):
        np.multiply(lo, a_l2, out=ra)
        np.multiply(hi, l1_a, out=x)
        np.add(ra, x, out=ra)
        np.multiply(ra, inv, out=ra)
        np.subtract(lo, hi, out=x)
        np.multiply(bb, x, out=rb)
        np.multiply(rb, inv, out=rb)
        np.multiply(lo, c_l2, out=rc)
        np.multiply(hi, l1_c, out=x)
        np.add(rc, x, out=rc)
        np.multiply(rc, inv, out=rc)
    if any_degen:
        md = np.maximum(mean, 0.0, out=mean)
        smd = np.sqrt(md, out=x)
        for row, value in ((pa, md), (pb, 0.0), (pc, md), (qa, smd), (qb, 0.0), (qc, smd)):
            np.copyto(row, value, where=degen)
    return out


def wishart_weak_errors(
    params: AffineParams,
    r0,
    u,
    T: float,
    steps_list: Sequence[int],
    n_paths: int,
    seed: int,
    exact_value: float,
    threads: int = 1,
) -> dict:
    """Euler weak errors of the Laplace functional, with shared Brownian noise.

    The finest level's increments are aggregated for every coarser level
    (common random numbers), so level-to-level *differences* of the estimator
    carry almost no Monte Carlo noise and the O(h) Euler bias ordering is
    measurable far below the marginal standard error.  Every step count must
    divide the finest one; the step counts must be distinct positive whole
    numbers and ``n_paths`` at least 2 (``ValueError`` otherwise, before any
    draw).
    Returns per-level mean/stderr/abs_error plus the consecutive-level
    differences with their own standard errors.

    A component-arithmetic fast path handles d = 2 (H-form drift): each block
    allocates its states, accumulators (component-major, one contiguous row
    per dW entry) and step temporaries once, draws each fine step into one
    reused buffer (``_BlockStream.fill``), and steps and clamps in place
    (``_proj_sqrt_components_2x2``).  The batched-matrix route covers the
    general case.  Both draw in their own serial loop, with no helper thread.
    """
    if not all(float(s).is_integer() for s in steps_list):  # int() would truncate 2.7 to 2
        raise ValueError(f"step counts must be whole numbers, got {list(steps_list)}")
    steps_list = sorted(int(s) for s in steps_list)
    if not steps_list or steps_list[0] < 1 or len(set(steps_list)) < len(steps_list):
        raise ValueError(f"step counts must be distinct and positive, got {steps_list}")
    if n_paths < 2:
        raise ValueError(f"the standard errors need at least 2 paths, got {n_paths}")
    n_fine = steps_list[-1]
    for s in steps_list:
        if n_fine % s:
            raise ValueError("each step count must divide the finest")
    d = params.d
    r0 = as_sym(r0)
    ua = as_sym(u)
    dt_f = T / n_fine
    sdt = np.sqrt(dt_f)
    strides = {s: n_fine // s for s in steps_list}
    fast2 = d == 2 and isinstance(params.drift, HFormDrift)

    def worker_general(stream):
        count = stream.count
        raw = np.empty(STREAM_BLOCK * d * d)
        states = {}
        for s in steps_list:
            r = np.broadcast_to(r0, (count, d, d)).copy()
            states[s] = project_and_sqrt_psd_batch(r)[:2]
        acc = {s: np.zeros((count, d, d)) for s in steps_list}
        for k in range(n_fine):
            (dw,) = stream.used_rows(stream.fill(raw), [(d, d)], sdt)
            for s in steps_list:
                acc[s] += dw
                if (k + 1) % strides[s] == 0:
                    r, sr = states[s]
                    r = _euler_update(r, sr, params, T / s, acc[s])
                    states[s] = project_and_sqrt_psd_batch(r)[:2]
                    acc[s][:] = 0.0
        return {s: np.exp(-np.einsum("ij,bij->b", ua, states[s][0])) for s in steps_list}

    def worker_2x2(stream):
        count = stream.count
        h = params.drift.h
        sg = params.sigma
        h00, h01, h10, h11 = h[0, 0], h[0, 1], h[1, 0], h[1, 1]
        g00, g01, g10, g11 = sg[0, 0], sg[0, 1], sg[1, 0], sg[1, 1]
        b00, b01, b11 = params.b[0, 0], params.b[0, 1], params.b[1, 1]
        # every array of the block is allocated here, once
        states = np.empty((len(steps_list), 6, count))  # per level: pa, pb, pc, qa, qb, qc
        accs = np.empty((len(steps_list), 4, count))  # per level: w00, w01, w10, w11
        work = np.empty((CLAMP_2X2_ROWS, count))
        degen = np.empty(count, dtype=bool)
        raw = np.empty(STREAM_BLOCK * 4)
        na, nb, nc = np.empty((3, count))
        t00, t01, t10, t11, m00, m01, m10, m11, x = work[:9]
        hr00, hr01, hr10, hr11 = t00, t01, t10, t11  # the t rows are free once M is formed
        na.fill(r0[0, 0])
        nb.fill(r0[0, 1])
        nc.fill(r0[1, 1])
        for state in states:
            _proj_sqrt_components_2x2(na, nb, nc, state, work, degen)
        for k in range(n_fine):
            (dw,) = stream.used_rows(stream.fill(raw), [(4,)], sdt)
            for s, state, acc in zip(steps_list, states, accs):
                if k % strides[s]:
                    acc += dw.T
                else:  # a window's first step: 0 + dW, as if the sum were reset to 0
                    np.add(0.0, dw.T, out=acc)
                if (k + 1) % strides[s]:
                    continue
                pa, pb, pc, qa, qb, qc = state
                w00, w01, w10, w11 = acc
                dt = T / s
                # M = sqrt(R) dW Sigma, R update = drift dt + M + M^T; each line
                # is formed left to right as written in the comment above it
                # t00 = qa w00 + qb w10, t01 = qa w01 + qb w11,
                # t10 = qb w00 + qc w10, t11 = qb w01 + qc w11
                for t, q0, q1, v0, v1 in ((t00, qa, qb, w00, w10), (t01, qa, qb, w01, w11),
                                          (t10, qb, qc, w00, w10), (t11, qb, qc, w01, w11)):
                    np.multiply(q0, v0, out=t)
                    np.multiply(q1, v1, out=x)
                    np.add(t, x, out=t)
                # m00 = t00 g00 + t01 g10, m01 = t00 g01 + t01 g11,
                # m10 = t10 g00 + t11 g10, m11 = t10 g01 + t11 g11
                for m, u0, u1, f0, f1 in ((m00, t00, t01, g00, g10), (m01, t00, t01, g01, g11),
                                          (m10, t10, t11, g00, g10), (m11, t10, t11, g01, g11)):
                    np.multiply(u0, f0, out=m)
                    np.multiply(u1, f1, out=x)
                    np.add(m, x, out=m)
                # hr00 = h00 pa + h01 pb, hr01 = h00 pb + h01 pc,
                # hr10 = h10 pa + h11 pb, hr11 = h10 pb + h11 pc
                for hr, f0, f1, p0, p1 in ((hr00, h00, h01, pa, pb), (hr01, h00, h01, pb, pc),
                                           (hr10, h10, h11, pa, pb), (hr11, h10, h11, pb, pc)):
                    np.multiply(f0, p0, out=hr)
                    np.multiply(f1, p1, out=x)
                    np.add(hr, x, out=hr)
                # na = pa + (b00 + 2 hr00) dt + 2 m00, nc likewise
                for n, p, b_, hr, m in ((na, pa, b00, hr00, m00), (nc, pc, b11, hr11, m11)):
                    np.multiply(2.0, hr, out=x)
                    np.add(b_, x, out=x)
                    np.multiply(x, dt, out=x)
                    np.add(p, x, out=n)
                    np.multiply(2.0, m, out=x)
                    np.add(n, x, out=n)
                # nb = pb + (b01 + hr01 + hr10) dt + m01 + m10
                np.add(b01, hr01, out=x)
                np.add(x, hr10, out=x)
                np.multiply(x, dt, out=x)
                np.add(pb, x, out=nb)
                np.add(nb, m01, out=nb)
                np.add(nb, m10, out=nb)
                _proj_sqrt_components_2x2(na, nb, nc, state, work, degen)
        out = {}
        for s, (pa, pb, pc, _, _, _) in zip(steps_list, states):
            out[s] = np.exp(-(ua[0, 0] * pa + 2.0 * ua[0, 1] * pb + ua[1, 1] * pc))
        return out

    worker = worker_2x2 if fast2 else worker_general
    results = _run_blocks(worker, seed, n_paths, threads)
    out = {}
    vals = {}
    for s in steps_list:
        vals[s] = np.concatenate([r[s] for r in results])
        m, se = mean_stderr(vals[s])
        out[s] = {"mean": float(m), "stderr": float(se), "abs_error": abs(float(m) - exact_value)}
    diffs = []
    for coarse, fine in zip(steps_list[:-1], steps_list[1:]):
        dm, dse = mean_stderr(vals[coarse] - vals[fine])
        diffs.append({"coarse": coarse, "fine": fine, "mean": float(dm), "stderr": float(dse)})
    out["differences"] = diffs
    return out
