import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from affinebsde.affine_model import (
    AffineParams,
    ConstantJumps,
    GeneralFormDrift,
    HFormDrift,
    solve_transform,
    wishart_params,
)
from affinebsde.simulator import (
    AHEAD_DEPTH,
    JUMP_MARK_BUDGET,
    PATH_STEP_BUDGET,
    STREAM_BLOCK,
    BnsJumpSpec,
    CorrelationSpec,
    _BlockStream,
    _ahead,
    _batch_const,
    _AffineFlow,
    _blocks,
    _check_jump_budget,
    _check_path_step_budget,
    _const_batch,
    _drift_apply_batch,
    _euler_update,
    _quad_form,
    bns_functionals,
    heston_functionals,
    mean_stderr,
    simulate_bns,
    simulate_wishart,
    wishart_weak_errors,
)
from affinebsde.symcone import mat_exp, project_and_sqrt_psd_batch
from conftest import rand_pd, rand_psd


def small_wishart(general_drift=False):
    """A d = 2 Wishart model; ``general_drift`` writes its B(x) = Hx + xH^T in general form."""
    sig = np.array([[0.22, 0.03], [0.03, 0.18]])
    params = wishart_params(sig, 3.0, np.array([[-0.7, 0.06], [0.03, -0.55]]))
    if not general_drift:
        return params
    h, eye = params.drift.h, np.eye(2)
    betas = np.einsum("ki,jl->ijkl", h, eye) + np.einsum("ik,lj->ijkl", eye, h)
    return AffineParams(alpha=params.alpha, b=params.b, drift=GeneralFormDrift(betas))


R0 = np.array([[0.32, 0.04], [0.04, 0.26]])


def _normal(stream, shape, scale):
    """scale * N(0, 1) draws of per-path ``shape`` over the whole block, used paths only.

    The allocating draw ``_BlockStream.normal`` made before ``fill``/``used_rows``
    became the only draw; kept as the reference of the parity tests.
    """
    return stream.rng.standard_normal((STREAM_BLOCK,) + tuple(shape))[: stream.count] * scale


class TestCorrelationSpec:
    def test_valid(self):
        c = CorrelationSpec(np.array([-0.6, 0.5]))
        assert c.orth == pytest.approx(np.sqrt(1 - 0.61))

    def test_full_correlation_clamps(self):
        c = CorrelationSpec(np.array([1.0]))
        assert c.orth == 0.0

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError):
            CorrelationSpec(np.array([0.9, 0.9]))


class TestConstantProducts:
    """The batched constant products are bitwise numpy's stacked matmul, the
    quadratic-variation loop bitwise the einsum it replaces.

    That equality is a property of the BLAS kernel, so a BLAS change that
    breaks it fails here instead of silently moving the simulated paths.
    """

    @staticmethod
    def assert_bitwise(got, ref):
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("b", [1, 7, 14272, 16384])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_match_stacked_matmul(self, d, b):
        rng = np.random.default_rng(100 * d + b)
        c = rng.standard_normal((d, d))
        v = rng.standard_normal(d)
        pis = rng.standard_normal((9, 3, d))
        contiguous = rng.standard_normal((b, d, d))
        # the layout _const_batch returns: rows contiguous, the batch not (for b, d > 1)
        strided = rng.standard_normal((d, b, d)).transpose(1, 0, 2)
        for r in (contiguous, strided):
            for m in (c, c.T):
                self.assert_bitwise(_const_batch(m, r), np.matmul(m, r))
                self.assert_bitwise(_batch_const(r, m), np.matmul(r, m))
            self.assert_bitwise(_batch_const(r, v), np.matmul(r, v))
        r = contiguous
        for pk in (pis[:, 1, :], pis[:1, 1, :]):  # one step of a strategy grid, K = 9 and 1
            ref = np.einsum("bij,ki,kj->bk", r, pk, pk)
            # stale contents in the buffers must not reach the result
            q, t = np.full((2, b), np.nan)
            rc = r.reshape(b, -1).T.copy()
            got = np.stack([_quad_form(rc, p, q, t).copy() for p in pk], axis=1)
            self.assert_bitwise(got, ref)

    @pytest.mark.parametrize("b", [1, 7, 16384])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flow_step_in_place(self, d, b):
        rng = np.random.default_rng(10 * d + b)
        h = rng.standard_normal((d, d)) - 2.0 * np.eye(d)
        flow = _AffineFlow(h, rand_psd(rng, d), 0.3)
        r = rng.standard_normal((b, d, d))
        ref = _batch_const(_const_batch(flow.e_dt, r), flow.e_dt.T) + flow.d_dt
        work = np.full((2 * d * d, b), np.nan)
        flow.step(r, work)
        self.assert_bitwise(r, ref)


class TestAhead:
    """The prefetch yields the serial items and leaves no helper thread behind."""

    def test_items_in_order(self):
        before = threading.active_count()
        items = iter(range(50))
        assert list(_ahead(lambda slot: next(items), 50)) == list(range(50))
        assert threading.active_count() == before

    def test_draw_error_keeps_its_type(self):
        def draw(slot):
            raise ValueError("bad draw")

        before = threading.active_count()
        with pytest.raises(ValueError, match="bad draw"):
            list(_ahead(draw, 3))
        assert threading.active_count() == before

    def test_early_stop_joins_helper(self):
        before = threading.active_count()
        for item in _ahead(lambda slot: slot, 100):
            if item == 2:
                break
        assert threading.active_count() == before
        items = _ahead(lambda slot: slot, 100)
        assert next(items) == 0
        items.close()
        assert threading.active_count() == before

    def test_slot_is_free_until_the_next_item_is_requested(self):
        ring = [[] for _ in range(AHEAD_DEPTH)]

        def draw(slot):
            ring[slot].append(len(ring[slot]))  # a refill while the caller still holds the slot shows here
            return slot, len(ring[slot])

        for k, (slot, fills) in enumerate(_ahead(draw, 20)):
            assert (slot, fills) == (k % AHEAD_DEPTH, k // AHEAD_DEPTH + 1)
            assert len(ring[slot]) == fills

    @pytest.mark.parametrize("count", [7, STREAM_BLOCK])
    def test_normals_ahead_are_the_serial_draws(self, count):
        shapes = [(2, 2), (2,), (2, 2)]
        serial = _BlockStream(5, STREAM_BLOCK, count)
        steps = _BlockStream(5, STREAM_BLOCK, count).normals_ahead(shapes, 0.3, 2 * AHEAD_DEPTH + 1)
        for step in steps:
            for got, shape in zip(step, shapes, strict=True):
                ref = _normal(serial, shape, 0.3)
                assert got.shape == ref.shape
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_helper_runs_in_callers_errstate(self):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            list(_ahead(lambda slot: np.float64(1e308) * 10.0, 2))


@pytest.mark.parametrize("threads", [1, 2])
def test_block_workers_run_in_callers_errstate(threads):
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        heston_functionals(small_wishart(), 1e200 * R0, CorrelationSpec(np.zeros(2)), np.zeros(2), 1.0, 2,
                           np.zeros((1, 2)), STREAM_BLOCK + 1, seed=1, threads=threads)


class TestPrefetchParity:
    """The engines that draw ahead give bitwise the outputs of their serial, same-thread loop."""

    N = STREAM_BLOCK + 100

    @staticmethod
    def assert_bitwise(got, ref):
        for a, b in zip(got, ref, strict=True):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def compare(self, monkeypatch, run):
        from affinebsde import simulator

        before = threading.active_count()
        got = run()
        assert threading.active_count() == before
        with monkeypatch.context() as m:
            m.setattr(simulator, "_ahead", lambda draw, n: (draw(k % AHEAD_DEPTH) for k in range(n)))  # serial
            ref = run()
        self.assert_bitwise(got, ref)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("o_terms", [{}, dict(o_sigma=0.3 * np.eye(2), o1=0.02 * np.eye(2),
                                                  o2=0.05 * np.eye(2))], ids=["plain", "o-qhat"])
    def test_heston_functionals(self, monkeypatch, threads, o_terms):
        corr = CorrelationSpec(np.array([-0.4, -0.2]))
        pis = np.array([[0.5, 0.2], [-0.3, 0.4]])

        def run():
            fn = heston_functionals(small_wishart(), R0, corr, np.array([0.6, 0.3]), 1.0, 4, pis,
                                    self.N, seed=13, threads=threads, **o_terms)
            return (fn.int_pi_dn, fn.int_pi_r_pi, fn.o_terminal, fn.r_terminal, fn.projection_fraction)

        self.compare(monkeypatch, run)

    def test_simulate_wishart(self, monkeypatch):
        def run():
            bundles = simulate_wishart(small_wishart(), R0, CorrelationSpec(np.array([-0.4, -0.2])),
                                       np.array([0.6, 0.3]), 1.0, 3, self.N, seed=9)
            return [a for b in bundles for a in (b.r, b.n_log, b.o, b.projection_fraction)]

        self.compare(monkeypatch, run)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_engine_error_leaves_no_helper(self, monkeypatch, threads):
        from affinebsde import simulator

        clamp, calls = simulator.project_and_sqrt_psd_batch, []

        def failing_clamp(r):
            calls.append(1)
            if len(calls) > 3:
                raise np.linalg.LinAlgError("clamp failed")
            return clamp(r)

        monkeypatch.setattr(simulator, "project_and_sqrt_psd_batch", failing_clamp)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError):
            heston_functionals(small_wishart(), R0, CorrelationSpec(np.zeros(2)), np.zeros(2), 1.0, 8,
                               np.zeros((1, 2)), self.N, seed=1, threads=threads)
        assert threading.active_count() == before


class TestReplay:
    def test_bitwise_reproducible(self):
        params = small_wishart()
        corr = CorrelationSpec(np.array([-0.4, -0.2]))
        eta = np.array([0.6, 0.3])
        a = next(simulate_wishart(params, R0, corr, eta, 1.0, 30, 16, seed=42))
        b = next(simulate_wishart(params, R0, corr, eta, 1.0, 30, 16, seed=42))
        for fa, fb in ((a.r, b.r), (a.n_log, b.n_log), (a.o, b.o)):
            assert np.array_equal(fa, fb)

    def test_path_count_extension_keeps_prefix(self):
        params = small_wishart()
        corr = CorrelationSpec(np.array([-0.4, -0.2]))
        eta = np.array([0.6, 0.3])
        small = next(simulate_wishart(params, R0, corr, eta, 1.0, 20, 8, seed=5))
        big = next(simulate_wishart(params, R0, corr, eta, 1.0, 20, 64, seed=5))
        assert np.array_equal(small.r, big.r[:8])

    @staticmethod
    def assert_functionals_prefix_invariant(runs):
        """Each run's per-path functionals are bitwise a prefix of the next, larger run's."""
        fields = ("int_pi_dn", "int_pi_r_pi", "o_terminal", "r_terminal")
        for small, big in zip(runs[:-1], runs[1:]):
            n = small.int_pi_dn.shape[0]
            for f in fields:
                a, b = getattr(small, f), getattr(big, f)[:n]
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), f

    def test_heston_functionals_prefix_across_stream_blocks(self):
        params = small_wishart()
        corr = CorrelationSpec(np.array([-0.4, -0.2]))
        pis = np.array([[0.5, 0.2], [-0.3, 0.4], [1.5, -1.0]])
        counts = (100, STREAM_BLOCK, STREAM_BLOCK + 100)
        runs = [
            heston_functionals(params, R0, corr, np.array([0.6, 0.3]), 1.0, 4, pis, n, seed=13,
                               o_sigma=0.3 * np.eye(2), o1=0.02 * np.eye(2), o2=0.05 * np.eye(2))
            for n in counts
        ]
        self.assert_functionals_prefix_invariant(runs)
        for n, fn in zip(counts, runs):
            # the clamp count is over the used path-steps only
            clamped = fn.projection_fraction * n * 4
            assert clamped == pytest.approx(round(clamped), abs=1e-9)

    def test_bns_functionals_prefix_across_stream_blocks(self):
        d = 2
        xi = np.array([[0.2, 0.05], [0.05, 0.15]])
        spec = BnsJumpSpec(
            lam=np.array([[0.05, 0.0], [0.0, 0.04]]),
            lam_op=HFormDrift(np.array([[-0.6, 0.05], [0.02, -0.4]])),
            b_j=np.array([[0.03, 0.0], [0.0, 0.02]]),
            m_j=ConstantJumps.from_atoms([(xi, 2.0), (0.5 * np.eye(d), 1.0)]),
        )
        pis = np.array([[0.5, 0.2], [-0.3, 0.4]])
        runs = [
            bns_functionals(spec, R0, np.array([0.6, 0.3]), 1.0, 4, pis, n, seed=17)
            for n in (100, STREAM_BLOCK, STREAM_BLOCK + 100)
        ]
        self.assert_functionals_prefix_invariant(runs)

    def test_n_o_reconstructible_from_increments(self):
        params = small_wishart()
        corr = CorrelationSpec(np.array([-0.4, -0.2]))
        eta = np.array([0.6, 0.3])
        bundle = next(simulate_wishart(params, R0, corr, eta, 1.0, 25, 4, seed=9))
        dt = 1.0 / 25
        # the increments, drawn again in simulate_wishart's order: dW, dD, dQhat per step
        stream = _BlockStream(9, 0, 4)
        n = np.zeros((4, 2))
        for k in range(25):
            dw = _normal(stream, (2, 2), np.sqrt(dt))
            dd = _normal(stream, (2,), np.sqrt(dt))
            _normal(stream, (2, 2), np.sqrt(dt))  # dQhat, drawn although O has no term
            r = bundle.r[:, k]
            _, sr, _ = project_and_sqrt_psd_batch(r)
            dq = dw @ corr.rho + corr.orth * dd
            n = n + (r @ eta) * dt + np.einsum("bij,bj->bi", sr, dq)
            # sqrt(R) is re-derived from the stored (already projected) state,
            # so agreement is up to eigensolver round-off, not bitwise
            assert np.allclose(n, bundle.n_log[:, k + 1], rtol=1e-12, atol=1e-13)
        assert np.array_equal(bundle.o.view(np.uint64), np.zeros_like(bundle.o).view(np.uint64))

    def test_projection_fraction_logged(self):
        params = small_wishart()
        bundle = next(simulate_wishart(params, R0, CorrelationSpec(np.zeros(2)),
                                       np.zeros(2), 1.0, 30, 8, seed=3))
        clamped = bundle.projection_fraction * 8 * 30
        assert 0.0 <= bundle.projection_fraction <= 1.0
        assert clamped == pytest.approx(round(clamped), abs=1e-9)


class TestEngineParity:
    """The audits and the path dumps step the same paths: bitwise, across a block boundary."""

    N = STREAM_BLOCK + 100

    @staticmethod
    def assert_bitwise(a, b):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_heston_functionals_and_simulate_wishart(self):
        # two steps of dt = 0.5 from a near-singular state make the clamp fire on some paths
        params, r0, n_steps = small_wishart(), np.diag([0.02, 0.3]), 2
        corr, eta = CorrelationSpec(np.array([-0.4, -0.2])), np.array([0.6, 0.3])
        fn = heston_functionals(params, r0, corr, eta, 1.0, n_steps, np.zeros((1, 2)), self.N, seed=21,
                                o_sigma=0.3 * np.eye(2))
        bundles = list(simulate_wishart(params, r0, corr, eta, 1.0, n_steps, self.N, seed=21))
        assert len(bundles) == 2
        self.assert_bitwise(fn.r_terminal, np.concatenate([b.r[:, -1] for b in bundles]))
        counts = [round(b.projection_fraction * len(b.r) * n_steps) for b in bundles]
        assert sum(counts) > 0
        assert fn.projection_fraction == sum(counts) / (self.N * n_steps)

    @pytest.mark.parametrize("general_drift", [False, True], ids=["flow", "euler"])
    def test_bns_functionals_and_simulate_bns(self, general_drift):
        h = np.array([[-0.6, 0.05], [0.02, -0.4]])
        lam_op = HFormDrift(h)
        if general_drift:
            eye = np.eye(2)
            lam_op = GeneralFormDrift(np.einsum("ki,jl->ijkl", h, eye) + np.einsum("ik,lj->ijkl", eye, h))
        spec = BnsJumpSpec(lam=np.array([[0.05, 0.0], [0.0, 0.04]]), lam_op=lam_op,
                           b_j=np.array([[0.03, 0.0], [0.0, 0.02]]),
                           m_j=ConstantJumps.from_atoms([(np.array([[0.2, 0.05], [0.05, 0.15]]), 2.0)]))
        eta = np.array([0.6, 0.3])
        fn = bns_functionals(spec, R0, eta, 1.0, 3, np.zeros((1, 2)), self.N, seed=23)
        bundles = list(simulate_bns(spec, R0, eta, 1.0, 3, self.N, seed=23))
        assert len(bundles) == 2
        self.assert_bitwise(fn.r_terminal, np.concatenate([b.r[:, -1] for b in bundles]))
        assert fn.projection_fraction == 0.0 and all(b.projection_fraction == 0.0 for b in bundles)


def _frozen_quad_forms(r, pk):
    """The (K, B) quadratic forms the audit loop formed before it went one strategy row at a time."""
    rc = r.reshape(len(r), -1).T.copy()
    q, t = np.zeros((len(pk), len(r))), np.empty((len(pk), len(r)))
    for n, (i, j) in enumerate(np.ndindex(pk.shape[1], pk.shape[1])):
        np.multiply(rc[n], pk[:, i, None], out=t)
        t *= pk[:, j, None]
        q += t
    return q


def _frozen_euler_paths(params, r0, corr, dt, n_steps, stream, need_qhat, out):
    """The Heston engine before it owned O: yields (r, sr, dq, dqh); ``out`` gets R at T, clamp count."""
    d = params.d
    r, sr, _ = project_and_sqrt_psd_batch(np.broadcast_to(r0, (stream.count, d, d)).copy())
    shapes = [(d, d), (d,), (d, d)] if need_qhat else [(d, d), (d,)]
    n_clamped = 0
    for _ in range(n_steps):
        dw, dd, *dqh = (_normal(stream, shape, np.sqrt(dt)) for shape in shapes)
        dq = _batch_const(dw, corr.rho) + corr.orth * dd
        yield r, sr, dq, (dqh[0] if dqh else None)
        r = _euler_update(r, sr, params, dt, dw)
        r, sr, shift = project_and_sqrt_psd_batch(r)
        n_clamped += int(np.count_nonzero(shift > 1e-13))
    out.update(r=r, n_clamped=n_clamped)


def _frozen_jump_ou_paths(spec, r0, dt, n_steps, stream, flow, out):
    """The jump-OU engine before it owned O: yields (r, sr, dd); ``out`` gets R at T.

    Without a flow, R after the Euler drift and the jumps is replaced by its
    PSD clamp, as ``_EulerPaths`` does (the loop this copies kept it
    indefinite).
    """
    d = spec.d
    const = spec.lam + spec.b_j
    lam_tot = spec.total_intensity
    cdf = np.cumsum(spec.m_j.weights) / lam_tot if lam_tot > 0 else None
    r = np.broadcast_to(r0, (stream.count, d, d)).copy()
    _, sr, _ = project_and_sqrt_psd_batch(r)
    for _ in range(n_steps):
        yield r, sr, _normal(stream, (d,), np.sqrt(dt))
        if flow is not None:
            r = _batch_const(_const_batch(flow.e_dt, r), flow.e_dt.T) + flow.d_dt
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
        proj, sr, _ = project_and_sqrt_psd_batch(r)
        if flow is None:
            r = proj
    out["r"] = r


def _frozen_heston_functionals(params, r0, corr, eta, T, n_steps, pis, n_paths, seed,
                               o_sigma=None, o1=None, o2=None):
    """heston_functionals' own loop before the shared audit loop, blocks in turn."""
    d, dt = params.d, T / n_steps
    pis = np.repeat(pis[:, None, :], n_steps, axis=1)
    need_o = any(x is not None for x in (o_sigma, o1, o2))
    sig_o, o1m, o2m = (np.zeros((d, d)) if x is None else x for x in (o_sigma, o1, o2))
    need_qhat = bool(np.any(sig_o))
    parts, clamped = [], 0
    for start, count in _blocks(n_paths):
        i_dn, i_quad = np.zeros((count, len(pis))), np.zeros((len(pis), count))
        o, out = np.zeros((count, d, d)), {}
        stream = _BlockStream(seed, start, count)
        paths = _frozen_euler_paths(params, r0, corr, dt, n_steps, stream, need_qhat, out)
        for k, (r, sr, dq, dqh) in enumerate(paths):
            dn = _batch_const(r, eta) * dt + np.einsum("bij,bj->bi", sr, dq)
            pk = pis[:, k, :]
            i_dn += dn @ pk.T
            i_quad += _frozen_quad_forms(r, pk) * dt
            if need_o:
                o += (o1m + _const_batch(o2m, r)) * dt
                if need_qhat:
                    o += _const_batch(sig_o, np.matmul(sr, dqh))
        parts.append((i_dn, i_quad.T.copy(), o, out["r"]))
        clamped += out["n_clamped"]
    return [np.concatenate(x) for x in zip(*parts)] + [clamped / (n_paths * n_steps)]


def _frozen_flow(spec, dt):
    return _AffineFlow(spec.lam_op.h, spec.lam + spec.b_j, dt) if isinstance(spec.lam_op, HFormDrift) else None


def _frozen_bns_functionals(spec, r0, eta, T, n_steps, pis, n_paths, seed):
    """bns_functionals' own loop before the shared audit loop, blocks in turn."""
    d, dt = spec.d, T / n_steps
    pis = np.repeat(pis[:, None, :], n_steps, axis=1)
    flow = _frozen_flow(spec, dt)
    parts = []
    for start, count in _blocks(n_paths):
        i_dn, i_quad = np.zeros((count, len(pis))), np.zeros((len(pis), count))
        o, out = np.zeros((count, d, d)), {}
        for k, (r, sr, dd) in enumerate(_frozen_jump_ou_paths(spec, r0, dt, n_steps,
                                                              _BlockStream(seed, start, count), flow, out)):
            dn = _batch_const(r, eta) * dt + np.einsum("bij,bj->bi", sr, dd)
            pk = pis[:, k, :]
            i_dn += dn @ pk.T
            i_quad += _frozen_quad_forms(r, pk) * dt
            o += r * dt
        parts.append((i_dn, i_quad.T.copy(), o, out["r"]))
    return [np.concatenate(x) for x in zip(*parts)] + [0.0]


def _frozen_simulate_wishart(params, r0, corr, eta, T, n_steps, n_paths, seed, o_sigma=None, o1=None, o2=None):
    """simulate_wishart's own loop, O knobs included, before the shared bundle loop."""
    d, dt = params.d, T / n_steps
    sig_o, o1, o2 = (np.zeros((d, d)) if x is None else x for x in (o_sigma, o1, o2))
    out_bundles = []
    for start, count in _blocks(n_paths):
        out = {}
        paths = _frozen_euler_paths(params, r0, corr, dt, n_steps, _BlockStream(seed, start, count), True, out)
        rs = np.empty((count, n_steps + 1, d, d))
        ns = np.zeros((count, n_steps + 1, d))
        os_ = np.zeros((count, n_steps + 1, d, d))
        for k, (r, sr, dq, dqh) in enumerate(paths):
            rs[:, k] = r
            ns[:, k + 1] = ns[:, k] + _batch_const(r, eta) * dt + np.einsum("bij,bj->bi", sr, dq)
            os_[:, k + 1] = (os_[:, k] + _const_batch(sig_o, np.matmul(sr, dqh))
                             + (o1 + _const_batch(o2, r)) * dt)
        rs[:, n_steps] = out["r"]
        out_bundles += [rs, ns, os_, out["n_clamped"] / (count * n_steps)]
    return out_bundles


def _frozen_simulate_bns(spec, r0, eta, T, n_steps, n_paths, seed):
    """simulate_bns' own loop before the shared bundle loop."""
    d, dt = spec.d, T / n_steps
    flow = _frozen_flow(spec, dt)
    out_bundles = []
    for start, count in _blocks(n_paths):
        out = {}
        rs = np.empty((count, n_steps + 1, d, d))
        ns = np.zeros((count, n_steps + 1, d))
        os_ = np.zeros((count, n_steps + 1, d, d))
        for k, (r, sr, dd) in enumerate(_frozen_jump_ou_paths(spec, r0, dt, n_steps,
                                                              _BlockStream(seed, start, count), flow, out)):
            rs[:, k] = r
            ns[:, k + 1] = ns[:, k] + _batch_const(r, eta) * dt + np.einsum("bij,bj->bi", sr, dd)
            os_[:, k + 1] = os_[:, k] + r * dt
        rs[:, n_steps] = out["r"]
        out_bundles += [rs, ns, os_, 0.0]
    return out_bundles


def _bns_spec_flow_or_euler(general_drift):
    h = np.array([[-0.6, 0.05], [0.02, -0.4]])
    lam_op = HFormDrift(h)
    if general_drift:
        eye = np.eye(2)
        lam_op = GeneralFormDrift(np.einsum("ki,jl->ijkl", h, eye) + np.einsum("ik,lj->ijkl", eye, h))
    return BnsJumpSpec(lam=np.array([[0.05, 0.0], [0.0, 0.04]]), lam_op=lam_op,
                       b_j=np.array([[0.03, 0.0], [0.0, 0.02]]),
                       m_j=ConstantJumps.from_atoms([(np.array([[0.2, 0.05], [0.05, 0.15]]), 2.0)]))


class TestSharedLoopParity:
    """The shared audit and bundle loops keep every bit of the four loops they replace."""

    N = STREAM_BLOCK + 100
    PIS = np.array([[0.5, 0.2], [-0.3, 0.4], [1.5, -1.0]])
    CORR = CorrelationSpec(np.array([-0.4, -0.2]))
    ETA = np.array([0.6, 0.3])

    @staticmethod
    def assert_bitwise(got, ref):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    # (new arguments, the old loop's arguments): zero endowment fields were passed as None
    O_CASES = {
        "no-o": ({}, {}),
        "zero-arrays": (dict(o_sigma=np.zeros((2, 2)), o1=np.zeros((2, 2)), o2=np.zeros((2, 2))), {}),
        "o-drift": (dict(o_sigma=np.zeros((2, 2)), o1=np.zeros((2, 2)), o2=np.eye(2)), dict(o2=np.eye(2))),
        "o-qhat": (dict(o_sigma=0.3 * np.eye(2), o1=0.02 * np.eye(2), o2=0.05 * np.eye(2)),
                   dict(o_sigma=0.3 * np.eye(2), o1=0.02 * np.eye(2), o2=0.05 * np.eye(2))),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", list(O_CASES))
    def test_heston_functionals(self, threads, case):
        new, old = self.O_CASES[case]
        # a near-singular start makes the clamp fire on some paths
        r0, params = np.diag([0.02, 0.3]), small_wishart()
        fn = heston_functionals(params, r0, self.CORR, self.ETA, 1.0, 3, self.PIS, self.N, seed=13,
                                threads=threads, **new)
        ref = _frozen_heston_functionals(params, r0, self.CORR, self.ETA, 1.0, 3, self.PIS, self.N, 13, **old)
        assert ref[-1] > 0
        self.assert_bitwise([fn.int_pi_dn, fn.int_pi_r_pi, fn.o_terminal, fn.r_terminal,
                             fn.projection_fraction], ref)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("general_drift", [False, True], ids=["flow", "euler"])
    def test_bns_functionals(self, threads, general_drift):
        spec = _bns_spec_flow_or_euler(general_drift)
        fn = bns_functionals(spec, R0, self.ETA, 1.0, 3, self.PIS, self.N, seed=17, threads=threads)
        ref = _frozen_bns_functionals(spec, R0, self.ETA, 1.0, 3, self.PIS, self.N, 17)
        self.assert_bitwise([fn.int_pi_dn, fn.int_pi_r_pi, fn.o_terminal, fn.r_terminal,
                             fn.projection_fraction], ref)

    def test_simulate_wishart(self):
        params, r0 = small_wishart(), np.diag([0.02, 0.3])
        bundles = list(simulate_wishart(params, r0, self.CORR, self.ETA, 1.0, 3, self.N, seed=9))
        ref = _frozen_simulate_wishart(params, r0, self.CORR, self.ETA, 1.0, 3, self.N, 9)
        self.assert_bitwise([a for b in bundles for a in (b.r, b.n_log, b.o, b.projection_fraction)], ref)
        assert [b.path_offset for b in bundles] == [0, STREAM_BLOCK]
        for b in bundles:
            assert np.array_equal(b.o.view(np.uint64), np.zeros_like(b.o).view(np.uint64))

    @pytest.mark.parametrize("general_drift", [False, True], ids=["flow", "euler"])
    def test_simulate_bns(self, general_drift):
        spec = _bns_spec_flow_or_euler(general_drift)
        bundles = list(simulate_bns(spec, R0, self.ETA, 1.0, 3, self.N, seed=23))
        ref = _frozen_simulate_bns(spec, R0, self.ETA, 1.0, 3, self.N, 23)
        self.assert_bitwise([a for b in bundles for a in (b.r, b.n_log, b.o, b.projection_fraction)], ref)


def _frozen_drift_integral(h, const, delta):
    """_AffineFlow._drift_integral when it formed each Simpson node's exponential twice."""
    nodes = 20
    ss = np.linspace(0.0, delta, nodes + 1)
    vals = np.array([mat_exp(h * s) @ const @ mat_exp(h * s).T for s in ss])
    w = np.ones(nodes + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.einsum("n,nij->ij", w, vals) * (delta / nodes) / 3.0


@pytest.mark.parametrize("engine", ["heston", "bns"])
def test_audits_clamp_once_per_step_through_the_module_global(monkeypatch, engine):
    from affinebsde import simulator

    # bench/tracing.py wraps the module global and reads the batch from
    # the first positional argument; a call that bypassed either would
    # silently drop out of the symcone.project_and_sqrt_psd_batch counts
    clamp, batches = simulator.project_and_sqrt_psd_batch, []

    def spy(*args, **kwargs):
        batches.append(args[0].shape)
        return clamp(*args, **kwargs)

    monkeypatch.setattr(simulator, "project_and_sqrt_psd_batch", spy)
    n_steps, n_paths, pis = 3, STREAM_BLOCK + 100, np.zeros((2, 2))
    if engine == "heston":  # R0 and the state after each step
        heston_functionals(small_wishart(), R0, CorrelationSpec(np.zeros(2)), np.zeros(2), 1.0, n_steps,
                           pis, n_paths, seed=1, threads=2)
        calls = n_steps + 1
    else:  # the state before each step
        bns_functionals(_bns_spec_flow_or_euler(False), R0, np.zeros(2), 1.0, n_steps, pis, n_paths,
                        seed=1, threads=2)
        calls = n_steps
    assert sorted(batches) == sorted([(count, 2, 2) for count in (STREAM_BLOCK, 100)] * calls)


class TestJumpOuEngine:
    """The jump-OU engine's clamp count and flow set-up."""

    @staticmethod
    def cone_leaving_spec():
        # R0 = 0.3 I: one Euler drift step of length 1 gives -9 R0 + 0.06 I plus jumps
        eye = np.eye(2)
        h = -5.0 * eye
        betas = np.einsum("ki,jl->ijkl", h, eye) + np.einsum("ik,lj->ijkl", eye, h)
        return BnsJumpSpec(lam=0.05 * eye, lam_op=GeneralFormDrift(betas), b_j=0.01 * eye,
                           m_j=ConstantJumps.from_atoms([(0.1 * eye, 1.0)]))

    def test_euler_drift_counts_the_clamps_it_needs(self):
        # with R kept indefinite, these minima were -0.435 (negative quadratic
        # variation and realized covariance); R is now its PSD clamp after each step
        spec, r0, pis = self.cone_leaving_spec(), 0.3 * np.eye(2), np.array([[1.0, 0.0]])
        fn = bns_functionals(spec, r0, np.zeros(2), 1.0, 2, pis, 1000, seed=0)
        assert np.linalg.eigvalsh(fn.r_terminal).min() >= 0.0
        assert fn.int_pi_r_pi.min() >= 0.0
        assert np.linalg.eigvalsh(fn.o_terminal).min() >= 0.0
        assert fn.projection_fraction > 0.0
        bundle = next(simulate_bns(spec, r0, np.zeros(2), 1.0, 2, 1000, seed=0))
        assert bundle.projection_fraction == fn.projection_fraction
        # the exact flow of the same drift stays in the cone
        flow_spec = BnsJumpSpec(lam=spec.lam, lam_op=HFormDrift(-5.0 * np.eye(2)), b_j=spec.b_j, m_j=spec.m_j)
        fn = bns_functionals(flow_spec, r0, np.zeros(2), 1.0, 1, np.zeros((1, 2)), 1000, seed=0)
        assert np.linalg.eigvalsh(fn.r_terminal).min() > 0.0
        assert fn.projection_fraction == 0.0

    @pytest.mark.parametrize("h", [np.array([[-0.6, 0.05], [0.02, -0.4]]), np.array([[-1.0, 3.0], [0.0, -1.0]]),
                                   np.array([[-0.3, 0.1, 0.0], [0.2, -0.5, 0.1], [0.0, 0.4, -0.2]])],
                             ids=["d2", "d2-defective", "d3"])
    def test_drift_integral_one_exponential_per_node(self, monkeypatch, h):
        from affinebsde import simulator

        exp, calls = simulator.mat_exp, []
        monkeypatch.setattr(simulator, "mat_exp", lambda a: calls.append(1) or exp(a))
        const = rand_psd(np.random.default_rng(len(h)), len(h))
        flow = _AffineFlow(h, const, 0.37)
        assert len(calls) == 1 + 21  # e^{H dt}, then one per Simpson node
        ref = _frozen_drift_integral(h, const, 0.37)
        assert np.array_equal(flow.d_dt.view(np.uint64), ref.view(np.uint64))


class TestWishartStatistics:
    def test_degenerate_diffusion_constant_state(self):
        d = 2
        params = AffineParams(alpha=np.zeros((d, d)), b=np.zeros((d, d)),
                              drift=HFormDrift(np.zeros((d, d))))
        corr = CorrelationSpec(np.zeros(d))
        eta = np.array([0.5, 0.2])
        fn = heston_functionals(params, R0, corr, eta, 1.0, 60, np.eye(d), 4000, seed=10)
        assert np.allclose(fn.r_terminal, R0[None], atol=1e-14)
        # with pi = e_i the dN integral recovers N_i(T); E N_T = R0 eta T
        m, se = mean_stderr(fn.int_pi_dn)
        target = R0 @ eta
        assert np.all(np.abs(m - target) <= 3.0 * se)

    def test_cir_mean_matches_scalar_ode(self):
        # d = 1 reduces to a square-root diffusion; the mean solves m' = b + 2h m
        sigma = np.array([[0.4]])
        h = np.array([[-0.8]])
        params = wishart_params(sigma, 3.0, h)
        b = params.b[0, 0]
        fn = heston_functionals(params, np.array([[0.5]]), CorrelationSpec(np.zeros(1)),
                                np.zeros(1), 1.0, 400, np.zeros((1, 1)), 40000, seed=11)
        target = np.exp(2 * h[0, 0]) * 0.5 + b * (np.exp(2 * h[0, 0]) - 1.0) / (2 * h[0, 0])
        m, se = mean_stderr(fn.r_terminal[:, 0, 0])
        assert abs(m - target) <= 3.0 * se

    def test_laplace_matches_transform_ode(self):
        params = small_wishart()
        u = np.array([[0.8, 0.2], [0.2, 0.6]])
        exact = solve_transform(params, u, 1.0, steps=2000).laplace(R0)
        fn = heston_functionals(params, R0, CorrelationSpec(np.zeros(2)), np.zeros(2),
                                1.0, 400, np.zeros((1, 2)), 30000, seed=12)
        vals = np.exp(-np.einsum("ij,bij->b", u, fn.r_terminal))
        m, se = mean_stderr(vals)
        assert abs(m - exact) <= 3.0 * se

    def test_projection_occupancy_below_one_percent(self):
        params = small_wishart()  # k = d + 1
        fn = heston_functionals(params, R0, CorrelationSpec(np.zeros(2)), np.zeros(2),
                                1.0, 500, np.zeros((1, 2)), 16384, seed=13)
        assert fn.projection_fraction <= 0.01

    def test_weak_error_fast_path_matches_general(self):
        # the d = 2 component path runs for an H-form drift, the batched-matrix one otherwise
        params = small_wishart()
        u = 0.5 * np.eye(2)
        exact = solve_transform(params, u, 1.0, steps=500).laplace(R0)
        fast = wishart_weak_errors(params, R0, u, 1.0, [50, 100], 2000, 3, exact)
        gen = wishart_weak_errors(small_wishart(general_drift=True), R0, u, 1.0, [50, 100], 2000, 3, exact)
        assert fast[50]["mean"] == pytest.approx(gen[50]["mean"], abs=1e-13)
        assert fast[100]["mean"] == pytest.approx(gen[100]["mean"], abs=1e-13)

    @pytest.mark.parametrize("general_drift", [False, True])
    def test_weak_error_steps_only_used_paths(self, monkeypatch, general_drift):
        from affinebsde import simulator

        # The clamp is called through the module global with the batch first
        # and its buffers positional, as bench/tracing.py wraps and reads it;
        # inlining it or binding it to a local name would show in the count.
        name = "project_and_sqrt_psd_batch" if general_drift else "_proj_sqrt_components_2x2"
        clamp = getattr(simulator, name)
        batch_sizes = []

        def spy(*arrays):
            batch_sizes.append(arrays[0].shape[0])
            return clamp(*arrays)

        monkeypatch.setattr(simulator, name, spy)
        levels, n_paths = [2, 4], 100
        wishart_weak_errors(small_wishart(general_drift), R0, 0.5 * np.eye(2), 1.0, levels, n_paths, 3, 1.0)
        assert set(batch_sizes) == {n_paths}
        blocks = -(-n_paths // STREAM_BLOCK)
        assert len(batch_sizes) == blocks * (len(levels) + sum(levels))



class TestWeakErrorInputs:
    """Bad step lists and path counts are refused before any draw."""

    @pytest.mark.parametrize("levels, n_paths", [
        ([4, 4], 100),  # a duplicate would add each draw twice to one shared sum
        ([-2, 4], 100),  # a negative step count runs with dt < 0
        ([0, 4], 100),  # zero steps
        ([], 100),
        ([2, 4], 1),  # one path has no standard error
        ([2.7, 4], 100),  # int() would run 2.7 steps as 2
    ])
    def test_refused_before_any_draw(self, monkeypatch, levels, n_paths):
        from affinebsde import simulator

        def no_draw(*args):
            raise AssertionError("drew before checking the inputs")

        monkeypatch.setattr(simulator, "_block_rng", no_draw)
        with pytest.raises(ValueError):
            wishart_weak_errors(small_wishart(), R0, 0.5 * np.eye(2), 1.0, levels, n_paths, 3, 1.0)

    def test_two_paths_suffice(self):
        res = wishart_weak_errors(small_wishart(), R0, 0.5 * np.eye(2), 1.0, [2, 4], 2, 3, 1.0)
        assert np.isfinite(res[4]["stderr"])


def _frozen_proj_sqrt_components_2x2(a, bb, c):
    """The allocating d = 2 component clamp the in-place one replaced, kept as its oracle."""
    mean = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + bb * bb)
    l1 = mean + disc
    l2 = mean - disc
    l1c = np.maximum(l1, 0.0)
    l2c = np.maximum(l2, 0.0)
    s1 = np.sqrt(l1c)
    s2 = np.sqrt(l2c)
    scale = np.abs(a) + np.abs(c) + np.abs(bb)
    degen = disc <= 1e-14 * (1.0 + scale)
    inv = 1.0 / np.where(degen, 1.0, 2.0 * disc)
    pa = (l1c * (a - l2) + l2c * (l1 - a)) * inv
    pb = bb * (l1c - l2c) * inv
    pc = (l1c * (c - l2) + l2c * (l1 - c)) * inv
    qa = (s1 * (a - l2) + s2 * (l1 - a)) * inv
    qb = bb * (s1 - s2) * inv
    qc = (s1 * (c - l2) + s2 * (l1 - c)) * inv
    md = np.maximum(mean, 0.0)
    smd = np.sqrt(md)
    pa = np.where(degen, md, pa)
    pb = np.where(degen, 0.0, pb)
    pc = np.where(degen, md, pc)
    qa = np.where(degen, smd, qa)
    qb = np.where(degen, 0.0, qb)
    qc = np.where(degen, smd, qc)
    return pa, pb, pc, qa, qb, qc


def _frozen_worker_2x2(params, r0, ua, T, steps_list, sdt):
    """The allocating d = 2 weak-error block worker the in-place one replaced."""
    n_fine = steps_list[-1]
    strides = {s: n_fine // s for s in steps_list}

    def worker(stream):
        count = stream.count
        h = params.drift.h
        sg = params.sigma
        h00, h01, h10, h11 = h[0, 0], h[0, 1], h[1, 0], h[1, 1]
        g00, g01, g10, g11 = sg[0, 0], sg[0, 1], sg[1, 0], sg[1, 1]
        b00, b01, b11 = params.b[0, 0], params.b[0, 1], params.b[1, 1]
        states = {}
        for s in steps_list:
            a0 = np.full(count, r0[0, 0])
            bb0 = np.full(count, r0[0, 1])
            c0 = np.full(count, r0[1, 1])
            states[s] = _frozen_proj_sqrt_components_2x2(a0, bb0, c0)
        acc = {s: np.zeros((count, 4)) for s in steps_list}
        for k in range(n_fine):
            dw = _normal(stream, (2, 2), sdt).reshape(count, 4)
            for s in steps_list:
                acc[s] += dw
                if (k + 1) % strides[s] == 0:
                    pa, pb, pc, qa, qb, qc = states[s]
                    dt = T / s
                    w00, w01, w10, w11 = acc[s][:, 0], acc[s][:, 1], acc[s][:, 2], acc[s][:, 3]
                    t00 = qa * w00 + qb * w10
                    t01 = qa * w01 + qb * w11
                    t10 = qb * w00 + qc * w10
                    t11 = qb * w01 + qc * w11
                    m00 = t00 * g00 + t01 * g10
                    m01 = t00 * g01 + t01 * g11
                    m10 = t10 * g00 + t11 * g10
                    m11 = t10 * g01 + t11 * g11
                    hr00 = h00 * pa + h01 * pb
                    hr01 = h00 * pb + h01 * pc
                    hr10 = h10 * pa + h11 * pb
                    hr11 = h10 * pb + h11 * pc
                    na = pa + (b00 + 2.0 * hr00) * dt + 2.0 * m00
                    nb = pb + (b01 + hr01 + hr10) * dt + m01 + m10
                    nc = pc + (b11 + 2.0 * hr11) * dt + 2.0 * m11
                    states[s] = _frozen_proj_sqrt_components_2x2(na, nb, nc)
                    acc[s][:] = 0.0
        out = {}
        for s in steps_list:
            pa, pb, pc, _, _, _ = states[s]
            out[s] = np.exp(-(ua[0, 0] * pa + 2.0 * ua[0, 1] * pb + ua[1, 1] * pc))
        return out

    return worker


_CLAMP_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324, 1e300]
_clamp_floats = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_CLAMP_SPECIALS),
)


@st.composite
def _clamp_entry(draw):
    kind = draw(st.sampled_from(["any", "degenerate", "negative"]))
    a, bb, c = draw(_clamp_floats), draw(_clamp_floats), draw(_clamp_floats)
    if kind == "degenerate":  # a multiple of I, up to the sign of a zero
        bb, c = draw(st.sampled_from([0.0, -0.0])), a
    elif kind == "negative":  # one or two negative eigenvalues
        a, c = draw(st.floats(-1.0, 0.1)), draw(st.floats(-1.0, 0.1))
        bb = draw(st.floats(-1.0, 1.0))
    return a, bb, c


class TestWeakErrorInPlaceParity:
    """The in-place d = 2 clamp and block worker keep every bit of the allocating ones."""

    @staticmethod
    def assert_bitwise(got, ref):
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_clamp_entry(), min_size=1, max_size=40))
    # one path whose NaN sign an in-place add used to flip
    @example([(-np.inf, np.nan, -np.inf)])
    def test_clamp_matches_frozen_expression(self, entries):
        from affinebsde.simulator import CLAMP_2X2_ROWS, _proj_sqrt_components_2x2

        a, bb, c = (np.array(col, dtype=float) for col in zip(*entries))
        n = len(entries)
        # stale contents in the buffers must not reach the result
        out, work = np.full((6, n), np.nan), np.full((CLAMP_2X2_ROWS, n), -1.0)
        degen = np.ones(n, dtype=bool)
        with np.errstate(all="ignore"):
            ref = _frozen_proj_sqrt_components_2x2(a, bb, c)
            got = _proj_sqrt_components_2x2(a, bb, c, out, work, degen)
        assert got is out
        for g, r in zip(got, ref, strict=True):
            self.assert_bitwise(g, r)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("r0", [R0, 0.3 * np.eye(2)], ids=["r0", "degenerate-r0"])
    def test_per_path_values_match_frozen_worker(self, monkeypatch, threads, r0):
        from affinebsde import simulator

        params, u, T = small_wishart(), np.array([[0.8, 0.2], [0.2, 0.6]]), 1.0
        levels, n_paths, seed = [3, 6, 12], STREAM_BLOCK + 100, 11
        run_blocks = simulator._run_blocks
        got = []

        def spy(worker, *args):
            got.append(run_blocks(worker, *args))
            return got[-1]

        monkeypatch.setattr(simulator, "_run_blocks", spy)
        wishart_weak_errors(params, r0, u, T, levels, n_paths, seed, 1.0, threads=threads)
        ref = run_blocks(_frozen_worker_2x2(params, r0, u, T, levels, np.sqrt(T / levels[-1])), seed, n_paths,
                         threads)
        (blocks,) = got
        assert [len(b[levels[0]]) for b in blocks] == [STREAM_BLOCK, 100]
        for block, ref_block in zip(blocks, ref, strict=True):
            for s in levels:
                self.assert_bitwise(block[s], ref_block[s])


def _frozen_worker_general(params, r0, ua, T, steps_list, sdt):
    """The general weak-error block worker when it drew each step with ``_BlockStream.normal``."""
    d, n_fine = params.d, steps_list[-1]
    strides = {s: n_fine // s for s in steps_list}

    def worker(stream):
        count = stream.count
        states = {}
        for s in steps_list:
            r = np.broadcast_to(r0, (count, d, d)).copy()
            states[s] = project_and_sqrt_psd_batch(r)[:2]
        acc = {s: np.zeros((count, d, d)) for s in steps_list}
        for k in range(n_fine):
            dw = _normal(stream, (d, d), sdt)
            for s in steps_list:
                acc[s] += dw
                if (k + 1) % strides[s] == 0:
                    r, sr = states[s]
                    r = _euler_update(r, sr, params, T / s, acc[s])
                    states[s] = project_and_sqrt_psd_batch(r)[:2]
                    acc[s][:] = 0.0
        return {s: np.exp(-np.einsum("ij,bij->b", ua, states[s][0])) for s in steps_list}

    return worker


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d", [2, 3], ids=["d2-general-drift", "d3"])
def test_general_weak_error_worker_matches_frozen_draws(threads, d):
    from affinebsde.simulator import _run_blocks

    if d == 2:
        params, r0 = small_wishart(general_drift=True), R0
    else:
        sig = np.array([[0.2, 0.02, 0.0], [0.02, 0.18, 0.01], [0.0, 0.01, 0.15]])
        params, r0 = wishart_params(sig, 4.0, -0.5 * np.eye(3)), np.diag([0.3, 0.25, 0.2])
    u, T, levels, n_paths, seed = 0.5 * np.eye(d), 1.0, [2, 4], STREAM_BLOCK + 100, 5
    res = wishart_weak_errors(params, r0, u, T, levels, n_paths, seed, 1.0, threads=threads)
    ref = _run_blocks(_frozen_worker_general(params, r0, u, T, levels, np.sqrt(T / levels[-1])), seed,
                      n_paths, threads)
    for s in levels:
        m, se = mean_stderr(np.concatenate([block[s] for block in ref]))
        for key, value in (("mean", m), ("stderr", se)):
            assert np.float64(res[s][key]).view(np.uint64) == np.float64(value).view(np.uint64)


def bns_spec_d2():
    atoms = ConstantJumps.from_atoms([
        (np.array([[0.12, 0.03], [0.03, 0.08]]), 1.1),
        (np.array([[0.15, 0.0], [0.0, 0.02]]), 0.7),
    ])
    return BnsJumpSpec(
        lam=np.array([[0.09, 0.01], [0.01, 0.07]]),
        lam_op=HFormDrift(np.array([[-0.6, 0.05], [0.0, -0.45]])),
        b_j=np.array([[0.02, 0.0], [0.0, 0.015]]),
        m_j=atoms,
    )


class TestBns:
    def test_no_dynamics_constant_state(self):
        d = 2
        spec = BnsJumpSpec(lam=np.zeros((d, d)), lam_op=HFormDrift(np.zeros((d, d))),
                           b_j=np.zeros((d, d)), m_j=ConstantJumps.empty(d))
        bundle = next(simulate_bns(spec, R0, np.array([0.5, 0.2]), 1.0, 20, 8, seed=2))
        assert np.allclose(bundle.r, R0[None, None], atol=1e-14)

    def test_compound_poisson_mean(self):
        d = 2
        xi_hat = np.array([[0.2, 0.05], [0.05, 0.15]])
        spec = BnsJumpSpec(
            lam=np.array([[0.05, 0.0], [0.0, 0.04]]),
            lam_op=HFormDrift(np.zeros((d, d))),
            b_j=np.array([[0.03, 0.0], [0.0, 0.02]]),
            m_j=ConstantJumps.from_atoms([(xi_hat, 1.0)]),
        )
        fn = bns_functionals(spec, R0, np.zeros(d), 1.0, 200, np.zeros((1, d)), 40000, seed=4)
        target = R0 + spec.lam + spec.b_j + xi_hat  # T = 1
        m = fn.r_terminal.mean(axis=0)
        se = fn.r_terminal.std(axis=0, ddof=1) / np.sqrt(fn.r_terminal.shape[0])
        assert np.all(np.abs(m - target) <= 3.0 * se + 1e-12)

    def test_laplace_matches_transform_ode(self):
        spec = bns_spec_d2()
        params = spec.affine_params()
        u = np.array([[0.7, 0.1], [0.1, 0.5]])
        exact = solve_transform(params, u, 1.0, steps=2000).laplace(R0)
        fn = bns_functionals(spec, R0, np.zeros(2), 1.0, 300, np.zeros((1, 2)), 30000, seed=6)
        vals = np.exp(-np.einsum("ij,bij->b", u, fn.r_terminal))
        m, se = mean_stderr(vals)
        assert abs(m - exact) <= 3.0 * se


class TestJumpBudget:
    """Jump draws over the whole block are refused before the first draw when too many."""

    def test_engines_refuse_over_budget(self):
        base = bns_spec_d2()
        spec = BnsJumpSpec(lam=base.lam, lam_op=base.lam_op, b_j=base.b_j,
                           m_j=ConstantJumps.from_atoms([(base.m_j.xis[0], 1e6)]))
        assert spec.total_intensity * STREAM_BLOCK > JUMP_MARK_BUDGET
        with pytest.raises(ValueError, match="budget"):
            bns_functionals(spec, R0, np.zeros(2), 1.0, 20, np.zeros((1, 2)), 64, seed=1)
        with pytest.raises(ValueError, match="budget"):
            next(simulate_bns(spec, R0, np.zeros(2), 1.0, 20, 64, seed=1))

    def test_budget_counts_horizon_and_whole_blocks(self):
        rate = JUMP_MARK_BUDGET / STREAM_BLOCK  # one block at T = 1 sits exactly at the budget
        _check_jump_budget(rate, 1.0, STREAM_BLOCK)
        for horizon, n_paths in ((1.0, STREAM_BLOCK + 1), (1.5, 1), (float("nan"), 1)):
            with pytest.raises(ValueError, match="budget"):
                _check_jump_budget(rate, horizon, n_paths)


class TestPathStepBudget:
    """The streams that keep whole paths refuse paths x (steps + 1) over the budget before drawing."""

    def test_engines_refuse_over_budget(self):
        n_paths = int(PATH_STEP_BUDGET) // 101 + 1
        with pytest.raises(ValueError, match="budget"):
            next(simulate_wishart(small_wishart(), R0, CorrelationSpec(np.zeros(2)), np.zeros(2),
                                  1.0, 100, n_paths, seed=1))
        with pytest.raises(ValueError, match="budget"):
            next(simulate_bns(bns_spec_d2(), R0, np.zeros(2), 1.0, 100, n_paths, seed=1))

    def test_budget_counts_stored_times(self):
        _check_path_step_budget(int(PATH_STEP_BUDGET) // 101, 100)
        _check_path_step_budget(8, 100)  # the simulate command's default
        for n_paths, n_steps in ((int(PATH_STEP_BUDGET) // 100, 100), (1, int(PATH_STEP_BUDGET))):
            with pytest.raises(ValueError, match="budget"):
                _check_path_step_budget(n_paths, n_steps)
