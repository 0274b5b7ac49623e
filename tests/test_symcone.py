import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinebsde.symcone import (
    Clamp2x2Scratch,
    ConeClass,
    DimensionMismatchError,
    IndefiniteMatrixError,
    as_sym,
    cone_classify,
    frobenius,
    mat_exp,
    project_and_sqrt_psd_batch,
    psd_project,
    psd_sqrt,
    symmetrize,
    trace_inner,
)
from conftest import rand_psd, rand_sym


def sym_matrices(d_max=4, scale=2.0):
    return st.integers(1, d_max).flatmap(
        lambda d: st.lists(
            st.floats(-scale, scale, allow_nan=False), min_size=d * d, max_size=d * d
        ).map(lambda v: symmetrize(np.array(v).reshape(int(np.sqrt(len(v))), -1)))
    )


class TestAsSym:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            as_sym(np.zeros((2, 3)))


class TestTraceInner:
    def test_identity_pair(self):
        assert trace_inner(np.eye(2), np.eye(2)) == 2.0

    def test_zero(self, rng):
        x = rand_sym(rng, 3)
        assert trace_inner(np.zeros((3, 3)), x) == 0.0

    def test_matches_double_loop_oracle(self, rng):
        x, y = rand_sym(rng, 3), rand_sym(rng, 3)
        oracle = sum(x[i, j] * y[i, j] for i in range(3) for j in range(3))
        assert trace_inner(x, y) == pytest.approx(oracle, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_inner(np.eye(2), np.eye(3))

    def test_positive_on_psd_pairs(self, rng):
        # Tr(xy) >= 0 whenever both arguments sit in the PSD cone
        for _ in range(50):
            x = rand_psd(rng, 3)
            y = rand_psd(rng, 3)
            assert trace_inner(x, y) >= -1e-12


class TestConeClassify:
    def test_pd(self):
        assert cone_classify(np.diag([1.0, 2.0]), tol=1e-12) is ConeClass.PD

    def test_boundary_psd(self):
        assert cone_classify(np.diag([0.0, 1.0]), tol=1e-12) is ConeClass.PSD

    def test_indefinite(self):
        assert cone_classify(np.array([[1.0, 2.0], [2.0, 1.0]])) is ConeClass.INDEFINITE

    def test_negative_cones(self):
        assert cone_classify(-np.diag([1.0, 2.0])) is ConeClass.ND
        assert cone_classify(np.diag([0.0, -1.0])) is ConeClass.NSD

    def test_zero_matrix_ties_to_psd(self):
        assert cone_classify(np.zeros((2, 2))) is ConeClass.PSD

    @settings(max_examples=40, deadline=None)
    @given(sym_matrices())
    def test_invariant_under_orthogonal_conjugation(self, x):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal(x.shape))
        assert cone_classify(q @ x @ q.T) is cone_classify(x)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_squares_back(self, rng):
        x = rand_psd(rng, 4)
        r = psd_sqrt(x)
        assert cone_classify(r) in (ConeClass.PSD, ConeClass.PD)
        assert frobenius(r @ r - x) <= 1e-9 * (1.0 + frobenius(x))

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrixError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestMatExp:
    def test_zero(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent(self):
        assert np.allclose(mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]])),
                           np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_matches_taylor_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        a *= 0.9 / np.linalg.norm(a)
        term = np.eye(4)
        oracle = np.eye(4)
        for k in range(1, 31):
            term = term @ a / k
            oracle = oracle + term
        assert frobenius(mat_exp(a) - oracle) <= 1e-12 * frobenius(oracle)

    def test_inverse_identity(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            a *= 2.0 / max(np.linalg.norm(a), 1e-12)
            assert frobenius(mat_exp(a) @ mat_exp(-a) - np.eye(3)) <= 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestPsdProject:
    def test_idempotent_on_psd(self, rng):
        x = rand_psd(rng, 3)
        assert np.allclose(psd_project(x), x, atol=1e-12)

    def test_clamps_negative_eigenvalue(self):
        assert np.allclose(psd_project(np.diag([-1.0, 2.0])), np.diag([0.0, 2.0]))

    def test_matches_eigen_clamp_oracle(self, rng):
        x = rand_sym(rng, 4)
        w, v = np.linalg.eigh(x)  # independent decomposition, ascending order
        oracle = (v * np.clip(w, 0.0, None)) @ v.T
        assert np.allclose(psd_project(x), oracle, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(sym_matrices())
    def test_idempotence_property(self, x):
        p = psd_project(x)
        assert np.allclose(psd_project(p), p, atol=1e-11)

    def test_sqrt_of_projection_squares_back(self, rng):
        for _ in range(20):
            s = rand_sym(rng, 3, scale=2.0)
            p = psd_project(s)
            r = psd_sqrt(p)
            assert frobenius(r @ r - p) <= 1e-8 * (1.0 + frobenius(p))


class TestBatchedKernels:
    def test_matches_single_matrix_ops(self, rng):
        mats = np.stack([rand_sym(rng, 2, scale=3.0) for _ in range(64)])
        proj, root, shift = project_and_sqrt_psd_batch(mats)
        for i in range(0, 64, 7):
            assert np.allclose(proj[i], psd_project(mats[i]), atol=1e-11)
            assert np.allclose(root[i], psd_sqrt(psd_project(mats[i])), atol=1e-11)
            assert shift[i] == pytest.approx(frobenius(proj[i] - mats[i]), abs=1e-10)

    def test_general_dimension_path(self, rng):
        mats = np.stack([rand_sym(rng, 3, scale=2.0) for _ in range(16)])
        proj, root, _ = project_and_sqrt_psd_batch(mats)
        for i in range(16):
            assert np.allclose(root[i] @ root[i], proj[i], atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4, max_size=4 * 40),
        st.data(),
    )
    def test_slice_rows_bitwise_equal_whole_batch(self, vals, data):
        n = len(vals) // 4
        mats = np.array(vals[: 4 * n]).reshape(n, 2, 2)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        whole = project_and_sqrt_psd_batch(mats)
        part = project_and_sqrt_psd_batch(mats[lo:hi])
        for w, p in zip(whole, part):
            assert np.array_equal(w[lo:hi].view(np.int64), p.view(np.int64))


class TestDegenerate2x2Clamp:
    """Inputs on which the closed-form 2x2 clamp takes its degenerate branch."""

    @staticmethod
    def check_against_dense(mats):
        proj, root, shift = project_and_sqrt_psd_batch(mats)
        for i, x in enumerate(mats):
            p = psd_project(x)
            assert np.allclose(proj[i], p, rtol=0.0, atol=1e-12 * (1.0 + frobenius(x)))
            assert np.allclose(root[i], psd_sqrt(p), rtol=0.0, atol=1e-12 * (1.0 + frobenius(x)))
            assert shift[i] == pytest.approx(frobenius(p - symmetrize(x)), abs=1e-12)
            assert np.array_equal(proj[i], proj[i].T) and np.array_equal(root[i], root[i].T)

    def test_zero_matrix(self):
        proj, root, shift = project_and_sqrt_psd_batch(np.zeros((3, 2, 2)))
        assert not np.any(proj) and not np.any(root) and not np.any(shift)
        self.check_against_dense(np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("c", [1e-6, 0.3, 2.0, 1e4])
    def test_positive_multiple_of_identity(self, c):
        mats = np.array([c * np.eye(2)])
        proj, root, shift = project_and_sqrt_psd_batch(mats)
        assert np.array_equal(proj[0], c * np.eye(2))
        assert np.allclose(root[0], np.sqrt(c) * np.eye(2), rtol=1e-15, atol=0.0)
        assert shift[0] == 0.0
        self.check_against_dense(mats)

    @pytest.mark.parametrize("c", [-1e-6, -0.3, -2.0, -1e4])
    def test_negative_multiple_of_identity(self, c):
        mats = np.array([c * np.eye(2)])
        proj, root, shift = project_and_sqrt_psd_batch(mats)
        assert not np.any(proj) and not np.any(root)
        assert shift[0] == pytest.approx(np.sqrt(2.0) * abs(c), rel=1e-15)
        self.check_against_dense(mats)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_tiny_discriminant(self, scale):
        # disc ~ 1e-15 * scale lies under the 1e-14 * (1 + scale) threshold
        eps = 1e-15 * scale
        mats = np.array([
            [[scale, eps], [eps, scale]],
            [[scale + eps, 0.0], [0.0, scale - eps]],
            [[-scale, eps], [eps, -scale]],
        ])
        proj, root, _ = project_and_sqrt_psd_batch(mats)
        level = np.maximum(0.5 * (mats[:, 0, 0] + mats[:, 1, 1]), 0.0)[:, None, None]
        assert np.array_equal(proj, level * np.eye(2))
        assert np.array_equal(root, np.sqrt(level) * np.eye(2))
        self.check_against_dense(mats)

    def test_exactly_zero_off_diagonal(self):
        mats = np.array([
            [[0.7, 0.0], [0.0, 0.2]],
            [[0.7, -0.0], [-0.0, -0.2]],
            [[-0.7, 0.0], [0.0, -0.2]],
            [[0.4, 0.0], [0.0, 0.4]],
            [[-0.4, -0.0], [-0.0, -0.4]],
        ])
        proj, root, _ = project_and_sqrt_psd_batch(mats)
        assert not np.any(proj[:, 0, 1]) and not np.any(root[:, 0, 1])
        self.check_against_dense(mats)


def _frozen_spectral_combine_2x2(f1, f2, p00, p01, p11, degen, f_degen):
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


def _frozen_clamp_spectrum_2x2(mats):
    """The allocating 2x2 clamp the buffered one replaced, kept as its oracle."""
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
    p00 = (a - l2) / safe
    p01 = b / safe
    p11 = (c - l2) / safe
    md = np.maximum(mean, 0.0)
    proj = _frozen_spectral_combine_2x2(l1c, l2c, p00, p01, p11, degen, md)
    root = _frozen_spectral_combine_2x2(np.sqrt(l1c), np.sqrt(l2c), p00, p01, p11, degen, np.sqrt(md))
    return proj, root, shift


_SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300, 5e-324, 1e300, -1e300]
_entries = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIALS),
)


@st.composite
def _clamp_matrix(draw):
    kind = draw(st.sampled_from(["any", "symmetric", "degenerate", "negative"]))
    x00, x01, x10, x11 = (draw(_entries) for _ in range(4))  # "any" is not symmetric in general
    if kind == "symmetric":
        x10 = x01
    elif kind == "degenerate":  # a multiple of I, up to the signs of the zeros
        x01, x10, x11 = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])), x00
    elif kind == "negative":  # one or two negative eigenvalues
        x00, x11 = draw(st.floats(-1.0, 0.1)), draw(st.floats(-1.0, 0.1))
        x01 = draw(st.floats(-1.0, 1.0))
        x10 = draw(st.sampled_from([x01, -x01, 0.5 * x01]))
    return [[x00, x01], [x10, x11]]


class TestBufferedClamp2x2:
    """The clamp into caller-owned buffers keeps every bit of the allocating one it replaced."""

    @staticmethod
    def assert_bitwise(got, ref):
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("buffers", ["fresh", "dirty"])
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_clamp_matrix(), min_size=1, max_size=40))
    def test_matches_frozen_clamp(self, buffers, mats):
        mats = np.array(mats, dtype=float)
        n = len(mats)
        full, root_only = Clamp2x2Scratch((n,)), Clamp2x2Scratch((n,), root_only=True)
        if buffers == "dirty":  # stale contents must not reach the result
            for scratch in (full, root_only):
                for buf in (scratch.work, scratch.root, scratch.proj, scratch.shift):
                    if buf is not None:
                        buf.fill(np.nan)
                scratch.degen.fill(True)
        with np.errstate(all="ignore"):
            ref = _frozen_clamp_spectrum_2x2(mats)
            got = project_and_sqrt_psd_batch(mats, full)
            got_root = project_and_sqrt_psd_batch(mats, root_only)
            allocated = project_and_sqrt_psd_batch(mats)
        assert all(g is b for g, b in zip(got, (full.proj, full.root, full.shift), strict=True))
        for g, a, r in zip(got, allocated, ref, strict=True):
            self.assert_bitwise(g, r)
            self.assert_bitwise(a, r)
        assert got_root[0] is None and got_root[2] is None
        assert got_root[1] is root_only.root
        self.assert_bitwise(got_root[1], got[1])

    def test_batch_shape_is_kept(self, rng):
        mats = rng.standard_normal((3, 4, 2, 2))
        proj, root, shift = project_and_sqrt_psd_batch(mats)
        assert proj.shape == root.shape == (3, 4, 2, 2) and shift.shape == (3, 4)
        ref = _frozen_clamp_spectrum_2x2(mats)
        for g, r in zip((proj, root, shift), ref, strict=True):
            self.assert_bitwise(g, r)

    def test_buffers_are_for_2x2_only(self, rng):
        with pytest.raises(ValueError, match="2x2"):
            project_and_sqrt_psd_batch(rand_psd(rng, 3)[None], Clamp2x2Scratch((1,)))
