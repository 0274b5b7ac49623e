"""Batched grid kernels against the per-knot definitions they replace, bit for bit.

Each reference below is the per-knot loop the batched form replaced, kept here
as the definition.  Equality is checked on the float bits (``.view(np.uint64)``),
so a reordered sum or a fused multiply-add shows up as a failure.
"""

import numpy as np
import pytest

from affinebsde import riccati
from affinebsde.affine_model import AffineParams, ConstantJumps, HFormDrift, LinearJumps
from affinebsde.cli import _Parser, parse_generator, parse_model
from affinebsde.portfolio import (
    bns_exp_coeffs,
    heston_power_coeffs,
    preset_bns_exp,
    preset_bns_power,
    preset_heston_exp,
    preset_heston_power,
    quasi_monotone_jump_instance,
    EndowmentSpec,
    _bns_model_d2,
    _heston_model_d2,
)
from affinebsde.riccati import (
    BlockExpSingularError,
    GeneratorCoeffs,
    _check_a22_regular,
    _compile_backward_rhs,
    simpson_cumulative_backward,
    solve_block_exp,
    solve_rk,
    theta_eval,
    varpi_eval,
    varpi_quadrature,
)
from conftest import rand_psd, rand_sym


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


# -- varpi quadrature ---------------------------------------------------------------


def varpi_quadrature_ref(params, coeffs, grid, gammas, terminal_v):
    steps = len(grid) - 1
    base = np.array([varpi_eval(params, coeffs, gammas[k], 0.0) for k in range(steps + 1)])
    cy = coeffs.c_y
    integral = simpson_cumulative_backward(np.exp(cy * grid) * base, grid[-1] / steps,
                                           np.exp(cy * grid[-1]) * terminal_v)
    return np.exp(-cy * grid) * integral


def random_stack(rng, d, n):
    g = rng.standard_normal((n, d, d))
    return 0.5 * (g + g.transpose(0, 2, 1))


def varpi_cases():
    heston = _heston_model_d2()
    bns = _bns_model_d2()
    jump_params, jump_coeffs, _ = quasi_monotone_jump_instance()
    d3 = AffineParams(alpha=0.1 * np.eye(3), b=0.4 * np.eye(3), drift=HFormDrift(-0.5 * np.eye(3)),
                      m=ConstantJumps.from_atoms([(0.2 * np.eye(3), 0.6), (np.diag([0.1, 0.3, 0.2]), 0.4),
                                                  (0.05 * np.ones((3, 3)), 0.9)]))
    return {
        "no-atoms": (heston.params, heston_power_coeffs(heston, 0.35, EndowmentSpec.zero(2))),
        "atoms-g_t": (bns.spec.affine_params(), bns_exp_coeffs(bns, 0.8, np.diag([1.0, 0.0]))),
        "atoms-g_y-g_t": (jump_params, jump_coeffs),
        "c_y": (heston.params, GeneratorCoeffs.build(2, c_y=0.5, c_t=-0.1, a=0.3 * np.eye(2),
                                                     o1=np.array([[0.02, 0.01], [0.0, 0.03]]))),
        "d3-atoms-c_y": (d3, GeneratorCoeffs.build(3, c_y=-0.3, c_t=0.2, g_t=lambda y: 0.1 * y * y)),
        "d3-atoms-c_y-o1-g_t": (d3, GeneratorCoeffs.build(
            3, c_y=0.2, c_t=0.6, a=0.5 * np.eye(3), o1=np.diag([1.0, 2.0, 0.5]),
            g_t=lambda y: 0.7 * y)),
    }


@pytest.mark.parametrize("case", list(varpi_cases()))
def test_varpi_quadrature_matches_per_knot(case, rng):
    params, coeffs = varpi_cases()[case]
    grid = np.linspace(0.0, 1.0, 201)
    gammas = random_stack(rng, params.d, len(grid))
    for terminal_v in (0.0, -0.3):
        assert_bitwise(varpi_quadrature(params, coeffs, grid, gammas, terminal_v),
                       varpi_quadrature_ref(params, coeffs, grid, gammas, terminal_v))


def test_varpi_quadrature_non_finite_raises():
    params, coeffs = varpi_cases()["atoms-g_t"]
    grid = np.linspace(0.0, 1.0, 11)
    gammas = np.zeros((11, 2, 2))
    gammas[4, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="varpi"):
            varpi_quadrature_ref(params, coeffs, grid, gammas, 0.0)
        with pytest.raises(FloatingPointError, match="varpi"):
            varpi_quadrature(params, coeffs, grid, gammas, 0.0)


def test_block_exp_and_linear_exp_w_match_per_knot():
    model = _heston_model_d2()
    coeffs = heston_power_coeffs(model, 0.35, EndowmentSpec.zero(2))
    sol = solve_block_exp(model.params, coeffs, 1.0, steps=300)
    assert_bitwise(sol.w, varpi_quadrature_ref(model.params, coeffs, sol.grid, sol.gammas, 0.0))
    res = preset_bns_exp(steps=300).solve
    bns = _bns_model_d2()
    params = bns.spec.affine_params()
    ref = varpi_quadrature_ref(params, bns_exp_coeffs(bns, 0.8, np.diag([1.0, 0.0])),
                               res.riccati.grid, res.riccati.gammas, -0.15)
    assert_bitwise(res.riccati.w, ref)


# -- Gamma interpolation --------------------------------------------------------------


def gamma_at_ref(sol, t):
    grid = sol.grid
    if t <= grid[0]:
        j, lam = 0, 0.0
    elif t >= grid[-1]:
        j, lam = len(grid) - 2, 1.0
    else:
        j = int(np.searchsorted(grid, t, side="right")) - 1
        lam = (t - grid[j]) / (grid[j + 1] - grid[j])
    return (1.0 - lam) * sol.gammas[j] + lam * sol.gammas[j + 1], (1.0 - lam) * sol.w[j] + lam * sol.w[j + 1]


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_gamma_at_array_matches_scalar(method, rng):
    model = _heston_model_d2()
    coeffs = heston_power_coeffs(model, 0.35, EndowmentSpec.zero(2))
    sol = solve_rk(model.params, coeffs, rand_psd(rng, 2, 0.1), 0.2, 1.0, steps=100, method=method)
    mids = 0.5 * (sol.grid[:-1] + sol.grid[1:])
    outside = np.array([-np.inf, -1.0, -1e-300, -0.0, 1.0 + 1e-12, 7.0, np.inf])
    ts = np.concatenate([sol.grid, mids, rng.uniform(-0.1, 1.1, 50), outside])
    ref = [gamma_at_ref(sol, float(t)) for t in ts]
    assert_bitwise(sol.gamma_at(ts), np.stack([g for g, _ in ref]))
    for t, (g, w) in zip(ts, ref):
        assert_bitwise(sol.gamma_at(float(t)), g)
        assert_bitwise(sol.w_at(float(t)), w)


# -- strategies and hedges --------------------------------------------------------------


@pytest.fixture(scope="module")
def presets():
    return {name: make(steps=200) for name, make in (
        ("heston-power", preset_heston_power), ("heston-exp", preset_heston_exp),
        ("bns-power", preset_bns_power), ("bns-exp", preset_bns_exp))}


@pytest.mark.parametrize("name", ["heston-power", "heston-exp", "bns-power", "bns-exp"])
def test_strategy_grid_matches_per_time_calls(presets, name):
    preset = presets[name]
    res = preset.solve
    grid = res.riccati.grid
    for ts in (grid, np.linspace(0.0, preset.horizon, 501)[:-1], np.array([-0.5, 0.3337, 2.0])):
        assert_bitwise(res.strategy_grid(ts), np.stack([res.strategy(float(t)) for t in ts]))
    assert_bitwise(preset.opt_strategy_grid(500),
                   np.stack([res.strategy(float(t)) for t in np.linspace(0.0, preset.horizon, 501)[:-1]]))


def test_swap_hedge_grid_matches_per_time_calls(presets):
    res = presets["heston-exp"].solve
    assert res.hedge is not None
    for ts in (res.riccati.grid, np.array([-1.0, 0.123456, 0.5, 3.0])):
        assert_bitwise(res.hedge_grid(ts), np.stack([res.hedge(float(t)) for t in ts]))
    assert presets["bns-exp"].solve.hedge is None


# -- compiled general right-hand side -----------------------------------------------


def d3_linear_jump_config(rng):
    """d = 3 raw-affine model with constant-jump atoms and a linear-jump atom outside the ball."""
    d = 3
    alpha = rand_psd(rng, d, 0.2) + 0.05 * np.eye(d)
    params = AffineParams(
        alpha=alpha, b=3.5 * alpha, drift=HFormDrift(-0.5 * np.eye(d) + 0.1 * rng.standard_normal((d, d))),
        m=ConstantJumps.from_atoms([(rand_psd(rng, d, 0.3), 0.7), (rand_psd(rng, d, 0.3), 0.4)]),
        mu=LinearJumps.from_atoms([(rand_psd(rng, d, 1.5) + np.eye(d), 0.05 * np.eye(d))]),
    )
    coeffs = GeneratorCoeffs.build(
        d, c_zz=rand_psd(rng, d, 0.2) + 0.1 * np.eye(d), c_zsqrtx=0.2 * rng.standard_normal((d, d)),
        c_x=rand_psd(rng, d, 0.2), c_y=0.2, c_t=0.1, a=0.2 * np.eye(d), sigma=0.3 * np.eye(d),
        o1=0.02 * np.eye(d), o2=0.03 * np.eye(d), c_hzhz=0.2 * np.eye(d),
    )
    return params, coeffs


def general_cases(rng):
    params, coeffs = d3_linear_jump_config(rng)
    jump_params, jump_coeffs, _ = quasi_monotone_jump_instance()
    aux = GeneratorCoeffs.build(
        3, c_zz=0.2 * np.eye(3), c_x=0.4 * np.eye(3), c_y=0.1, a=0.2 * np.eye(3), sigma=0.3 * np.eye(3),
        c_hzz=0.1 * np.ones((3, 3)), g_t=lambda y: 0.5 * y)
    return [(params, coeffs), (jump_params, jump_coeffs), (params, aux)]


def test_compiled_general_rhs_matches_theta_eval(rng):
    for params, coeffs in general_cases(rng):
        rhs, fast = _compile_backward_rhs(params, coeffs)
        assert not fast
        u = rand_sym(rng, params.d, 0.5)
        th, om = rhs(u, 0.3)
        assert_bitwise(th, theta_eval(params, coeffs, u))
        assert_bitwise(om, varpi_eval(params, coeffs, u, 0.3))


def rk_pin_cases(workloads, rng):
    """Models on the general right-hand side: the benchmark's d3-jumps config, a library
    model with every jump coefficient (g_M, g_y and g_t among them) set, and a d = 3
    model with a nonzero Tr(a o1)."""
    cfg, _ = workloads.generated_configs(0, 10)["d3-jumps"]
    p = _Parser(cfg)
    params = parse_model(p, ("raw-affine",))
    jump_params, jump_coeffs, terminal_u = quasi_monotone_jump_instance()
    return {"d3-jumps": (params, parse_generator(p, params.d), np.zeros((3, 3)), 0.0),
            "jump-instance": (jump_params, jump_coeffs, terminal_u, -0.2),
            "d3-a-o1": d3_linear_jump_config(rng) + (0.1 * np.eye(3), 0.4)}


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("case", ["d3-jumps", "jump-instance", "d3-a-o1"])
def test_general_rk_solve_matches_theta_eval_at_every_knot(bench_workloads, rng, monkeypatch, case, method):
    """The compiled right-hand side is theta_eval/varpi_eval at every knot, and so is the solve."""
    params, coeffs, u, v = rk_pin_cases(bench_workloads, rng)[case]
    sol = solve_rk(params, coeffs, u, v, 1.0, steps=120, method=method)
    rhs, fast = _compile_backward_rhs(params, coeffs)
    assert not fast
    for g, w in zip(sol.gammas, sol.w):
        th, om = rhs(g, w)
        assert_bitwise(th, theta_eval(params, coeffs, g))
        assert_bitwise(om, varpi_eval(params, coeffs, g, w))
    monkeypatch.setattr(riccati, "_compile_backward_rhs", lambda params, coeffs: (
        lambda g, w: (theta_eval(params, coeffs, g), varpi_eval(params, coeffs, g, w)), False))
    ref = solve_rk(params, coeffs, u, v, 1.0, steps=120, method=method)
    for name in ("grid", "gammas", "w"):
        assert_bitwise(getattr(sol, name), getattr(ref, name))


# -- A_22 singularity check -----------------------------------------------------------


def a22_check_ref(grid, a22s):
    for k in range(len(a22s) - 1, -1, -1):
        svals = np.linalg.svd(a22s[k], compute_uv=False)
        if svals[-1] <= 1e-13 * max(1.0, svals[0]):
            raise BlockExpSingularError(time=float(grid[k]))


def outcome(check, grid, a22s):
    try:
        check(grid, a22s)
    except (BlockExpSingularError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None)
    return None


def a22_stacks(rng):
    n = 60
    base = np.eye(2) + 0.1 * random_stack(rng, 2, n)
    singular = np.array([[1.0, 2.0], [0.5, 1.0]])
    cases = {}
    s = base.copy()
    s[30] = singular
    s[:10] = np.inf
    cases["singular-over-inf"] = s
    s = base.copy()
    s[30] = singular
    s[:10] = np.nan
    cases["singular-over-nan"] = s
    s = base.copy()
    s[20] = singular
    s[40] = np.nan
    cases["nan-over-singular"] = s
    s = base.copy()
    s[20] = singular
    s[40, 0, 1] = np.inf
    cases["inf-over-singular"] = s
    s = base.copy()
    s[[5, 25, 45]] = singular
    cases["three-singular"] = s
    s = base.copy()
    s[:15, 1, 1] = -np.inf
    cases["inf-below-only"] = s
    cases["regular"] = base
    return cases


@pytest.mark.parametrize("case", ["singular-over-inf", "singular-over-nan", "nan-over-singular",
                                  "inf-over-singular", "three-singular", "inf-below-only", "regular"])
def test_a22_check_matches_per_knot_sweep(case, rng):
    a22s = a22_stacks(rng)[case]
    grid = np.linspace(0.0, 1.0, len(a22s))
    got, ref = outcome(_check_a22_regular, grid, a22s), outcome(a22_check_ref, grid, a22s)
    assert got == ref
    if case == "singular-over-inf":
        assert ref[0] is BlockExpSingularError and ref[2] == grid[30]
