#!/usr/bin/env python3
"""Discretization studies: Euler weak error of the Laplace functional and the
RK4 order of the backward Riccati integrator."""

import argparse

import numpy as np

from affinebsde.affine_model import solve_transform
from affinebsde.portfolio import heston_exp_coeffs, _heston_model_d2
from affinebsde.riccati import solve_rk
from affinebsde.simulator import wishart_weak_errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--levels", type=int, nargs="+", default=[250, 500, 1000])
    args = ap.parse_args()

    model = _heston_model_d2()
    u = np.array([[0.8, 0.2], [0.2, 0.6]])
    exact = solve_transform(model.params, u, 1.0, steps=2000).laplace(model.r0)
    print(f"Euler weak error, exact Laplace value {exact:.8f}")
    try:
        res = wishart_weak_errors(model.params, model.r0, u, 1.0, args.levels,
                                  args.paths, args.seed, exact)
    except ValueError as exc:  # bad --levels or --paths, refused before any draw
        ap.error(str(exc))
    for s in args.levels:
        v = res[s]
        print(f"  steps {s:>5}: mc {v['mean']:.8f}  se {v['stderr']:.2e}  "
              f"|err| {v['abs_error']:.2e}")
    for d in res["differences"]:
        print(f"  bias gap {d['coarse']}->{d['fine']}: {d['mean']:.3e} +- {d['stderr']:.1e}")

    print("\nRK4 order (max-entry error against a 4000-step reference)")
    coeffs = heston_exp_coeffs(model, 0.7, np.eye(2))
    ref = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=4000)
    prev = None
    for n in (125, 250, 500, 1000):
        sol = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=n)
        idx = np.linspace(0, n, 26).astype(int)
        err = float(np.max(np.abs(sol.gammas[idx] - ref.gammas[idx * (4000 // n)])))
        note = f"  (x{prev / err:.1f})" if prev else ""
        print(f"  steps {n:>5}: err {err:.3e}{note}")
        prev = err


if __name__ == "__main__":
    main()
