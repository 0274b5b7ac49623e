"""Batch front end: parse a JSON run configuration, dispatch, write artifacts.

Commands, with the model kinds each takes (any other exits 2)
--------
riccati-solve   solve the backward Riccati system for a raw-affine model
portfolio       solve a utility problem (value, strategy, optional price/hedge): heston | bns
price           indifference prices: variance swaps (exponential; heston | bns) or
                change-of-numeraire values (power; heston)
verify          Monte Carlo / residual audits: transform (any kind) |
                martingale | drift-match (heston | bns)
simulate        dump simulated paths to CSV: heston | bns

Flags: --config PATH, --out DIR, --seed N, --paths N, --steps N, --threads N,
--format {csv,json}; a given --seed/--paths/--steps replaces its configuration
value and gets the same check, and --threads (RNG blocks simulated at once,
default 1) must be >= 1.  Exit codes: 0 pass, 2 configuration error (this
includes a model that fails ``validate_admissibility``, which every command
runs once, in ``parse_model``, a model kind or an endowment the command does
not take, and a nonzero ``terminal.u`` under the block-exp method, whose
closed form has Gamma(T) = 0), 3 numerical failure (blow-up, singular block
exponential, route cross-check, non-finite theta/varpi, non-finite shipped
values, failed linear algebra), 4 verification FAIL.  Errors are mapped to
exit codes once, in ``main``, with one stderr line per error and no
traceback.

Configuration schema (version 1)
--------------------------------
Top level: ``schema_version`` (int, required), ``model``, ``horizon`` (float),
and per-command sections.  Matrices are row-major nested arrays; symmetric
slots are symmetrized on input with a warning when the asymmetry exceeds
1e-12.  Every number must be finite.  ``model``, ``generator``, ``terminal``,
``solver``, ``utility`` and ``endowment`` take only the keys listed below.  All
floating-point output is printed with 17 significant digits and JSON keys are
emitted in sorted order, so identical configurations and seeds produce
byte-identical payloads.

``model``: {"kind": "heston" | "bns" | "raw-affine", ...}
  heston:     alpha, b, drift_h, eta, rho, r0, [ordinary_exponential]
  bns:        lambda0, drift_h, b_jump, atoms: [{xi, weight}], eta, r0,
              [ordinary_exponential]
  raw-affine: alpha, b, drift: {h} | {betas}, [m_atoms: [{xi, weight}]],
              [mu_atoms: [{xi, u}]], [trunc_radius], [r0 (verify transform)]
  ordinary_exponential is a JSON boolean (default false).
``utility``: {"kind": "power" | "exponential", "gamma": g}
``endowment``: the form of the utility problem (any other exits 2): heston
               power {a, sigma, o1, o2}, no strike; exponential {"variance_swap":
               {"asset": i, "strike": K}}, no swap at i = 0 (then K = 0); bns
               power none, and power ``price`` reads ``numeraire`` instead
``numeraire``: {o1, o2, o3} (power change-of-numeraire legs)
``generator``: constant generator coefficients for riccati-solve
               (c_zz, c_zsqrtx, c_x, c_y, c_t, c_hzhz, c_hzz, c_hzsqrtx,
               a, sigma, o1, o2), each a number or matrix; the jump
               coefficients g_* are callables and are not representable in
               configuration files.  riccati_summary.json reports A1 -- A7 as
               ``assumptions``: {name: bool}; see ``validate_assumptions``.
``terminal``: {"u": matrix, "v": float}
``solver``: {"steps", "method": "rk4" | "rk45" | "block-exp", "blowup_norm"}
``verification``: {"which": "transform" | "martingale" | "drift-match",
                   "paths" (>= 2: a standard error needs two), "seed", "steps",
                   "u": matrix, "n_perturbed", "samples"}
``simulate``: {"paths", "steps", "seed"}
``x_values``: list of wealth levels for value-function samples
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys

import numpy as np

from . import bsde, simulator
from .affine_model import (
    AffineParams,
    BlowUpError,
    ConstantJumps,
    GeneralFormDrift,
    HFormDrift,
    LinearJumps,
    solve_transform,
    validate_admissibility,
)
from .bsde import classify_ratio, orient_ratio
from .portfolio import (
    BnsModel,
    EndowmentSpec,
    HestonModel,
    heston_power_numeraire_value,
    make_preset,
)
from .riccati import DEFAULT_BLOWUP_NORM, GeneratorCoeffs, solve_block_exp, solve_rk, validate_assumptions
from .simulator import BnsJumpSpec, CorrelationSpec, bns_functionals, heston_functionals, mean_stderr
from .symcone import symmetrize

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAIL = 4


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# -- deterministic serialization ------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad_in + dump_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(pad_in + f'"{k}": ' + dump_json(obj[k], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(obj) + "\n")


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


# -- config parsing -------------------------------------------------------------------


class _Parser:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.errors: list[str] = []
        self.warnings: list[str] = []
        if cfg.get("schema_version") != SCHEMA_VERSION:
            self.fail(f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}")

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def section(self, key: str, within=None, path: str = "", required: bool = False):
        """The JSON object at ``key`` of ``within`` (the top level by default).

        An absent optional section reads as {}; a missing required section or
        a value that is not an object records an error and returns None.
        """
        src = self.cfg if within is None else within
        name = f"{path}.{key}" if path else key
        if key not in src:
            if required:
                self.fail(f"missing '{name}'")
                return None
            return {}
        if not isinstance(src[key], dict):
            self.fail(f"'{name}' must be an object")
            return None
        return src[key]

    def only(self, section: dict, keys, path: str) -> None:
        """Record an error for the keys of ``section`` outside ``keys``: nothing would read them."""
        unknown = sorted(set(section) - set(keys))
        if unknown:
            self.fail(f"'{path}' takes only {sorted(keys)}, not {unknown}")

    def number(self, section, key, path, default=None, positive=False):
        if key not in section:
            if default is not None:
                return default
            self.fail(f"missing '{path}.{key}'")
            return 0.0
        try:
            v = float(section[key])
        except (TypeError, ValueError, OverflowError):
            self.fail(f"'{path}.{key}' must be a number")
            return 0.0
        if not math.isfinite(v):
            self.fail(f"'{path}.{key}' must be finite")
        elif positive and v <= 0:
            self.fail(f"'{path}.{key}' must be > 0")
        return v

    def integer(self, section, key, path, default, minimum=0):
        """An integer field (integral floats such as 100.0 are accepted), returned as int."""
        if key not in section:
            return default
        v = section[key]
        if not (isinstance(v, int) or (isinstance(v, float) and v.is_integer())):
            self.fail(f"'{path}.{key}' must be an integer")
            return default
        if v < minimum:
            self.fail(f"'{path}.{key}' must be >= {minimum}")
        return int(v)

    def numbers(self, section, key, default):
        """A non-empty list of finite numbers, returned as floats."""
        values = section.get(key, default)
        if not isinstance(values, list) or not values:
            self.fail(f"'{key}' must be a non-empty list of numbers")
            return default
        items = dict(enumerate(values))
        return [self.number(items, i, key) for i in items]

    def matrix(self, section, key, path, d=None, symmetric=False, default=None):
        if key not in section:
            if default is not None:
                return default
            self.fail(f"missing matrix '{path}.{key}'")
            return np.zeros((d or 1, d or 1))
        try:
            arr = np.array(section[key], dtype=float)
        except (TypeError, ValueError):
            self.fail(f"'{path}.{key}' is not a numeric matrix")
            return np.zeros((d or 1, d or 1))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            self.fail(f"'{path}.{key}' must be square, got shape {arr.shape}")
            return np.zeros((d or 1, d or 1))
        if d is not None and arr.shape[0] != d:
            self.fail(f"'{path}.{key}' must be {d}x{d}")
            return np.zeros((d, d))
        if not self.finite(arr, f"{path}.{key}"):
            return np.zeros_like(arr)
        if symmetric:
            asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
            if asym > 1e-12:
                self.warnings.append(f"symmetrized '{path}.{key}' (asymmetry {asym:.3e})")
            arr = symmetrize(arr)
        return arr

    def vector(self, section, key, path, d=None):
        if key not in section:
            self.fail(f"missing vector '{path}.{key}'")
            return np.zeros(d or 1)
        arr = np.atleast_1d(np.array(section[key], dtype=float))
        if d is not None and arr.shape != (d,):
            self.fail(f"'{path}.{key}' must have length {d}")
            return np.zeros(d)
        if not self.finite(arr, f"{path}.{key}"):
            return np.zeros_like(arr)
        return arr

    def finite(self, arr, name: str) -> bool:
        """Whether ``arr`` is finite; NaN or an infinity (Python's json reads both) records an error."""
        if not np.all(np.isfinite(arr)):
            self.fail(f"'{name}' must be finite")
            return False
        return True

    def boolean(self, section, key, path, default=False) -> bool:
        """A JSON true or false; any other value, such as the string "false", is an error."""
        v = section.get(key, default)
        if not isinstance(v, bool):
            self.fail(f"'{path}.{key}' must be true or false, got {v!r}")
            return default
        return v


def load_config(path: str) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_MODEL_KEYS = {
    "heston": ("alpha", "b", "drift_h", "eta", "rho", "r0", "ordinary_exponential"),
    "bns": ("lambda0", "drift_h", "b_jump", "atoms", "eta", "r0", "ordinary_exponential"),
    "raw-affine": ("alpha", "b", "drift", "m_atoms", "mu_atoms", "trunc_radius", "r0"),
}


def parse_model(p: _Parser, kinds: tuple):
    """The configured model of one of ``kinds``; ConfigError unless it is one, can be built and is admissible.

    Every command reads its model here, so each runs ``validate_admissibility``
    once: on the raw-affine parameters, the Heston ``params`` or the BNS
    ``spec.affine_params()``.  A failure names every failed check on one line.
    """
    cfg = p.section("model", required=True)
    if cfg is None:
        _finish_parse(p)
    kind = cfg.get("kind")
    if kind not in kinds:
        p.fail(f"'model.kind' must be {' | '.join(kinds)} for this command, got {kind!r}")
        _finish_parse(p)
    p.only(cfg, ("kind",) + _MODEL_KEYS[kind], "model")
    try:
        if kind == "heston":
            alpha = p.matrix(cfg, "alpha", "model", symmetric=True)
            d = alpha.shape[0]
            params = AffineParams(
                alpha=alpha,
                b=p.matrix(cfg, "b", "model", d=d, symmetric=True),
                drift=HFormDrift(p.matrix(cfg, "drift_h", "model", d=d)),
            )
            model = HestonModel(
                params=params,
                eta=p.vector(cfg, "eta", "model", d=d),
                corr=CorrelationSpec(p.vector(cfg, "rho", "model", d=d)),
                r0=p.matrix(cfg, "r0", "model", d=d, symmetric=True),
                ordinary_exponential=p.boolean(cfg, "ordinary_exponential", "model"),
            )
        elif kind == "bns":
            lam = p.matrix(cfg, "lambda0", "model", symmetric=True)
            d = lam.shape[0]
            atoms = _constant_jumps(p, cfg, "atoms", d)
            spec = BnsJumpSpec(
                lam=lam,
                lam_op=HFormDrift(p.matrix(cfg, "drift_h", "model", d=d)),
                b_j=p.matrix(cfg, "b_jump", "model", d=d, symmetric=True),
                m_j=atoms,
            )
            model = BnsModel(
                spec=spec,
                eta=p.vector(cfg, "eta", "model", d=d),
                r0=p.matrix(cfg, "r0", "model", d=d, symmetric=True),
                ordinary_exponential=p.boolean(cfg, "ordinary_exponential", "model"),
            )
            params = spec.affine_params()
        else:
            alpha = p.matrix(cfg, "alpha", "model", symmetric=True)
            d = alpha.shape[0]
            drift_cfg = p.section("drift", cfg, "model") or {}
            if "h" in drift_cfg:
                drift = HFormDrift(p.matrix(drift_cfg, "h", "model.drift", d=d))
            elif "betas" in drift_cfg:
                betas = np.array(drift_cfg["betas"], dtype=float)
                drift = GeneralFormDrift(betas if p.finite(betas, "model.drift.betas") else np.zeros_like(betas))
            else:
                p.fail("'model.drift' needs 'h' or 'betas'")
                drift = HFormDrift(np.zeros((d, d)))
            m = _constant_jumps(p, cfg, "m_atoms", d)
            mu_atoms = cfg.get("mu_atoms", [])
            mu = (
                LinearJumps.from_atoms(
                    [(p.matrix(a, "xi", f"model.mu_atoms[{i}]", d=d, symmetric=True),
                      p.matrix(a, "u", f"model.mu_atoms[{i}]", d=d, symmetric=True))
                     for i, a in enumerate(mu_atoms)]
                )
                if mu_atoms
                else LinearJumps.empty(d)
            )
            model = params = AffineParams(
                alpha=alpha, b=p.matrix(cfg, "b", "model", d=d, symmetric=True), drift=drift, m=m,
                mu=mu, trunc_radius=p.number(cfg, "trunc_radius", "model", default=1.0))
    except (ValueError, TypeError) as exc:
        p.fail(f"model construction failed: {exc}")
        _finish_parse(p)
    if p.errors:  # the model holds placeholders, and the errors are reported later
        return model
    report = validate_admissibility(params)
    if not report.passed:
        p.fail("the model is not admissible: " + "; ".join(
            f"{name} ({c.detail})" for name, c in report.checks.items() if not c.passed))
        _finish_parse(p)
    return model


def _constant_jumps(p: _Parser, cfg: dict, key: str, d: int) -> ConstantJumps:
    """The constant-jump atoms ``model.<key>``, a list of {xi, weight}."""
    atoms = cfg.get(key, [])
    if not atoms:
        return ConstantJumps.empty(d)
    return ConstantJumps.from_atoms(
        [(p.matrix(a, "xi", f"model.{key}[{i}]", d=d, symmetric=True),
          p.number(a, "weight", f"model.{key}[{i}]", positive=True))
         for i, a in enumerate(atoms)]
    )


def parse_generator(p: _Parser, d: int) -> GeneratorCoeffs:
    cfg = p.section("generator") or {}
    matrices = ("c_zz", "c_zsqrtx", "c_x", "c_hzhz", "c_hzz", "c_hzsqrtx", "a", "sigma", "o1", "o2")
    kw = {key: p.matrix(cfg, key, "generator", d=d) for key in matrices if key in cfg}
    kw.update({key: p.number(cfg, key, "generator") for key in ("c_y", "c_t") if key in cfg})
    p.only(cfg, matrices + ("c_y", "c_t"), "generator")
    return GeneratorCoeffs.build(d, **kw)


def parse_endowment(p: _Parser, d: int) -> dict:
    """The endowment arguments of ``make_preset``: none, a variance swap or a general endowment."""
    cfg = p.section("endowment")
    if not cfg:
        return {}
    if "variance_swap" in cfg:
        p.only(cfg, ("variance_swap",), "endowment")
        vs = p.section("variance_swap", cfg, "endowment") or {}
        p.only(vs, ("asset", "strike"), "endowment.variance_swap")
        return {"swap_asset": p.integer(vs, "asset", "endowment.variance_swap", default=0),
                "strike": p.number(vs, "strike", "endowment.variance_swap", default=0.0)}
    p.only(cfg, ("a", "sigma", "o1", "o2", "strike"), "endowment")
    z = np.zeros((d, d))
    return {"endow": EndowmentSpec(
        a=p.matrix(cfg, "a", "endowment", d=d, default=z),
        sigma=p.matrix(cfg, "sigma", "endowment", d=d, default=z),
        o1=p.matrix(cfg, "o1", "endowment", d=d, default=z),
        o2=p.matrix(cfg, "o2", "endowment", d=d, default=z),
        strike=p.number(cfg, "strike", "endowment", default=0.0),
    )}


def _finish_parse(p: _Parser):
    for w in p.warnings:
        print(f"warning: {w}", file=sys.stderr)
    p.warnings.clear()
    if p.errors:
        raise ConfigError(p.errors)


@contextlib.contextmanager
def _solver_hypotheses():
    """A ValueError from a solver means the model misses its hypotheses: a ConfigError.

    numpy's LinAlgError subclasses ValueError but is a numerical failure, so it
    passes through to ``main``.
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc


def _require_finite(name: str, values) -> None:
    """Raise FloatingPointError, before any artifact is written, on a non-finite value."""
    for v in values:
        if v is not None and not math.isfinite(v):
            raise FloatingPointError(f"{name} is not finite ({v})")


# -- commands ---------------------------------------------------------------------------


def _flag_or_config(p: _Parser, args, key: str, section, path: str, default: int, minimum: int) -> int:
    """The ``--key`` flag when given, else the integer ``section[key]``; either must be >= minimum."""
    flag = getattr(args, key)
    if flag is None:
        return p.integer(section, key, path, default=default, minimum=minimum)
    if flag < minimum:
        p.fail(f"'--{key}' must be >= {minimum}")
    return flag


def _solver_opts(p: _Parser, args) -> dict:
    solver = p.section("solver") or {}
    p.only(solver, ("steps", "method", "blowup_norm"), "solver")
    return {
        "steps": _flag_or_config(p, args, "steps", solver, "solver", default=2000, minimum=1),
        "method": solver.get("method", "rk4"),
        "blowup_norm": p.number(solver, "blowup_norm", "solver", default=DEFAULT_BLOWUP_NORM,
                                positive=True),
    }


def _sampling_opts(p: _Parser, section: str, args, paths: int, steps: int,
                   min_paths: int = 1) -> tuple[int, int, int]:
    """(paths, seed, steps) of a Monte Carlo section; the command-line flags win."""
    cfg = p.section(section) or {}
    return (
        _flag_or_config(p, args, "paths", cfg, section, default=paths, minimum=min_paths),
        _flag_or_config(p, args, "seed", cfg, section, default=0, minimum=0),
        _flag_or_config(p, args, "steps", cfg, section, default=steps, minimum=1),
    )


def cmd_riccati_solve(p: _Parser, args) -> int:
    model = parse_model(p, ("raw-affine",))
    horizon = p.number(p.cfg, "horizon", "", positive=True)
    coeffs = parse_generator(p, model.d)
    term = p.section("terminal") or {}
    p.only(term, ("u", "v"), "terminal")
    u = p.matrix(term, "u", "terminal", d=model.d, symmetric=True, default=np.zeros((model.d, model.d)))
    v = p.number(term, "v", "terminal", default=0.0)
    solver = _solver_opts(p, args)
    if solver["method"] == "block-exp" and np.any(u):
        p.fail("'terminal.u' must be 0 for solver.method block-exp")
    _finish_parse(p)

    summary = {"method": solver["method"], "horizon": horizon, "blow_up": None}
    try:
        with _solver_hypotheses():
            if solver["method"] == "block-exp":
                sol = solve_block_exp(model, coeffs, horizon, steps=solver["steps"], terminal_v=v)
            else:
                sol = solve_rk(model, coeffs, u, v, horizon, steps=solver["steps"],
                               method=solver["method"], blowup_norm=solver["blowup_norm"])
    except BlowUpError as exc:
        summary["blow_up"] = {"time": exc.time, "norm": exc.norm, "bound": exc.bound}
        write_json(os.path.join(args.out, "riccati_summary.json"), summary)
        print(f"blow-up detected at t={exc.time:.6g}", file=sys.stderr)
        return EXIT_NUMERICAL

    summary["assumptions"] = validate_assumptions(model, coeffs)
    summary["terminal_v"] = v
    summary["gamma0"] = sol.gammas[0]
    summary["w0"] = float(sol.w[0])
    if args.format == "json":
        summary["grid"] = sol.grid
        summary["w"] = sol.w
        summary["gammas"] = sol.gammas
    else:
        write_csv(os.path.join(args.out, "riccati_solution.csv"), *sol.to_csv())
    write_json(os.path.join(args.out, "riccati_summary.json"), summary)
    print(f"riccati-solve: {solver['method']} on [0, {horizon:g}], "
          f"gamma(0) trace = {np.trace(sol.gammas[0]):.6g}")
    return EXIT_OK


def _parse_utility(p: _Parser):
    cfg = p.section("utility", required=True)
    if cfg is None:
        return None, 0.0
    p.only(cfg, ("kind", "gamma"), "utility")
    kind = cfg.get("kind")
    if kind not in ("power", "exponential"):
        p.fail("'utility.kind' must be power | exponential")
        return None, 0.0
    gamma = p.number(cfg, "gamma", "utility", positive=True)
    if kind == "power" and not 0.0 < gamma < 1.0:
        p.fail("'utility.gamma' must lie in (0, 1) for power utility")
    return kind, gamma


def _build_preset(p: _Parser, args, kind, gamma):
    """Parse the model, horizon, endowment and solver sections, finish parsing, solve the problem."""
    model = parse_model(p, ("heston", "bns"))
    horizon = p.number(p.cfg, "horizon", "", positive=True)
    endowment = parse_endowment(p, model.d)
    solver = _solver_opts(p, args)
    _finish_parse(p)
    with _solver_hypotheses():
        return make_preset(model, kind, gamma, horizon, steps=solver["steps"], **endowment)


def _write_hedge(out_dir: str, solve) -> None:
    """hedge.csv of a solve with an endowment hedge: t and delta_i on the Riccati grid."""
    if solve.hedge is None:
        return
    grid = solve.riccati.grid
    hs = solve.hedge_grid(grid)
    write_csv(os.path.join(out_dir, "hedge.csv"), ["t"] + [f"delta_{i}" for i in range(hs.shape[1])],
              np.column_stack([grid, hs]))


def cmd_portfolio(p: _Parser, args) -> int:
    xs = p.numbers(p.cfg, "x_values", [0.5, 1.0, 2.0])
    kind, gamma = _parse_utility(p)
    if kind == "power" and min(xs) < 0:
        p.fail("'x_values' must be >= 0 for power utility")
    solve = _build_preset(p, args, kind, gamma).solve
    values = {format(x, ".17g"): solve.value_at(x) for x in xs}
    _require_finite("value_at", values.values())
    _require_finite("price", [solve.price])
    out = {
        "kind": solve.kind,
        "gamma": solve.gamma,
        "horizon": solve.horizon,
        "value_at": values,
        "price": solve.price,
        "diagnostics": {k: v for k, v in solve.diagnostics.items()
                        if isinstance(v, (int, float, str, dict))},
    }
    grid = solve.riccati.grid
    pis = solve.strategy_grid(grid)
    write_json(os.path.join(args.out, "portfolio.json"), out)
    write_csv(
        os.path.join(args.out, "strategy.csv"),
        ["t"] + [f"pi_{i}" for i in range(pis.shape[1])],
        np.column_stack([grid, pis]),
    )
    _write_hedge(args.out, solve)
    print(f"portfolio: {solve.kind} V(1) = {solve.value_at(1.0):.10g}"
          + (f", price = {solve.price:.10g}" if solve.price is not None else ""))
    return EXIT_OK


def cmd_price(p: _Parser, args) -> int:
    kind, gamma = _parse_utility(p)
    if kind == "power":
        model = parse_model(p, ("heston",))
        horizon = p.number(p.cfg, "horizon", "", positive=True)
        if p.section("endowment"):
            p.fail("power-utility pricing reads 'numeraire' and takes no 'endowment'")
        numeraire = p.section("numeraire", required=True)
        if numeraire is None:
            _finish_parse(p)
        d = model.d
        o1 = p.matrix(numeraire, "o1", "numeraire", d=d)
        o2 = p.matrix(numeraire, "o2", "numeraire", d=d)
        o3 = p.matrix(numeraire, "o3", "numeraire", d=d)
        x = p.numbers(p.cfg, "x_values", [1.0])[0]
        solver = _solver_opts(p, args)
        _finish_parse(p)
        with _solver_hypotheses():
            value = heston_power_numeraire_value(model, gamma, o1, o2, o3, horizon, x,
                                                 steps=solver["steps"])
        _require_finite("price", [value])
        write_json(os.path.join(args.out, "price.json"),
                   {"kind": "numeraire", "x": x, "price": value})
        print(f"price: numeraire value p({x:g}) = {value:.10g}")
        return EXIT_OK
    solve = _build_preset(p, args, kind, gamma).solve
    price = 0.0 if solve.price is None else solve.price
    _require_finite("price", [price])
    payload = {"kind": "variance_swap", "price": price}
    write_json(os.path.join(args.out, "price.json"), payload)
    _write_hedge(args.out, solve)
    print(f"price: variance swap p = {price:.10g}")
    return EXIT_OK


def _verify_transform(args, p: _Parser) -> tuple[dict, list]:
    model = parse_model(p, ("heston", "bns", "raw-affine"))
    horizon = p.number(p.cfg, "horizon", "", positive=True)
    ver = p.section("verification")
    n_paths, seed, n_steps = _sampling_opts(p, "verification", args, paths=100000, steps=500, min_paths=2)
    if isinstance(model, AffineParams):
        params, r0 = model, p.matrix(p.section("model"), "r0", "model", d=model.d, symmetric=True)
        # the paths are those of heston_functionals or, with m_atoms, of the jump-OU engine
        if model.mu.n:
            p.fail("the transform check cannot simulate 'model.mu_atoms'")
        elif model.m.n and np.any(model.alpha):
            p.fail("the transform check cannot simulate 'model.alpha' together with 'model.m_atoms'")
    elif isinstance(model, HestonModel):
        params, r0 = model.params, model.r0
    else:
        params, r0 = model.spec.affine_params(), model.r0
    u = p.matrix(ver, "u", "verification", d=params.d, symmetric=True,
                 default=0.5 * np.eye(params.d))
    _finish_parse(p)

    exact = solve_transform(params, u, horizon, steps=2000).laplace(r0)
    with _solver_hypotheses():
        if params.m.n:
            fn = bns_functionals(
                BnsJumpSpec(lam=np.zeros((params.d,) * 2), lam_op=params.drift,
                            b_j=params.b, m_j=params.m),
                r0, np.zeros(params.d), horizon, n_steps, np.zeros((1, params.d)), n_paths, seed,
                threads=args.threads,
            )
        else:
            fn = heston_functionals(
                params, r0, CorrelationSpec(np.zeros(params.d)), np.zeros(params.d),
                horizon, n_steps, np.zeros((1, params.d)), n_paths, seed, threads=args.threads,
            )
    vals = np.exp(-np.einsum("ij,bij->b", u, fn.r_terminal))
    mc, se = mean_stderr(vals)
    _require_finite("transform check", [exact, mc, se])
    report = {
        "which": "transform", "exact": exact, "mc": float(mc), "stderr": float(se),
        "abs_error": abs(float(mc) - exact), "paths": n_paths, "steps": n_steps, "seed": seed,
        "pass": bool(abs(float(mc) - exact) <= 3.0 * float(se)),
    }
    return report, [f"  exact {report['exact']:.8g}  mc {report['mc']:.8g} "
                    f"(se {report['stderr']:.3g}, err {report['abs_error']:.3g})"]


def _verify_martingale(args, p: _Parser) -> tuple[dict, list]:
    ver = p.section("verification")
    n_paths, seed, n_steps = _sampling_opts(p, "verification", args, paths=100000, steps=500, min_paths=2)
    n_pert = p.integer(ver, "n_perturbed", "verification", default=8)
    preset = _build_preset(p, args, *_parse_utility(p))
    strategies = [preset.opt_strategy_grid(n_steps)]
    strategies += preset.perturbed_strategies(n_steps)[:n_pert]
    with _solver_hypotheses():
        means, ses, l0 = preset.audit_strategies(strategies, n_paths=n_paths, seed=seed,
                                                 n_steps=n_steps, threads=args.threads)
    rows = []
    ok = True
    for i in range(len(strategies)):
        ratio, se = orient_ratio(float(means[i]), float(ses[i]), l0)
        verdict = classify_ratio(ratio, se)
        name = "optimal" if i == 0 else f"perturbed_{i}"
        rows.append({"strategy": name, "ratio": ratio, "stderr": se, "verdict": verdict})
        if i == 0:
            ok = ok and verdict == "MARTINGALE"
        else:
            ok = ok and verdict in ("MARTINGALE", "SUPERMARTINGALE_OK")
    report = {"which": "martingale", "paths": n_paths, "steps": n_steps, "seed": seed,
              "results": rows, "pass": ok}
    return report, [f"  {row['strategy']:<12} ratio {row['ratio']:.6f} "
                    f"(se {row['stderr']:.2g})  {row['verdict']}" for row in rows]


def _verify_drift_match(args, p: _Parser) -> tuple[dict, list]:
    ver = p.section("verification")
    n_samples = p.integer(ver, "samples", "verification", default=50, minimum=1)
    seed = _flag_or_config(p, args, "seed", ver, "verification", default=0, minimum=0)
    preset = _build_preset(p, args, *_parse_utility(p))
    stats = bsde.drift_match_stats(preset.bsde_eval(), n_samples=n_samples, seed=seed)
    report = {"which": "drift-match", "samples": n_samples, "seed": seed,
              "max_abs_residual": stats["max_abs_residual"],
              "max_rel_residual": stats["max_rel_residual"],
              "pass": bool(stats["max_rel_residual"] <= 1e-6)}
    return report, [f"  max residual {report['max_abs_residual']:.3g} "
                    f"(relative {report['max_rel_residual']:.3g})"]


_VERIFY = {"transform": _verify_transform, "martingale": _verify_martingale,
           "drift-match": _verify_drift_match}


def cmd_verify(p: _Parser, args) -> int:
    ver = p.section("verification")
    if ver is None:
        _finish_parse(p)
    which = ver.get("which")
    if which not in tuple(_VERIFY):  # a tuple: a list in 'which' is unhashable
        p.fail("'verification.which' must be transform | martingale | drift-match")
        _finish_parse(p)
    report, lines = _VERIFY[which](args, p)
    write_json(os.path.join(args.out, "verify.json"), report)
    print(f"verify[{which}]: {'PASS' if report['pass'] else 'FAIL'}")
    print("\n".join(lines))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


def _path_rows(bundle: simulator.PathBundle, iu) -> np.ndarray:
    """paths.csv rows of a bundle: path id, t, upper-triangle r, n_log, upper-triangle o."""
    n_paths, n_times = bundle.r.shape[:2]
    return np.column_stack([
        np.repeat(np.arange(bundle.path_offset, bundle.path_offset + n_paths), n_times),
        np.tile(bundle.times, n_paths),
        bundle.r[:, :, iu[0], iu[1]].reshape(n_paths * n_times, -1),
        bundle.n_log.reshape(n_paths * n_times, -1),
        bundle.o[:, :, iu[0], iu[1]].reshape(n_paths * n_times, -1),
    ])


def cmd_simulate(p: _Parser, args) -> int:
    model = parse_model(p, ("heston", "bns"))
    horizon = p.number(p.cfg, "horizon", "", positive=True)
    n_paths, seed, n_steps = _sampling_opts(p, "simulate", args, paths=8, steps=100)
    _finish_parse(p)

    if isinstance(model, HestonModel):
        stream = simulator.simulate_wishart(model.params, model.r0, model.corr, model.eta_eff,
                                            horizon, n_steps, n_paths, seed)
    else:
        stream = simulator.simulate_bns(model.spec, model.r0, model.eta_eff,
                                        horizon, n_steps, n_paths, seed)
    d = model.d
    iu = np.triu_indices(d)
    header = (["path", "t"] + [f"r_{i}{j}" for i, j in zip(*iu)] + [f"n_{i}" for i in range(d)]
              + [f"o_{i}{j}" for i, j in zip(*iu)])
    rows = (row for bundle in stream for row in _path_rows(bundle, iu))
    with _solver_hypotheses():
        first = list(itertools.islice(rows, 1))  # a budget refusal raises here, before paths.csv is opened
        write_csv(os.path.join(args.out, "paths.csv"), header, itertools.chain(first, rows))
    print(f"simulate: wrote {n_paths} paths x {n_steps} steps")
    return EXIT_OK


def main(argv=None) -> int:
    # looked up per call: a tracer may have rebound the module's cmd_* names
    dispatch = {"riccati-solve": cmd_riccati_solve, "portfolio": cmd_portfolio, "price": cmd_price,
                "verify": cmd_verify, "simulate": cmd_simulate}
    parser = argparse.ArgumentParser(
        prog="affinebsde",
        description="Riccati/BSDE solvers and Monte Carlo verification for affine volatility models",
    )
    parser.add_argument("command", choices=dispatch)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"configuration error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("configuration error: the configuration must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)

    try:
        if args.threads < 1:
            raise ConfigError(["'--threads' must be >= 1"])
        # a non-finite result is reported once, through the exit code, not as numpy warnings
        with np.errstate(all="ignore"):
            return dispatch[args.command](_Parser(cfg), args)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:  # see the exit codes above
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
