import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinebsde.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    _Parser,
    dump_json,
    main,
    parse_generator,
    parse_model,
    write_csv,
)
from affinebsde.affine_model import validate_admissibility
from affinebsde.portfolio import HestonModel, _heston_model_d2, heston_exp_coeffs
from affinebsde.riccati import solve_rk
from affinebsde.simulator import STREAM_BLOCK, simulate_bns, simulate_wishart


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def heston_config(**overrides):
    cfg = {
        "schema_version": 1,
        "model": {
            "kind": "heston",
            "alpha": [[0.0493, 0.012], [0.012, 0.0333]],
            "b": [[0.1479, 0.036], [0.036, 0.0999]],
            "drift_h": [[-0.7, 0.06], [0.03, -0.55]],
            "eta": [0.65, 0.4],
            "rho": [-0.45, -0.25],
            "r0": [[0.32, 0.04], [0.04, 0.26]],
        },
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "solver": {"steps": 300},
    }
    cfg.update(overrides)
    return cfg


def riccati_1d_degenerate_config():
    # the degenerate scalar branch: Gamma(0) = 1/2 for eta = gamma = sigma = 1
    return {
        "schema_version": 1,
        "model": {
            "kind": "raw-affine",
            "alpha": [[0.25]],
            "b": [[0.0]],
            "drift": {"h": [[0.5]]},
        },
        "horizon": 1.0,
        "generator": {
            "c_zz": [[0.0]],
            "c_zsqrtx": [[-1.0]],
            "c_x": [[0.5]],
        },
        "terminal": {"u": [[0.0]], "v": 0.0},
        "solver": {"steps": 500},
    }


class TestJsonSerializer:
    def test_sorted_keys_and_17_digits(self):
        text = dump_json({"b": 0.1, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text

    def test_round_trip_identity(self):
        cfg = heston_config()
        again = json.loads(dump_json(cfg))
        assert again == cfg
        assert json.loads(dump_json(again)) == again


class TestRiccatiSolveCommand:
    def test_degenerate_1d_csv_value(self, tmp_path):
        cfg = write_config(tmp_path, riccati_1d_degenerate_config())
        rc = main(["riccati-solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "riccati_solution.csv").read_text().splitlines()
        assert lines[0] == "t,gamma_00,w"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.5, abs=1e-10)
        summary = json.loads((tmp_path / "riccati_summary.json").read_text())
        assert summary["blow_up"] is None

    def test_zero_generator_gives_zero_column(self, tmp_path):
        base = riccati_1d_degenerate_config()
        base["generator"] = {}
        cfg = write_config(tmp_path, base)
        assert main(["riccati-solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "riccati_solution.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_blow_up_exit_code_and_report(self, tmp_path):
        base = riccati_1d_degenerate_config()
        base["model"]["alpha"] = [[1.0]]
        base["model"]["drift"] = {"h": [[0.0]]}
        base["generator"] = {"c_zz": [[2.0]], "c_x": [[4.0]]}
        base["terminal"] = {"u": [[3.0]], "v": 0.0}
        cfg = write_config(tmp_path, base)
        rc = main(["riccati-solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        summary = json.loads((tmp_path / "riccati_summary.json").read_text())
        assert summary["blow_up"] is not None
        assert 0.0 <= summary["blow_up"]["time"] <= 1.0

    def test_non_finite_state_reports_infinite_norm(self, tmp_path):
        # c_zsqrtx = 1e200 turns the RK4 state NaN within one step of T
        base = riccati_1d_degenerate_config()
        base["generator"] = {"c_zz": [[0.0]], "c_zsqrtx": [[1e200]], "c_x": [[-0.5]]}
        cfg = write_config(tmp_path, base)
        rc = main(["riccati-solve", "--config", cfg, "--out", str(tmp_path), "--steps", "20"])
        assert rc == EXIT_NUMERICAL
        text = (tmp_path / "riccati_summary.json").read_text()
        summary = json.loads(text, parse_constant=reject_constant)
        assert summary["blow_up"]["norm"] == "Infinity"

    def test_block_exp_pole_exit_code(self, tmp_path, capsys):
        base = riccati_1d_degenerate_config()
        base["horizon"] = 2.0
        base["generator"] = {"c_zz": [[5.0]], "c_zsqrtx": [[0.0]], "c_x": [[5.0]]}
        times = {}
        for method in ("rk4", "block-exp"):
            base["solver"] = {"steps": 2000, "method": method}
            out = tmp_path / method
            rc = main(["riccati-solve", "--config", write_config(tmp_path, base), "--out", str(out)])
            assert rc == EXIT_NUMERICAL
            assert "Traceback" not in capsys.readouterr().err
            times[method] = json.loads((out / "riccati_summary.json").read_text())["blow_up"]["time"]
        assert times["block-exp"] == pytest.approx(times["rk4"], abs=0.01)

    def test_block_exp_honours_terminal_v(self, tmp_path):
        cfg = riccati_1d_degenerate_config()
        cfg["generator"]["c_y"] = 0.2  # the integrating factor carries w(T) back to t = 0
        cfg["terminal"] = {"u": [[0.0]], "v": 1.5}
        w0 = {}
        for method in ("rk4", "block-exp"):
            cfg["solver"] = {"steps": 2000, "method": method}
            out = tmp_path / method
            rc = main(["riccati-solve", "--config", write_config(tmp_path, cfg), "--out", str(out)])
            assert rc == EXIT_OK
            summary = json.loads((out / "riccati_summary.json").read_text())
            assert summary["terminal_v"] == 1.5
            w0[method] = summary["w0"]
        assert w0["block-exp"] == pytest.approx(w0["rk4"], abs=1e-12)

    def test_csv_export_shape(self, tmp_path):
        model = _heston_model_d2()
        coeffs = heston_exp_coeffs(model, 0.7, np.zeros((2, 2)))
        sol = solve_rk(model.params, coeffs, np.zeros((2, 2)), 0.0, 1.0, steps=10)
        path = tmp_path / "sol.csv"
        write_csv(path, *sol.to_csv())
        lines = path.read_text().splitlines()
        assert lines[0] == "t,gamma_00,gamma_01,gamma_11,w"
        assert len(lines) == 12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_solution_csv_matches_frozen_writer(self, tmp_path, d):
        cfg = riccati_1d_degenerate_config() if d == 1 else raw_affine_config(
            heston_config()["model"] if d == 2 else heston_d3_config()["model"])
        assert main(["riccati-solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_OK
        model = parse_model(_Parser(cfg), ("raw-affine",))
        sol = solve_rk(model, parse_generator(_Parser(cfg), d), np.zeros((d, d)), 0.0, cfg["horizon"],
                       steps=cfg["solver"]["steps"])
        frozen_solution_csv(tmp_path / "reference.csv", sol)
        got = (tmp_path / "riccati_solution.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\n") == 1 + cfg["solver"]["steps"] + 1

    def test_unknown_generator_key_is_config_error(self, tmp_path, capsys):
        cfg = with_section(riccati_1d_degenerate_config(), "generator", c_q=[[1.0]])
        assert main(["riccati-solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "'generator' takes only" in capsys.readouterr().err

    def test_invalid_config_lists_all_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 99, "model": {"kind": "nope"}})
        rc = main(["riccati-solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "schema_version" in err and "model.kind" in err


class TestPortfolioCommand:
    def test_zero_market_value(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["model"]["eta"] = [0.0, 0.0]
        cfg_dict["model"]["rho"] = [0.0, 0.0]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["portfolio", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "portfolio.json").read_text())
        assert out["value_at"]["1"] == pytest.approx(1.0 / 0.35, rel=1e-12)

    def test_singular_alpha_is_config_error(self, tmp_path, capsys):
        # PSD but singular alpha: the power-utility closed form needs alpha > 0
        cfg_dict = heston_config()
        cfg_dict["model"]["alpha"] = [[0.04, 0.0], [0.0, 0.0]]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["portfolio", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            "configuration error: the closed-form route requires alpha positive definite"
        ]
        assert not (tmp_path / "portfolio.json").exists()

    def test_strategy_csv_rows_match_grid(self, tmp_path):
        cfg = write_config(tmp_path, heston_config())
        assert main(["portfolio", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "strategy.csv").read_text().splitlines()
        assert len(rows) == 1 + 300 + 1  # header + N + 1 grid points

    def test_odd_step_count_runs(self, tmp_path):
        # the Heston power solve used to exit 2 on an odd count: its routes returned 102 and 101 steps
        argv = ["--out", str(tmp_path), "--steps", "101"]
        assert main(["portfolio", "--config", str(CONFIGS / "heston_power_portfolio.json")] + argv) == EXIT_OK
        assert len((tmp_path / "strategy.csv").read_text().splitlines()) == 1 + 102
        # at 101 steps the centered differences leave a residual above 1e-6, so a FAIL is a verdict too
        rc = main(["verify", "--config", str(CONFIGS / "heston_power_verify_drift_match.json")] + argv)
        assert rc in (EXIT_OK, EXIT_VERIFY_FAIL)

    def test_bns_exp_with_swap_writes_price_and_hedge_free(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "model": {
                "kind": "bns",
                "lambda0": [[0.09, 0.01], [0.01, 0.07]],
                "drift_h": [[-0.6, 0.05], [0.0, -0.45]],
                "b_jump": [[0.02, 0.0], [0.0, 0.015]],
                "atoms": [{"xi": [[0.12, 0.03], [0.03, 0.08]], "weight": 1.1}],
                "eta": [0.6, 0.35],
                "r0": [[0.3, 0.03], [0.03, 0.22]],
            },
            "horizon": 1.0,
            "utility": {"kind": "exponential", "gamma": 0.8},
            "endowment": {"variance_swap": {"asset": 1, "strike": 0.15}},
            "solver": {"steps": 300},
        }
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["portfolio", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "portfolio.json").read_text())
        assert out["price"] is not None and np.isfinite(out["price"])


class TestPriceCommand:
    def test_swapless_price_is_zero(self, tmp_path):
        cfg_dict = {
            "schema_version": 1,
            "model": {
                "kind": "bns",
                "lambda0": [[0.09, 0.01], [0.01, 0.07]],
                "drift_h": [[-0.6, 0.05], [0.0, -0.45]],
                "b_jump": [[0.02, 0.0], [0.0, 0.015]],
                "atoms": [],
                "eta": [0.6, 0.35],
                "r0": [[0.3, 0.03], [0.03, 0.22]],
            },
            "horizon": 1.0,
            "utility": {"kind": "exponential", "gamma": 0.8},
            "endowment": {"variance_swap": {"asset": 0, "strike": 0.0}},
            "solver": {"steps": 200},
        }
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "price.json").read_text())
        assert out["price"] == 0.0

    def test_singular_alpha_numeraire_price_is_config_error(self, tmp_path, capsys):
        cfg_dict = heston_config()
        cfg_dict["model"]["alpha"] = [[0.04, 0.0], [0.0, 0.0]]
        cfg_dict["numeraire"] = {"o1": [[0.0, 0.0], [0.0, 0.0]], "o2": [[0.0, 0.0], [0.0, 0.0]],
                                 "o3": [[0.0, 0.0], [0.0, 0.0]]}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("configuration error:")

    def test_numeraire_price(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["numeraire"] = {
            "o1": [[0.02, 0.0], [0.0, 0.015]],
            "o2": [[0.04, 0.0], [0.0, 0.03]],
            "o3": [[0.025, 0.0], [0.0, 0.02]],
        }
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["price", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "price.json").read_text())
        assert out["kind"] == "numeraire" and np.isfinite(out["price"])


class TestVerifyCommand:
    def test_drift_match_pass(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["solver"] = {"steps": 2000}
        cfg_dict["verification"] = {"which": "drift-match", "samples": 20}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "verify.json").read_text())
        assert out["pass"] is True

    def test_transform_pass_and_determinism(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["verification"] = {"which": "transform", "paths": 20000, "steps": 120,
                                    "seed": 3, "u": [[0.5, 0.1], [0.1, 0.4]]}
        cfg = write_config(tmp_path, cfg_dict)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        b1 = (out1 / "verify.json").read_bytes()
        b2 = (out2 / "verify.json").read_bytes()
        assert b1 == b2

    def test_transform_fail_exit_code(self, tmp_path):
        # 3 Euler steps leave a bias far beyond three standard errors
        cfg_dict = heston_config()
        cfg_dict["verification"] = {"which": "transform", "paths": 30000, "steps": 3,
                                    "seed": 3, "u": [[1.2, 0.2], [0.2, 1.0]]}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VERIFY_FAIL

    def test_martingale_zero_market_exact(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["model"]["eta"] = [0.0, 0.0]
        cfg_dict["model"]["rho"] = [0.0, 0.0]
        cfg_dict["solver"] = {"steps": 100}
        cfg_dict["verification"] = {"which": "martingale", "paths": 1000, "steps": 20,
                                    "seed": 2, "n_perturbed": 0}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = json.loads((tmp_path / "verify.json").read_text())
        row = out["results"][0]
        assert row["ratio"] == 1.0 and row["stderr"] == 0.0
        assert row["verdict"] == "MARTINGALE"

    def test_unknown_which_is_config_error(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["verification"] = {"which": "nonsense"}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG


def bns_config():
    return {
        "schema_version": 1,
        "model": {
            "kind": "bns",
            "lambda0": [[0.09, 0.01], [0.01, 0.07]],
            "drift_h": [[-0.6, 0.05], [0.0, -0.45]],
            "b_jump": [[0.02, 0.0], [0.0, 0.015]],
            "atoms": [{"xi": [[0.12, 0.03], [0.03, 0.08]], "weight": 1.1}],
            "eta": [0.6, 0.35],
            "r0": [[0.3, 0.03], [0.03, 0.22]],
        },
        "horizon": 1.0,
    }


def heston_d3_config():
    return {
        "schema_version": 1,
        "model": {
            "kind": "heston",
            "alpha": [[0.04, 0.0, 0.0], [0.0, 0.05, 0.0], [0.0, 0.0, 0.03]],
            "b": [[0.2, 0.01, 0.0], [0.01, 0.25, 0.0], [0.0, 0.0, 0.15]],
            "drift_h": [[-0.5, 0.05, 0.0], [0.02, -0.6, 0.01], [0.0, 0.03, -0.4]],
            "eta": [0.5, 0.4, 0.3],
            "rho": [-0.3, -0.2, -0.1],
            "r0": [[0.3, 0.02, 0.01], [0.02, 0.25, 0.0], [0.01, 0.0, 0.2]],
        },
        "horizon": 1.0,
    }


def raw_affine_config(model):
    """A riccati-solve configuration on the affine parameters of a Heston model section."""
    eye = np.eye(len(model["alpha"]))
    return {
        "schema_version": 1,
        "model": {"kind": "raw-affine", "alpha": model["alpha"], "b": model["b"],
                  "drift": {"h": model["drift_h"]}},
        "horizon": 1.0,
        "generator": {"c_zz": (0.3 * eye).tolist(), "c_zsqrtx": (-0.2 * eye).tolist(),
                      "c_x": (0.4 * eye).tolist(), "a": (0.1 * eye).tolist(), "o2": eye.tolist()},
        "solver": {"steps": 40},
    }


def frozen_solution_csv(path, sol):
    """riccati_solution.csv as ``RiccatiSolution.to_csv`` wrote it itself, kept as the reference."""
    iu = np.triu_indices(sol.d)
    header = ["t"] + [f"gamma_{i}{j}" for i, j in zip(*iu)] + ["w"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(sol.grid):
            row = [t] + list(sol.gammas[k][iu]) + [sol.w[k]]
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def reference_paths_csv(path, cfg, n_paths, n_steps, seed):
    """paths.csv as simulate wrote it when it kept every path-step as a row list."""
    model = parse_model(_Parser(cfg), ("heston", "bns"))
    if isinstance(model, HestonModel):
        stream = simulate_wishart(model.params, model.r0, model.corr, model.eta_eff,
                                  cfg["horizon"], n_steps, n_paths, seed)
    else:
        stream = simulate_bns(model.spec, model.r0, model.eta_eff, cfg["horizon"], n_steps, n_paths, seed)
    d = model.d
    iu = list(zip(*np.triu_indices(d)))
    header = (["path", "t"] + [f"r_{i}{j}" for i, j in iu] + [f"n_{i}" for i in range(d)]
              + [f"o_{i}{j}" for i, j in iu])
    rows = []
    offset = 0
    for bundle in stream:
        for b in range(bundle.r.shape[0]):
            for k, t in enumerate(bundle.times):
                rows.append(
                    [offset + b, t]
                    + [bundle.r[b, k, i, j] for i, j in iu]
                    + list(bundle.n_log[b, k])
                    + [bundle.o[b, k, i, j] for i, j in iu]
                )
        offset += bundle.r.shape[0]
    write_csv(path, header, rows)


class TestSimulateCommand:
    @pytest.mark.parametrize("cfg, n_paths, n_steps, seed", [
        pytest.param(heston_config(), 100, 50, 4, id="heston"),
        pytest.param(heston_config(), STREAM_BLOCK + 5, 2, 1, id="heston-two-blocks"),
        pytest.param(heston_d3_config(), 7, 6, 2, id="heston-d3"),
        pytest.param(bns_config(), 40, 25, 3, id="bns"),
    ])
    def test_streamed_rows_match_row_loop(self, tmp_path, cfg, n_paths, n_steps, seed):
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                "--paths", str(n_paths), "--steps", str(n_steps), "--seed", str(seed)]
        assert main(argv) == EXIT_OK
        reference_paths_csv(str(tmp_path / "reference.csv"), cfg, n_paths, n_steps, seed)
        got = (tmp_path / "out" / "paths.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\n") == 1 + n_paths * (n_steps + 1)

    def test_path_dump_schema(self, tmp_path):
        cfg_dict = heston_config()
        cfg_dict["simulate"] = {"paths": 3, "steps": 10, "seed": 1}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "path,t,r_00,r_01,r_11,n_0,n_1,o_00,o_01,o_11"
        assert len(lines) == 1 + 3 * 11
        assert lines[-1].endswith("\r") is False  # LF endings only

    def test_bns_path_dump(self, tmp_path):
        cfg_dict = dict(bns_config(), simulate={"paths": 2, "steps": 8, "seed": 4})
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 9

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG


class TestFormatAndThreads:
    def test_json_format_embeds_solution(self, tmp_path):
        cfg = write_config(tmp_path, riccati_1d_degenerate_config())
        rc = main(["riccati-solve", "--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert rc == EXIT_OK
        assert not (tmp_path / "riccati_solution.csv").exists()
        summary = json.loads((tmp_path / "riccati_summary.json").read_text())
        assert len(summary["grid"]) == 501
        assert summary["gammas"][0][0][0] == pytest.approx(0.5, abs=1e-10)

    def test_thread_count_does_not_change_results(self):
        from affinebsde.portfolio import preset_bns_power

        preset = preset_bns_power(steps=100)
        strategies = [preset.opt_strategy_grid(40)]
        m1, s1, _ = preset.audit_strategies(strategies, n_paths=20000, seed=3, n_steps=40,
                                            threads=1)
        m2, s2, _ = preset.audit_strategies(strategies, n_paths=20000, seed=3, n_steps=40,
                                            threads=4)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)


def bns_config(**overrides):
    cfg = {
        "schema_version": 1,
        "model": {
            "kind": "bns",
            "lambda0": [[0.09, 0.01], [0.01, 0.07]],
            "drift_h": [[-0.6, 0.05], [0.0, -0.45]],
            "b_jump": [[0.02, 0.0], [0.0, 0.015]],
            "atoms": [{"xi": [[0.12, 0.03], [0.03, 0.08]], "weight": 1.1}],
            "eta": [0.6, 0.35],
            "r0": [[0.3, 0.03], [0.03, 0.22]],
        },
        "horizon": 1.0,
        "utility": {"kind": "exponential", "gamma": 0.8},
        "endowment": {"variance_swap": {"asset": 1, "strike": 0.15}},
        "solver": {"steps": 200},
    }
    cfg.update(overrides)
    return cfg


def swap_config(**overrides):
    cfg = heston_config(utility={"kind": "exponential", "gamma": 0.7},
                        endowment={"variance_swap": {"asset": 1, "strike": 0.2}})
    cfg.update(overrides)
    return cfg


def numeraire_config(drift_scale=1.0):
    cfg = heston_config()
    cfg["model"]["drift_h"] = (drift_scale * np.array(cfg["model"]["drift_h"])).tolist()
    cfg["numeraire"] = {"o1": [[0.02, 0.0], [0.0, 0.015]], "o2": [[0.04, 0.0], [0.0, 0.03]],
                        "o3": [[0.025, 0.0], [0.0, 0.02]]}
    return cfg


def with_section(cfg, section, **fields):
    cfg[section] = dict(cfg.get(section, {}), **fields)
    return cfg


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def scaled_shipped_config(name, key, factor):
    """A shipped configuration with one model leaf scaled."""
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    cfg["model"][key] = (factor * np.array(cfg["model"][key])).tolist()
    return cfg


def with_value(cfg, path, value):
    """cfg with the (dotted) key set to value."""
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[key] = value
    return cfg


def config_of_kind(kind, **sections):
    """A configuration with a model of ``kind`` (or an unknown kind) and the given sections."""
    models = {"heston": heston_config()["model"], "bns": bns_config()["model"],
              "raw-affine": riccati_1d_degenerate_config()["model"]}
    return dict({"schema_version": 1, "horizon": 1.0, "model": models.get(kind, {"kind": kind})}, **sections)


POWER = {"kind": "power", "gamma": 0.35}
EXPONENTIAL = {"kind": "exponential", "gamma": 0.7}
# (command, sections, the model kinds the command takes with them)
KIND_CASES = [
    ("riccati-solve", {}, {"raw-affine"}),
    ("portfolio", {"utility": POWER}, {"heston", "bns"}),
    ("price", {"utility": POWER, "numeraire": numeraire_config()["numeraire"]}, {"heston"}),
    ("price", {"utility": EXPONENTIAL}, {"heston", "bns"}),
    ("verify", {"utility": POWER, "verification": {"which": "martingale"}}, {"heston", "bns"}),
    ("verify", {"utility": POWER, "verification": {"which": "drift-match"}}, {"heston", "bns"}),
    ("verify", {"verification": {"which": "transform"}}, {"heston", "bns", "raw-affine"}),
    ("simulate", {}, {"heston", "bns"}),
]
KIND_REFUSALS = [(command, sections, kind) for command, sections, takes in KIND_CASES
                 for kind in ("heston", "bns", "raw-affine", "nope") if kind not in takes]

# Before these were refused, each exited 0 with the value of the same problem
# without its endowment section.
DROPPED_ENDOWMENTS = {
    "heston-power-variance-swap": ("portfolio", heston_config(
        endowment={"variance_swap": {"asset": 1, "strike": 0.2}}), "no variance swap"),
    "heston-power-strike": ("portfolio", heston_config(
        endowment={"a": [[-0.25, 0.0], [0.0, -0.15]], "strike": 3.0}), "no endowment strike"),
    "exponential-general-endowment": ("portfolio", swap_config(endowment={
        "a": [[0.1, 0.0], [0.0, 0.1]], "sigma": [[0.2, 0.0], [0.0, 0.2]],
        "o1": [[0.01, 0.0], [0.0, 0.01]], "o2": [[0.02, 0.0], [0.0, 0.02]]}), "general endowment"),
    "exponential-swap-asset-0-strike": ("portfolio", swap_config(
        endowment={"variance_swap": {"asset": 0, "strike": 0.2}}), "strike needs an asset"),
    "bns-power-endowment": ("portfolio", bns_config(
        utility={"kind": "power", "gamma": 0.3}, endowment={"a": [[0.1, 0.0], [0.0, 0.1]]}),
        "general endowment"),
    "bns-power-variance-swap": ("portfolio", bns_config(utility={"kind": "power", "gamma": 0.3}),
                                "no variance swap"),
    "price-power-endowment": ("price", dict(numeraire_config(), endowment={"a": [[0.1, 0.0], [0.0, 0.1]]}),
                              "takes no 'endowment'"),
    # keys that no endowment form reads
    "swap-with-general-keys": ("portfolio", swap_config(endowment={
        "variance_swap": {"asset": 1, "strike": 0.2}, "a": [[5.0, 0.0], [0.0, 5.0]]}),
        "'endowment' takes only ['variance_swap'], not ['a']"),
    "swap-strike-misspelt": ("portfolio", swap_config(endowment={"variance_swap": {"asset": 1, "Strike": 0.9}}),
                             "'endowment.variance_swap' takes only ['asset', 'strike'], not ['Strike']"),
    "general-key-misspelt": ("portfolio", heston_config(endowment={"A": [[-0.25, 0.0], [0.0, -0.15]]}),
                             "not ['A']"),
}


# Before these were refused, each exited 0 (or exited 2 or 3 on a later,
# misleading error): a string "false" read as true, NaN and Infinity passed
# through json into the model, and a misspelt key was dropped.
PARSER_REFUSALS = {
    "heston-ordinary-exponential-string": ("portfolio", with_value(
        heston_config(), "model.ordinary_exponential", "false"),
        "'model.ordinary_exponential' must be true or false, got 'false'"),
    "bns-ordinary-exponential-int": ("portfolio", with_value(
        bns_config(), "model.ordinary_exponential", 0),
        "'model.ordinary_exponential' must be true or false, got 0"),
    "generator-matrix-nan": ("riccati-solve", with_value(
        riccati_1d_degenerate_config(), "generator.c_x", [[float("nan")]]), "'generator.c_x' must be finite"),
    "alpha-infinity": ("portfolio", with_value(
        heston_config(), "model.alpha", [[float("inf"), 0.012], [0.012, 0.0333]]), "'model.alpha' must be finite"),
    "eta-nan": ("portfolio", with_value(heston_config(), "model.eta", [float("nan"), 0.1]),
                "'model.eta' must be finite"),
    "betas-nan": ("riccati-solve", with_value(riccati_1d_degenerate_config(), "model.drift",
                                              {"betas": [[[[float("nan")]]]]}), "'model.drift.betas' must be finite"),
    "solver-key": ("riccati-solve", with_section(riccati_1d_degenerate_config(), "solver", stepz=10),
                   "'solver' takes only ['blowup_norm', 'method', 'steps'], not ['stepz']"),
    "terminal-key": ("riccati-solve", with_section(riccati_1d_degenerate_config(), "terminal", vv=3),
                     "'terminal' takes only ['u', 'v'], not ['vv']"),
    "utility-key": ("price", with_section(swap_config(), "utility", gama=0.5),
                    "'utility' takes only ['gamma', 'kind'], not ['gama']"),
    "heston-model-key": ("simulate", with_section(heston_config(), "model", rho_=[0.1, 0.1]), "not ['rho_']"),
    "bns-model-key": ("portfolio", with_section(bns_config(), "model", rho=[0.1, 0.1]), "not ['rho']"),
    "raw-affine-model-key": ("riccati-solve", with_section(riccati_1d_degenerate_config(), "model", h=[[0.5]]),
                             "not ['h']"),
}


# one base configuration per command, each reading the sections its command parses
NON_OBJECT_CASES = [
    ("riccati-solve", riccati_1d_degenerate_config, "model"),
    ("riccati-solve", riccati_1d_degenerate_config, "generator"),
    ("riccati-solve", riccati_1d_degenerate_config, "terminal"),
    ("riccati-solve", riccati_1d_degenerate_config, "solver"),
    ("portfolio", heston_config, "model"),
    ("portfolio", heston_config, "utility"),
    ("portfolio", heston_config, "endowment"),
    ("portfolio", heston_config, "solver"),
    ("portfolio", swap_config, "endowment.variance_swap"),
    ("price", numeraire_config, "numeraire"),
    ("price", numeraire_config, "utility"),
    ("price", numeraire_config, "model"),
    ("price", swap_config, "endowment"),
    ("price", swap_config, "solver"),
    ("verify", lambda: heston_config(verification={"which": "transform"}), "verification"),
    ("verify", lambda: heston_config(verification={"which": "transform"}), "model"),
    ("verify", lambda: heston_config(verification={"which": "martingale"}), "solver"),
    ("verify", lambda: heston_config(verification={"which": "drift-match"}), "utility"),
    ("verify", lambda: heston_config(verification={"which": "drift-match"}), "endowment"),
    ("simulate", heston_config, "simulate"),
    ("simulate", heston_config, "model"),
]


class TestExitCodes:
    """Every rejected input exits 2 or 3 with one line on stderr and no traceback."""

    def run_failing(self, tmp_path, capsys, command, cfg, expected, *flags):
        out = tmp_path / "out"
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == expected
        assert "Traceback" not in err
        prefix = "configuration error:" if expected == EXIT_CONFIG else "numerical failure:"
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), err
        return lines[0]

    @pytest.mark.parametrize("command, cfg", [
        # no model could be parsed: parsing used to carry on with model = None
        pytest.param("verify", with_section(heston_config(model={"kind": "nope"}), "verification",
                                            which="transform"), id="verify-model-kind"),
        # the variance-swap weight divides by the horizon
        pytest.param("portfolio", swap_config(horizon=0), id="portfolio-swap-horizon-0"),
        pytest.param("verify", with_section(swap_config(horizon=0), "verification",
                                            which="drift-match"), id="verify-swap-horizon-0"),
        # integer and number fields
        pytest.param("portfolio", swap_config(endowment={"variance_swap": {"asset": "first"}}),
                     id="swap-asset-string"),
        pytest.param("portfolio", swap_config(endowment={"variance_swap": {"asset": 1.5}}),
                     id="swap-asset-fraction"),
        pytest.param("verify", with_section(heston_config(), "verification", which="transform",
                                            seed="x"), id="verification-seed"),
        pytest.param("verify", with_section(heston_config(), "verification", which="transform",
                                            paths=0), id="verification-paths"),
        pytest.param("verify", with_section(heston_config(), "verification", which="transform",
                                            steps=None), id="verification-steps"),
        pytest.param("verify", with_section(heston_config(), "verification", which="martingale",
                                            n_perturbed=-1), id="verification-n-perturbed"),
        pytest.param("verify", with_section(heston_config(), "verification", which="drift-match",
                                            samples=[50]), id="verification-samples"),
        pytest.param("verify", with_section(heston_config(), "verification", which="drift-match",
                                            seed=1e400), id="drift-match-seed-inf"),
        pytest.param("simulate", with_section(heston_config(), "simulate", paths="many"),
                     id="simulate-paths"),
        pytest.param("simulate", with_section(heston_config(), "simulate", seed=-1),
                     id="simulate-seed"),
        # simulate has no engine for a raw affine model
        pytest.param("simulate", riccati_1d_degenerate_config(), id="simulate-raw-affine"),
        pytest.param("portfolio", with_section(heston_config(), "solver", steps=2.5),
                     id="solver-steps-fraction"),
        pytest.param("riccati-solve", with_section(riccati_1d_degenerate_config(), "solver",
                                                   steps="300"), id="solver-steps-string"),
        pytest.param("riccati-solve", with_section(riccati_1d_degenerate_config(), "solver",
                                                   blowup_norm=-1.0), id="solver-blowup-norm"),
        # number lists
        pytest.param("portfolio", heston_config(x_values=["one"]), id="x-values-string"),
        pytest.param("portfolio", heston_config(x_values=[]), id="x-values-empty"),
        pytest.param("price", dict(numeraire_config(), x_values=[float("nan")]), id="x-values-nan"),
        # power utility has no value at negative wealth
        pytest.param("portfolio", heston_config(x_values=[-1.0]), id="x-values-negative-power"),
        # a solver the riccati-solve command does not have
        pytest.param("riccati-solve", with_section(riccati_1d_degenerate_config(), "solver",
                                                   method="euler"), id="solver-method"),
    ])
    def test_config_errors_exit_2(self, tmp_path, capsys, command, cfg):
        self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG)
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("command, config, flags, bad", [
        # a given flag gets the check of its config value, not a fallback to it
        pytest.param("simulate", "heston_power_portfolio.json", ["--paths", "-3", "--steps", "5"],
                     "--paths", id="simulate-paths-negative"),
        pytest.param("simulate", "heston_power_portfolio.json", ["--steps", "0"], "--steps",
                     id="simulate-steps-0"),
        pytest.param("simulate", "heston_power_portfolio.json", ["--seed", "-1", "--paths", "2"],
                     "--seed", id="simulate-seed-negative"),
        pytest.param("riccati-solve", "riccati_degenerate_1d.json", ["--steps", "0"], "--steps",
                     id="riccati-solve-steps-0"),
        pytest.param("portfolio", "heston_power_portfolio.json", ["--steps", "-4"], "--steps",
                     id="portfolio-steps-negative"),
        pytest.param("verify", "heston_verify_transform.json", ["--paths", "-3"], "--paths",
                     id="verify-transform-paths-negative"),
        pytest.param("verify", "heston_verify_transform.json",
                     ["--paths", "4", "--steps", "3", "--threads", "0"], "--threads",
                     id="verify-transform-threads-0"),
        pytest.param("verify", "heston_verify_transform.json",
                     ["--paths", "4", "--steps", "3", "--threads", "-1"], "--threads",
                     id="verify-transform-threads-negative"),
    ])
    def test_bad_count_flag_is_config_error(self, tmp_path, capsys, command, config, flags, bad):
        cfg = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG, *flags)
        assert f"'{bad}' must be >=" in line
        assert not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("config, flags, line", [
        pytest.param("heston_verify_transform.json", ["--paths", "1", "--steps", "2"], "'--paths' must be >= 2",
                     id="transform-flag"),
        pytest.param("bns_exp_verify_martingale.json", ["--paths", "1"], "'--paths' must be >= 2",
                     id="martingale-flag"),
        pytest.param("heston_verify_transform.json", [], "'verification.paths' must be >= 2",
                     id="transform-config"),
    ])
    def test_one_verification_path_is_config_error(self, tmp_path, capsys, config, flags, line):
        # a standard error needs two paths; one path used to run the whole
        # simulation and then exit 3 on a NaN stderr, after numpy's warning
        cfg = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
        if not flags:
            cfg["verification"]["paths"] = 1
        assert self.run_failing(tmp_path, capsys, "verify", cfg, EXIT_CONFIG, *flags) == \
            f"configuration error: {line}"
        assert not os.listdir(tmp_path / "out")

    def test_simulate_takes_one_path(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(CONFIGS / "heston_power_portfolio.json"), "--out", str(tmp_path),
                   "--paths", "1", "--steps", "2"])
        assert rc == EXIT_OK and capsys.readouterr().err == ""
        assert (tmp_path / "paths.csv").read_text().count("\n") == 1 + 3

    @pytest.mark.parametrize("diffusion, mu_atoms, message", [
        # the jump-OU paths have no diffusion, so they would check alpha = 0 (a false FAIL)
        (True, [], "'model.alpha' together with 'model.m_atoms'"),
        # the paths have no linear jumps, so they would check another model (a false PASS);
        # the atom lies outside the truncation ball (||xi||_F > 1), so the model is admissible
        (False, [{"xi": [[1.5, 0.3], [0.3, 1.2]], "u": [[0.002, 0.0], [0.0, 0.002]]}],
         "'model.mu_atoms'"),
    ], ids=["alpha-with-m-atoms", "mu-atoms"])
    def test_transform_check_refuses_what_it_cannot_simulate(self, tmp_path, capsys, diffusion,
                                                             mu_atoms, message):
        heston = heston_config()["model"]
        cfg = {
            "schema_version": 1,
            "horizon": 1.0,
            "model": {
                "kind": "raw-affine",
                "alpha": heston["alpha"] if diffusion else [[0.0, 0.0], [0.0, 0.0]],
                "b": heston["b"],
                "drift": {"h": heston["drift_h"]},
                "r0": heston["r0"],
                "m_atoms": [{"xi": [[0.1, 0.02], [0.02, 0.08]], "weight": 0.8}],
                "mu_atoms": mu_atoms,
            },
            "verification": {"which": "transform", "paths": 40000, "steps": 200, "seed": 3,
                             "u": [[0.8, 0.2], [0.2, 0.6]]},
        }
        line = self.run_failing(tmp_path, capsys, "verify", cfg, EXIT_CONFIG)
        assert message in line
        assert not os.listdir(tmp_path / "out")

    def test_block_exp_refuses_nonzero_terminal_u(self, tmp_path, capsys):
        cfg = riccati_1d_degenerate_config()
        cfg["terminal"] = {"u": [[0.3]], "v": 1.5}
        cfg["solver"] = {"steps": 200, "method": "block-exp"}
        line = self.run_failing(tmp_path, capsys, "riccati-solve", cfg, EXIT_CONFIG)
        assert "terminal.u" in line
        assert not os.listdir(tmp_path / "out")

    def test_block_exp_on_general_drift_is_config_error(self, tmp_path, capsys):
        cfg = riccati_1d_degenerate_config()
        cfg["model"]["drift"] = {"betas": [[[[0.5]]]]}
        cfg["solver"] = {"steps": 100, "method": "block-exp"}
        line = self.run_failing(tmp_path, capsys, "riccati-solve", cfg, EXIT_CONFIG)
        assert "H-form" in line

    @pytest.mark.parametrize("drift_scale, message", [
        (-100.0, "trajectory norm"),  # RiccatiBlowUpError
        (1000.0, "A_22 singular"),  # BlockExpSingularError
    ])
    def test_numeraire_price_numerical_failure(self, tmp_path, capsys, drift_scale, message):
        line = self.run_failing(tmp_path, capsys, "price", numeraire_config(drift_scale),
                                EXIT_NUMERICAL)
        assert message in line

    def test_non_finite_varpi_is_numerical_failure(self, tmp_path, capsys):
        cfg = bns_config(verification={"which": "drift-match", "samples": 5})
        cfg["model"]["eta"] = [6000.0, 3500.0]
        line = self.run_failing(tmp_path, capsys, "verify", cfg, EXIT_NUMERICAL)
        assert "varpi" in line

    @pytest.mark.parametrize("factor, message", [
        (1e4, "oriented ratio is not finite"),  # E[L_T]^2 underflows
    ])
    def test_degenerate_martingale_ratio_is_numerical_failure(self, tmp_path, capsys, factor,
                                                               message):
        cfg = scaled_shipped_config("bns_exp_verify_martingale.json", "lambda0", factor)
        line = self.run_failing(tmp_path, capsys, "verify", cfg, EXIT_NUMERICAL,
                                "--paths", "64", "--steps", "20")
        assert message in line

    @pytest.mark.parametrize("command, cfg, check", [
        # alpha x 10 breaks b >= (d-1) alpha; before the check these exited 0, 0 and 4
        pytest.param("portfolio", scaled_shipped_config("heston_power_portfolio.json", "alpha", 10.0),
                     "b_dominates", id="portfolio-alpha-x10"),
        pytest.param("price", scaled_shipped_config("heston_exp_swap_price.json", "alpha", 10.0),
                     "b_dominates", id="price-alpha-x10"),
        pytest.param("verify", scaled_shipped_config("heston_verify_transform.json", "alpha", 10.0),
                     "b_dominates", id="verify-transform-alpha-x10"),
        # lambda0 x -1e4 makes the BNS constant drift b = lambda0 + b_jump negative definite
        pytest.param("verify", scaled_shipped_config("bns_exp_verify_martingale.json", "lambda0", -1e4),
                     "b_dominates", id="verify-martingale-bns-lambda0-x-1e4"),
        # a linear-jump atom inside the truncation ball pulls the drift out of the cone
        pytest.param("riccati-solve", {
            "schema_version": 1, "horizon": 1.0,
            "model": {"kind": "raw-affine", "alpha": heston_config()["model"]["alpha"],
                      "b": heston_config()["model"]["b"],
                      "drift": {"h": heston_config()["model"]["drift_h"]},
                      "mu_atoms": [{"xi": [[0.1, 0.02], [0.02, 0.08]], "u": [[0.002, 0.0], [0.0, 0.002]]}]},
            "solver": {"steps": 50},
        }, "inward_drift", id="riccati-solve-mu-atom-inside-ball"),
    ])
    def test_inadmissible_model_is_config_error(self, tmp_path, capsys, command, cfg, check):
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG,
                                "--paths", "64", "--steps", "20")
        assert "not admissible" in line and check in line
        assert not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("command, name, key, what", [
        ("price", "heston_numeraire_price.json", "b", "price"),
        ("portfolio", "heston_power_portfolio.json", "b", "value_at"),
        ("portfolio", "heston_power_portfolio.json", "r0", "value_at"),
    ])
    def test_non_finite_shipped_value_is_numerical_failure(self, tmp_path, capsys, command, name,
                                                           key, what):
        cfg = scaled_shipped_config(name, key, 1e6)
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_NUMERICAL)
        assert f"{what} is not finite" in line
        assert not os.listdir(tmp_path / "out")  # nothing is written before the check

    def test_non_finite_transform_check_is_numerical_failure(self, tmp_path, capsys):
        # r0 x 1e200 overflows the Euler paths: the Monte Carlo mean is NaN
        cfg = scaled_shipped_config("heston_verify_transform.json", "r0", 1e200)
        line = self.run_failing(tmp_path, capsys, "verify", cfg, EXIT_NUMERICAL,
                                "--paths", "16394", "--steps", "20")
        assert "transform check is not finite" in line
        assert not os.listdir(tmp_path / "out")

    def test_linalg_failure_is_numerical_not_config(self, tmp_path, capsys):
        cfg = scaled_shipped_config("heston_power_portfolio.json", "drift_h", 1e8)
        line = self.run_failing(tmp_path, capsys, "portfolio", cfg, EXIT_NUMERICAL)
        assert "SVD did not converge" in line

    @pytest.mark.parametrize("command, which", [
        ("verify", "martingale"), ("verify", "transform"), ("simulate", "martingale"),
    ], ids=["verify-martingale", "verify-transform", "simulate"])
    def test_jump_draws_over_budget_are_config_error(self, tmp_path, capsys, command, which):
        # drawn over the whole RNG block, these jumps would need about 6 GiB of path ids
        cfg = json.loads((CONFIGS / "bns_exp_verify_martingale.json").read_text(encoding="utf-8"))
        cfg["model"]["atoms"][0]["weight"] = 1e6
        cfg["verification"]["which"] = which
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG,
                                "--paths", "64", "--steps", "20")
        assert "over the budget" in line

    @pytest.mark.parametrize("config", ["heston_power_portfolio.json", "bns_exp_verify_martingale.json"])
    def test_simulate_over_path_step_budget_is_config_error(self, tmp_path, capsys, config):
        # simulate keeps every path: 1e8 paths x 1001 times would need tens of TB
        cfg = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
        tracemalloc.start()
        try:
            line = self.run_failing(tmp_path, capsys, "simulate", cfg, EXIT_CONFIG,
                                    "--paths", "100000000", "--steps", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "over the budget" in line
        assert peak < 16 * 2**20  # refused before the first path is allocated
        assert not (tmp_path / "out" / "paths.csv").exists()

    @pytest.mark.parametrize("command", ["riccati-solve", "portfolio", "price", "verify", "simulate"])
    def test_top_level_list_is_config_error(self, tmp_path, capsys, command):
        line = self.run_failing(tmp_path, capsys, command, [heston_config()], EXIT_CONFIG)
        assert "must be a JSON object" in line

    @pytest.mark.parametrize("command, sections, kind", KIND_REFUSALS, ids=[
        "-".join(filter(None, [c, s.get("verification", {}).get("which") or s.get("utility", {}).get("kind"), k]))
        for c, s, k in KIND_REFUSALS])
    def test_command_refuses_model_kind(self, tmp_path, capsys, command, sections, kind):
        line = self.run_failing(tmp_path, capsys, command, config_of_kind(kind, **sections), EXIT_CONFIG)
        assert "'model.kind' must be" in line and repr(kind) in line
        assert not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("case", sorted(DROPPED_ENDOWMENTS))
    def test_endowment_the_problem_would_drop_is_refused(self, tmp_path, capsys, case):
        command, cfg, message = DROPPED_ENDOWMENTS[case]
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG)
        assert message in line
        assert not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("case", sorted(PARSER_REFUSALS))
    def test_parser_refuses_what_it_used_to_pass(self, tmp_path, capsys, case):
        command, cfg, message = PARSER_REFUSALS[case]
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG)
        assert message in line
        assert not os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("make_cfg", [heston_config, bns_config], ids=["heston", "bns"])
    def test_ordinary_exponential_takes_a_boolean(self, tmp_path, make_cfg):
        payloads = []
        for flag in (False, True):
            out = tmp_path / str(flag)
            cfg = with_value(make_cfg(), "model.ordinary_exponential", flag)
            assert main(["portfolio", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
            payloads.append((out / "portfolio.json").read_text())
        assert payloads[0] != payloads[1]  # the flag shifts eta by 1/2

    @pytest.mark.parametrize("command, make_cfg, section", NON_OBJECT_CASES,
                             ids=[f"{c}-{s}" for c, _, s in NON_OBJECT_CASES])
    def test_non_object_section_is_config_error(self, tmp_path, capsys, command, make_cfg, section):
        cfg = with_value(make_cfg(), section, 5)
        line = self.run_failing(tmp_path, capsys, command, cfg, EXIT_CONFIG)
        assert line == f"configuration error: '{section}' must be an object"


SHIPPED_COMMANDS = {
    "bns_exp_verify_martingale.json": "verify",
    "heston_exp_swap_price.json": "price",
    "heston_numeraire_price.json": "price",
    "heston_power_portfolio.json": "portfolio",
    "heston_power_verify_drift_match.json": "verify",
    "heston_verify_transform.json": "verify",
    "riccati_degenerate_1d.json": "riccati-solve",
}


class TestBenchmarkInputsAreAdmissible:
    """The models the benchmark runs pass the check, so none of its operations exits 2."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_COMMANDS))
    def test_shipped_config(self, name):
        cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
        parse_model(_Parser(cfg), ("heston", "bns", "raw-affine"))  # raises ConfigError, naming the failed check, otherwise

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_configs_have_exactly_inward_drift(self, bench_workloads, seed):
        for tag, (cfg, _) in bench_workloads.generated_configs(seed, 10).items():
            report = validate_admissibility(parse_model(_Parser(cfg), ("raw-affine",)))
            assert report.passed, f"{tag}: {report}"
            assert report.checks["inward_drift"].detail.endswith("min = 0.0"), tag


# integer counts and seeds have their own exit-code cases; scaled up, a count
# such as verification.samples only makes a run long
COUNT_KEYS = {"schema_version", "steps", "paths", "seed", "samples", "n_perturbed"}


def numeric_leaves(node, path=()):
    """Paths to the numbers of a JSON tree, skipping the integer counts."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() if key not in COUNT_KEYS
                for leaf in numeric_leaves(value, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in numeric_leaves(value, path + (i,))]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    return []


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(SHIPPED_COMMANDS)))
def test_scaled_shipped_config_keeps_the_exit_contract(data, name):
    """Any config one or two scaled leaves away from a shipped one exits 0/2/3/4, cleanly."""
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    leaves = numeric_leaves(cfg)
    picked = data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2, unique=True))
    for path in picked:
        factor = data.draw(st.sampled_from([-1.0, 0.0, 1e-9, 0.5, 3.0, 10.0, 1e8, 1e200]))
        *parents, key = path
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = factor * node[key]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = pathlib.Path(tmp) / "out"
        rc = main([SHIPPED_COMMANDS[name], "--config", write_config(pathlib.Path(tmp), cfg),
                   "--out", str(out), "--paths", "64", "--steps", "20"])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VERIFY_FAIL)
        assert "Traceback" not in err.getvalue()
        for path in out.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)


class TestWarnings:
    @pytest.mark.parametrize("command", ["portfolio", "price"])
    def test_symmetrization_warning_printed_once(self, tmp_path, capsys, command):
        cfg = swap_config()
        cfg["model"]["alpha"] = [[0.0493, 0.0121], [0.012, 0.0333]]
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err.strip().splitlines() == [
            "warning: symmetrized 'model.alpha' (asymmetry 1.000e-04)"
        ]


def test_module_entry_point_writes_nothing_to_stderr():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "affinebsde.cli", "--help"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: affinebsde")
    assert proc.stderr == ""


# Runs in a fresh interpreter: the commands of argv lists (argv[1], JSON) in
# order, each followed by whether scipy is loaded; then, if it is, whether
# mat_exp and scipy.linalg.expm agree bit for bit.  The last stdout line is JSON.
SCIPY_CHILD = """
import contextlib, io, json, sys
import numpy as np
import affinebsde, affinebsde.cli
loaded = [("import", "scipy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = affinebsde.cli.main(argv)
    loaded.append((" ".join(argv[:3]), rc, "scipy" in sys.modules))
same = None
if "scipy" in sys.modules:
    import scipy.linalg
    from affinebsde.symcone import mat_exp
    a = np.random.default_rng(5).standard_normal((4, 4))
    same = all(np.array_equal(mat_exp(x).view(np.uint64), scipy.linalg.expm(x).view(np.uint64))
               for x in (a, 0.01 * a, 30.0 * a, np.zeros((3, 3))))
print(json.dumps({"loaded": loaded, "same": same}))
"""


def test_scipy_is_imported_by_the_first_matrix_exponential_only(tmp_path, bench_workloads):
    """Commands that never call mat_exp never load scipy, which costs about 0.2 s of every start."""
    cfg, _ = bench_workloads.generated_configs(0, 200)["d2"]
    generated = {}
    for method in ("rk4", "rk45"):
        cfg["solver"]["method"] = method
        generated[method] = write_config(tmp_path, cfg, f"d2-{method}.json")
    out = str(tmp_path / "out")
    free = [
        ["riccati-solve", "--config", str(CONFIGS / "riccati_degenerate_1d.json")],
        ["riccati-solve", "--config", generated["rk4"]],
        ["riccati-solve", "--config", generated["rk45"]],
        ["price", "--config", str(CONFIGS / "heston_exp_swap_price.json")],
        ["verify", "--config", str(CONFIGS / "heston_verify_transform.json"), "--paths", "64", "--steps", "20"],
        ["simulate", "--config", str(CONFIGS / "heston_power_portfolio.json")],
    ]
    runs = [argv + ["--out", out] for argv in free]
    runs.append(["portfolio", "--config", str(CONFIGS / "heston_power_portfolio.json"), "--out", out])
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_CHILD, json.dumps(runs)], capture_output=True,
                          text=True, env=env, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    loaded = result["loaded"]
    assert loaded[0] == ["import", False]
    for label, rc, scipy_loaded in loaded[1:-1]:
        assert (rc, scipy_loaded) == (EXIT_OK, False), label
    assert loaded[-1][1:] == [EXIT_OK, True]  # portfolio exponentiates the Heston power block
    assert result["same"] is True
