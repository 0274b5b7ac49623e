#!/usr/bin/env python3
"""Write example CLI configurations (one per command family) into ./configs."""

import os

from affinebsde.cli import dump_json

HESTON_MODEL = {
    "kind": "heston",
    "alpha": [[0.0493, 0.012], [0.012, 0.0333]],
    "b": [[0.1479, 0.036], [0.036, 0.0999]],
    "drift_h": [[-0.7, 0.06], [0.03, -0.55]],
    "eta": [0.65, 0.4],
    "rho": [-0.45, -0.25],
    "r0": [[0.32, 0.04], [0.04, 0.26]],
}

BNS_MODEL = {
    "kind": "bns",
    "lambda0": [[0.09, 0.01], [0.01, 0.07]],
    "drift_h": [[-0.6, 0.05], [0.0, -0.45]],
    "b_jump": [[0.02, 0.0], [0.0, 0.015]],
    "atoms": [
        {"xi": [[0.12, 0.03], [0.03, 0.08]], "weight": 1.1},
        {"xi": [[0.15, 0.0], [0.0, 0.02]], "weight": 0.7},
        {"xi": [[0.05, -0.02], [-0.02, 0.09]], "weight": 0.5},
    ],
    "eta": [0.6, 0.35],
    "r0": [[0.3, 0.03], [0.03, 0.22]],
}

CONFIGS = {
    "riccati_degenerate_1d.json": {
        "schema_version": 1,
        "model": {"kind": "raw-affine", "alpha": [[0.25]], "b": [[0.0]], "drift": {"h": [[0.5]]}},
        "horizon": 1.0,
        "generator": {"c_zz": [[0.0]], "c_zsqrtx": [[-1.0]], "c_x": [[0.5]]},
        "terminal": {"u": [[0.0]], "v": 0.0},
        "solver": {"steps": 2000},
    },
    "heston_power_portfolio.json": {
        "schema_version": 1,
        "model": HESTON_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "solver": {"steps": 2000},
        "x_values": [0.5, 1.0, 2.0],
    },
    "heston_exp_swap_price.json": {
        "schema_version": 1,
        "model": HESTON_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "exponential", "gamma": 0.7},
        "endowment": {"variance_swap": {"asset": 1, "strike": 0.2}},
        "solver": {"steps": 2000},
    },
    "heston_numeraire_price.json": {
        "schema_version": 1,
        "model": HESTON_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "numeraire": {
            "o1": [[0.02, 0.0], [0.0, 0.015]],
            "o2": [[0.04, 0.0], [0.0, 0.03]],
            "o3": [[0.025, 0.0], [0.0, 0.02]],
        },
        "solver": {"steps": 2000},
    },
    "bns_exp_verify_martingale.json": {
        "schema_version": 1,
        "model": BNS_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "exponential", "gamma": 0.8},
        "endowment": {"variance_swap": {"asset": 1, "strike": 0.15}},
        "solver": {"steps": 2000},
        "verification": {"which": "martingale", "paths": 100000, "steps": 500, "seed": 7,
                         "n_perturbed": 8},
    },
    "heston_power_verify_drift_match.json": {
        "schema_version": 1,
        "model": HESTON_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "solver": {"steps": 2000},
        "verification": {"which": "drift-match", "samples": 50, "seed": 7},
    },
    "heston_verify_transform.json": {
        "schema_version": 1,
        "model": HESTON_MODEL,
        "horizon": 1.0,
        "utility": {"kind": "power", "gamma": 0.35},
        "verification": {"which": "transform", "paths": 100000, "steps": 500, "seed": 7,
                         "u": [[0.8, 0.2], [0.2, 0.6]]},
    },
}


def main():
    os.makedirs("configs", exist_ok=True)
    for name, cfg in CONFIGS.items():
        path = os.path.join("configs", name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dump_json(cfg) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
