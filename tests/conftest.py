import importlib.util
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rand_sym(rng, d, scale=1.0):
    g = rng.standard_normal((d, d))
    return 0.5 * scale * (g + g.T)


def rand_psd(rng, d, scale=1.0, ridge=0.0):
    g = rng.standard_normal((d, d))
    return scale * (g @ g.T) / d + ridge * np.eye(d)


def rand_pd(rng, d, scale=1.0):
    return rand_psd(rng, d, scale=scale, ridge=0.1 * scale)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def bench_workloads():
    """bench/workloads.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
