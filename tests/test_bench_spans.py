"""Every span name the benchmark's tracer reports names a function of the package.

``bench/run.py`` lists its per-layer metrics in ``LAYERS`` and ``bench/tracing.py``
names the private helpers it wraps (``PRIVATE``) and the Monte Carlo functionals
whose counters it aggregates (``FUNCTIONALS``).  The tracer skips a name it cannot
find, so renaming a traced function would silently zero its metrics.  This test
reads those three constants and the package sources with stdlib ``ast``, without
importing either.  A name resolves when walking its dotted parts from the module
reaches a function or a method; the rest of the name is a suffix the tracer adds
(``riccati.solve_rk.rk4`` is ``solve_rk`` with its method argument).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affinebsde"


def module_constant(path: pathlib.Path, name: str):
    """The literal value assigned to a module-level name."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path.name}")


def resolves(dotted: str) -> bool:
    module, *parts = dotted.split(".")
    path = PACKAGE / f"{module}.py"
    if not path.exists():
        return False
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for part in parts:
        hit = next((n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part), None)
        if hit is None:
            return False
        if isinstance(hit, ast.FunctionDef):
            return True
        scope = hit.body
    return False


def span_names() -> list[str]:
    names = list(module_constant(ROOT / "bench" / "run.py", "LAYERS"))
    tracing = ROOT / "bench" / "tracing.py"
    names += [f"{mod}.{fn}" for mod, fns in module_constant(tracing, "PRIVATE").items() for fn in fns]
    names += list(module_constant(tracing, "FUNCTIONALS"))
    return names


def test_resolver_walks_functions_methods_and_suffixes():
    assert resolves("riccati.solve_rk.rk4")
    assert resolves("portfolio.UtilityPreset.audit_strategies")
    assert resolves("simulator._block_rng")
    assert not resolves("riccati.no_such_function")
    assert not resolves("portfolio.UtilityPreset")
    assert not resolves("nomodule.solve_rk")


@pytest.mark.parametrize("name", span_names())
def test_span_name_resolves(name):
    assert resolves(name), f"{name} names no function in the package"
