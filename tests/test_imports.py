"""Every name a module of the package imports is used, and every public name is reached.

``unused_imports`` is a stdlib-``ast`` stand-in for a linter's unused-import
rule: a name counts as used when it appears as an identifier anywhere in the
module (annotations included) or is listed in ``__all__``.  ``from __future__``
imports are exempt.

``unreached_names`` is a dead-code rule: a public function, class or method of
the package must be named by the code of the package, ``scripts/``, ``bench/`` or
the acceptance gate besides its own definition.  Unit tests do not count, so
an engine that only its tests call fails here.  Only code counts: names,
attributes, imported names and string constants that are dotted identifiers
(such as the span names in bench's ``LAYERS``); a name that occurs only in
docstrings or comments is unreached.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affinebsde"
MODULES = sorted(PACKAGE.glob("*.py"))
REACHING = (MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])

# Public names that stay without a caller in the files above, one reason each.
UNREACHED_ALLOWED = {
    "psd_project": "oracle: the tests check the batched clamp against it",
    "terminal_value": "oracle: test_bsde's terminal identity compares against it",
    "pi_opt": "oracle: the golden 1-d strategy that test_portfolio compares the solvers against",
    "wishart_params": "public constructor of the Wishart parameter set",
    "truncation": "oracle: test_riccati's reference theta spells out chi(xi) with it",
    "drift_match_residual": "the drift-match arbiter at one point: drift_match_stats shares its pass, "
                            "and test_bsde checks single points with it",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_unused_and_accepts_used():
    src = ("from __future__ import annotations\nimport os\nimport sys as system\n"
           "from typing import Optional\nx: Optional[int] = system.maxsize\n")
    assert unused_imports(src) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source: str) -> list[str]:
    """Names of the module-level public functions and classes and of their public methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [sub.name for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return names


DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def code_identifiers(source: str) -> set[str]:
    """Identifiers named by the code of a module; definitions, docstrings and comments do not count."""
    seen = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_IDENTIFIER.fullmatch(node.value)):
            seen.update(node.value.split("."))
    return seen


def unreached_names(definitions: list[str], texts: list[str]) -> list[str]:
    """Defined names that no code in ``texts`` names."""
    seen = set().union(*(code_identifiers(text) for text in texts))
    return sorted(set(definitions) - seen)


def test_unreached_checker_flags_definition_only_names():
    src = ("def used():\n    return 1\n\ndef only_tested():\n    return used()\n\n"
           "class Kept:\n    def method(self):\n        return 2\n\n    def _private(self):\n        pass\n")
    defs = public_definitions(src)
    assert defs == ["used", "only_tested", "Kept", "method"]
    assert unreached_names(defs, [src, "Kept().method()"]) == ["only_tested"]


def test_unreached_checker_counts_code_not_prose():
    src = ('def documented():\n    """Calls documented() and spans("mod.traced")."""\n'
           "    return 1  # documented\n\ndef traced():\n    pass\n\ndef imported():\n    pass\n")
    uses = 'from mod import imported\nLAYERS = ("mod.traced", "not an identifier")\n'
    assert unreached_names(public_definitions(src), [src, uses]) == ["documented"]


def test_every_public_name_is_reached():
    definitions = [name for path in MODULES for name in public_definitions(path.read_text(encoding="utf-8"))]
    texts = [path.read_text(encoding="utf-8") for path in REACHING]
    assert set(unreached_names(definitions, texts)) == set(UNREACHED_ALLOWED)
