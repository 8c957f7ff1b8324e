"""The package declares what it imports.

Every absolute import anywhere under ``src/repro`` (module level or
inside a function) must resolve to the standard library, to ``repro``
itself, or to a distribution named in ``pyproject.toml``'s
``[project].dependencies`` — otherwise a plain ``pip install .`` gives
an install whose first ``import repro`` fails.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


def _declared_dependencies():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    names = set()
    for requirement in project["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_top_level_names():
    """``{top-level name: first "file:line" importing it}``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.setdefault(
                    top, f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                )
    return found


def test_every_third_party_import_is_a_declared_dependency():
    declared = _declared_dependencies()
    imported = _imported_top_level_names()
    # a walk that found nothing would pass vacuously
    assert {"repro", "typing"} <= set(imported)
    undeclared = {
        name: where
        for name, where in imported.items()
        if name != "repro"
        and name not in sys.stdlib_module_names
        and name.lower() not in declared
    }
    assert not undeclared, (
        "imported but missing from [project].dependencies: "
        + ", ".join(f"{name} ({where})" for name, where in undeclared.items())
    )

