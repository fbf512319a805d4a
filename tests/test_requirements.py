"""``requirements-test.txt`` lists every module the test suites import.

CI installs only that file, so a third-party import it does not list
would pass here and fail to collect on a clean runner.  The check walks
the imports of ``tests/`` and ``benchmarks/`` with ``ast``; standard
library modules (``sys.stdlib_module_names``) and this repository's own
packages are exempt.  A requirement's import name is its distribution
name, lower-cased, with ``-`` read as ``_``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("tests", "benchmarks")


def declared_modules() -> set[str]:
    names = set()
    for line in (ROOT / "requirements-test.txt").read_text().splitlines():
        requirement = line.split("#", 1)[0].strip()
        if requirement:
            name = re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
            names.add(name.lower().replace("-", "_"))
    return names


def imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def is_first_party(module: str, importer: Path) -> bool:
    return any(
        (base / module).is_dir() or (base / f"{module}.py").is_file()
        for base in (ROOT, ROOT / "src", importer.parent)
    )


def test_every_third_party_import_is_declared():
    declared = declared_modules()
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {module}"
        for suite in SUITES
        for path in (ROOT / suite).rglob("*.py")
        for module in imported_modules(path)
        if module not in sys.stdlib_module_names
        and module not in declared
        and not is_first_party(module, path)
    )
    assert not undeclared, "add to requirements-test.txt:\n" + "\n".join(
        undeclared
    )

