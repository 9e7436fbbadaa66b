"""Packaging metadata agrees with the code: declared dependencies are
used, optional ones are imported lazily, and the version has one source."""

import ast
import re
from pathlib import Path

import pytest

import repro

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def pyproject() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def _distribution_name(requirement: str) -> str:
    """``"scipy>=1.7"`` → ``"scipy"`` (the importable top-level name)."""
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower().replace("-", "_")


def _imports(module_level_only: bool) -> set[str]:
    """Top-level names of every module imported under ``src/repro``."""
    names: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = tree.body if module_level_only else ast.walk(tree)
        for node in nodes:
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def test_every_dependency_is_imported(pyproject):
    imported = _imports(module_level_only=False)
    for requirement in pyproject["project"]["dependencies"]:
        assert _distribution_name(requirement) in imported, requirement


def test_optional_dependencies_are_imported_lazily(pyproject):
    optional = {
        _distribution_name(requirement)
        for requirement in pyproject["project"]["optional-dependencies"]["stats"]
    }
    assert optional & _imports(module_level_only=True) == set()


def test_version_comes_from_the_package(pyproject):
    project = pyproject["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
