"""Layering: no subpackage of ``repro`` imports another's private names.

A leading underscore marks a name as internal to its subpackage.  When a
second subpackage needs it, the name belongs in a public API (or in the
shared layer both depend on) instead.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: (importing module, imported module, name) → why the import is allowed.
ALLOWED = {
    ("repro.fuzz.faults", "repro.hdl.codegen", "_Generator"): (
        "fault planting monkeypatches codegen on purpose to test the fuzz oracles"
    ),
}


def _subpackage(module: str) -> str:
    """``repro.core.backend`` → ``core``; a top-level module → ``""``."""
    parts = module.split(".")
    if len(parts) > 1 and (ROOT / parts[1]).is_dir():
        return parts[1]
    return ""


def _private_imports() -> list[tuple[str, str, str]]:
    """Every ``from <repro module> import _name`` in the package."""
    found: list[tuple[str, str, str]] = []
    for path in sorted(ROOT.rglob("*.py")):
        parts = ["repro", *path.relative_to(ROOT).with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
            package = parts
        else:
            package = parts[:-1]
        module = ".".join(parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[: len(package) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            elif node.module and node.module.split(".")[0] == "repro":
                target = node.module
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((module, target, alias.name))
    return found


def test_scan_sees_relative_imports():
    # Guard against a scan that silently finds nothing.
    assert ("repro.sim.compile", "repro.sim.eval", "_bitwise") in _private_imports()


def test_no_private_names_across_subpackages():
    offenders = [
        f"{module} imports {name} from {target}"
        for module, target, name in _private_imports()
        if _subpackage(module) != _subpackage(target)
        and (module, target, name) not in ALLOWED
    ]
    assert offenders == []


def test_allowed_exceptions_are_still_needed():
    assert set(ALLOWED) <= set(_private_imports())
