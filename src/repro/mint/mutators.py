"""Semantic defect mutators for the scenario factory (CirFix Table 3).

Each mutator models one defect family from the paper's Table 3 and
injects it as an AST rewrite over :mod:`repro.hdl` — the semantic
counterpart of the *textual* fault planting in :mod:`repro.fuzz.faults`
(which corrupts codegen to test the fuzz oracles).  Here the corruption
is the product: applied to a golden design it yields a buggy design
whose ground-truth patch is, by construction, the golden design itself.

The contract every mutator satisfies:

- ``sites(source)`` returns the ``node_id``\\ s where the mutator can
  apply, in deterministic preorder — same tree, same list.
- ``apply(source, site, rng)`` rewrites the (cloned) tree **in place**
  at one site and returns a human-readable defect description, or
  ``None`` when the rewrite would be a no-op at that site.  All
  randomness comes from ``rng``, so a seeded :class:`random.Random`
  replays the exact same defect.

Observability (the mutant must actually change externally visible
behaviour) is *not* this module's job: the factory re-simulates every
mutant against the generated testbench and only admits defects with
fitness < 1.0 (see :mod:`repro.mint.factory`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..hdl import ast
from ..hdl.dataflow import (
    ASSIGNMENTS,
    OPERATOR_TO_FAMILY,
    SIGNAL_KINDS,
    enclosing_module,
    lhs_base_name,
)


@dataclass(frozen=True)
class MintMutator:
    """One Table-3 defect family as an executable AST rewrite."""

    #: Registry key (also embedded in minted scenario ids).
    name: str
    #: The Table-3 defect family this mutator models.
    label: str
    #: Paper defect category: 1 = "easy", 2 = "hard" (§4.1.3).
    category: int
    sites: Callable[[ast.Source], list[int]] = field(repr=False)
    apply: Callable[[ast.Source, int, random.Random], str | None] = field(repr=False)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _assign_sites(source: ast.Source) -> list[int]:
    """Assignments with an identifier-bearing right-hand side, preorder."""
    out: list[int] = []
    for node in source.walk():
        if isinstance(node, ASSIGNMENTS) and node.node_id is not None:
            if any(isinstance(n, ast.Identifier) for n in node.rhs.walk()):
                out.append(node.node_id)
    return out


# ----------------------------------------------------------------------
# negated condition (Table 3: "incorrect conditional / negated guard")
# ----------------------------------------------------------------------


def _negate_sites(source: ast.Source) -> list[int]:
    return [
        node.node_id
        for node in source.walk()
        if isinstance(node, (ast.If, ast.Ternary))
        and node.node_id is not None
        and node.cond is not None
    ]


def _negate_apply(
    source: ast.Source, site: int, rng: random.Random
) -> str | None:
    node = source.find(site)
    if not isinstance(node, (ast.If, ast.Ternary)):
        return None
    kind = "if statement" if isinstance(node, ast.If) else "ternary"
    cond = node.cond
    if isinstance(cond, ast.UnaryOp) and cond.op == "!":
        node.cond = cond.operand
        return f"removed the negation on the {kind} condition"
    node.cond = ast.UnaryOp("!", cond)
    return f"negated the {kind} condition"


# ----------------------------------------------------------------------
# off-by-one index / width (Table 3: "incorrect index / wrong signal width")
# ----------------------------------------------------------------------


def _off_by_one_sites(source: ast.Source) -> list[int]:
    out: list[int] = []
    for node in source.walk():
        targets: list[ast.Expr | None] = []
        if isinstance(node, ast.Index):
            targets.append(node.index)
        elif isinstance(node, ast.PartSelect):
            targets.extend((node.msb, node.lsb))
        elif isinstance(node, ast.Decl):
            targets.append(node.msb)
        for target in targets:
            # Only clean 0/1-valued literals: x/z planes (bval != 0) have
            # no well-defined neighbour, and synthesising one would not
            # read like a Table-3 index defect.
            if (
                isinstance(target, ast.Number)
                and target.bval == 0
                and target.node_id is not None
            ):
                out.append(target.node_id)
    return out


def _off_by_one_apply(
    source: ast.Source, site: int, rng: random.Random
) -> str | None:
    node = source.find(site)
    if not isinstance(node, ast.Number) or node.bval != 0:
        return None
    delta = 1 if node.aval == 0 else rng.choice((-1, 1))
    value = node.aval + delta
    if node.width is not None:
        value &= (1 << node.width) - 1
    if value == node.aval:
        return None
    replacement = ast.Number.from_int(value, node.width)
    if not source.replace(site, replacement):
        return None
    return f"off-by-one index/width: {node.text} became {replacement.text}"


# ----------------------------------------------------------------------
# wrong operator (Table 3: "incorrect assignment / operator defects")
# ----------------------------------------------------------------------


def _operator_sites(source: ast.Source) -> list[int]:
    return [
        node.node_id
        for node in source.walk()
        if isinstance(node, ast.BinaryOp)
        and node.node_id is not None
        and node.op in OPERATOR_TO_FAMILY
    ]


def _operator_apply(
    source: ast.Source, site: int, rng: random.Random
) -> str | None:
    node = source.find(site)
    if not isinstance(node, ast.BinaryOp) or node.op not in OPERATOR_TO_FAMILY:
        return None
    choices = [op for op in OPERATOR_TO_FAMILY[node.op] if op != node.op]
    if not choices:
        return None
    old = node.op
    node.op = rng.choice(choices)
    return f"wrong operator: '{old}' became '{node.op}'"


# ----------------------------------------------------------------------
# dropped sensitivity edge (Table 3: "incorrect sensitivity list")
# ----------------------------------------------------------------------


def _sens_sites(source: ast.Source) -> list[int]:
    out: list[int] = []
    for node in source.walk():
        if (
            isinstance(node, ast.Always)
            and node.node_id is not None
            and node.senslist is not None
        ):
            items = node.senslist.items
            if len(items) >= 2:
                out.append(node.node_id)
            elif len(items) == 1 and items[0].edge in ("posedge", "negedge"):
                out.append(node.node_id)
    return out


def _sens_describe(item: ast.SensItem) -> str:
    signal = item.signal.name if isinstance(item.signal, ast.Identifier) else "*"
    return f"{item.edge} {signal}" if item.edge != "level" else signal


def _sens_apply(source: ast.Source, site: int, rng: random.Random) -> str | None:
    node = source.find(site)
    if not isinstance(node, ast.Always) or node.senslist is None:
        return None
    items = node.senslist.items
    if len(items) >= 2:
        dropped = items.pop(rng.randrange(len(items)))
        return f"dropped '{_sens_describe(dropped)}' from the sensitivity list"
    if len(items) == 1 and items[0].edge in ("posedge", "negedge"):
        item = items[0]
        old = item.edge
        item.edge = "negedge" if old == "posedge" else "posedge"
        return f"sensitivity edge flipped: {old} became {item.edge}"
    return None


# ----------------------------------------------------------------------
# misassigned signal (Table 3: "incorrect assignment to a wrong signal")
# ----------------------------------------------------------------------


def _misassign_apply(
    source: ast.Source, site: int, rng: random.Random
) -> str | None:
    node = source.find(site)
    if not isinstance(node, ASSIGNMENTS):
        return None
    module = enclosing_module(source, site)
    if module is None:
        return None
    idents = [n for n in node.rhs.walk() if isinstance(n, ast.Identifier)]
    if not idents:
        return None
    target = idents[rng.randrange(len(idents))]
    lhs_name = lhs_base_name(node.lhs)
    candidates = [
        decl.name
        for decl in module.decls()
        if decl.kind in SIGNAL_KINDS
        and decl.name != target.name
        and decl.name != lhs_name
    ]
    if not candidates:
        return None
    old = target.name
    target.name = candidates[rng.randrange(len(candidates))]
    return f"misassigned signal: rhs reference '{old}' became '{target.name}'"


# ----------------------------------------------------------------------
# stuck constant (Table 3: "signal stuck at a constant value")
# ----------------------------------------------------------------------


def _stuck_apply(source: ast.Source, site: int, rng: random.Random) -> str | None:
    node = source.find(site)
    if not isinstance(node, ASSIGNMENTS):
        return None
    value = rng.choice((0, 1))
    if isinstance(node.rhs, ast.Number) and node.rhs.aval == value and node.rhs.bval == 0:
        return None
    name = lhs_base_name(node.lhs) or "signal"
    node.rhs = ast.Number.from_int(value)
    return f"stuck constant: '{name}' driven with the constant {value}"


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------

#: name → mutator, in the deterministic order the factory cycles through.
MUTATORS: dict[str, MintMutator] = {
    m.name: m
    for m in (
        MintMutator(
            "negate_condition", "negated conditional guard", 1,
            _negate_sites, _negate_apply,
        ),
        MintMutator(
            "off_by_one", "off-by-one index or width", 1,
            _off_by_one_sites, _off_by_one_apply,
        ),
        MintMutator(
            "wrong_operator", "wrong operator in expression", 1,
            _operator_sites, _operator_apply,
        ),
        MintMutator(
            "drop_sens_edge", "dropped or flipped sensitivity edge", 1,
            _sens_sites, _sens_apply,
        ),
        MintMutator(
            "misassigned_signal", "assignment reads the wrong signal", 2,
            _assign_sites, _misassign_apply,
        ),
        MintMutator(
            "stuck_constant", "signal stuck at a constant", 2,
            _assign_sites, _stuck_apply,
        ),
    )
}
