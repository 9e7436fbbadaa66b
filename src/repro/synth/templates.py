"""Parameterized repair templates (rtl-repair's catalog, natively).

Each template mirrors one family from ``rtlrepair/templates/`` and is
the *inverse* of a :mod:`repro.mint.mutators` defect family: where the
mutator corrupts one site, the template enumerates every way of fixing
a site of that shape, with free choices (which literal, which signal,
which operator) expanded by :mod:`repro.synth.solver` into small
deterministic domains.

A template's ``instantiate(design, ctx)`` returns
:class:`Candidate`\\ s — single-``replace`` patches over the faulty
design — in a fixed order: sites in preorder, choices in solve order.
Sites outside the fault-localized region (``ctx.fault_scope``) are
skipped, which is what keeps enumeration tractable on larger designs.

The templates read the edit-site vocabulary (``ASSIGNMENTS``,
``SIGNAL_KINDS``, the operator families, the enclosing-module and
assigned-signal lookups) from :mod:`repro.hdl.dataflow`, the one table
the mint mutators, the GP templates and GP mutation share, so the fixer
and the defect factory agree on what an editable site is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.patch import Edit, Patch
from ..hdl import ast
from ..hdl.dataflow import (
    ASSIGNMENTS,
    OPERATOR_TO_FAMILY,
    SIGNAL_KINDS,
    enclosing_module,
    lhs_base_name,
)
from .solver import SolveContext, literal_domain

#: Canonical operator order for synthesised right-hand sides (kept to
#: commutative bitwise/arith ops so pair enumeration needs no swaps).
_REBUILD_OPS = ("&", "|", "^", "+", "-")


@dataclass(frozen=True)
class Candidate:
    """One solved template instantiation: a single-edit repair patch."""

    patch: Patch
    site: int
    note: str


@dataclass(frozen=True)
class SynthTemplate:
    """One repair-template family the synth engine enumerates."""

    #: Registry key (shows up in operator stats and telemetry).
    name: str
    #: One-line summary for docs and events.
    description: str
    #: The mint defect families this template is the inverse of.
    repairs: tuple[str, ...]
    instantiate: Callable[[ast.Source, SolveContext], list[Candidate]]


def _replace(site: int, payload: ast.Node, note: str) -> Candidate:
    return Candidate(Patch([Edit("replace", site, payload)]), site, note)


def _covers_subtree(node: ast.Node, ctx: SolveContext) -> bool:
    """Whether any node under ``node`` carries localized blame."""
    if not ctx.fault_scope:
        return True
    return any(
        sub.node_id in ctx.fault_scope
        for sub in node.walk()
        if sub.node_id is not None
    )


# ----------------------------------------------------------------------
# add_inversions — inverse of negate_condition
# ----------------------------------------------------------------------


def _add_inversions(design: ast.Source, ctx: SolveContext) -> list[Candidate]:
    """Toggle ``!`` on conditions and ``~`` on assignment right-hand sides."""
    out: list[Candidate] = []
    for node in design.walk():
        if (
            isinstance(node, (ast.If, ast.Ternary))
            and node.cond is not None
            and node.cond.node_id is not None
            and ctx.covers(node.cond.node_id)
        ):
            cond = node.cond
            if isinstance(cond, ast.UnaryOp) and cond.op == "!":
                out.append(
                    _replace(cond.node_id, cond.operand.clone(), "drop '!' on condition")
                )
            else:
                out.append(
                    _replace(cond.node_id, ast.UnaryOp("!", cond.clone()), "add '!' on condition")
                )
        elif (
            isinstance(node, ASSIGNMENTS)
            and node.rhs is not None
            and node.rhs.node_id is not None
            and ctx.covers(node.rhs.node_id)
        ):
            rhs = node.rhs
            if isinstance(rhs, ast.UnaryOp) and rhs.op in ("~", "!"):
                out.append(
                    _replace(rhs.node_id, rhs.operand.clone(), f"drop '{rhs.op}' on rhs")
                )
            else:
                out.append(
                    _replace(rhs.node_id, ast.UnaryOp("~", rhs.clone()), "add '~' on rhs")
                )
    return out


# ----------------------------------------------------------------------
# flip_operator — inverse of wrong_operator
# ----------------------------------------------------------------------


def _flip_operator(design: ast.Source, ctx: SolveContext) -> list[Candidate]:
    """Swap each binary operator for the others in its family."""
    out: list[Candidate] = []
    for node in design.walk():
        if (
            isinstance(node, ast.BinaryOp)
            and node.node_id is not None
            and node.op in OPERATOR_TO_FAMILY
            and ctx.covers(node.node_id)
        ):
            for alt in OPERATOR_TO_FAMILY[node.op]:
                if alt == node.op:
                    continue
                payload = ast.BinaryOp(alt, node.left.clone(), node.right.clone())
                out.append(
                    _replace(node.node_id, payload, f"'{node.op}' -> '{alt}'")
                )
    return out


# ----------------------------------------------------------------------
# replace_literals — inverse of off_by_one (and constant-value defects)
# ----------------------------------------------------------------------


def _replace_literals(design: ast.Source, ctx: SolveContext) -> list[Candidate]:
    """Re-solve every in-scope literal over its brute-force domain.

    Declaration-level literals (vector widths) are not inside any
    localized *statement*, so they are admitted via ``suspect_names``
    instead of ``fault_scope``.
    """
    out: list[Candidate] = []
    suspect_decl_numbers: set[int] = set()
    if ctx.suspect_names:
        for module in design.modules:
            for decl in module.decls():
                if decl.name not in ctx.suspect_names:
                    continue
                for sub in decl.walk():
                    if isinstance(sub, ast.Number) and sub.node_id is not None:
                        suspect_decl_numbers.add(sub.node_id)
    for node in design.walk():
        if not isinstance(node, ast.Number) or node.node_id is None:
            continue
        if not (ctx.covers(node.node_id) or node.node_id in suspect_decl_numbers):
            continue
        for replacement in literal_domain(node, ctx):
            out.append(
                _replace(
                    node.node_id, replacement, f"{node.text} -> {replacement.text}"
                )
            )
    return out


# ----------------------------------------------------------------------
# replace_variables — inverse of misassigned_signal and stuck_constant
# ----------------------------------------------------------------------


def _module_rebuild_ops(module: ast.ModuleDef) -> tuple[str, ...]:
    """Operators to synthesise right-hand sides with: the module's own
    inventory (a design that never shifts is unlikely to need one),
    falling back to the bitwise trio."""
    inventory = {
        node.op
        for node in module.walk()
        if isinstance(node, ast.BinaryOp) and node.op in _REBUILD_OPS
    }
    ordered = tuple(op for op in _REBUILD_OPS if op in inventory)
    return ordered or ("&", "|", "^")


def _replace_variables(design: ast.Source, ctx: SolveContext) -> list[Candidate]:
    """Swap misassigned signal reads; rebuild constant-stuck right-hand sides.

    Two sub-enumerations per in-scope assignment:

    - every identifier the rhs reads, replaced by each other declared
      data signal (inverse of ``misassigned_signal``);
    - when the rhs reads *no* signal at all (a stuck constant), the
      whole rhs is rebuilt from the module's signals: bare reads first,
      then reduction-xors, then binary combinations over the module's
      own operator inventory, then negated reads (inverse of
      ``stuck_constant``).

    Sites whose assigned signal is itself a mismatched output solve
    first — the stuck driver usually feeds the failing output directly,
    and the per-site enumerations are wide enough that order decides
    how much budget a solve costs.  The mismatch set is part of the
    deterministic solve context, so this re-ordering never varies
    between runs of the same scenario.
    """
    priority: list[Candidate] = []
    out: list[Candidate] = []
    for node in design.walk():
        if not isinstance(node, ASSIGNMENTS) or node.node_id is None:
            continue
        if node.rhs is None or not ctx.covers(node.node_id):
            continue
        module = enclosing_module(design, node.node_id)
        if module is None:
            continue
        lhs_name = lhs_base_name(node.lhs)
        signals = [
            decl.name
            for decl in module.decls()
            if decl.kind in SIGNAL_KINDS and decl.name != lhs_name
        ]
        idents = [n for n in node.rhs.walk() if isinstance(n, ast.Identifier)]
        site_out: list[Candidate] = []
        for ident in idents:
            if ident.node_id is None:
                continue
            for name in signals:
                if name == ident.name:
                    continue
                site_out.append(
                    _replace(
                        ident.node_id,
                        ast.Identifier(name),
                        f"'{ident.name}' -> '{name}'",
                    )
                )
        if not idents and node.rhs.node_id is not None:
            rhs_id = node.rhs.node_id
            # The rebuild may read the assigned signal itself (registers
            # routinely do: ``q <= ~q`` toggles, ``q <= q`` holds) — only
            # the misassigned-signal swaps above exclude the lhs.
            rebuild = signals + ([lhs_name] if lhs_name is not None else [])
            for name in rebuild:
                site_out.append(
                    _replace(rhs_id, ast.Identifier(name), f"rhs -> {name}")
                )
            # Reduction-xor over vector signals (whole and low prefixes):
            # registered parity/flag bits are the classic stuck victims.
            for decl in module.decls():
                if (
                    decl.kind not in SIGNAL_KINDS
                    or decl.name == lhs_name
                    or not isinstance(decl.msb, ast.Number)
                    or not isinstance(decl.lsb, ast.Number)
                    or decl.lsb.aval != 0
                    or decl.msb.aval < 1
                ):
                    continue
                site_out.append(
                    _replace(
                        rhs_id,
                        ast.UnaryOp("^", ast.Identifier(decl.name)),
                        f"rhs -> ^{decl.name}",
                    )
                )
                for msb in range(1, decl.msb.aval):
                    payload = ast.UnaryOp(
                        "^",
                        ast.PartSelect(
                            ast.Identifier(decl.name),
                            ast.Number.from_int(msb),
                            ast.Number.from_int(0),
                        ),
                    )
                    site_out.append(
                        _replace(
                            rhs_id, payload, f"rhs -> ^{decl.name}[{msb}:0]"
                        )
                    )
            ops = _module_rebuild_ops(module)
            for op in ops:
                for i, left in enumerate(rebuild):
                    for right in rebuild[i + 1 :]:
                        payload = ast.BinaryOp(
                            op, ast.Identifier(left), ast.Identifier(right)
                        )
                        site_out.append(
                            _replace(rhs_id, payload, f"rhs -> {left} {op} {right}")
                        )
            for name in rebuild:
                site_out.append(
                    _replace(
                        rhs_id,
                        ast.UnaryOp("~", ast.Identifier(name)),
                        f"rhs -> ~{name}",
                    )
                )
        # The stuck-constant rebuild is the one enumeration that can
        # genuinely explode, so it gets a wider (but still fixed) cap.
        bucket = priority if lhs_name in ctx.mismatch else out
        bucket.extend(site_out[: ctx.max_per_site * 4])
    return priority + out


# ----------------------------------------------------------------------
# adjust_sensitivity — inverse of drop_sens_edge
# ----------------------------------------------------------------------


def _body_reads(always: ast.Always) -> list[str]:
    """Identifier names the process body references, first-seen order."""
    seen: dict[str, None] = {}
    if always.body is not None:
        for node in always.body.walk():
            if isinstance(node, ast.Identifier):
                seen.setdefault(node.name)
    return list(seen)


def _with_item(always: ast.Always, item: ast.SensItem) -> ast.Always:
    fixed = always.clone()
    assert fixed.senslist is not None
    fixed.senslist.items.append(item)
    return fixed


def _adjust_sensitivity(design: ast.Source, ctx: SolveContext) -> list[Candidate]:
    """Flip edges and re-add missing items on ``always`` sensitivity lists."""
    out: list[Candidate] = []
    for node in design.walk():
        if (
            not isinstance(node, ast.Always)
            or node.node_id is None
            or node.senslist is None
        ):
            continue
        items = node.senslist.items
        if any(item.edge == "all" for item in items):
            continue  # @* already sees everything
        if not _covers_subtree(node, ctx):
            continue
        for index, item in enumerate(items):
            if item.edge not in ("posedge", "negedge"):
                continue
            fixed = node.clone()
            flipped = fixed.senslist.items[index]
            flipped.edge = "negedge" if item.edge == "posedge" else "posedge"
            out.append(
                _replace(
                    node.node_id, fixed, f"flip {item.edge} -> {flipped.edge}"
                )
            )
        listed = {
            item.signal.name
            for item in items
            if isinstance(item.signal, ast.Identifier)
        }
        edged = any(item.edge in ("posedge", "negedge") for item in items)
        for name in _body_reads(node):
            if name in listed:
                continue
            if edged:
                for edge in ("posedge", "negedge"):
                    out.append(
                        _replace(
                            node.node_id,
                            _with_item(node, ast.SensItem(edge, ast.Identifier(name))),
                            f"add {edge} {name}",
                        )
                    )
            else:
                out.append(
                    _replace(
                        node.node_id,
                        _with_item(node, ast.SensItem("level", ast.Identifier(name))),
                        f"add {name}",
                    )
                )
    return out


# ----------------------------------------------------------------------
# The catalog — cheap, high-yield templates first, so the round-robin
# sweep spends its budget where a single chunk usually suffices.
# ----------------------------------------------------------------------

TEMPLATES: tuple[SynthTemplate, ...] = (
    SynthTemplate(
        "add_inversions",
        "toggle '!' on conditions and '~' on assignment right-hand sides",
        ("negate_condition",),
        _add_inversions,
    ),
    SynthTemplate(
        "flip_operator",
        "swap each binary operator for the others in its family",
        ("wrong_operator",),
        _flip_operator,
    ),
    SynthTemplate(
        "replace_literals",
        "re-solve literals by brute-force search over the 4-state domain",
        ("off_by_one", "stuck_constant"),
        _replace_literals,
    ),
    SynthTemplate(
        "adjust_sensitivity",
        "flip sensitivity edges and re-add dropped list items",
        ("drop_sens_edge",),
        _adjust_sensitivity,
    ),
    SynthTemplate(
        "replace_variables",
        "swap signal reads; rebuild constant-stuck right-hand sides",
        ("misassigned_signal", "stuck_constant"),
        _replace_variables,
    ),
)

#: name → template, for lookups from tests and docs generators.
TEMPLATES_BY_NAME: dict[str, SynthTemplate] = {t.name: t for t in TEMPLATES}


__all__ = ["Candidate", "SynthTemplate", "TEMPLATES", "TEMPLATES_BY_NAME"]
