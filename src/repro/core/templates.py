"""Repair templates: the one table of fix patterns (paper §3.3, Table 1).

Nine pre-identified fix patterns across four defect categories come from
the paper:

=================  ==============================================
Category           Templates
=================  ==============================================
Conditionals       ``negate_conditional``
Sensitivity lists  ``sens_negedge``, ``sens_posedge``,
                   ``sens_any_change``, ``sens_level``
Assignments        ``blocking_to_nonblocking``,
                   ``nonblocking_to_blocking``
Numeric            ``increment_by_one``, ``decrement_by_one``
=================  ==============================================

Four more are the paper's future-work direction.  Section 5.2 observes
CirFix fails on defect classes its nine templates cannot express — most
explicitly the reed_solomon_decoder register-width defect: "none of its
operators or repair templates are capable of increasing the number of
bits allocated to the integer 500.  We note that while adding more
repair templates can help in such cases ...".  These extension templates
are off by default (``RepairConfig.extended_templates``) so the core
reproduction stays faithful to the paper's template set:

=====================  ======================================================
Template               Rewrite
=====================  ======================================================
``swap_if_branches``   Exchange the then/else branches of an if-statement
``widen_register``     Double the width of a reg/wire declaration
``zero_assignment``    Duplicate an assignment with its RHS forced to zero
                       (targets the missing-reset defect class)
``negate_equality``    Flip ``==`` ↔ ``!=`` (and ``<`` ↔ ``>=``, etc.) in a
                       comparison
=====================  ======================================================

:data:`TEMPLATES` holds all thirteen, each with its category, its
applicability test, its rewrite and its extension flag; the name tuples
below are views of it.  A template is applied to a target node (chosen
from the fault localization set): :func:`applicable_templates` reports
which templates fit a node, and :func:`apply_template` performs the
rewrite in place.  The site vocabulary (assignment types, comparison
negations, lvalue positions) comes from :mod:`repro.hdl.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..hdl import ast
from ..hdl.dataflow import COMPARISON_NEGATION, is_lvalue_head
from ..hdl.node_ids import number_nodes


@dataclass(frozen=True)
class Template:
    """One fix pattern: where it applies and how it rewrites."""

    name: str
    #: Defect category (the paper's Table 1 groups for the core set).
    category: str
    #: Whether the template can rewrite a node of this shape.
    applies: Callable[[ast.Node], bool]
    #: ``rewrite(tree, target, fresh_start)`` edits ``tree`` in place and
    #: returns False when it refuses (a no-op); fresh nodes are numbered
    #: from ``fresh_start``.
    rewrite: Callable[[ast.Source, ast.Node, int], bool]
    #: A future-work template (§5.2), not one of the paper's nine.
    extension: bool = False


# ----------------------------------------------------------------------
# Applicability tests
# ----------------------------------------------------------------------


def _is(*types: type[ast.Node]) -> Callable[[ast.Node], bool]:
    def applies(node: ast.Node) -> bool:
        return isinstance(node, types)

    return applies


def _has_senslist(node: ast.Node) -> bool:
    return isinstance(node, ast.Always) and node.senslist is not None


def _is_sens_target(node: ast.Node) -> bool:
    return _has_senslist(node) or isinstance(node, ast.SensItem)


def _has_else(node: ast.Node) -> bool:
    return isinstance(node, ast.If) and node.else_stmt is not None


def _is_vector_decl(node: ast.Node) -> bool:
    return isinstance(node, ast.Decl) and node.kind in ("reg", "wire") and node.msb is not None


def _is_comparison(node: ast.Node) -> bool:
    return isinstance(node, ast.BinaryOp) and node.op in COMPARISON_NEGATION


# ----------------------------------------------------------------------
# Rewrites
# ----------------------------------------------------------------------


def _negate_conditional(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    assert isinstance(target, (ast.If, ast.While))
    negated = ast.UnaryOp("!", target.cond)
    negated.node_id = fresh_start  # the wrapped condition keeps its ids
    target.cond = negated
    return True


def _set_edge(edge: str) -> Callable[[ast.Source, ast.Node, int], bool]:
    """Set the edge of a sensitivity item, or of an always block's first."""

    def rewrite(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
        if isinstance(target, ast.SensItem):
            item = target
        else:
            assert isinstance(target, ast.Always) and target.senslist is not None
            if not target.senslist.items:
                return False
            item = target.senslist.items[0]
        if item.signal is None:
            return False
        item.edge = edge
        return True

    return rewrite


def _sens_any_change(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    # Trigger on any change to a variable within the block: @(*).
    assert isinstance(target, ast.Always) and target.senslist is not None
    new_item = ast.SensItem("all", None)
    number_nodes(new_item, fresh_start)
    target.senslist.items = [new_item]
    return True


def _swap_assignment(
    kind: type[ast.BlockingAssign] | type[ast.NonBlockingAssign],
) -> Callable[[ast.Source, ast.Node, int], bool]:
    """Re-issue an assignment as the other procedural kind."""

    def rewrite(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
        assert isinstance(target, (ast.BlockingAssign, ast.NonBlockingAssign))
        replacement = kind(target.lhs, target.rhs, target.delay)
        replacement.node_id = fresh_start
        return tree.replace(target.node_id or -1, replacement)

    return rewrite


def _adjust_by(delta: int) -> Callable[[ast.Source, ast.Node, int], bool]:
    """Add ``delta`` to a literal, or wrap an identifier as ``(x ± 1)``."""

    def rewrite(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
        if isinstance(target, ast.Number):
            # Adjust the literal itself (off-by-one style numeric errors).
            if target.bval != 0:
                return False
            width = target.width
            eff_width = width if width is not None else 32
            new_value = (target.aval + delta) & ((1 << eff_width) - 1)
            if width is not None:
                replacement = ast.Number(f"{width}'d{new_value}", width, new_value, 0)
            else:
                replacement = ast.Number(str(new_value), None, new_value, 0)
            replacement.node_id = fresh_start
            return tree.replace(target.node_id or -1, replacement)
        assert isinstance(target, ast.Identifier)
        if is_lvalue_head(tree, target):
            # Wrapping the head of an assignment target would emit
            # ``(a + 1) = rhs;`` which no longer parses — refuse (no-op).
            return False
        op = "+" if delta == 1 else "-"
        wrapped = ast.BinaryOp(op, ast.Identifier(target.name), ast.Number("1", None, 1, 0))
        number_nodes(wrapped, fresh_start)
        return tree.replace(target.node_id or -1, wrapped)

    return rewrite


def _swap_if_branches(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    assert isinstance(target, ast.If)
    target.then_stmt, target.else_stmt = target.else_stmt, target.then_stmt
    return True


def _widen_register(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    """Double the declared width, keeping the range direction.

    The bound with the larger index moves: ``[7:4]`` becomes ``[11:4]``
    and ``[0:7]`` becomes ``[0:15]``.  Refuses unless both bounds are
    clean literals.
    """
    assert isinstance(target, ast.Decl)
    msb, lsb = target.msb, target.lsb
    if not isinstance(msb, ast.Number) or msb.bval:
        return False
    if not isinstance(lsb, ast.Number) or lsb.bval:
        return False
    width = abs(msb.aval - lsb.aval) + 1
    value = min(msb.aval, lsb.aval) + 2 * width - 1
    bound = ast.Number(str(value), None, value, 0, signed=True)
    bound.node_id = fresh_start
    if msb.aval >= lsb.aval:
        target.msb = bound
    else:
        target.lsb = bound
    return True


def _zero_assignment(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    assert isinstance(target, (ast.BlockingAssign, ast.NonBlockingAssign))
    zero = ast.Number("0", None, 0, 0, signed=True)
    duplicate = type(target)(target.lhs.clone(), zero, None)
    number_nodes(duplicate, fresh_start)
    return tree.insert_after(target.node_id or -1, duplicate)


def _negate_equality(tree: ast.Source, target: ast.Node, fresh_start: int) -> bool:
    assert isinstance(target, ast.BinaryOp)
    target.op = COMPARISON_NEGATION[target.op]
    return True


# ----------------------------------------------------------------------
# The table — order is the order applicable_templates reports names in.
# ----------------------------------------------------------------------

TEMPLATES: dict[str, Template] = {
    t.name: t
    for t in (
        Template(
            "negate_conditional", "conditionals", _is(ast.If, ast.While), _negate_conditional
        ),
        Template("sens_negedge", "sensitivity", _is_sens_target, _set_edge("negedge")),
        Template("sens_posedge", "sensitivity", _is_sens_target, _set_edge("posedge")),
        Template("sens_any_change", "sensitivity", _has_senslist, _sens_any_change),
        Template("sens_level", "sensitivity", _is_sens_target, _set_edge("level")),
        Template(
            "blocking_to_nonblocking", "assignments", _is(ast.BlockingAssign),
            _swap_assignment(ast.NonBlockingAssign),
        ),
        Template(
            "nonblocking_to_blocking", "assignments", _is(ast.NonBlockingAssign),
            _swap_assignment(ast.BlockingAssign),
        ),
        Template("increment_by_one", "numeric", _is(ast.Number, ast.Identifier), _adjust_by(1)),
        Template("decrement_by_one", "numeric", _is(ast.Number, ast.Identifier), _adjust_by(-1)),
        Template("swap_if_branches", "conditionals", _has_else, _swap_if_branches, True),
        Template("widen_register", "declarations", _is_vector_decl, _widen_register, True),
        Template(
            "zero_assignment", "assignments",
            _is(ast.BlockingAssign, ast.NonBlockingAssign), _zero_assignment, True,
        ),
        Template("negate_equality", "conditionals", _is_comparison, _negate_equality, True),
    )
}

_PAPER = tuple(t for t in TEMPLATES.values() if not t.extension)
_EXTENSION = tuple(t for t in TEMPLATES.values() if t.extension)

#: The paper's nine template names.
ALL_TEMPLATES: tuple[str, ...] = tuple(t.name for t in _PAPER)

#: The future-work template names (``RepairConfig.extended_templates``).
EXTENDED_TEMPLATES: tuple[str, ...] = tuple(t.name for t in _EXTENSION)

#: The paper's template names, grouped by its defect categories.
TEMPLATES_BY_CATEGORY: dict[str, tuple[str, ...]] = {
    category: tuple(t.name for t in _PAPER if t.category == category)
    for category in dict.fromkeys(t.category for t in _PAPER)
}


def applicable_templates(node: ast.Node, *, extension: bool = False) -> list[str]:
    """Paper templates that can rewrite ``node`` — or, with ``extension``,
    the future-work templates that can — in table order."""
    return [t.name for t in (_EXTENSION if extension else _PAPER) if t.applies(node)]


def apply_template(name: str, tree: ast.Source, target_id: int, fresh_start: int) -> bool:
    """Apply template ``name`` to node ``target_id`` inside ``tree``.

    Returns True when the rewrite happened (False for stale targets or an
    inapplicable template — both no-ops, per the patch conventions).
    Fresh nodes are numbered from ``fresh_start``.  Extension templates
    share the edit kind, so a patchlist stays uniform.
    """
    target = tree.find(target_id)
    template = TEMPLATES.get(name)
    if target is None or template is None or not template.applies(target):
        return False
    return template.rewrite(tree, target, fresh_start)


def extra_candidates(tree: ast.Source, fault_ids: set[int]) -> list[tuple[int, str]]:
    """Extension targets beyond the fault set itself.

    Declarations are never implicated by Algorithm 2 (they are neither
    assignments nor conditionals), so ``widen_register`` targets the
    declarations of identifiers *mentioned inside* implicated nodes.
    """
    fault_names: set[str] = set()
    for node in tree.walk():
        if node.node_id in fault_ids:
            for sub in node.walk():
                if isinstance(sub, ast.Identifier):
                    fault_names.add(sub.name)
    candidates: list[tuple[int, str]] = []
    for node in tree.walk():
        if (
            isinstance(node, ast.Decl)
            and node.name in fault_names
            and node.node_id is not None
            and TEMPLATES["widen_register"].applies(node)
        ):
            candidates.append((node.node_id, "widen_register"))
    return candidates
