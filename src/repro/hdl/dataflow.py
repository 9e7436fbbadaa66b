"""Name-level dataflow helpers and the edit-site vocabulary over the AST.

Two groups of purely structural queries live here:

- **Name-level dataflow** — which identifiers an assignment writes and
  which names an expression reads.  These drive the fixed-point fault localization in
  :mod:`repro.core.faultloc` (paper §3.1, Algorithm 2) and the static
  lint rules in :mod:`repro.lint`.
- **The edit-site vocabulary** — the kinds of site a repair or a defect
  rewrites (paper §3.3 Table 1, Table 3): the assignment node types
  (:data:`ASSIGNMENTS`), the declaration kinds that name a data signal
  (:data:`SIGNAL_KINDS`), the interchangeable binary-operator families
  (:data:`OPERATOR_FAMILIES`), the comparison negations, and the
  lvalue-position predicates.  Every producer of edits reads it from
  here: the GP templates (:mod:`repro.core.templates`), GP mutation
  (:mod:`repro.core.operators`), the defect mutators
  (:mod:`repro.mint.mutators`) and the synthesis templates
  (:mod:`repro.synth.templates`) — so the fixers and the defect factory
  agree on what an editable site is.

Everything lives in the frontend so lint, mint and synth can depend on
it without importing the repair engine.  No helper elaborates or builds
a symbol table.  A hierarchical or generated name that the subset
cannot express never reaches them (the parser would have rejected it).
"""

from __future__ import annotations

from . import ast

#: Assignment node types: the sites whose target an edit reads as an
#: lvalue and whose right-hand side a defect or a repair rewrites.
ASSIGNMENTS = (ast.BlockingAssign, ast.NonBlockingAssign, ast.ContinuousAssign)

#: Declaration kinds that name a replaceable data signal (excludes
#: parameters, events, genvars: substituting those changes the program's
#: static semantics rather than misassigning a signal).
SIGNAL_KINDS = ("input", "output", "inout", "wire", "reg", "integer")

#: Interchangeable binary-operator families (a ``wrong_operator`` defect
#: and its ``flip_operator`` repair stay inside one family).
OPERATOR_FAMILIES: tuple[tuple[str, ...], ...] = (
    ("+", "-"),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("&", "|", "^"),
    ("&&", "||"),
    ("<<", ">>"),
)

#: Binary operator → the family it belongs to.
OPERATOR_TO_FAMILY: dict[str, tuple[str, ...]] = {
    op: family for family in OPERATOR_FAMILIES for op in family
}

#: Comparison operator → its logical negation.
COMPARISON_NEGATION = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def lhs_names(lhs: ast.Expr) -> set[str]:
    """Identifier names *written* by an assignment target.

    Looks through bit-/part-selects and concatenations: ``{a, b[3:0]}``
    writes ``a`` and ``b``.  Index and select subscripts are reads, not
    writes — see :func:`lhs_read_names`.
    """
    names: set[str] = set()
    stack: list[ast.Expr] = [lhs]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.Identifier):
            names.add(expr.name)
        elif isinstance(expr, (ast.Index, ast.PartSelect)):
            stack.append(expr.target)
        elif isinstance(expr, ast.Concat):
            stack.extend(expr.parts)
    return names


def lhs_read_names(lhs: ast.Expr) -> set[str]:
    """Identifier names *read* by an assignment target's subscripts.

    ``mem[addr] <= x`` writes ``mem`` but reads ``addr``; the select
    bounds of a part-select are reads too.
    """
    reads: set[str] = set()
    stack: list[ast.Expr] = [lhs]
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.Index):
            stack.append(expr.target)
            reads |= expr_names(expr.index)
        elif isinstance(expr, ast.PartSelect):
            stack.append(expr.target)
            reads |= expr_names(expr.msb)
            reads |= expr_names(expr.lsb)
        elif isinstance(expr, ast.Concat):
            stack.extend(expr.parts)
    return reads


def expr_names(expr: ast.Expr | None) -> set[str]:
    """Every identifier name appearing anywhere in an expression."""
    if expr is None:
        return set()
    return {n.name for n in expr.walk() if isinstance(n, ast.Identifier)}


def lhs_base_name(expr: ast.Expr) -> str | None:
    """The assigned signal's name, looking through index/part selects."""
    while isinstance(expr, (ast.Index, ast.PartSelect)):
        expr = expr.target
    return expr.name if isinstance(expr, ast.Identifier) else None


def enclosing_module(source: ast.Source, node_id: int) -> ast.ModuleDef | None:
    """The module whose subtree contains ``node_id``, if any."""
    for module in source.modules:
        if module.find(node_id) is not None:
            return module
    return None


def is_assignment_lhs(tree: ast.Source, node: ast.Node) -> bool:
    """Is ``node`` the direct LHS of some assignment?

    Only the ``lhs`` slot itself counts; see :func:`is_lvalue_head` for
    the variable named through ``Index``/``PartSelect`` targets.
    """
    for candidate in tree.walk():
        if isinstance(candidate, ASSIGNMENTS) and candidate.lhs is node:
            return True
    return False


def is_lvalue_head(tree: ast.Source, target: ast.Identifier) -> bool:
    """True when ``target`` names the variable being assigned.

    That is, it is reachable from an assignment's ``lhs`` slot through
    ``Index``/``PartSelect`` target links only.  Identifiers inside a
    concatenation lvalue or an index expression are fine — a rewritten
    ``{a, b[(i + 1)]} = rhs;`` still parses.
    """
    if target.node_id is None:
        return False
    parents = tree.parent_map()
    node: ast.Node = target
    while True:
        parent = parents.get(node.node_id or -1)
        if parent is None:
            return False
        if isinstance(parent, ASSIGNMENTS):
            return parent.lhs is node
        if isinstance(parent, (ast.Index, ast.PartSelect)) and parent.target is node:
            node = parent
            continue
        return False
