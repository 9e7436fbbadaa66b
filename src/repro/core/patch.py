"""Repair patch representation.

Following the paper (§3), each program variant is "a repair patch describing
a sequence of abstract syntax tree edits parameterized by unique node
numbers".  A :class:`Patch` is an ordered list of :class:`Edit` operations
applied to a pristine copy of the faulty design AST.

Stability rules that make genetic search work:

- Applying a patch never renumbers existing nodes — an edit created against
  one variant remains meaningful for its descendants.
- Nodes introduced by an edit (insertions, replacements) are numbered from a
  fresh-id pool above every id the base tree uses, deterministically per
  edit position, so two applications of the same patch produce identical
  trees.
- An edit whose target id no longer exists (deleted by an earlier edit, or
  inherited from the other crossover parent) is *stale* and silently skipped
  — the standard GenProg-family convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..hdl import ast
from ..hdl.node_ids import max_node_id, number_nodes

#: Gap between fresh-id blocks so edits cannot collide.
_ID_BLOCK = 10_000

#: ``max_node_id`` of every base tree patches were applied to, computed
#: once per base.  A base is never edited (:meth:`Patch.apply` edits a
#: clone), so its largest id is fixed; the entry dies with the tree.
_BASE_MAX_IDS: "weakref.WeakKeyDictionary[ast.Source, int]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Edit:
    """One AST edit.

    ``kind`` is ``replace``, ``insert_after``, ``delete``, or ``template``.
    ``target_id`` addresses a node in the tree being edited.  ``payload``
    is the replacement/inserted subtree (already cloned, ids irrelevant —
    they are reassigned on application).  ``template`` names the repair
    template for ``kind='template'`` edits (applied via
    :mod:`repro.core.templates`).
    """

    kind: str
    target_id: int
    payload: ast.Node | None = None
    template: str | None = None

    def describe(self) -> str:
        """Short human-readable form, e.g. ``template[sens_posedge]@19``."""
        if self.kind == "template":
            return f"template[{self.template}]@{self.target_id}"
        return f"{self.kind}@{self.target_id}"


@dataclass
class Patch:
    """An ordered sequence of edits over a base design AST."""

    edits: list[Edit] = field(default_factory=list)

    @staticmethod
    def empty() -> "Patch":
        return Patch([])

    def extended(self, edit: Edit) -> "Patch":
        """A new patch with ``edit`` appended (patches are value-like)."""
        return Patch(self.edits + [edit])

    def __len__(self) -> int:
        return len(self.edits)

    def describe(self) -> str:
        """Human-readable edit list (``<original>`` for the empty patch)."""
        return "; ".join(e.describe() for e in self.edits) or "<original>"

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self, base: ast.Source) -> ast.Source:
        """Apply all edits to a clone of ``base`` and return it.

        Stale edits are skipped.  Raises nothing: a patch always yields a
        tree (whose code may still fail to parse/elaborate downstream).
        """
        from .templates import apply_template  # local import to avoid cycle

        tree = base.clone()
        base_max = _BASE_MAX_IDS.get(base)
        if base_max is None:
            base_max = _BASE_MAX_IDS[base] = max_node_id(base)
        for position, edit in enumerate(self.edits):
            fresh_start = base_max + (position + 1) * _ID_BLOCK
            target = tree.find(edit.target_id)
            if target is None:
                continue  # stale edit
            if edit.kind == "delete":
                _delete_node(tree, edit.target_id)
            elif edit.kind == "replace":
                if edit.payload is None:
                    continue
                replacement = edit.payload.clone()
                number_nodes(replacement, fresh_start)
                tree.replace(edit.target_id, replacement)
            elif edit.kind == "insert_after":
                if edit.payload is None:
                    continue
                inserted = edit.payload.clone()
                number_nodes(inserted, fresh_start)
                tree.insert_after(edit.target_id, inserted)
            elif edit.kind == "template":
                if edit.template is None:
                    continue
                apply_template(edit.template, tree, edit.target_id, fresh_start)
            else:
                raise ValueError(f"unknown edit kind {edit.kind!r}")
        return tree

    def subset(self, keep: list[int]) -> "Patch":
        """Patch with only the edits at the given indices (for ddmin)."""
        return Patch([self.edits[i] for i in keep])


def _delete_node(tree: ast.Source, target_id: int) -> None:
    """Delete a node: statements become null statements (the paper's
    "replaces it with an empty node"); list members are removed outright
    when a null statement is not meaningful there."""
    target = tree.find(target_id)
    if target is None:
        return
    if isinstance(target, ast.Stmt):
        replacement = ast.NullStmt()
        replacement.node_id = None
        tree.replace(target_id, replacement)
    else:
        tree.replace(target_id, None)
