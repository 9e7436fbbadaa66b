"""Mint → synth agreement: each synth template undoes the defects of the
mint families it lists in ``repairs``.

For every site of every mutator on a few small benchsuite designs, the
defect is minted with ``random.Random(site)`` and the faulty text is
re-parsed, as a minted scenario would be.  Some candidate of a template
that claims the family must then rebuild the golden text byte for byte.

A candidate is one ``replace`` at a site, so it restores the golden text
exactly when its payload prints like the golden node at the same tree
position and the rest of the faulty tree already matches the golden one.
The first check is per candidate and cheap; the second is per site and
cached, so no candidate's tree is regenerated whole.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from repro.benchsuite import load_project
from repro.hdl import ast, generate, parse
from repro.hdl.dataflow import SIGNAL_KINDS, enclosing_module, lhs_base_name
from repro.mint import MUTATORS
from repro.synth import TEMPLATES
from repro.synth.solver import SolveContext

PROJECTS = ("counter", "decoder_3_to_8", "flip_flop", "fsm_full", "lshift_reg", "mux_4_1")

#: ``stuck_constant`` is left out: its rebuild enumeration is bounded by
#: design, so a long right-hand side may fall outside it.
FAMILIES = (
    "negate_condition",
    "wrong_operator",
    "off_by_one",
    "drop_sens_edge",
    "misassigned_signal",
)

OWN_LHS = (
    "the defect swapped out a read of the assignment's own LHS, "
    "which replace_variables never proposes"
)
PARAMETER = "the defect swapped out a parameter read, and parameters are not in SIGNAL_KINDS"


@cache
def _golden(project: str) -> ast.Source:
    return parse(load_project(project).design_text)


def _mint(project: str, family: str, site: int) -> tuple[ast.Source, str | None]:
    mutant = _golden(project).clone()
    return mutant, MUTATORS[family].apply(mutant, site, random.Random(site))


def _known_gap(project: str, family: str, site: int, mutant: ast.Source) -> str | None:
    """Why ``replace_variables`` cannot undo this ``misassigned_signal``."""
    if family != "misassigned_signal":
        return None
    golden = _golden(project)
    assign = golden.find(site)
    swapped = [
        old.name
        for old, new in zip(assign.rhs.walk(), mutant.find(site).rhs.walk())
        if isinstance(old, ast.Identifier) and old.name != new.name
    ]
    if swapped == [lhs_base_name(assign.lhs)]:
        return OWN_LHS
    kinds = {d.name: d.kind for d in enclosing_module(golden, site).decls()}
    if kinds.get(swapped[0]) not in SIGNAL_KINDS:
        return PARAMETER
    return None


def _cases():
    for project in PROJECTS:
        for family in FAMILIES:
            for site in MUTATORS[family].sites(_golden(project)):
                mutant, description = _mint(project, family, site)
                if description is None:
                    continue
                if family == "drop_sens_edge" and "flipped" not in description:
                    # A dropped item comes back at the end of the list,
                    # so only the edge flips can restore the exact text.
                    continue
                reason = _known_gap(project, family, site, mutant)
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                case_id = f"{project}-{family}-{site}"
                yield pytest.param(project, family, site, marks=marks, id=case_id)


def _paths(tree: ast.Source) -> dict[int, tuple[int, ...]]:
    """node id → the child indices leading to it from the root."""
    paths: dict[int, tuple[int, ...]] = {}
    stack: list[tuple[ast.Node, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if node.node_id is not None:
            paths[node.node_id] = path
        stack.extend((child, (*path, i)) for i, child in enumerate(node.children()))
    return paths


def _at(tree: ast.Node, path: tuple[int, ...]) -> ast.Node | None:
    node = tree
    for index in path:
        children = list(node.children())
        if index >= len(children):
            return None
        node = children[index]
    return node


def _rest_matches(
    faulty: ast.Source, golden: ast.Source, path: tuple[int, ...], golden_text: str
) -> bool:
    """Whether ``faulty`` equals ``golden`` once the node at ``path`` is."""
    patched = faulty.clone()
    site = _at(patched, path)
    patched.replace(site.node_id, _at(golden, path).clone())
    return generate(patched) == golden_text


@pytest.mark.parametrize("project, family, site", list(_cases()))
def test_a_claiming_template_restores_the_golden_text(project, family, site):
    golden = _golden(project)
    golden_text = generate(golden)
    mutant, _ = _mint(project, family, site)
    faulty = parse(generate(mutant))
    paths = _paths(faulty)
    rest: dict[int, bool] = {}
    for template in TEMPLATES:
        if family not in template.repairs:
            continue
        for candidate in template.instantiate(faulty, SolveContext()):
            (edit,) = candidate.patch.edits
            path = paths[edit.target_id]
            target = _at(golden, path)
            if target is None or generate(edit.payload) != generate(target):
                continue
            if edit.target_id not in rest:
                rest[edit.target_id] = _rest_matches(faulty, golden, path, golden_text)
            if rest[edit.target_id]:
                return
    pytest.fail(f"no {family} inverse restores {project} at site {site}")
