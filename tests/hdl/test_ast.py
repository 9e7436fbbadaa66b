"""AST structural-operation tests (walk / find / replace / insert / clone)."""

import pytest

from repro.benchsuite import PROJECT_NAMES, load_project
from repro.hdl import ast, generate, parse, structural_diff
from repro.hdl.node_ids import clear_ids, max_node_id, number_nodes

SRC = """
module m;
  reg [3:0] q;
  always @(posedge clk) begin
    if (en) q <= q + 1;
  end
endmodule
"""


def tree():
    return parse(SRC)


class TestNumbering:
    def test_preorder_ids_sequential(self):
        t = tree()
        ids = [n.node_id for n in t.walk()]
        assert ids == list(range(1, len(ids) + 1))

    def test_max_node_id(self):
        t = tree()
        assert max_node_id(t) == sum(1 for _ in t.walk())

    def test_clear_ids(self):
        t = tree()
        clear_ids(t)
        assert all(n.node_id is None for n in t.walk())

    def test_number_from_offset(self):
        t = tree()
        next_id = number_nodes(t, start=100)
        assert min(n.node_id for n in t.walk()) == 100
        assert next_id == 100 + sum(1 for _ in t.walk())


class TestFindReplace:
    def test_find_returns_node(self):
        t = tree()
        target = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        assert t.find(target.node_id) is target

    def test_find_missing_returns_none(self):
        assert tree().find(10**9) is None

    def test_replace_scalar_field(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        new_cond = ast.Identifier("other")
        new_cond.node_id = 9999
        assert t.replace(if_stmt.cond.node_id, new_cond)
        assert if_stmt.cond is new_cond

    def test_replace_list_member(self):
        t = tree()
        nba = next(n for n in t.walk() if isinstance(n, ast.NonBlockingAssign))
        replacement = ast.NullStmt()
        assert t.replace(nba.node_id, replacement)
        assert t.find(nba.node_id) is None

    def test_replace_with_none_deletes_from_list(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        block = next(
            n for n in t.walk() if isinstance(n, ast.Block) and if_stmt in n.stmts
        )
        before = len(block.stmts)
        assert t.replace(if_stmt.node_id, None)
        assert len(block.stmts) == before - 1

    def test_replace_missing_returns_false(self):
        assert tree().replace(10**9, ast.NullStmt()) is False


class TestInsert:
    def test_insert_after_in_block(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        new_stmt = ast.NullStmt()
        new_stmt.node_id = 7777
        assert t.insert_after(if_stmt.node_id, new_stmt)
        block = next(n for n in t.walk() if isinstance(n, ast.Block))
        assert block.stmts[-1] is new_stmt

    def test_insert_after_scalar_position_fails(self):
        t = tree()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        # The condition is a scalar field, not a list member.
        assert t.insert_after(if_stmt.cond.node_id, ast.NullStmt()) is False


class TestCloneAndParents:
    def test_clone_preserves_ids_and_is_deep(self):
        t = tree()
        c = t.clone()
        assert [n.node_id for n in t.walk()] == [n.node_id for n in c.walk()]
        nba = next(n for n in c.walk() if isinstance(n, ast.NonBlockingAssign))
        c.replace(nba.node_id, ast.NullStmt())
        # The original is untouched.
        assert any(isinstance(n, ast.NonBlockingAssign) for n in t.walk())

    def test_clone_copies_attr_lists(self):
        t = parse("module m(a, b); input a; output b; endmodule")
        c = t.clone()
        c.modules[0].port_names.append("x")
        assert t.modules[0].port_names == ["a", "b"]

    def test_parent_map(self):
        t = tree()
        parents = t.parent_map()
        if_stmt = next(n for n in t.walk() if isinstance(n, ast.If))
        assert isinstance(parents[if_stmt.node_id], ast.Block)

    def test_module_lookup_helpers(self):
        t = tree()
        mod = t.module("m")
        assert mod is not None
        assert mod.find_decl("q") is not None
        assert mod.find_decl("nope") is None
        assert t.module("zzz") is None


def _mutable_parts(root):
    """Ids of every node and every list value reachable from ``root``."""
    parts = set()
    for node in root.walk():
        parts.add(id(node))
        for name in node._fields + node._attrs:
            if isinstance(getattr(node, name), list):
                parts.add(id(getattr(node, name)))
    return parts


@pytest.mark.parametrize("name", PROJECT_NAMES)
def test_clone_of_benchsuite_design_is_exact_and_unaliased(name):
    tree = parse(load_project(name).design_text)
    twin = tree.clone()
    assert structural_diff(tree, twin, compare_ids=True) is None
    assert generate(twin) == generate(tree)
    pairs = list(zip(tree.walk(), twin.walk(), strict=True))
    assert all(type(a) is type(b) for a, b in pairs)
    assert any(a.line for a, _ in pairs)
    assert [a.line for a, _ in pairs] == [b.line for _, b in pairs]
    numbers = [(a, b) for a, b in pairs if isinstance(a, ast.Number)]
    assert numbers
    for a, b in numbers:
        assert (a.text, a.width, a.aval, a.bval, a.signed) == (
            b.text, b.width, b.aval, b.bval, b.signed
        )
    for a, b in pairs:
        if isinstance(a, ast.ModuleDef):
            assert b.port_names == a.port_names
            assert b.port_names is not a.port_names
    assert not _mutable_parts(tree) & _mutable_parts(twin)
