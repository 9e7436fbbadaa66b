"""Extended (future-work) template tests: the extension rows of the
template table in :mod:`repro.core.templates`."""

import pytest

from repro.core.patch import Edit, Patch
from repro.core.templates import (
    EXTENDED_TEMPLATES,
    TEMPLATES,
    applicable_templates,
    apply_template,
    extra_candidates,
)
from repro.hdl import ast, generate, parse

SRC = """
module m;
  reg [7:0] counter;
  reg flag;
  always @(posedge clk) begin
    if (counter == 8'd200) begin
      flag <= 1'b1;
    end
    else begin
      flag <= 1'b0;
    end
    counter <= counter + 1;
  end
endmodule
"""


def tree():
    return parse(SRC)


def find(t, node_type, predicate=lambda n: True):
    return next(n for n in t.walk() if isinstance(n, node_type) and predicate(n))


def extension_names(node):
    return applicable_templates(node, extension=True)


def decl_q(src):
    t = parse(src)
    return t, find(t, ast.Decl, lambda d: d.name == "q")


class TestApplicability:
    def test_four_extension_templates(self):
        assert len(EXTENDED_TEMPLATES) == 4
        assert all(TEMPLATES[name].extension for name in EXTENDED_TEMPLATES)

    def test_extension_names_stay_out_of_the_paper_set(self):
        t = tree()
        for node in t.walk():
            assert not set(applicable_templates(node)) & set(EXTENDED_TEMPLATES)

    def test_swap_needs_else(self):
        t = tree()
        if_node = find(t, ast.If)
        assert "swap_if_branches" in extension_names(if_node)
        t2 = parse("module m; reg r; always @(*) if (r) r = 0; endmodule")
        lone_if = find(t2, ast.If)
        assert "swap_if_branches" not in extension_names(lone_if)

    def test_widen_needs_vector_decl(self):
        t = tree()
        vector = find(t, ast.Decl, lambda d: d.name == "counter")
        scalar = find(t, ast.Decl, lambda d: d.name == "flag")
        assert "widen_register" in extension_names(vector)
        assert "widen_register" not in extension_names(scalar)

    @pytest.mark.parametrize("rng", ["[0:7]", "[7:4]", "[7:W]"])
    def test_widen_applies_to_any_range(self, rng):
        # Applicability looks only at the shape; the rewrite refuses a
        # range it cannot double (see TestApplication).
        _, decl = decl_q(f"module m; parameter W = 2; reg {rng} q; endmodule")
        assert "widen_register" in extension_names(decl)

    def test_negate_equality_on_comparison(self):
        t = tree()
        cmp_node = find(t, ast.BinaryOp, lambda n: n.op == "==")
        assert "negate_equality" in extension_names(cmp_node)


class TestApplication:
    def test_swap_if_branches(self):
        t = tree()
        if_node = find(t, ast.If)
        assert apply_template("swap_if_branches", t, if_node.node_id, 90_000)
        text = generate(t)
        assert text.index("flag <= 1'b0;") < text.index("flag <= 1'b1;")

    def test_widen_register_doubles_width(self):
        t = tree()
        decl = find(t, ast.Decl, lambda d: d.name == "counter")
        assert apply_template("widen_register", t, decl.node_id, 90_000)
        assert "reg [15:0] counter;" in generate(t)

    @pytest.mark.parametrize(
        "before, after",
        [
            ("[0:7]", "[0:15]"),  # ascending: 8 bits become 16, still ascending
            ("[7:4]", "[11:4]"),  # 4 bits become 8, the lsb index stays
            ("[3:3]", "[4:3]"),
        ],
    )
    def test_widen_register_doubles_the_real_width(self, before, after):
        t, decl = decl_q(f"module m; reg {before} q; endmodule")
        assert apply_template("widen_register", t, decl.node_id, 90_000)
        assert f"reg {after} q;" in generate(t)

    def test_widen_register_refuses_a_symbolic_lsb(self):
        t, decl = decl_q("module m; parameter W = 2; reg [7:W] q; endmodule")
        before = generate(t)
        assert not apply_template("widen_register", t, decl.node_id, 90_000)
        assert generate(t) == before

    def test_zero_assignment_duplicates_with_zero(self):
        t = tree()
        nba = find(t, ast.NonBlockingAssign, lambda n: isinstance(n.rhs, ast.BinaryOp))
        assert apply_template("zero_assignment", t, nba.node_id, 90_000)
        assert "counter <= 0;" in generate(t)

    def test_negate_equality_flips(self):
        t = tree()
        cmp_node = find(t, ast.BinaryOp, lambda n: n.op == "==")
        assert apply_template("negate_equality", t, cmp_node.node_id, 90_000)
        assert "!=" in generate(t)

    def test_dispatch_through_core_apply_template(self):
        t = tree()
        if_node = find(t, ast.If)
        assert apply_template("swap_if_branches", t, if_node.node_id, 90_000)

    def test_patch_edit_integration(self):
        t = tree()
        decl = find(t, ast.Decl, lambda d: d.name == "counter")
        patch = Patch([Edit("template", decl.node_id, template="widen_register")])
        assert "[15:0]" in generate(patch.apply(t))

    def test_results_reparse(self):
        for name in EXTENDED_TEMPLATES:
            t = tree()
            for node in list(t.walk()):
                if name in extension_names(node) and node.node_id:
                    assert apply_template(name, t, node.node_id, 90_000)
                    parse(generate(t))
                    break


class TestExtraCandidates:
    def test_decl_of_implicated_identifier_targeted(self):
        t = tree()
        # Implicate the counter increment assignment.
        nba = find(t, ast.NonBlockingAssign, lambda n: isinstance(n.rhs, ast.BinaryOp))
        fault_ids = {n.node_id for n in nba.walk()}
        candidates = extra_candidates(t, fault_ids)
        decl = find(t, ast.Decl, lambda d: d.name == "counter")
        assert (decl.node_id, "widen_register") in candidates

    def test_unrelated_decls_not_targeted(self):
        t = tree()
        candidates = extra_candidates(t, set())
        assert candidates == []
