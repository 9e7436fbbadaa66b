"""Parser unit tests."""

import pytest

from repro.hdl import ast, parse
from repro.hdl.parser import ParseError, parse_number_literal


def module_of(source):
    return parse(source).modules[0]


def first_item(source, item_type):
    for item in module_of(source).items:
        if isinstance(item, item_type):
            return item
    raise AssertionError(f"no {item_type.__name__} found")


class TestModules:
    def test_empty_module(self):
        mod = module_of("module m; endmodule")
        assert mod.name == "m"
        assert mod.items == []

    def test_port_name_list(self):
        mod = module_of("module m(a, b, c); input a, b; output c; endmodule")
        assert mod.port_names == ["a", "b", "c"]

    def test_ansi_ports(self):
        mod = module_of("module m(input clk, output reg [3:0] q); endmodule")
        decls = mod.decls()
        assert decls[0].kind == "input"
        assert decls[1].kind == "output"
        assert decls[1].reg_flag is True

    def test_header_parameters(self):
        mod = module_of("module m #(parameter W = 8)(input [W-1:0] d); endmodule")
        assert mod.decls()[0].name == "W"

    def test_multiple_modules(self):
        src = parse("module a; endmodule module b; endmodule")
        assert [m.name for m in src.modules] == ["a", "b"]

    def test_missing_endmodule_raises(self):
        with pytest.raises(ParseError):
            parse("module m; wire w;")


class TestDeclarations:
    def test_vector_wire(self):
        decl = first_item("module m; wire [7:0] w; endmodule", ast.Decl)
        assert decl.kind == "wire"
        assert decl.msb.aval == 7

    def test_multiple_names_expand(self):
        mod = module_of("module m; reg a, b, c; endmodule")
        assert [d.name for d in mod.decls()] == ["a", "b", "c"]

    def test_memory_declaration(self):
        decl = first_item("module m; reg [7:0] mem [0:255]; endmodule", ast.Decl)
        assert decl.array_msb is not None

    def test_initialised_reg(self):
        decl = first_item("module m; reg r = 1'b0; endmodule", ast.Decl)
        assert isinstance(decl.init, ast.Number)

    def test_parameter_and_localparam(self):
        mod = module_of("module m; parameter P = 3; localparam Q = P + 1; endmodule")
        kinds = [d.kind for d in mod.decls()]
        assert kinds == ["parameter", "localparam"]

    def test_event_declaration(self):
        decl = first_item("module m; event go; endmodule", ast.Decl)
        assert decl.kind == "event"

    def test_integer_declaration(self):
        decl = first_item("module m; integer i; endmodule", ast.Decl)
        assert decl.kind == "integer"

    def test_signed_reg(self):
        decl = first_item("module m; reg signed [7:0] s; endmodule", ast.Decl)
        assert decl.signed is True


class TestBehaviour:
    def test_continuous_assign(self):
        item = first_item("module m; wire w; assign w = 1'b1; endmodule", ast.ContinuousAssign)
        assert isinstance(item.lhs, ast.Identifier)

    def test_assign_with_delay(self):
        item = first_item("module m; wire w; assign #3 w = 1'b1; endmodule", ast.ContinuousAssign)
        assert item.delay is not None

    def test_always_posedge(self):
        item = first_item(
            "module m; reg q; always @(posedge clk) q <= 1; endmodule", ast.Always
        )
        assert item.senslist.items[0].edge == "posedge"

    def test_always_star(self):
        item = first_item("module m; reg q; always @(*) q = 1; endmodule", ast.Always)
        assert item.senslist.items[0].edge == "all"

    def test_always_bare_star(self):
        item = first_item("module m; reg q; always @* q = 1; endmodule", ast.Always)
        assert item.senslist.items[0].edge == "all"

    def test_senslist_or_and_comma(self):
        item = first_item(
            "module m; reg q; always @(a or b, posedge c) q = 1; endmodule", ast.Always
        )
        assert len(item.senslist.items) == 3
        assert item.senslist.items[2].edge == "posedge"

    def test_always_without_senslist(self):
        item = first_item("module m; reg c; always #5 c = !c; endmodule", ast.Always)
        assert item.senslist is None
        assert isinstance(item.body, ast.DelayStmt)

    def test_initial_block(self):
        item = first_item("module m; reg r; initial r = 0; endmodule", ast.Initial)
        assert isinstance(item.body, ast.BlockingAssign)


class TestStatements:
    def _stmt(self, body):
        item = first_item(f"module m; reg a, b; integer i; initial {body} endmodule", ast.Initial)
        return item.body

    def test_nonblocking_with_delay(self):
        stmt = self._stmt("a <= #1 b;")
        assert isinstance(stmt, ast.NonBlockingAssign)
        assert stmt.delay.aval == 1

    def test_blocking_with_delay(self):
        stmt = self._stmt("a = #2 b;")
        assert isinstance(stmt, ast.BlockingAssign)

    def test_if_else_chain(self):
        stmt = self._stmt("if (a) b = 1; else if (b) a = 1; else a = 0;")
        assert isinstance(stmt.else_stmt, ast.If)

    def test_dangling_else_binds_inner(self):
        stmt = self._stmt("if (a) if (b) a = 1; else a = 0;")
        assert stmt.else_stmt is None
        assert stmt.then_stmt.else_stmt is not None

    def test_case_with_default(self):
        stmt = self._stmt("case (a) 1'b0 : b = 0; default : b = 1; endcase")
        assert isinstance(stmt, ast.Case)
        assert stmt.items[1].exprs == []

    def test_case_multi_label(self):
        stmt = self._stmt("case (i) 1, 2, 3 : b = 0; endcase")
        assert len(stmt.items[0].exprs) == 3

    def test_casez(self):
        stmt = self._stmt("casez (a) 1'b? : b = 1; endcase")
        assert stmt.kind == "casez"

    def test_for_loop(self):
        stmt = self._stmt("for (i = 0; i < 8; i = i + 1) b = a;")
        assert isinstance(stmt, ast.For)

    def test_while_loop(self):
        stmt = self._stmt("while (i < 8) i = i + 1;")
        assert isinstance(stmt, ast.While)

    def test_repeat_and_forever(self):
        assert isinstance(self._stmt("repeat (4) a = b;"), ast.RepeatStmt)
        assert isinstance(self._stmt("forever #5 a = !a;"), ast.Forever)

    def test_wait_statement(self):
        stmt = self._stmt("wait (a == 1) b = 1;")
        assert isinstance(stmt, ast.Wait)

    def test_event_control_statement(self):
        stmt = self._stmt("@(posedge a) b = 1;")
        assert isinstance(stmt, ast.EventControl)

    def test_event_trigger(self):
        item = first_item("module m; event e; initial -> e; endmodule", ast.Initial)
        assert isinstance(item.body, ast.EventTrigger)

    def test_named_block_and_disable(self):
        stmt = self._stmt("begin : blk a = 1; disable blk; end")
        assert stmt.name == "blk"
        assert isinstance(stmt.stmts[1], ast.Disable)

    def test_system_task_with_args(self):
        stmt = self._stmt('$display("x=%d", a);')
        assert stmt.name == "$display"
        assert len(stmt.args) == 2

    def test_system_task_no_parens(self):
        stmt = self._stmt("$finish;")
        assert stmt.name == "$finish"

    def test_concat_lvalue(self):
        stmt = self._stmt("{a, b} = 2'b10;")
        assert isinstance(stmt.lhs, ast.Concat)

    def test_null_statement(self):
        assert isinstance(self._stmt(";"), ast.NullStmt)


class TestExpressions:
    def _expr(self, text):
        item = first_item(f"module m; wire [31:0] w; assign w = {text}; endmodule", ast.ContinuousAssign)
        return item.rhs

    def test_precedence_mul_over_add(self):
        expr = self._expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_compare_over_logical(self):
        expr = self._expr("a == b && c")
        assert expr.op == "&&"

    def test_ternary(self):
        expr = self._expr("sel ? a : b")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_assoc(self):
        expr = self._expr("s1 ? a : s2 ? b : c")
        assert isinstance(expr.false_expr, ast.Ternary)

    def test_unary_reduction(self):
        expr = self._expr("^a")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "^"

    def test_index_and_partselect(self):
        assert isinstance(self._expr("a[3]"), ast.Index)
        assert isinstance(self._expr("a[7:4]"), ast.PartSelect)

    def test_concat(self):
        expr = self._expr("{a, b, 2'b01}")
        assert isinstance(expr, ast.Concat)
        assert len(expr.parts) == 3

    def test_replication(self):
        expr = self._expr("{4{a}}")
        assert isinstance(expr, ast.Repeat_)

    def test_function_call(self):
        expr = self._expr("f(a, b)")
        assert isinstance(expr, ast.FunctionCall)

    def test_system_function_call(self):
        expr = self._expr("$time")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "$time"


class TestNumberLiterals:
    def test_plain_decimal_is_signed_32(self):
        num = parse_number_literal("42")
        assert (num.width, num.aval, num.signed) == (None, 42, True)

    def test_sized_binary(self):
        num = parse_number_literal("4'b1010")
        assert (num.width, num.aval, num.bval) == (4, 0b1010, 0)

    def test_hex_with_x_digit(self):
        num = parse_number_literal("8'hFx")
        assert num.aval & 0xF == 0xF
        assert num.bval & 0xF == 0xF

    def test_z_extension_to_width(self):
        num = parse_number_literal("8'bz")
        assert num.bval == 0xFF
        assert num.aval == 0

    def test_question_mark_is_z(self):
        num = parse_number_literal("4'b10?0")
        assert num.bval == 0b0010

    def test_truncation_to_width(self):
        num = parse_number_literal("2'h10")
        assert num.aval == 0  # 0x10 truncated to 2 bits

    def test_decimal_sized(self):
        num = parse_number_literal("16'd1000")
        assert num.aval == 1000


class TestInstances:
    def test_named_connections(self):
        inst = first_item(
            "module m; wire a; sub u(.x(a), .y()); endmodule", ast.Instance
        )
        assert inst.module_name == "sub"
        assert inst.ports[0].name == "x"
        assert inst.ports[1].expr is None

    def test_positional_connections(self):
        inst = first_item("module m; wire a, b; sub u(a, b); endmodule", ast.Instance)
        assert all(p.name is None for p in inst.ports)

    def test_parameter_override(self):
        inst = first_item("module m; sub #(.W(8)) u(); endmodule", ast.Instance)
        assert inst.params[0].name == "W"


class TestFunctionsAndTasks:
    def test_function_definition(self):
        fn = first_item(
            "module m; function [7:0] inc; input [7:0] x; inc = x + 1; endfunction endmodule",
            ast.FunctionDef,
        )
        assert fn.name == "inc"
        assert fn.decls[0].kind == "input"

    def test_task_definition(self):
        tk = first_item(
            "module m; task pulse; input v; begin v = 1; #5; end endtask endmodule",
            ast.TaskDef,
        )
        assert tk.name == "pulse"
