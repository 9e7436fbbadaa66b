"""Seeded random Verilog-2001 program generator.

Generates self-contained design + testbench pairs constrained to the
subset :mod:`repro.hdl` supports: module declarations (with optional
submodule instantiation), blocking/non-blocking assignments, ``if`` /
``case``, sensitivity lists, delays, and 4-state literals.

Every random choice flows through a :class:`DecisionTrace`, so a program
is fully determined by its decision list.  That makes failing programs
*shrinkable*: delta-reduce the recorded decisions and replay
(:mod:`repro.fuzz.shrink`).  Two invariants keep replay robust under
arbitrary list surgery:

- out-of-range replayed decisions are clamped with ``value % n``;
- an exhausted trace yields 0, and by convention decision 0 is always
  the *simplest* alternative (fewest signals, shallowest expression,
  plainest statement), so deleting a decision span simplifies the
  program rather than derailing generation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hdl import ast, generate
from ..hdl.parser import parse_number_literal


class DecisionTrace:
    """Records (or replays) the integer decisions driving generation."""

    def __init__(self, seed: int | None = None, script: list[int] | None = None):
        self._rng = random.Random(seed) if script is None else None
        self._script = script
        self._pos = 0
        self.decisions: list[int] = []

    def decide(self, n: int) -> int:
        """A decision in ``range(n)`` — drawn fresh or replayed."""
        if n <= 0:
            raise ValueError("decide() needs at least one alternative")
        if self._script is not None:
            raw = self._script[self._pos] if self._pos < len(self._script) else 0
            self._pos += 1
            value = raw % n
        else:
            assert self._rng is not None
            value = self._rng.randrange(n)
        self.decisions.append(value)
        return value

    def maybe(self, percent: int) -> bool:
        """True with roughly ``percent``% probability (0 = False)."""
        return self.decide(100) < percent


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated design/testbench pair plus its provenance.

    ``source`` is the AST the builder constructed *before* code
    generation — the round-trip oracle's reference: whatever
    ``parse(text)`` returns must be structurally identical to it, which
    is what catches systematic codegen faults that would otherwise be a
    stable (wrong) fixpoint of parse → codegen.
    """

    seed: int
    design_text: str
    testbench_text: str
    decisions: tuple[int, ...] = field(repr=False)
    source: ast.Source = field(repr=False, compare=False)

    @property
    def text(self) -> str:
        """The full single-file program (design then testbench)."""
        return self.design_text + "\n" + self.testbench_text


#: Width palette for generated signals.
_WIDTHS = (1, 2, 3, 4, 8)

DUT_NAME = "fuzz_dut"
TB_NAME = "fuzz_tb"
SUB_NAME = "fuzz_sub"


def _lit(text: str) -> ast.Number:
    """A literal node whose planes match its spelling."""
    return parse_number_literal(text)


def _ident(name: str) -> ast.Identifier:
    return ast.Identifier(name)


class _Builder:
    """Builds one program from a decision trace."""

    def __init__(self, trace: DecisionTrace):
        self.t = trace
        #: name -> width for every signal readable at the current point.
        self.readable: dict[str, int] = {}

    # -- expressions ---------------------------------------------------

    def literal(self, width: int, allow_xz: bool = True) -> ast.Number:
        choice = self.t.decide(5 if allow_xz else 4)
        if choice == 0:
            return _lit(str(self.t.decide(4)))
        if choice == 1:
            return _lit(f"{width}'d{self.t.decide(1 << min(width, 8))}")
        if choice == 2:
            bits = "".join("01"[self.t.decide(2)] for _ in range(width))
            return _lit(f"{width}'b{bits}")
        if choice == 3:
            digits = max(1, (width + 3) // 4)
            hex_digits = "0123456789abcdef"
            text = "".join(hex_digits[self.t.decide(16)] for _ in range(digits))
            return _lit(f"{width}'h{text}")
        bits = "".join("01xz"[self.t.decide(4)] for _ in range(width))
        return _lit(f"{width}'b{bits}")

    def operand(self, allow_xz: bool = True) -> ast.Expr:
        """A leaf: a readable signal (maybe selected into) or a literal."""
        names = sorted(self.readable)
        choice = self.t.decide(3 if names else 1)
        if not names or choice == 2:
            return self.literal(_WIDTHS[self.t.decide(len(_WIDTHS))], allow_xz)
        name = names[self.t.decide(len(names))]
        width = self.readable[name]
        if choice == 1 and width > 1:
            kind = self.t.decide(2)
            if kind == 0:
                return ast.Index(_ident(name), _lit(str(self.t.decide(width))))
            msb = self.t.decide(width)
            lsb = self.t.decide(msb + 1)
            return ast.PartSelect(_ident(name), _lit(str(msb)), _lit(str(lsb)))
        return _ident(name)

    _UNARY_OPS = ("~", "!", "-", "&", "|", "^")
    _BINARY_OPS = (
        "&", "|", "^", "+", "-", "*", "<<", ">>",
        "==", "!=", "<", "<=", ">", ">=", "&&", "||",
    )

    def expr(self, depth: int, allow_xz: bool = True) -> ast.Expr:
        """A random expression of at most ``depth`` operator levels."""
        if depth <= 0:
            return self.operand(allow_xz)
        choice = self.t.decide(6)
        if choice == 0:
            return self.operand(allow_xz)
        if choice == 1:
            op = self._UNARY_OPS[self.t.decide(len(self._UNARY_OPS))]
            return ast.UnaryOp(op, self.expr(depth - 1, allow_xz))
        if choice in (2, 3):
            op = self._BINARY_OPS[self.t.decide(len(self._BINARY_OPS))]
            return ast.BinaryOp(
                op, self.expr(depth - 1, allow_xz), self.expr(depth - 1, allow_xz)
            )
        if choice == 4:
            return ast.Ternary(
                self.expr(depth - 1, allow_xz),
                self.expr(depth - 1, allow_xz),
                self.expr(depth - 1, allow_xz),
            )
        parts = [self.expr(depth - 1, allow_xz) for _ in range(2 + self.t.decide(2))]
        return ast.Concat(parts)

    # -- statements ----------------------------------------------------

    def _assign(self, name: str, nonblocking: bool, depth: int) -> ast.Stmt:
        rhs = self.expr(depth)
        delay = _lit(str(1 + self.t.decide(3))) if self.t.maybe(15) else None
        cls = ast.NonBlockingAssign if nonblocking else ast.BlockingAssign
        return cls(_ident(name), rhs, delay)

    def update_stmt(self, name: str, nonblocking: bool) -> ast.Stmt:
        """One update for register ``name``: assign, if/else, or case."""
        shape = self.t.decide(3)
        if shape == 0:
            return self._assign(name, nonblocking, 2)
        if shape == 1:
            stmt = ast.If(
                self.expr(1),
                self._assign(name, nonblocking, 2),
                self._assign(name, nonblocking, 1) if self.t.maybe(60) else None,
            )
            if self.t.maybe(25):  # nest once
                stmt = ast.If(self.expr(1), stmt, None)
            return stmt
        kind = ("case", "casez", "casex")[self.t.decide(3)]
        scrutinee = self.operand()
        width = 2
        items = [
            ast.CaseItem(
                [self.literal(width, allow_xz=kind != "case")],
                self._assign(name, nonblocking, 1),
            )
            for _ in range(1 + self.t.decide(3))
        ]
        if self.t.maybe(70):
            items.append(ast.CaseItem([], self._assign(name, nonblocking, 1)))
        return ast.Case(kind, scrutinee, items)

    # -- modules -------------------------------------------------------

    def build(self, seed: int) -> GeneratedProgram:
        modules: list[ast.ModuleDef] = []
        use_sub = self.t.maybe(30)
        if use_sub:
            modules.append(self._submodule())

        # Interface of the design under test.
        inputs = {"clk": 1, "rst": 1}
        for i in range(1 + self.t.decide(3)):
            inputs[f"d{i}"] = _WIDTHS[self.t.decide(len(_WIDTHS))]
        self.readable = dict(inputs)

        items: list[ast.ModuleItem] = [
            ast.Decl("input", name, *_range_exprs(width), reg_flag=False)
            for name, width in inputs.items()
        ]
        outputs: dict[str, int] = {}

        # Layered continuous assigns (acyclic: rhs reads earlier signals).
        wires: dict[str, int] = {}
        for i in range(self.t.decide(3)):
            name, width = f"w{i}", _WIDTHS[self.t.decide(len(_WIDTHS))]
            items.append(ast.Decl("output", name, *_range_exprs(width)))
            delay = _lit(str(1 + self.t.decide(2))) if self.t.maybe(20) else None
            items.append(ast.ContinuousAssign(_ident(name), self.expr(2), delay))
            wires[name] = width
            self.readable[name] = width
            outputs[name] = width

        if use_sub:
            items.append(ast.Decl("output", "sy", *_range_exprs(4)))
            items.append(self._sub_instance())
            outputs["sy"] = 4

        # Sequential registers, one clocked block.
        seq: dict[str, int] = {}
        for i in range(1 + self.t.decide(2)):
            name, width = f"q{i}", _WIDTHS[self.t.decide(len(_WIDTHS))]
            items.append(ast.Decl("output", name, *_range_exprs(width), reg_flag=True))
            seq[name] = width
            outputs[name] = width
        self.readable.update(seq)
        async_rst = self.t.maybe(40)
        sens = [ast.SensItem("posedge", _ident("clk"))]
        if async_rst:
            sens.append(ast.SensItem("posedge", _ident("rst")))
        updates: list[ast.Stmt] = [
            self.update_stmt(name, nonblocking=True) for name in seq
        ]
        body: ast.Stmt = ast.Block(updates)
        if async_rst or self.t.maybe(50):
            resets: list[ast.Stmt] = [
                ast.NonBlockingAssign(_ident(name), self.literal(width, allow_xz=False))
                for name, width in seq.items()
            ]
            body = ast.If(_ident("rst"), ast.Block(resets), body)
        items.append(ast.Always(ast.SensList(sens), body))

        # Combinational always blocks, layered like the wires.
        for i in range(self.t.decide(2)):
            name, width = f"c{i}", _WIDTHS[self.t.decide(len(_WIDTHS))]
            items.append(ast.Decl("output", name, *_range_exprs(width), reg_flag=True))
            items.append(
                ast.Always(
                    ast.SensList([ast.SensItem("all", None)]),
                    ast.Block([self.update_stmt(name, nonblocking=False)]),
                )
            )
            self.readable[name] = width
            outputs[name] = width

        port_names = list(inputs) + list(outputs)
        modules.append(ast.ModuleDef(DUT_NAME, port_names, items))
        tb_module = self._testbench(inputs, outputs)
        design_text = generate(ast.Source(modules))
        tb_text = generate(ast.Source([tb_module]))
        return GeneratedProgram(
            seed,
            design_text,
            tb_text,
            tuple(self.t.decisions),
            ast.Source(modules + [tb_module]),
        )

    def _submodule(self) -> ast.ModuleDef:
        """A tiny pure-combinational helper module."""
        items: list[ast.ModuleItem] = [
            ast.Decl("input", "a", *_range_exprs(4)),
            ast.Decl("input", "b", *_range_exprs(4)),
            ast.Decl("output", "y", *_range_exprs(4)),
        ]
        saved = self.readable
        self.readable = {"a": 4, "b": 4}
        items.append(ast.ContinuousAssign(_ident("y"), self.expr(2)))
        self.readable = saved
        return ast.ModuleDef(SUB_NAME, ["a", "b", "y"], items)

    def _sub_instance(self) -> ast.ModuleItem:
        names = sorted(self.readable)
        a = names[self.t.decide(len(names))]
        b = names[self.t.decide(len(names))]
        self.readable["sy"] = 4
        args: list[ast.Expr | None] = [_ident(a), _ident(b), _ident("sy")]
        if self.t.maybe(50):
            ports = [
                ast.PortArg(pname, arg)
                for pname, arg in zip(("a", "b", "y"), args)
            ]
        else:
            ports = [ast.PortArg(None, arg) for arg in args]
        return ast.Instance(SUB_NAME, "u_sub", ports)

    def _testbench(
        self, inputs: dict[str, int], outputs: dict[str, int]
    ) -> ast.ModuleDef:
        items: list[ast.ModuleItem] = []
        for name, width in inputs.items():
            items.append(ast.Decl("reg", name, *_range_exprs(width)))
        for name, width in outputs.items():
            items.append(ast.Decl("wire", name, *_range_exprs(width)))
        items.append(
            ast.Instance(
                DUT_NAME,
                "dut",
                [
                    ast.PortArg(name, _ident(name))
                    for name in list(inputs) + list(outputs)
                ],
            )
        )
        # Clock and async reset release.
        items.append(
            ast.Always(
                None,
                ast.DelayStmt(
                    _lit("5"),
                    ast.BlockingAssign(_ident("clk"), ast.UnaryOp("~", _ident("clk"))),
                ),
            )
        )
        stim: list[ast.Stmt] = [
            ast.BlockingAssign(_ident("clk"), _lit("0")),
            ast.BlockingAssign(_ident("rst"), _lit("1")),
        ]
        data = [name for name in inputs if name not in ("clk", "rst")]
        for name in data:
            stim.append(
                ast.BlockingAssign(_ident(name), self.literal(inputs[name], False))
            )
        stim.append(
            ast.DelayStmt(_lit("7"), ast.BlockingAssign(_ident("rst"), _lit("0")))
        )
        for _ in range(1 + self.t.decide(6)):
            delay = _lit(str(1 + self.t.decide(12)))
            target = data[self.t.decide(len(data))] if data else "rst"
            value = self.literal(inputs.get(target, 1), allow_xz=self.t.maybe(25))
            stim.append(
                ast.DelayStmt(delay, ast.BlockingAssign(_ident(target), value))
            )
        stim.append(ast.DelayStmt(_lit("20"), ast.SysTaskCall("$finish", [])))
        items.append(ast.Initial(ast.Block(stim)))
        items.append(
            ast.Always(
                ast.SensList([ast.SensItem("negedge", _ident("clk"))]),
                ast.SysTaskCall(
                    "$cirfix_record", [_ident(name) for name in outputs]
                ),
            )
        )
        return ast.ModuleDef(TB_NAME, [], items)


def _range_exprs(width: int) -> tuple[ast.Expr | None, ast.Expr | None]:
    """``(msb, lsb)`` Decl range for a width (None/None for 1 bit)."""
    if width <= 1:
        return None, None
    return _lit(str(width - 1)), _lit("0")


def generate_program(seed: int) -> GeneratedProgram:
    """Generate the program for ``seed`` (deterministic)."""
    return _Builder(DecisionTrace(seed=seed)).build(seed)


def replay_program(decisions: list[int], seed: int = -1) -> GeneratedProgram:
    """Rebuild a program from a (possibly shrunk) decision list."""
    return _Builder(DecisionTrace(script=decisions)).build(seed)
