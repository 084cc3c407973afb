"""Mini-C frontend for straight-line compute kernels.

The paper's flow uses the HercuLeS HLS tool to turn a C kernel (Fig. 2a) into
a DFG.  This module provides a small, dependency-free substitute: a lexer and
recursive-descent parser for the subset of C that the paper's benchmark
kernels use — a single function of ``int`` inputs and pointer outputs whose
body is a sequence of declarations and assignments over integer expressions.

Supported grammar (informally)::

    kernel     := type IDENT '(' params ')' '{' statement* '}'
    params     := param (',' param)*
    param      := 'int' '*'? IDENT
    statement  := 'int' IDENT '=' expr ';'
                | '*'? IDENT '=' expr ';'
                | 'return' expr ';'
    expr       := shift (('&' | '^' | '|') shift)*          (C precedence)
    shift      := additive (('<<' | '>>') additive)*
    additive   := term (('+' | '-') term)*
    term       := unary (('*') unary)*
    unary      := ('-' | '~')? primary
    primary    := INT | IDENT | IDENT '(' args ')' | '(' expr ')'

Calls to the intrinsic functions ``sqr``, ``abs``, ``min`` and ``max`` map to
the corresponding DFG opcodes.  Division and data-dependent control flow are
rejected with a :class:`~repro.errors.ParseError` — they are outside what the
DSP-based FU supports.

Incremental structure
---------------------
Since the compile-path overhaul the frontend is staged, and every stage is
cached by source content hash (see :mod:`repro.frontend.cache` and
``docs/compiler.md``):

1. **lexing** (:mod:`repro.frontend.lexer`) — source text to an immutable
   token tuple;
2. **parsing** (:func:`parse_ast`) — tokens to an immutable
   :class:`~repro.frontend.syntax.KernelAST`;
3. **lowering** (:func:`lower_ast`) — AST to a fresh
   :class:`~repro.dfg.graph.DFG` through :class:`~repro.dfg.builder.DFGBuilder`,
   optionally running the standard optimizer.

:func:`parse_c_kernel` keeps its original one-call signature but now routes
through the process-wide :class:`~repro.frontend.cache.FrontendCache`, so
repeated calls on unchanged source never re-lex, re-parse or re-lower.
Lowering replays the AST in exactly the order the old single-pass parser
built nodes, so DFG node ids — and therefore every downstream content hash —
are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dfg.builder import DFGBuilder
from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..dfg.transforms import optimize
from ..errors import ParseError
from .lexer import Token, tokenize
from . import syntax
from .syntax import KernelAST

__all__ = [
    "Token",
    "tokenize",
    "parse_ast",
    "lower_ast",
    "parse_c_kernel",
    "INTRINSICS",
]

#: Intrinsic functions of the mini-C dialect: name -> (opcode, arity).
INTRINSICS = {
    "sqr": (OpCode.SQR, 1),
    "abs": (OpCode.ABS, 1),
    "min": (OpCode.MIN, 2),
    "max": (OpCode.MAX, 2),
    "muladd": (OpCode.MULADD, 3),
    "mulsub": (OpCode.MULSUB, 3),
}

# Backwards-compatible alias (pre-overhaul name).
_INTRINSICS = INTRINSICS


# ---------------------------------------------------------------------------
# parser: tokens -> AST
# ---------------------------------------------------------------------------
class _Parser:
    """Recursive-descent parser producing an immutable :class:`KernelAST`."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = list(tokens)
        self.position = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        self.position += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    # -- grammar ------------------------------------------------------------
    def parse_kernel(self) -> KernelAST:
        """Parse one complete kernel function into an AST."""
        self.expect("KEYWORD")  # return type: int or void
        name_token = self.expect("IDENT")
        self.expect("SYMBOL", "(")
        params = self._parse_params()
        self.expect("SYMBOL", ")")
        self.expect("SYMBOL", "{")
        body: List[syntax.Stmt] = []
        while not self.accept("SYMBOL", "}"):
            if self.peek().kind == "EOF":
                raise ParseError("unexpected end of input inside kernel body")
            body.append(self._parse_statement())
        return KernelAST(name=name_token.text, params=tuple(params), body=tuple(body))

    def _parse_params(self) -> List[syntax.Param]:
        params: List[syntax.Param] = []
        if self.peek().kind == "SYMBOL" and self.peek().text == ")":
            return params
        while True:
            keyword = self.expect("KEYWORD")
            if keyword.text not in ("int", "void"):
                raise ParseError(
                    f"unsupported parameter type {keyword.text!r}",
                    keyword.line,
                    keyword.column,
                )
            is_pointer = bool(self.accept("SYMBOL", "*"))
            ident = self.expect("IDENT")
            params.append(
                syntax.Param(
                    name=ident.text,
                    is_pointer=is_pointer,
                    line=ident.line,
                    column=ident.column,
                )
            )
            if not self.accept("SYMBOL", ","):
                break
        return params

    def _parse_statement(self) -> syntax.Stmt:
        token = self.peek()
        if token.kind == "KEYWORD" and token.text == "int":
            self.advance()
            ident = self.expect("IDENT")
            self.expect("SYMBOL", "=")
            value = self._parse_expression()
            self.expect("SYMBOL", ";")
            return syntax.Declaration(
                name=ident.text, expr=value, line=ident.line, column=ident.column
            )
        if token.kind == "KEYWORD" and token.text == "return":
            self.advance()
            value = self._parse_expression()
            self.expect("SYMBOL", ";")
            return syntax.Return(expr=value, line=token.line, column=token.column)
        dereference = bool(self.accept("SYMBOL", "*"))
        ident = self.expect("IDENT")
        self.expect("SYMBOL", "=")
        value = self._parse_expression()
        self.expect("SYMBOL", ";")
        return syntax.Assignment(
            target=ident.text,
            dereference=dereference,
            expr=value,
            line=ident.line,
            column=ident.column,
        )

    # -- expressions (C precedence: * over +/- over <</>> over & ^ |) -------
    def _parse_expression(self) -> syntax.Expr:
        return self._parse_bitor()

    def _binary_chain(self, parse_next, kinds, texts) -> syntax.Expr:
        value = parse_next()
        while self.peek().kind in kinds and (texts is None or self.peek().text in texts):
            op = self.advance()
            value = syntax.Binary(
                op=op.text, lhs=value, rhs=parse_next(), line=op.line, column=op.column
            )
        return value

    def _parse_bitor(self) -> syntax.Expr:
        return self._binary_chain(self._parse_bitxor, ("SYMBOL",), ("|",))

    def _parse_bitxor(self) -> syntax.Expr:
        return self._binary_chain(self._parse_bitand, ("SYMBOL",), ("^",))

    def _parse_bitand(self) -> syntax.Expr:
        return self._binary_chain(self._parse_shift, ("SYMBOL",), ("&",))

    def _parse_shift(self) -> syntax.Expr:
        return self._binary_chain(self._parse_additive, ("SHIFT",), None)

    def _parse_additive(self) -> syntax.Expr:
        return self._binary_chain(self._parse_term, ("SYMBOL",), ("+", "-"))

    def _parse_term(self) -> syntax.Expr:
        return self._binary_chain(self._parse_unary, ("SYMBOL",), ("*",))

    def _parse_unary(self) -> syntax.Expr:
        token = self.peek()
        if token.kind == "SYMBOL" and token.text in ("-", "~"):
            self.advance()
            return syntax.Unary(
                op=token.text,
                operand=self._parse_unary(),
                line=token.line,
                column=token.column,
            )
        return self._parse_primary()

    def _parse_primary(self) -> syntax.Expr:
        token = self.advance()
        if token.kind == "NUMBER":
            return syntax.IntLiteral(
                value=int(token.text, 0), line=token.line, column=token.column
            )
        if token.kind == "IDENT":
            if self.accept("SYMBOL", "("):
                return self._parse_call(token)
            return syntax.Name(ident=token.text, line=token.line, column=token.column)
        if token.kind == "SYMBOL" and token.text == "(":
            value = self._parse_expression()
            self.expect("SYMBOL", ")")
            return value
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _parse_call(self, name_token: Token) -> syntax.Expr:
        name = name_token.text
        if name not in INTRINSICS:
            raise ParseError(
                f"unknown function {name!r} (supported intrinsics: "
                f"{', '.join(sorted(INTRINSICS))})",
                name_token.line,
                name_token.column,
            )
        _, arity = INTRINSICS[name]
        args: List[syntax.Expr] = []
        if not self.accept("SYMBOL", ")"):
            while True:
                args.append(self._parse_expression())
                if self.accept("SYMBOL", ")"):
                    break
                self.expect("SYMBOL", ",")
        if len(args) != arity:
            raise ParseError(
                f"{name} expects {arity} argument(s), got {len(args)}",
                name_token.line,
                name_token.column,
            )
        return syntax.Call(
            func=name, args=tuple(args), line=name_token.line, column=name_token.column
        )


def parse_ast(source: str) -> KernelAST:
    """Parse mini-C source into an immutable AST (no caching, no DFG).

    This is the pure parsing stage of the incremental frontend; most callers
    want :func:`parse_c_kernel`, which adds content-hash caching and lowering.
    """
    return _Parser(tokenize(source)).parse_kernel()


# ---------------------------------------------------------------------------
# lowering: AST -> DFG
# ---------------------------------------------------------------------------
class _Lowering:
    """Replays a :class:`KernelAST` into a DFG via :class:`DFGBuilder`.

    Node creation order matches the old parse-time builder exactly (params in
    declaration order, then statements in order, expressions depth-first and
    left-to-right), so lowering a cached AST produces bit-identical DFGs —
    and therefore identical downstream compile-cache keys.
    """

    def __init__(self, ast: KernelAST, name: Optional[str] = None):
        self.ast = ast
        self.builder = DFGBuilder(name or ast.name)
        self.symbols: Dict[str, int] = {}
        self.output_params: List[str] = []
        self.outputs_written: Dict[str, int] = {}
        self.returned: Optional[int] = None

    def lower(self) -> DFG:
        """Build and validate the DFG for the held AST."""
        for param in self.ast.params:
            if param.is_pointer:
                self.output_params.append(param.name)
            else:
                self.symbols[param.name] = self.builder.input(param.name)
        for stmt in self.ast.body:
            self._lower_statement(stmt)
        self._finish_outputs()
        return self.builder.build()

    # -- statements ---------------------------------------------------------
    def _lower_statement(self, stmt: syntax.Stmt) -> None:
        if isinstance(stmt, syntax.Declaration):
            self.symbols[stmt.name] = self._lower_expr(stmt.expr)
            return
        if isinstance(stmt, syntax.Return):
            value = self._lower_expr(stmt.expr)
            if self.returned is not None:
                raise ParseError("multiple return statements", stmt.line, stmt.column)
            self.returned = value
            return
        assert isinstance(stmt, syntax.Assignment)
        value = self._lower_expr(stmt.expr)
        if stmt.dereference or stmt.target in self.output_params:
            if stmt.target not in self.output_params:
                raise ParseError(
                    f"{stmt.target!r} is not an output parameter", stmt.line, stmt.column
                )
            self.outputs_written[stmt.target] = value
        else:
            self.symbols[stmt.target] = value

    def _finish_outputs(self) -> None:
        produced = False
        for name in self.output_params:
            if name in self.outputs_written:
                self.builder.output(self.outputs_written[name], name)
                produced = True
        if self.returned is not None:
            self.builder.output(self.returned, "O_return")
            produced = True
        if not produced:
            raise ParseError("kernel produces no outputs (no return or *out assignment)")

    # -- expressions --------------------------------------------------------
    _BINARY_BUILDERS = {
        "|": "or_",
        "^": "xor",
        "&": "and_",
        "<<": "shl",
        ">>": "shr",
        "+": "add",
        "-": "sub",
        "*": "mul",
    }

    def _lower_expr(self, expr: syntax.Expr) -> int:
        if isinstance(expr, syntax.IntLiteral):
            return self.builder.const(expr.value)
        if isinstance(expr, syntax.Name):
            if expr.ident not in self.symbols:
                raise ParseError(
                    f"use of undefined variable {expr.ident!r}", expr.line, expr.column
                )
            return self.symbols[expr.ident]
        if isinstance(expr, syntax.Unary):
            operand = self._lower_expr(expr.operand)
            return self.builder.neg(operand) if expr.op == "-" else self.builder.not_(operand)
        if isinstance(expr, syntax.Binary):
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            return getattr(self.builder, self._BINARY_BUILDERS[expr.op])(lhs, rhs)
        assert isinstance(expr, syntax.Call)
        opcode, _ = INTRINSICS[expr.func]
        args = [self._lower_expr(a) for a in expr.args]
        return self.builder.op(opcode, *args)


def lower_ast(
    ast: KernelAST, name: Optional[str] = None, run_optimizer: bool = True
) -> DFG:
    """Lower a parsed kernel AST into a fresh DFG.

    Parameters
    ----------
    ast:
        A :class:`KernelAST` from :func:`parse_ast` (or the frontend cache).
    name:
        Override the kernel name (defaults to the C function name).
    run_optimizer:
        Apply the standard optimization pipeline to the lowered graph,
        mirroring what the HLS frontend would produce.

    Raises
    ------
    ParseError
        On semantic errors: undefined variables, writes through non-output
        pointers, multiple ``return`` statements, or a kernel that produces
        no outputs.
    """
    dfg = _Lowering(ast, name=name).lower()
    if run_optimizer:
        optimized = optimize(dfg)
        optimized.name = dfg.name
        return optimized
    return dfg


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------
def parse_c_kernel(
    source: str, name: Optional[str] = None, run_optimizer: bool = True
) -> DFG:
    """Parse a mini-C kernel into a DFG (cached by source content hash).

    Parameters
    ----------
    source:
        Kernel source text (a single function, see module docstring).
    name:
        Override the kernel name (defaults to the C function name).
    run_optimizer:
        Apply the standard optimization pipeline to the extracted graph,
        mirroring what the HLS frontend would produce.

    Repeated calls with byte-identical source hit the process-wide
    :class:`~repro.frontend.cache.FrontendCache` — the AST and the lowered
    DFG are both memoised, and a fresh :meth:`~repro.dfg.graph.DFG.copy`
    is returned each time so callers can annotate/transform freely.  Any edit
    to the source changes its hash and recompiles from the stage that
    actually changed.
    """
    from .cache import default_frontend_cache

    return default_frontend_cache().dfg(source, name=name, run_optimizer=run_optimizer)
