"""Parser and evaluator for the scenario expression mini-language.

Grammar (precedence high to low): ``^`` with integer exponents (right
associative), unary ``-``, ``*`` ``/``, ``+`` ``-``; parentheses;
functions exp, conj, re, im, sqrt; variables x, y, z (= x + iy) and
zbar; literals like ``1.5`` and ``2i``.  Errors carry line/column
positions.
"""

from __future__ import annotations

import re as _re
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExpressionError
from .grid import _row_blocks

VARIABLES = ("x", "y", "z", "zbar")
FUNCTIONS: dict[str, Callable] = {
    "exp": np.exp,
    "conj": np.conj,
    "re": lambda v: np.real(v) + 0j,
    "im": lambda v: np.imag(v) + 0j,
    "sqrt": np.sqrt,
}

#: largest exponent magnitude, for a literal and for a tower's value
MAX_EXPONENT = 1024

_NUM_RE = _re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = _re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class Token(NamedTuple):
    kind: str  # number | imag | ident | op | end
    text: str
    line: int
    column: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    n = len(src)
    line = 1
    line_start = 0
    while pos < n:
        ch = src[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        col = pos - line_start + 1
        m = _NUM_RE.match(src, pos)
        if m:
            text = m.group(0)
            pos = m.end()
            is_imag = (pos < n and src[pos] == "i"
                       and (pos + 1 >= n
                            or not (src[pos + 1].isalnum() or src[pos + 1] == "_")))
            pos += is_imag
            tokens.append(Token("imag" if is_imag else "number", text, line, col))
            continue
        m = _IDENT_RE.match(src, pos)
        if m:
            tokens.append(Token("ident", m.group(0), line, col))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(Token("op", ch, line, col))
            pos += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, n - line_start + 1))
    return tokens


# AST nodes: tuples whose fields are the node's data and its child nodes
class Num(NamedTuple):
    value: complex


class Var(NamedTuple):
    name: str


class Call(NamedTuple):
    fn: str
    arg: object


class Neg(NamedTuple):
    operand: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ExpressionError(message, tok.line, tok.column)

    def parse(self):
        node = self.expr()
        if (tok := self.peek()).kind != "end":
            self.error(f"unexpected {tok.text!r} after expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        # integer literals only; towers associate to the right and are
        # bounded by MAX_EXPONENT before they are computed
        sign = 1
        while self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            sign = -sign
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():  # no point, no exponent
            self.error("exponent must be an integer literal")
        digits = tok.text.lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(tok.text) > MAX_EXPONENT:
            self.error(f"exponent magnitude exceeds {MAX_EXPONENT}")
        self.advance()
        value = sign * int(tok.text)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            value = self._tower(value, self.exponent(), tok)
        return value

    def _tower(self, base: int, power: int, tok: Token) -> int:
        """``base ** power`` when it is an integer of magnitude at most
        MAX_EXPONENT; checked without computing larger powers."""
        if abs(base) <= 1:
            if base == 0 and power < 0:
                self.error("exponent tower divides by zero", tok)
            return base ** abs(power)
        if power < 0:
            self.error("exponent tower must evaluate to an integer", tok)
        # |base| >= 2, so a power above the cap's bit length overshoots it
        if power > MAX_EXPONENT.bit_length() or abs(base) ** power > MAX_EXPONENT:
            self.error(f"exponent magnitude exceeds {MAX_EXPONENT}", tok)
        return base ** power

    def atom(self):
        tok = self.peek()
        if tok.kind in ("number", "imag"):
            self.advance()
            value = float(tok.text)
            return Num(complex(0.0, value) if tok.kind == "imag" else complex(value))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    self.error(f"unknown function {tok.text!r}", tok)
                self.advance()
                return Call(tok.text, self.closed(self.expr()))
            if tok.text not in VARIABLES:
                self.error(f"unknown identifier {tok.text!r}", tok)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            return self.closed(self.expr())
        self.error("expected operand")

    def closed(self, node):
        """``node``, once the ``)`` that follows it is consumed."""
        closing = self.peek()
        if closing.kind != "op" or closing.text != ")":
            self.error("expected ')'")
        self.advance()
        return node


def parse_expression(src: str):
    """Parse a source string into an AST; positions feed error messages."""
    try:
        node = _Parser(tokenize(src)).parse()
        _variables(node)  # a tree this walk can recurse through evaluates too
    except RecursionError:
        raise ExpressionError("expression nests too deeply") from None
    return node


def evaluate(node, env: dict, out: np.ndarray | None = None) -> np.ndarray | complex:
    """Evaluate an AST over an environment of numpy arrays or scalars.

    Division is guarded: off-domain blowups become inf/nan values for
    the caller's masking rather than exceptions.  A root ufunc writes
    into ``out``, when given, if its argument is an array.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExpressionError(f"variable {node.name!r} not available here")
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        fn, arg = FUNCTIONS[node.fn], evaluate(node.arg, env)
        into = out is not None and isinstance(arg, np.ndarray) and isinstance(fn, np.ufunc)
        return fn(arg, out=out) if into else fn(arg)
    if isinstance(node, Pow):
        base = evaluate(node.base, env)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(base, dtype=complex) ** node.exponent
    if isinstance(node, BinOp):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        with np.errstate(divide="ignore", invalid="ignore"):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return np.asarray(left, dtype=complex) / right
    raise TypeError(f"not an AST node: {node!r}")


def _variables(node) -> set[str]:
    """Names of the variables an AST references."""
    if isinstance(node, Var):
        return {node.name}
    return set().union(*(_variables(v) for v in node if isinstance(v, tuple)))


def _z(g, rows: slice = slice(None)) -> np.ndarray:
    # the whole grid reuses its cached coordinate; a block writes its parts
    if rows.indices(g.nx) == (0, g.nx, 1):
        return g.z
    return np.stack((g.x[rows], g.y[rows]), axis=-1).view(complex)[..., 0]


#: each variable on a block of grid rows, built only when an expression
#: names it
_GRID_VARIABLES = {"x": lambda g, rows=slice(None): g.x[rows].astype(complex, order="C"),
                   "y": lambda g, rows=slice(None): g.y[rows].astype(complex, order="C"),
                   "z": _z, "zbar": lambda g, rows=slice(None): np.conj(_z(g, rows))}


def point_env(z: np.ndarray | complex) -> dict:
    z = np.asarray(z, dtype=complex)
    return {"x": z.real.astype(complex), "y": z.imag.astype(complex),
            "z": z, "zbar": np.conj(z)}


def evaluate_on_grid(src_or_ast, grid) -> np.ndarray:
    """Values of an expression at every node, evaluated one row block at
    a time on coordinates built for that block."""
    node = parse_expression(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast
    named = _variables(node)
    out = np.empty(grid.shape(), dtype=complex)
    for rows in _row_blocks(out):
        env = {name: build(grid, rows) for name, build in _GRID_VARIABLES.items()
               if name in named}
        if (value := evaluate(node, env, block := out[rows])) is not block:
            block[...] = value
    return out


def as_function_of_z(src_or_ast) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression into a callable of the complex coordinate."""
    node = parse_expression(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast

    def fn(zv):
        out = evaluate(node, point_env(zv))
        return np.broadcast_to(np.asarray(out, dtype=complex),
                               np.asarray(zv).shape).copy()

    return fn


def constant_value(src_or_ast) -> complex:
    """Evaluate an expression that must not reference grid variables."""
    node = parse_expression(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast
    value = evaluate(node, {})
    return complex(value)
