"""Arithmetic expressions for analytic field data in config files.

A recursive-descent parser over the variables x, y, r, theta, the constants
pi, omega1, omega2, the binary operators + - * / ^ (with ^ right-associative)
and a fixed set of real functions.  Printing is canonical: parsing the printed
form reproduces the tree exactly.  Evaluation is numpy-vectorized; given a
corner frame, the polar angle takes the frame's branch (modes.map_theta, cut
in the middle of the excluded sector), so expressions are continuous across
the domain interior and up to its corner rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import SifLabError
from .modes import map_theta

__all__ = [
    "FieldExpr",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "EvalDomainError",
    "parse",
    "evaluate",
]

_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "exp": (np.exp, 1),
    "log": (np.log, 1),
    "sqrt": (np.sqrt, 1),
    "atan2": (np.arctan2, 2),
    "abs": (np.abs, 1),
}
_VARIABLES = ("x", "y", "r", "theta")
_CONSTANTS = ("pi", "omega1", "omega2")


class ExprSyntaxError(SifLabError):
    """Malformed expression text, with 1-based line/column position."""

    def __init__(self, line: int, col: int, expected: str):
        super().__init__(f"line {line}, col {col}: expected {expected}")
        self.line = line
        self.col = col
        self.expected = expected


class UnknownIdentifier(SifLabError):
    """Identifier is not a known variable, constant or function."""


class EvalDomainError(SifLabError):
    """Evaluation left the real domain (division by zero, log/sqrt of negatives)."""


@dataclass(frozen=True)
class FieldExpr:
    """One expression tree node.

    op is "num", "var", "const", "neg", "call", or one of "+ - * / ^";
    args holds child nodes, value holds the literal / identifier name.
    """

    op: str
    args: tuple = ()
    value: object = None

    # precedence: used both for parsing sanity and canonical printing
    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

    def _prec(self) -> int:
        return self._PREC.get(self.op, 9)

    def __str__(self) -> str:
        if self.op == "num":
            return repr(self.value)
        if self.op in ("var", "const"):
            return str(self.value)
        if self.op == "call":
            return f"{self.value}({', '.join(str(a) for a in self.args)})"
        if self.op == "neg":
            inner = str(self.args[0])
            if self.args[0]._prec() < self._prec():
                inner = f"({inner})"
            return f"-{inner}"
        lhs, rhs = self.args
        ls, rs = str(lhs), str(rhs)
        p = self._prec()
        # Left operand needs parens when strictly looser; right operand also
        # when equal (left-assoc ops) — except ^, which associates right.
        if lhs._prec() < p or (self.op == "^" and lhs._prec() == p):
            ls = f"({ls})"
        if rhs._prec() < p or (rhs._prec() == p and self.op != "^"):
            rs = f"({rs})"
        return f"{ls} {self.op} {rs}"

    def variables(self) -> set:
        if self.op == "var":
            return {self.value}
        out: set = set()
        for a in self.args:
            out |= a.variables()
        return out

    def evaluate(self, x, y, frame=None):
        return evaluate(self, x, y, frame)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _linecol(self, pos: int) -> tuple[int, int]:
        head = self.text[:pos]
        line = head.count("\n") + 1
        col = pos - (head.rfind("\n") + 1) + 1
        return line, col

    def _fail(self, expected: str, pos=None):
        line, col = self._linecol(self.pos if pos is None else pos)
        raise ExprSyntaxError(line, col, expected)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _accept(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> FieldExpr:
        node = self._expr()
        if self._peek():
            self._fail("end of input")
        return node

    def _expr(self) -> FieldExpr:
        node = self._term()
        while True:
            c = self._peek()
            if c and c in "+-":
                self.pos += 1
                node = FieldExpr(c, (node, self._term()))
            else:
                return node

    def _term(self) -> FieldExpr:
        node = self._unary()
        while True:
            c = self._peek()
            if c and c in "*/":
                self.pos += 1
                node = FieldExpr(c, (node, self._unary()))
            else:
                return node

    def _unary(self) -> FieldExpr:
        if self._accept("-"):
            return FieldExpr("neg", (self._unary(),))
        return self._power()

    def _power(self) -> FieldExpr:
        base = self._atom()
        if self._accept("^"):
            # right-associative; exponent may carry its own unary minus
            return FieldExpr("^", (base, self._unary()))
        return base

    def _atom(self) -> FieldExpr:
        c = self._peek()
        if not c:
            self._fail("a value")
        if c == "(":
            self.pos += 1
            node = self._expr()
            if not self._accept(")"):
                self._fail("')'")
            return node
        if c.isdigit() or c == ".":
            return self._number()
        if c.isalpha() or c == "_":
            return self._identifier()
        self._fail("a number, name or '('")

    def _number(self) -> FieldExpr:
        start = self.pos
        n = len(self.text)
        while self.pos < n and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < n and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and self.text[self.pos].isdigit():
                while self.pos < n and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # "2e" was really the number 2 followed by a name
        lit = self.text[start:self.pos]
        try:
            return FieldExpr("num", value=float(lit))
        except ValueError:
            self._fail("a number", pos=start)

    def _identifier(self) -> FieldExpr:
        start = self.pos
        n = len(self.text)
        while self.pos < n and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if self._peek() == "(":
            if name not in _FUNCTIONS:
                raise UnknownIdentifier(f"unknown function {name!r}")
            self.pos += 1
            args = [self._expr()]
            while self._accept(","):
                args.append(self._expr())
            if not self._accept(")"):
                self._fail("')' or ','")
            _, arity = _FUNCTIONS[name]
            if len(args) != arity:
                self._fail(f"{arity} argument(s) to {name}", pos=start)
            return FieldExpr("call", tuple(args), name)
        if name in _VARIABLES:
            return FieldExpr("var", value=name)
        if name in _CONSTANTS:
            return FieldExpr("const", value=name)
        raise UnknownIdentifier(f"unknown identifier {name!r}")


def parse(text: str) -> FieldExpr:
    """Parse expression text; raises ExprSyntaxError / UnknownIdentifier."""
    return _Parser(text).parse()


def _theta_branch(x, y, frame):
    theta = np.arctan2(y, x)
    return theta if frame is None else map_theta(theta, frame)


def evaluate(expr: FieldExpr, x, y, frame=None):
    """Evaluate at points (x, y); frame supplies omega1/omega2 and the theta branch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    env = {
        "x": x,
        "y": y,
        "r": np.hypot(x, y),
        "theta": _theta_branch(x, y, frame),
    }
    consts = {
        "pi": math.pi,
        "omega1": frame.omega1 if frame is not None else None,
        "omega2": frame.omega2 if frame is not None else None,
    }

    def rec(node: FieldExpr):
        if node.op == "num":
            return node.value
        if node.op == "var":
            return env[node.value]
        if node.op == "const":
            v = consts[node.value]
            if v is None:
                raise EvalDomainError(
                    f"constant {node.value!r} needs a corner frame")
            return v
        if node.op == "neg":
            return -rec(node.args[0])
        if node.op == "call":
            func, _ = _FUNCTIONS[node.value]
            vals = [np.asarray(rec(a), dtype=float) for a in node.args]
            if node.value in ("log", "sqrt") and np.any(vals[0] < 0.0):
                raise EvalDomainError(f"{node.value} of a negative value")
            if node.value == "log" and np.any(vals[0] == 0.0):
                raise EvalDomainError("log of zero")
            return func(*vals)
        a = rec(node.args[0])
        b = rec(node.args[1])
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise EvalDomainError("division by zero")
            return a / b
        if node.op == "^":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.asarray(a, dtype=float) ** b
            if np.any(~np.isfinite(out)):
                raise EvalDomainError("power left the real domain")
            return out
        raise AssertionError(f"unreachable op {node.op!r}")

    return rec(expr)
