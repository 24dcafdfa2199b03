"""Arithmetic expressions for analytic field data in config files.

A recursive-descent parser over the variables x, y, r, theta, the constants
pi, omega1, omega2, the binary operators + - * / ^ (with ^ right-associative)
and a fixed set of real functions.  parse returns a closure over an
environment of point values, and evaluate builds that environment and calls
it; r and theta enter it on first read, so an expression that does not read
them computes neither.  A chain of + - (or of * /) becomes one closure that applies its
operators left to right, so its length costs no recursion; nesting
(parentheses, function arguments, unary minus, ^) deeper than 50 levels is
a syntax error.  Evaluation is numpy-vectorized; given a corner frame, the
polar angle takes the frame's branch (modes.map_theta, cut in the middle of
the excluded sector), so expressions are continuous across the domain
interior and up to its corner rays.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager

import numpy as np

from . import SifLabError
from .modes import map_theta

__all__ = [
    "ExprSyntaxError",
    "UnknownIdentifier",
    "EvalDomainError",
    "parse",
    "evaluate",
]


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


def _log(v):
    if np.any(v < 0.0):
        raise EvalDomainError("log of a negative value")
    if np.any(v == 0.0):
        raise EvalDomainError("log of zero")
    return np.log(v)


def _sqrt(v):
    if np.any(v < 0.0):
        raise EvalDomainError("sqrt of a negative value")
    return np.sqrt(v)


def _divide(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise EvalDomainError("division by zero")
    return a / b


def _power(a, b):
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.asarray(a, dtype=float) ** b
    if np.any(~np.isfinite(out)):
        raise EvalDomainError("power left the real domain")
    return out


_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "exp": (np.exp, 1),
    "log": (_log, 1),
    "sqrt": (_sqrt, 1),
    "atan2": (np.arctan2, 2),
    "abs": (np.abs, 1),
}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide}
# The variables, then the constants; omega1/omega2 need a corner frame.
_NAMES = ("x", "y", "r", "theta", "pi", "omega1", "omega2")
# Parsing takes up to eight stack frames per nesting level (a function
# argument) and evaluating up to two, so 50 levels stay far inside Python's
# default recursion limit of 1000.
_MAX_DEPTH = 50


def _name(name: str):
    def value(env):
        if env[name] is None:
            raise EvalDomainError(f"constant {name!r} needs a corner frame")
        return env[name]
    return value


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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

    @contextmanager
    def _nested(self):
        """One level deeper, from the current position; past _MAX_DEPTH
        levels it is a syntax error there."""
        if self.depth == _MAX_DEPTH:
            self._fail(f"at most {_MAX_DEPTH} levels of nesting")
        self.depth += 1
        yield
        self.depth -= 1

    def parse(self):
        node = self._expr()
        if self._peek():
            self._fail("end of input")
        return node

    def _expr(self):
        return self._chain(self._term, "+-")

    def _term(self):
        return self._chain(self._unary, "*/")

    def _chain(self, operand, ops: str):
        """operand (op operand)*, left-associative, as one closure."""
        first, rest = operand(), []
        while (c := self._peek()) and c in ops:
            self.pos += 1
            rest.append((_BINARY[c], operand()))
        if not rest:
            return first

        def value(env):
            acc = first(env)
            for func, arg in rest:
                acc = func(acc, arg(env))
            return acc
        return value

    def _unary(self):
        if self._peek() != "-":
            return self._power()
        with self._nested():
            self.pos += 1
            arg = self._unary()
        return lambda env: -arg(env)

    def _power(self):
        base = self._atom()
        if self._peek() != "^":
            return base
        # right-associative; exponent may carry its own unary minus
        with self._nested():
            self.pos += 1
            exponent = self._unary()
        return lambda env: _power(base(env), exponent(env))

    def _atom(self):
        c = self._peek()
        if not c:
            self._fail("a value")
        if c == "(":
            with self._nested():
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

    def _number(self):
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
            value = float(lit)
        except ValueError:
            self._fail("a number", pos=start)
        return lambda env: value

    def _identifier(self):
        start = self.pos
        n = len(self.text)
        while self.pos < n and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if self._peek() == "(":
            if name not in _FUNCTIONS:
                raise UnknownIdentifier(f"unknown function {name!r}")
            with self._nested():
                self.pos += 1
                args = [self._expr()]
                while self._accept(","):
                    args.append(self._expr())
                if not self._accept(")"):
                    self._fail("')' or ','")
            func, arity = _FUNCTIONS[name]
            if len(args) != arity:
                self._fail(f"{arity} argument(s) to {name}", pos=start)
            return lambda env: func(*[np.asarray(a(env), dtype=float) for a in args])
        if name in _NAMES:
            return _name(name)
        raise UnknownIdentifier(f"unknown identifier {name!r}")


def parse(text: str):
    """Parse expression text into a closure for evaluate; raises
    ExprSyntaxError / UnknownIdentifier."""
    return _Parser(text).parse()


class _Env(dict):
    """The names of one evaluation; r and theta are computed on first read."""

    def __init__(self, x, y, frame):
        super().__init__(x=x, y=y, pi=math.pi,
                         omega1=None if frame is None else frame.omega1,
                         omega2=None if frame is None else frame.omega2)
        self.frame = frame

    def __missing__(self, name):
        x, y = self["x"], self["y"]
        if name == "r":
            value = np.hypot(x, y)
        elif name == "theta":
            value = np.arctan2(y, x)
            if self.frame is not None:
                value = map_theta(value, self.frame)
        else:
            raise KeyError(name)
        self[name] = value
        return value


def evaluate(expr, x, y, frame=None):
    """Evaluate a parsed expression at points (x, y); frame supplies
    omega1/omega2 and the theta branch.  r and theta are computed only if
    the expression reads them."""
    return expr(_Env(np.asarray(x, dtype=float), np.asarray(y, dtype=float), frame))
