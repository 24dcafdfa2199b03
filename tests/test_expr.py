"""Expression parser: precedence, reference evaluation, errors."""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sif_lab.expr import (EvalDomainError, ExprSyntaxError, UnknownIdentifier,
                          evaluate, parse)
from sif_lab.modes import CornerFrame, map_theta

FRAME = CornerFrame(0.0, 1.5 * math.pi)


# -- precedence and associativity ---------------------------------------------

@pytest.mark.parametrize("text,want", [
    ("2+3*4", 14.0),
    ("(2+3)*4", 20.0),
    ("1-2-3", -4.0),
    ("8/4/2", 1.0),
    ("2^3^2", 512.0),
    ("-2^2", -4.0),
    ("2^-3", 0.125),
    ("2*3^2", 18.0),
    ("2*-3", -6.0),
    ("--2", 2.0),
    ("1e3", 1000.0),
    ("2.5e-2", 0.025),
    ("0.5^2", 0.25),
    ("abs(0-7)", 7.0),
    ("atan2(1, 1)", math.pi / 4),
])
def test_precedence_table(text, want):
    got = evaluate(parse(text), 0.0, 0.0)
    assert got == pytest.approx(want, rel=1e-15)


def test_variables_and_constants():
    v = evaluate(parse("x + 2*y + r*cos(theta) + pi"), 3.0, 4.0)
    # r*cos(theta) is just x again
    assert v == pytest.approx(3.0 + 8.0 + 3.0 + math.pi)
    w = evaluate(parse("omega2 - omega1"), 1.0, 1.0, frame=FRAME)
    assert w == pytest.approx(1.5 * math.pi)


def test_theta_uses_frame_branch():
    base = evaluate(parse("theta"), -1.0, -1.0)
    assert base == pytest.approx(-0.75 * math.pi)
    branched = evaluate(parse("theta"), -1.0, -1.0, frame=FRAME)
    assert branched == pytest.approx(1.25 * math.pi)


def test_theta_keeps_the_ray_angle_just_outside_a_corner_ray():
    """A point a rounding error past the ray theta = omega2 keeps about omega2:
    the branch is cut in the middle of the excluded sector, as in the modes."""
    theta = evaluate(parse("theta"), 1e-12, -1.0, frame=FRAME)
    assert theta == pytest.approx(1.5 * math.pi, abs=1e-11)


def _counted(monkeypatch, name):
    """Replace np.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(np, name, counted)
    return calls


def test_r_and_theta_are_computed_only_when_read(monkeypatch):
    hypot, atan2 = _counted(monkeypatch, "hypot"), _counted(monkeypatch, "arctan2")
    x, y = np.linspace(0.1, 1.0, 7), np.linspace(-0.9, 0.9, 7)
    for text in ("1", "x*y + pi", "omega2 - x"):
        evaluate(parse(text), x, y, frame=FRAME)
    assert (len(hypot), len(atan2)) == (0, 0)
    evaluate(parse("r + r^2"), x, y, frame=FRAME)
    assert (len(hypot), len(atan2)) == (1, 0)
    evaluate(parse("theta*r + sin(theta)"), x, y, frame=FRAME)
    assert (len(hypot), len(atan2)) == (2, 1)


def test_r_and_theta_values_are_bit_identical_to_numpy():
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1.0, 1.0, (2, 50))
    r = np.hypot(x, y)
    for frame, theta in ((None, np.arctan2(y, x)),
                         (FRAME, map_theta(np.arctan2(y, x), FRAME))):
        got = evaluate(parse("r^0.5*sin(theta) + theta/r"), x, y, frame=frame)
        assert np.array_equal(got, r ** 0.5 * np.sin(theta) + theta / r)


def test_vectorized_evaluation_shape():
    x = np.linspace(0.1, 1.0, 7)
    y = np.linspace(0.2, 0.9, 7)
    out = evaluate(parse("sin(x*y) + r^2"), x, y)
    assert out.shape == (7,)
    assert np.allclose(out, np.sin(x * y) + x * x + y * y)


# -- independent reference evaluator (CPython grammar) -------------------------

REFERENCE_EXPRESSIONS = [
    "2*x^2 - 3*y/(1 + r) + sin(theta)*cos(x*y)",
    "atan2(y, x) + sqrt(r) - exp(0 - x)",
    "-x^2 + 2^-x + x*-y",
    "1.5e-1*x + 2E2*y - .5",
    "log(1 + x^2) / (2 + cos(y))",
    "abs(x - y)^3 + tan(x/4)",
]


class _NumpyPow(ast.NodeTransformer):
    """a ** b -> _pow(a, b), a power on a float array as evaluate takes it:
    CPython's float pow can differ from numpy's in the last bit, which sin
    and cancellation amplify."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        return ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])


def reference_eval(text, x, y):
    """Evaluate through Python's own parser: ^ maps to ** with the same
    associativity and unary-minus binding as the config grammar."""
    env = {
        "x": x, "y": y, "r": np.hypot(x, y), "theta": np.arctan2(y, x),
        "pi": math.pi, "sin": np.sin, "cos": np.cos, "tan": np.tan,
        "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
        "atan2": np.arctan2, "abs": np.abs,
        "_pow": lambda a, b: np.asarray(a, dtype=float) ** b,
    }
    tree = _NumpyPow().visit(ast.parse(text.replace("^", "**"), mode="eval"))
    return eval(compile(ast.fix_missing_locations(tree), "<ref>", "eval"),
                {"__builtins__": {}}, env)


@pytest.mark.parametrize("text", REFERENCE_EXPRESSIONS)
def test_against_python_grammar(text):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 1.5, 40)
    y = rng.uniform(0.1, 1.5, 40)
    ours = evaluate(parse(text), x, y)
    ref = reference_eval(text, x, y)
    assert np.allclose(ours, ref, rtol=1e-14, atol=1e-14)


# -- precedence and associativity against the reference -----------------------

_operand = st.one_of(
    st.floats(0.1, 9.0).map(lambda v: repr(round(v, 3))),
    st.sampled_from(["x", "y", "r"]),
)


def _compound(children):
    binop = st.sampled_from(["+", "-", "*", "/", "^"])
    return st.one_of(
        st.tuples(children, binop, children).map(" ".join),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"sin({c})"),
    )


expr_texts = st.recursive(_operand, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(text=expr_texts)
def test_random_text_matches_python_grammar(text):
    """Unparenthesized chains of + - * / ^ and unary minus bind as in CPython."""
    x = np.array([0.3, 1.1, 2.0])
    y = np.array([0.7, 0.2, 1.5])
    # Skip a text whose reference divides by zero, overflows or leaves the reals.
    with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
        try:
            ref = reference_eval(text, x, y)
        except ArithmeticError:
            return
    assert np.allclose(evaluate(parse(text), x, y), ref, rtol=1e-12, atol=0.0)


# -- errors -------------------------------------------------------------------

def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse("1 +\n* 2")
    assert info.value.line == 2
    assert info.value.col == 1

    with pytest.raises(ExprSyntaxError) as info:
        parse("(1 + 2")
    assert "')'" in info.value.expected

    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    with pytest.raises(ExprSyntaxError):
        parse("sin(1, 2)")  # wrong arity

    for text, col in (("2**3", 3), ("+x", 1)):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert (info.value.line, info.value.col) == (1, col)


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("z + 1")
    with pytest.raises(UnknownIdentifier):
        parse("foo(1)")


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), 0.0, 1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), -1.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(r)"), 0.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^0.5"), -1.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("omega1"), 1.0, 1.0)  # needs a frame


# -- long and deep expressions ----------------------------------------------

def test_long_chains_evaluate_left_to_right():
    """A 1,200-term sum or product is one loop, not 1,200 nested calls, and
    keeps the left-to-right rounding of the written order."""
    x = np.array([-0.7, 0.1, 0.3, 1.9])
    total, product = x.copy(), x.copy()
    for _ in range(1199):
        total = total + x
    for _ in range(1200):
        product = product * 1.001
    assert np.array_equal(evaluate(parse("+".join(["x"] * 1200)), x, x), total)
    assert np.allclose(total, 1200 * x, rtol=1e-13)
    assert np.array_equal(evaluate(parse("*".join(["x"] + ["1.001"] * 1200)), x, x),
                          product)
    assert evaluate(parse("-".join(["x"] * 1200)), 2.0, 0.0) == -2396.0


@pytest.mark.parametrize("open_, close, col", [
    ("(", ")", 51),
    ("-", "", 51),
    ("sin(", ")", 204),
    ("1^", "", 102),
], ids=["parentheses", "unary-minus", "function", "power"])
def test_nesting_past_the_limit_is_a_positioned_syntax_error(open_, close, col):
    """50 levels of nesting parse and evaluate; the 51st is refused at its
    position, before the parser or the closure could exhaust the stack."""
    assert np.isfinite(evaluate(parse(open_ * 50 + "x" + close * 50), 0.5, 0.5))
    for depth in (51, 400):
        with pytest.raises(ExprSyntaxError) as info:
            parse(open_ * depth + "x" + close * depth)
        assert (info.value.line, info.value.col) == (1, col)
        assert info.value.expected == "at most 50 levels of nesting"
