import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchpde.errors import (DimensionError, EvaluationError, ParseError,
                              UnknownIdentifierError)
from branchpde.expressions import (MAX_DEPTH, BinOp, Box, Call, Const, Folded,
                                   Neg, VarT, VarX, eval_expression,
                                   fold_expression, parse_expression)
from branchpde.model import ExpressionTerminal
from branchpde.specfun import phi_bump, psi_getoor

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_source(node, _prec=0) -> str:
    """Render an AST back to grammar text with as few parentheses as the
    grammar's precedence and associativity allow."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, VarT):
        return "t"
    if isinstance(node, VarX):
        return f"x{node.index}"
    if isinstance(node, Neg):
        # unary minus binds tighter than every binary operator, so any BinOp
        # argument needs parentheses
        s = "-" + to_source(node.arg, 5)
        return f"({s})" if _prec > 3 else s
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    p = _PREC[node.op]
    # left-assoc for + - * /, right-assoc for ^
    ls = to_source(node.left, p if node.op != "^" else p + 1)
    rs = to_source(node.right, p + 1 if node.op != "^" else p)
    s = f"{ls} {node.op} {rs}"
    return f"({s})" if _prec > p else s


# random ASTs in t, x1 and x2, leaves including the calls that read all of x
_BOX = st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)).map(
    lambda p: Call("indicator_box", (Const(p[0]), Const(p[0] + p[1]))))
_RADIAL = st.sampled_from([Call(name, args) for name, args in (
    ("norm2", ()), ("phi_bump", (Const(1.0), Const(1.5))),
    ("psi_getoor", (Const(1.0), Const(1.5))))])
_ASTS = st.recursive(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.just("t"), st.just("x1"), st.just("x2"),
    ).map(lambda v: Const(float(v)) if isinstance(v, float)
          else (VarT() if v == "t" else VarX(int(v[1:]))))
    | _BOX | _RADIAL,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), kids, kids)
          .map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["exp", "cos", "sin", "pospart"]), kids)
          .map(lambda t: Call(t[0], (t[1],))),
    ),
    max_leaves=25,
)


def _nodes(node):
    """Every node of an AST, folded or not."""
    yield node
    if isinstance(node, Neg):
        yield from _nodes(node.arg)
    elif isinstance(node, BinOp):
        yield from _nodes(node.left)
        yield from _nodes(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from _nodes(arg)


def _outcome(ast, t, x):
    """The bytes of ast at (t, x), or the message of its EvaluationError."""
    try:
        return eval_expression(ast, t, x).tobytes()
    except EvaluationError as exc:
        return str(exc)


class TestParse:
    def test_precedence(self):
        ast = parse_expression("1 + 2 * 3", 1)
        assert ast == BinOp("+", Const(1.0), BinOp("*", Const(2.0), Const(3.0)))

    def test_power_right_assoc(self):
        ast = parse_expression("2 ^ 3 ^ 2", 1)
        assert ast == BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0)))
        assert eval_expression(ast, 0.0, np.zeros(1)) == 512.0

    def test_left_assoc_subtraction(self):
        ast = parse_expression("8 - 3 - 2", 1)
        assert eval_expression(ast, 0.0, np.zeros(1)) == 3.0

    def test_unary_minus(self):
        # unary minus binds tighter than ^: -x1 ^ 2 is (-x1) ^ 2
        ast = parse_expression("-x1 ^ 2", 1)
        assert eval_expression(ast, 0.0, np.array([3.0])) == 9.0
        assert eval_expression(parse_expression("-(x1 ^ 2)", 1), 0.0,
                               np.array([3.0])) == -9.0

    def test_variables(self):
        ast = parse_expression("t * x2", 3)
        assert ast == BinOp("*", VarT(), VarX(2))

    def test_calls(self):
        ast = parse_expression("exp(-t) * phi_bump(1, 1.5)", 2)
        assert isinstance(ast.right, Call)
        assert ast.right.args == (Const(1.0), Const(1.5))

    def test_negated_param(self):
        ast = parse_expression("indicator_box(-1, 1)", 2)
        assert ast.args == (Const(-1.0), Const(1.0))

    def test_scientific_notation(self):
        assert parse_expression("1.5e-3", 1) == Const(1.5e-3)
        assert parse_expression(".5", 1) == Const(0.5)

    def test_coordinate_out_of_range(self):
        with pytest.raises(DimensionError):
            parse_expression("x3", 2)
        parse_expression("x3", 3)  # boundary is allowed

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("1 + foo(2)", 1)
        assert err.value.offset == 4

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("1 + * 2", 1)
        assert err.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_expression("1 + $", 1)
        assert err.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("1 2", 1)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2", 1)

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_expression("exp(1, 2)", 1)
        with pytest.raises(ParseError):
            parse_expression("phi_bump(1)", 1)

    # (source, d) of an expression n levels deep
    _NESTED = {
        "sum": lambda n: (" + ".join(f"x{j}" for j in range(1, n + 2)),
                          n + 1),
        "signs": lambda n: ("-" * n + "x1", 1),
        "parentheses": lambda n: ("(" * n + "x1" + ")" * n, 1),
        "power": lambda n: (" ^ ".join(["x1"] * (n + 1)), 1),
        "calls": lambda n: ("cos(" * n + "x1" + ")" * n, 1),
    }

    @pytest.mark.parametrize("shape", sorted(_NESTED))
    def test_depth_limit(self, shape):
        """MAX_DEPTH levels parse, evaluate, fold and pickle; one more
        level, or 1200, which overflowed the stack, is a ParseError."""
        src, d = self._NESTED[shape](MAX_DEPTH)
        ast = parse_expression(src, d)
        x = np.full((2, d), 0.5)
        assert np.all(np.isfinite(eval_expression(ast, 0.0, x)))
        fold_expression(ast, 0.0, x[:, 1:], 1)
        assert pickle.loads(pickle.dumps(ast)) == ast
        for n in (MAX_DEPTH + 1, 1200):
            with pytest.raises(ParseError, match="nests more than"):
                parse_expression(*self._NESTED[shape](n))

    def test_nonconstant_param(self):
        with pytest.raises(ParseError):
            parse_expression("phi_bump(t, 1.5)", 1)

    def test_terminal_refuses_t(self):
        """A terminal condition is a function of x alone."""
        with pytest.raises(ParseError) as info:
            ExpressionTerminal("cos(x1) + t", 1)
        assert info.value.offset == 10
        assert ExpressionTerminal("cos(x1)", 1)(np.zeros(1)) == 1.0


class TestRoundTrip:
    CASES = [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "2 ^ 3 ^ 2",
        "(2 ^ 3) ^ 2",
        "-x1 ^ 2",
        "8 - (3 - 2)",
        "1 / (2 / 4)",
        "exp(-t) * psi_getoor(1, 1.5) - exp(-4 * t) * phi_bump(1, 1.5) ^ 4",
        "cos(x1) * cos(x2) * indicator_box(-1.5707963, 1.5707963)",
        "pospart(1 - norm2())",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, src):
        ast = parse_expression(src, 2)
        assert parse_expression(to_source(ast), 2) == ast

    @given(_ASTS)
    @settings(max_examples=200, deadline=None)
    def test_random_ast_round_trip(self, ast):
        assert parse_expression(to_source(ast), 2) == ast


class TestEval:
    def test_scalar_and_batch(self):
        ast = parse_expression("x1 + 2 * x2", 2)
        assert eval_expression(ast, 0.0, np.array([1.0, 3.0])) == 7.0
        pts = np.array([[1.0, 3.0], [0.0, 0.5]])
        np.testing.assert_allclose(eval_expression(ast, 0.0, pts), [7.0, 1.0])

    def test_time_dependence(self):
        ast = parse_expression("exp(-t) * x1", 1)
        assert eval_expression(ast, 2.0, np.array([3.0])) == pytest.approx(
            3.0 * math.exp(-2.0))

    def test_special_functions(self):
        x = np.array([0.4, -0.3])
        assert eval_expression(parse_expression("phi_bump(1, 1.5)", 2), 0.0,
                               x) == pytest.approx(phi_bump(1, 1.5, x))
        assert eval_expression(parse_expression("psi_getoor(1, 1.5)", 2), 0.0,
                               x) == pytest.approx(psi_getoor(1, 1.5, 2, x))
        assert eval_expression(parse_expression("norm2()", 2), 0.0,
                               x) == pytest.approx(0.25)

    def test_indicator_box(self):
        ast = parse_expression("indicator_box(-1, 1)", 2)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.1, 0.0], [0.0, -2.0]])
        np.testing.assert_array_equal(eval_expression(ast, 0.0, pts),
                                      [1.0, 1.0, 0.0, 0.0])

    def test_pospart(self):
        ast = parse_expression("pospart(x1)", 1)
        np.testing.assert_array_equal(
            eval_expression(ast, 0.0, np.array([[-2.0], [3.0]])), [0.0, 3.0])

    def test_division_by_zero(self):
        ast = parse_expression("1 / x1", 1)
        with pytest.raises(EvaluationError):
            eval_expression(ast, 0.0, np.array([0.0]))

    def test_negative_base_fractional_power(self):
        ast = parse_expression("x1 ^ 0.5", 1)
        with pytest.raises(EvaluationError):
            eval_expression(ast, 0.0, np.array([-1.0]))
        # integer exponents of negative bases are fine
        assert eval_expression(parse_expression("x1 ^ 3", 1), 0.0,
                               np.array([-2.0])) == -8.0

    def test_overflow_is_an_error(self):
        ast = parse_expression("exp(x1)", 1)
        with pytest.raises(EvaluationError):
            eval_expression(ast, 0.0, np.array([1e6]))

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_total_on_smooth_expression(self, x1, x2, t):
        ast = parse_expression(
            "exp(-t) * cos(x1) + sin(x2) * pospart(1 - norm2())", 2)
        val = eval_expression(ast, t, np.array([x1, x2]))
        assert math.isfinite(val)


class TestFold:
    @given(ast=_ASTS, lead=st.integers(0, 2), n=st.integers(1, 6),
           scalar_t=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fold_gives_the_original_bits(self, ast, lead, n, scalar_t,
                                          data):
        """Folded at the columns of x from ``lead`` on, an AST evaluates at
        the first ``lead`` columns of any rows that hold x's bits in the
        others to the original's bits at those rows, or raises its error."""
        value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                          st.floats(-3.0, 3.0))
        rows = st.lists(st.lists(value, min_size=2, max_size=2),
                        min_size=n, max_size=n).map(np.array)
        x = data.draw(rows, label="x")
        t = (data.draw(value, label="t") if scalar_t
             else data.draw(rows, label="t")[:, 0])
        folded = fold_expression(ast, t, x[:, lead:], lead)
        for y in (x, data.draw(rows, label="y")):
            y = np.column_stack([y[:, :lead], x[:, lead:]])
            assert _outcome(folded, t, y[:, :lead]) == _outcome(ast, t, y)

    def test_burgers_terminal_keeps_one_cos(self):
        """Folding x2 out of the fig3b terminal leaves cos(x1) and the x1
        half of the box."""
        ast = parse_expression(
            "cos(x1)*cos(x2)*indicator_box(-1.5707963267948966, "
            "1.5707963267948966)", 2)
        x = np.array([[-3.0, 0.2], [0.5, -1.6], [1.0, 1.0]])
        folded = fold_expression(ast, 0.0, x[:, 1:], 1)
        nodes = list(_nodes(folded))
        assert [n.args[0] for n in nodes
                if isinstance(n, Call)] == [VarX(1)]
        assert sum(isinstance(n, Folded) for n in nodes) == 1
        (box,) = (n for n in nodes if isinstance(n, Box))
        np.testing.assert_array_equal(box.inside, [True, False, True])
        y = np.column_stack([[1.0, 0.0, -2.0], x[:, 1]])
        assert (eval_expression(folded, 0.0, y[:, :1]).tobytes()
                == eval_expression(ast, 0.0, y).tobytes())

    def test_single_point_folds_everything(self):
        ast = parse_expression("exp(-t) * x1 / x2", 2)
        x = np.array([[0.3, 2.0]])
        assert isinstance(fold_expression(ast, 0.5, x, 0), Folded)
        with pytest.raises(EvaluationError, match="division by zero"):
            eval_expression(fold_expression(ast, 0.5, np.zeros((1, 2)), 0),
                            0.5, np.zeros((1, 0)))

    def test_radial_calls_keep_the_folded_norm(self):
        """Folding x2..x4 out of psi_getoor and norm2() keeps their |x|^2
        over those coordinates, continued over x1, and psi_getoor keeps
        d = 4."""
        ast = parse_expression("psi_getoor(1, 1.5) + x4 * norm2()", 4)
        x = np.array([[0.1, -0.4, 0.2, 0.7], [2.0, 0.3, -0.5, 0.0]])
        folded = fold_expression(ast, 0.0, x[:, 1:], 1)
        assert not any(isinstance(n, VarX) and n.index > 1
                       for n in _nodes(folded))
        assert (eval_expression(folded, 0.0, x[:, :1]).tobytes()
                == eval_expression(ast, 0.0, x).tobytes())
