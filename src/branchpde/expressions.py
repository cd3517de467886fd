"""Small expression language for coefficient and terminal-condition functions.

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = unary [ "^" factor ] ;              (* right-associative *)
    unary   = "-" unary | atom ;
    atom    = number | "t" | coordinate | call | "(" expr ")" ;
    coordinate = "x" digits ;                     (* x1 ... xd *)
    call    = name "(" [ expr { "," expr } ] ")" ;

Functions: exp, cos, sin, pospart (one argument); norm2() (squared norm of x);
phi_bump(k, alpha), psi_getoor(k, alpha) (numeric parameters, applied to x);
indicator_box(lo, hi) (1 if every coordinate of x lies in [lo, hi]).
Source that breaks the grammar raises ParseError (UnknownIdentifierError for
an unknown name): its message says what is wrong, and its ``offset`` where.

Evaluation is vectorized: x may be a single point (d,) or a batch (..., n, d).
``fold_expression`` evaluates once the part of an expression that reads only
t and the coordinates from some index on, for callers that evaluate it at
many points sharing those coordinates.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, EvaluationError, ParseError,
                     UnknownIdentifierError)
from .specfun import bump_r2, psi_getoor_batch, radial_args

# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class VarT:
    pass


@dataclass(frozen=True)
class VarX:
    index: int  # 1-based coordinate


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True, eq=False)
class Folded:
    """A folded sub-expression: its values at the rows it was folded at, or
    the message of the EvaluationError it raised there."""

    value: object
    error: str | None = None


@dataclass(frozen=True, eq=False)
class Box:
    """indicator_box(lo, hi) tested on the columns it is evaluated at, ANDed
    with ``inside``, the folded test of the other columns."""

    lo: float
    hi: float
    inside: np.ndarray


@dataclass(frozen=True, eq=False)
class Radial:
    """norm2(), phi_bump or psi_getoor (``call``) in dimension ``d``, its
    |x|^2 continued from ``r2``, the folded sum over the later coordinates."""

    call: Call
    r2: np.ndarray
    d: int


# How deeply an expression may nest: each operator, sign, call and pair of
# parentheses is a level over what it holds, so x1 + x2 + x3 is 2 levels
# deep and -(x1) is 2.  Parsing recurses up to 6 Python frames a level (a
# call), and evaluating, folding and pickling a model for pool workers up
# to 3, so 100 levels leave room for the callers' frames within Python's
# default limit of 1000 (under Python 3.11 a 332-term sum could not be
# pickled).
MAX_DEPTH = 100

_UNARY_FUNCS = ("exp", "cos", "sin", "pospart")
_PARAM_FUNCS = ("phi_bump", "psi_getoor", "indicator_box")
_FUNC_ARITY = {**{f: 1 for f in _UNARY_FUNCS}, "norm2": 0,
               **{f: 2 for f in _PARAM_FUNCS}}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over the grammar.  Each production returns its node
    and its depth, the levels on its deepest path."""

    def __init__(self, src: str, d: int, time: bool):
        self.src = src
        self.d = d
        self.time = time
        self.tokens = _tokenize(src)
        self.i = 0
        self.open = 0   # levels open around the current token

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        kind, value, offset = self.peek()
        if value != text:
            raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}",
                             offset)
        return self.advance()

    def level(self, depth, offset):
        """``depth`` + 1, the depth of a level at ``offset`` over parts
        ``depth`` deep: a ParseError beyond MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} levels",
                             offset)
        return depth + 1

    @contextlib.contextmanager
    def opened(self, offset):
        """A level opened at ``offset`` around what the body parses, so that
        the parser's own recursion stops at MAX_DEPTH open levels."""
        self.open = self.level(self.open, offset)
        yield
        self.open -= 1

    def parse(self):
        ast, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return ast

    def expr(self):
        node, depth = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, offset = self.advance()
            right, rdepth = self.term()
            node = BinOp(op, node, right)
            depth = self.level(max(depth, rdepth), offset)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, offset = self.advance()
            right, rdepth = self.factor()
            node = BinOp(op, node, right)
            depth = self.level(max(depth, rdepth), offset)
        return node, depth

    def factor(self):
        node, depth = self.unary()
        if self.peek()[1] != "^":
            return node, depth
        offset = self.advance()[2]
        with self.opened(offset):
            right, rdepth = self.factor()
        return BinOp("^", node, right), self.level(max(depth, rdepth), offset)

    def unary(self):
        if self.peek()[1] != "-":
            return self.atom()
        offset = self.advance()[2]
        with self.opened(offset):
            arg, depth = self.unary()
        return Neg(arg), self.level(depth, offset)

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value)), 0
        if value == "(":
            with self.opened(offset):
                node, depth = self.expr()
            self.expect(")")
            return node, self.level(depth, offset)
        if kind == "name":
            if value == "t":
                if not self.time:
                    raise ParseError("t is not allowed here: a terminal "
                                     "condition is a function of x alone",
                                     offset)
                return VarT(), 0
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                j = int(m.group(1))
                if not 1 <= j <= self.d:
                    raise DimensionError(
                        f"coordinate x{j} exceeds dimension d={self.d}")
                return VarX(j), 0
            if value in _FUNC_ARITY:
                return self.call(value, offset)
            raise UnknownIdentifierError(f"unknown identifier {value!r}",
                                         offset)
        raise ParseError(f"unexpected token {value or 'end of input'!r}",
                         offset)

    def call(self, name, offset):
        self.expect("(")
        args = []
        with self.opened(offset):
            if self.peek()[1] != ")":
                args.append(self.expr())
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expr())
        self.expect(")")
        arity = _FUNC_ARITY[name]
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}",
                             offset)
        depth = self.level(max((depth for _, depth in args), default=0),
                           offset)
        args = tuple(node for node, _ in args)
        if name in _PARAM_FUNCS:
            # parameters must be numeric (possibly negated) constants
            args = tuple(Const(_const_value(a, name, offset)) for a in args)
        return Call(name, args), depth


def _const_value(node, name, offset):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        return -_const_value(node.arg, name, offset)
    raise ParseError(f"{name} parameters must be numeric constants", offset)


def parse_expression(src: str, d: int, time: bool = True):
    """Parse ``src`` into an AST; coordinates are validated against ``d``,
    and ``t`` is a ParseError unless ``time``, as is nesting more than
    MAX_DEPTH levels."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    return _Parser(src, d, time).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def eval_expression(ast, t, x):
    """Evaluate at time t and point(s) x: x of shape (d,) gives a scalar,
    (..., n, d) gives an (..., n) array.  t is a scalar or broadcasts
    against that array."""
    xa = np.asarray(x, dtype=float)
    pts = xa if xa.ndim > 1 else xa[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = _eval(ast, np.asarray(t, dtype=float), pts)
    val = np.broadcast_to(val, pts.shape[:-1])
    if not np.all(np.isfinite(val)):
        raise EvaluationError("expression evaluated to a non-finite value")
    return val.copy() if xa.ndim > 1 else float(val[0])


def fold_expression(ast, t, x, lead):
    """``ast`` folded at t and the rows of x, the (n, d - lead) coordinates
    from ``lead`` on: every sub-expression that reads only t and those
    becomes a Folded node of its values there.  A call that reads every
    coordinate keeps what it reads of them: indicator_box a Box, their
    test, and norm2(), phi_bump and psi_getoor a Radial, their |x|^2.

    Evaluated at t and at points (..., n, lead), the first coordinates, the
    folded AST gives the original's bits at those points joined to the rows
    of x, or raises the same EvaluationError where the original raises it.
    """
    tail = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _fold(ast, np.asarray(t, dtype=float), tail, lead)


def _fold(node, t, tail, lead):
    if isinstance(node, (Const, VarT)):
        return node
    if isinstance(node, VarX):
        j = node.index - 1 - lead
        return node if j < 0 else Folded(tail[:, j].copy())
    if isinstance(node, Neg):
        node = Neg(_fold(node.arg, t, tail, lead))
        kids = (node.arg,)
    elif isinstance(node, BinOp):
        node = BinOp(node.op, _fold(node.left, t, tail, lead),
                     _fold(node.right, t, tail, lead))
        kids = (node.left, node.right)
    elif node.name in _UNARY_FUNCS:
        node = Call(node.name, (_fold(node.args[0], t, tail, lead),))
        kids = node.args
    elif lead and node.name == "indicator_box":
        lo, hi = (a.value for a in node.args)
        return Box(lo, hi, _inside(lo, hi, tail))
    elif lead:
        return Radial(node, radial_args(tail)[0], lead + tail.shape[1])
    else:    # reads every coordinate, all of them folded
        kids = ()
    if not all(isinstance(kid, (Const, VarT, Folded)) for kid in kids):
        return node
    try:
        return Folded(_eval(node, t, tail))
    except EvaluationError as exc:
        return Folded(None, str(exc))


def _inside(lo, hi, pts, inside=None):
    """``inside`` ANDed with lo <= x_j <= hi for each column j of ``pts``,
    one column at a time (None for no columns and no ``inside``)."""
    for j in range(pts.shape[-1]):
        test = pts[..., j] >= lo
        test &= pts[..., j] <= hi
        inside = test if inside is None else inside & test
    return inside


def _eval(node, t, pts):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, VarT):
        return t
    if isinstance(node, VarX):
        return pts[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.arg, t, pts)
    if isinstance(node, BinOp):
        lv = _eval(node.left, t, pts)
        rv = _eval(node.right, t, pts)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if node.op == "/":
            if np.any(rv == 0.0):
                raise EvaluationError("division by zero")
            return lv / rv
        lv = np.asarray(lv, dtype=float)
        rv = np.asarray(rv, dtype=float)
        if np.any((lv < 0.0) & (rv != np.floor(rv))):
            raise EvaluationError("negative base with non-integer exponent")
        return lv ** rv
    if isinstance(node, Call):
        return _eval_call(node, t, pts)
    if isinstance(node, Folded):
        if node.error is not None:
            raise EvaluationError(node.error)
        return node.value
    if isinstance(node, Box):
        return _inside(node.lo, node.hi, pts, node.inside).astype(float)
    if isinstance(node, Radial):
        return _radial(node.call, radial_args(pts, node.r2)[0], node.d)
    raise TypeError(f"not an AST node: {node!r}")


def _eval_call(node, t, pts):
    name = node.name
    if name in _UNARY_FUNCS:
        v = _eval(node.args[0], t, pts)
        if name == "exp":
            return np.exp(v)
        if name == "cos":
            return np.cos(v)
        if name == "sin":
            return np.sin(v)
        return np.maximum(0.0, v)
    if name == "indicator_box":
        lo, hi = (a.value for a in node.args)
        return _inside(lo, hi, pts).astype(float)
    return _radial(node, radial_args(pts)[0], pts.shape[-1])


def _radial(node, r2, d):
    """norm2(), phi_bump or psi_getoor ``node`` at |x|^2 = r2 in dimension d."""
    if node.name == "norm2":
        return r2
    k, alpha = int(node.args[0].value), node.args[1].value
    if node.name == "phi_bump":
        return bump_r2(k, alpha, r2)
    return psi_getoor_batch(k, alpha, d, r2)
