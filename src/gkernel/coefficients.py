"""Scalar coefficient functions of the state, and a tiny expression language.

Model coefficients (drift entries, diffusion entries, rates, loadings) are
maps from the state x in R^m to a scalar.  Two carriers:

* ``Constant(value)``
* ``Expression`` (parsed source text)   -- see grammar below

and any other subclass of ``CoefficientFn``.

Expression grammar (left-associative, standard precedence)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | IDENT | FUNC '(' expr (',' expr)* ')'
            | '(' expr ')' | '-' factor

Identifiers are the state coordinates ``x1`` .. ``x9``.  Functions:
exp, ln, sqrt, abs, tanh (unary), pow (binary), min, max (two or more
arguments, folded left).  Numbers are decimal literals with an optional
exponent.  Evaluation is double precision with IEEE conventions: division
by zero yields inf, ln of a negative number yields nan; nothing raises.

``parse_coefficient`` reports syntax problems with the byte offset where
scanning stopped.  Printing an expression produces fully parenthesized
source that parses back to an evaluation-identical function.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError, ShapeError

__all__ = [
    "CoefficientFn",
    "Constant",
    "Expression",
    "parse_coefficient",
    "as_coefficient",
]

_UNARY = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh}
_FUNCS = set(_UNARY) | {"pow", "min", "max"}
# Python's operators keep two literals a Python float, as before; division is
# np.divide so that a literal 1 / 0 gives inf instead of raising
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide}


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    index: int  # zero-based state coordinate


@dataclass(frozen=True)
class _Neg:
    child: object


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Call:
    name: str
    args: tuple


def _compile(node):
    """The tree as a function of the states ``x``, built once: it applies the
    tree's operators and functions in the tree's order, with no walk over the
    nodes on each call; the caller masks IEEE warnings."""
    if isinstance(node, _Num):
        value = node.value
        return lambda x: value
    if isinstance(node, _Var):
        index = node.index

        def coordinate(x):
            if index >= x.shape[1]:
                raise EvaluationError(
                    f"coordinate x{index + 1} is undefined for state dimension {x.shape[1]}"
                )
            return x[:, index]
        return coordinate
    if isinstance(node, _Neg):
        child = _compile(node.child)
        return lambda x: -child(x)
    if isinstance(node, _Bin):
        op, left, right = _BINARY[node.op], _compile(node.left), _compile(node.right)
        return lambda x: op(left(x), right(x))
    # _Call
    args = [_compile(a) for a in node.args]
    if node.name in _UNARY:
        fn, (arg,) = _UNARY[node.name], args
        return lambda x: fn(arg(x))
    if node.name == "pow":
        base, power = args
        return lambda x: np.power(base(x), power(x))
    fold = np.minimum if node.name == "min" else np.maximum

    def folded(x):
        first, *rest = [a(x) for a in args]
        for extra in rest:
            first = fold(first, extra)
        return first
    return folded


def _print_node(node) -> str:
    if isinstance(node, _Num):
        return repr(node.value)
    if isinstance(node, _Var):
        return f"x{node.index + 1}"
    if isinstance(node, _Neg):
        return f"(-{_print_node(node.child)})"
    if isinstance(node, _Bin):
        return f"({_print_node(node.left)} {node.op} {_print_node(node.right)})"
    return f"{node.name}({', '.join(_print_node(a) for a in node.args)})"


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.cursor = 0

    def _tokenize(self) -> None:
        pos = 0
        n = len(self.source)
        while pos < n:
            match = _TOKEN_RE.match(self.source, pos)
            if match is None or match.end() == pos:
                stripped = self.source[pos:].lstrip()
                if not stripped:
                    break
                bad_at = n - len(stripped)
                raise ExpressionError(
                    f"unexpected character {stripped[0]!r}", offset=bad_at
                )
            if match.lastgroup == "num":
                self.tokens.append(("num", match.group("num"), match.start("num")))
            elif match.lastgroup == "ident":
                self.tokens.append(("ident", match.group("ident"), match.start("ident")))
            else:
                self.tokens.append(("op", match.group("op"), match.start("op")))
            pos = match.end()
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        tok = self.tokens[self.cursor]
        if tok[0] != "end":
            self.cursor += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, off = self.peek()
        if kind != "op" or text != symbol:
            raise ExpressionError(f"expected {symbol!r}", offset=off)
        return self.advance()

    # grammar rules ------------------------------------------------------

    def parse(self):
        tree = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {text!r}", offset=off)
        return tree

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = _Bin(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = _Bin(text, node, self.factor())
            else:
                return node

    def factor(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return _Num(float(text))
        if kind == "op" and text == "-":
            self.advance()
            return _Neg(self.factor())
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            self.advance()
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                return self._call(text, off)
            if re.fullmatch(r"x[1-9]", text):
                return _Var(int(text[1]) - 1)
            raise ExpressionError(f"unknown identifier {text!r}", offset=off)
        raise ExpressionError(f"expected a value, got {text!r}" if text else "unexpected end of input", offset=off)

    def _call(self, name: str, name_off: int):
        if name not in _FUNCS:
            raise ExpressionError(f"unknown function {name!r}", offset=name_off)
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if name in _UNARY and len(args) != 1:
            raise ExpressionError(f"{name} takes exactly 1 argument, got {len(args)}", offset=name_off)
        if name == "pow" and len(args) != 2:
            raise ExpressionError(f"pow takes exactly 2 arguments, got {len(args)}", offset=name_off)
        if name in ("min", "max") and len(args) < 2:
            raise ExpressionError(f"{name} takes at least 2 arguments, got {len(args)}", offset=name_off)
        return _Call(name, tuple(args))


# ---------------------------------------------------------------------------
# public coefficient carriers


class CoefficientFn:
    """Callable state -> scalar, vectorized over sample batches.

    Subclasses implement ``__call__`` on an (n, m) array of states and
    return an (n,) array.  ``at`` evaluates a single point.
    """

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def at(self, point) -> float:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        return float(self(pt.reshape(1, -1))[0])

    def source_text(self) -> str:
        """Expression-language rendering (used for config export)."""
        raise NotImplementedError


def _check_states(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"states must be a 2-d (n, m) array, got ndim {arr.ndim}")
    return arr


@dataclass(frozen=True)
class Constant(CoefficientFn):
    value: float

    def __call__(self, x):
        x = _check_states(x)
        return np.full(x.shape[0], float(self.value))

    def source_text(self) -> str:
        return repr(float(self.value))


class Expression(CoefficientFn):
    def __init__(self, tree, source: str):
        self.tree = tree
        self.source = source
        self._fn = _compile(tree)
        # only an operator or a function can warn; negation cannot
        node = tree
        while isinstance(node, _Neg):
            node = node.child
        self._can_warn = isinstance(node, (_Bin, _Call))

    def __call__(self, x):
        x = _check_states(x)
        if self._can_warn:
            # IEEE results (inf, nan) stand without warnings; one errstate per call
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = self._fn(x)
        else:
            out = self._fn(x)
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            out = np.full(x.shape[0], float(out))
        return out

    def source_text(self) -> str:
        return _print_node(self.tree)

    def __reduce__(self):
        # the compiled function is a closure, which pickle cannot store: rebuild it
        return type(self), (self.tree, self.source)

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_coefficient(source: str) -> CoefficientFn:
    """Parse expression source into a coefficient function.

    Pure numeric literals (optionally negated) collapse to ``Constant``.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expected source text, got {type(source).__name__}")
    tree = _Parser(source).parse()
    if isinstance(tree, _Num):
        return Constant(tree.value)
    if isinstance(tree, _Neg) and isinstance(tree.child, _Num):
        return Constant(-tree.child.value)
    return Expression(tree, source)


def as_coefficient(obj) -> CoefficientFn:
    """Coerce a number, source string, or CoefficientFn to a CoefficientFn."""
    if isinstance(obj, CoefficientFn):
        return obj
    if isinstance(obj, (int, float, np.floating, np.integer)):
        return Constant(float(obj))
    if isinstance(obj, str):
        return parse_coefficient(obj)
    raise ExpressionError(f"cannot interpret {type(obj).__name__} as a coefficient")
