"""Expression grammar, evaluation semantics, and round-trip printing."""

import itertools
import math
import pickle
import warnings

import numpy as np
import pytest

from gkernel import (
    Constant,
    EvaluationError,
    ExpressionError,
    as_coefficient,
    parse_coefficient,
)
from gkernel.coefficients import _Bin, _Call, _Neg, _Num, _Parser, _Var


def _walk(node, x):
    """The value of an expression tree at ``x``, by walking the tree on each call."""
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x[:, node.index]
    if isinstance(node, _Neg):
        return -_walk(node.child, x)
    if isinstance(node, _Bin):
        a, b = _walk(node.left, x), _walk(node.right, x)
        return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "/": lambda: np.divide(a, b)}[node.op]()
    assert isinstance(node, _Call)
    args = [_walk(a, x) for a in node.args]
    unary = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh}
    if node.name in unary:
        return unary[node.name](args[0])
    if node.name == "pow":
        return np.power(args[0], args[1])
    out = args[0]
    for extra in args[1:]:
        out = (np.minimum if node.name == "min" else np.maximum)(out, extra)
    return out


def _at(fn, *coords) -> float:
    return float(fn(np.array([coords], dtype=float))[0])


class TestEvaluation:
    def test_plain_constant(self):
        fn = parse_coefficient("0.02")
        assert _at(fn, -5.0) == 0.02
        assert _at(fn, 3.7) == 0.02

    def test_negated_variable(self):
        assert _at(parse_coefficient("-x1"), 0.3) == -0.3

    def test_composite_expression(self):
        fn = parse_coefficient("exp(-x1*x1/2) + max(x1, 0)")
        assert _at(fn, 1.0) == pytest.approx(math.exp(-0.5) + 1.0, abs=1e-15)
        assert _at(fn, 1.0) == pytest.approx(1.606531, abs=1e-6)

    def test_precedence_and_associativity(self):
        assert _at(parse_coefficient("1 + 2 * 3"), 0.0) == 7.0
        assert _at(parse_coefficient("8 / 4 / 2"), 0.0) == 1.0
        assert _at(parse_coefficient("2 - 3 - 4"), 0.0) == -5.0

    def test_double_negation(self):
        assert _at(parse_coefficient("--2"), 0.0) == 2.0

    def test_functions(self):
        assert _at(parse_coefficient("pow(2, 3)"), 0.0) == 8.0
        assert _at(parse_coefficient("min(3, x1, 2)"), 5.0) == 2.0
        assert _at(parse_coefficient("max(3, x1, 2)"), 5.0) == 5.0
        assert _at(parse_coefficient("sqrt(x1)"), 9.0) == 3.0
        assert _at(parse_coefficient("abs(x1)"), -4.0) == 4.0
        assert _at(parse_coefficient("tanh(0)"), 0.0) == 0.0
        assert _at(parse_coefficient("ln(x1)"), math.e) == pytest.approx(1.0, abs=1e-15)

    def test_division_by_zero_follows_ieee(self):
        with np.errstate(divide="ignore"):
            assert _at(parse_coefficient("1 / x1"), 0.0) == math.inf
            assert _at(parse_coefficient("-1 / x1"), 0.0) == -math.inf

    def test_ieee_results_warn_nowhere_and_leave_the_error_state(self):
        x = np.array([[0.0, -1.0], [1e308, 2.0], [-1e308, np.nan]])
        sources = ["1 / x1", "ln(x2)", "x1 * x1 - x1 * x1", "exp(x1) + sqrt(x2)",
                   "pow(x1, 3) / min(x1, x2, 0)", "-(x1 * 10) / (x2 - x2)", "-(1 / x1)", "-x2"]
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                values = [parse_coefficient(src)(x) for src in sources]
                with pytest.raises(EvaluationError):
                    parse_coefficient("x3 / 0")(x)
                assert np.geterr() == {**before, "divide": "raise", "over": "raise",
                                       "invalid": "raise"}
        assert np.geterr() == before
        with np.errstate(all="ignore"):  # the same operations, done directly
            x1, x2 = x[:, 0], x[:, 1]
            expect = [1 / x1, np.log(x2), x1 * x1 - x1 * x1, np.exp(x1) + np.sqrt(x2),
                      np.power(x1, 3) / np.minimum(np.minimum(x1, x2), 0.0),
                      -(x1 * 10.0) / (x2 - x2), -(1 / x1), -x2]
        assert [v.tobytes() for v in values] == [e.tobytes() for e in expect]

    def test_compiled_expressions_equal_the_tree_walk(self):
        special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5, -2.0, 1e308]
        x = np.array(list(itertools.product(special, repeat=2)))
        sources = ["x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "-x1", "--x2", "exp(x1)",
                   "ln(x2)", "sqrt(x1)", "abs(x2)", "tanh(x1)", "pow(x1, x2)",
                   "min(x1, x2, -0.0)", "max(x2, -x1, 0, 5e-324)", "-(2 - x1) * 3 / x2",
                   "-0.0 * x1 + 0.0", "2 * 3 - 1 / 0 + x1", "pow(2, 0.5) - max(1, 2) * x2",
                   "exp(-x1 * x1 / 2) + min(ln(abs(x2)), sqrt(x1 - x2))", "1 / 0", "-(1 - 1)"]
        with np.errstate(all="ignore"):
            for src in sources:
                got = parse_coefficient(src)(x)
                expect = _walk(_Parser(src).parse(), x)
                expect = np.full(len(x), expect) if np.ndim(expect) == 0 else expect
                assert got.dtype == np.float64 and got.shape == (len(x),), src
                assert got.tobytes() == np.asarray(expect, dtype=float).tobytes(), src

    def test_expression_survives_a_pickle_round_trip(self):
        fn = parse_coefficient("0.05 - 1.0 * x1")
        again = pickle.loads(pickle.dumps(fn))
        x = np.linspace(-3.0, 3.0, 41).reshape(-1, 1)
        assert again.source == fn.source and again.tree == fn.tree
        assert again(x).tobytes() == fn(x).tobytes()

    def test_scientific_literals(self):
        assert _at(parse_coefficient("1.5e-3 + 2E2"), 0.0) == pytest.approx(200.0015)

    def test_multiple_state_variables(self):
        fn = parse_coefficient("x1 * x2 - x1")
        assert _at(fn, 2.0, 3.0) == 4.0


class TestErrors:
    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_coefficient("2 +* 3")
        assert err.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse_coefficient("y1 + 2")
        with pytest.raises(ExpressionError):
            parse_coefficient("x10")

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            parse_coefficient("sin(x1)")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionError):
            parse_coefficient("pow(2)")
        with pytest.raises(ExpressionError):
            parse_coefficient("pow(2, 3, 4)")
        with pytest.raises(ExpressionError):
            parse_coefficient("min(1)")
        with pytest.raises(ExpressionError):
            parse_coefficient("exp(1, 2)")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ExpressionError):
            parse_coefficient("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_coefficient("1 + 2 )")


ROUND_TRIP_SOURCES = [
    "0.02",
    "-x1",
    "exp(-x1*x1/2) + max(x1, 0)",
    "1 + 2 * 3 - x1 / 4",
    "pow(x1, 2) - min(x1, 0, -1)",
    "tanh(x1) * sqrt(abs(x2) + 1)",
    "8 / 4 / 2 - x1",
    "ln(abs(x1) + 1e-8)",
    "--x1 + -(x1 - 2)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_print_then_parse_is_evaluation_identical(self, source):
        fn = parse_coefficient(source)
        fn2 = parse_coefficient(fn.source_text())
        rng = np.random.default_rng(5)
        x = rng.normal(scale=2.0, size=(1000, 2))
        with np.errstate(all="ignore"):
            a, b = fn(x), fn2(x)
        assert np.array_equal(a, b)

    def test_printed_form_is_stable(self):
        fn = parse_coefficient("1 + 2 * 3")
        assert parse_coefficient(fn.source_text()).source_text() == fn.source_text()


class TestWrappers:
    def test_constant_wrapper(self):
        fn = Constant(0.3)
        assert _at(fn, 123.0) == 0.3
        assert _at(as_coefficient(0.3), 1.0) == 0.3

    def test_as_coefficient_accepts_text_and_numbers(self):
        assert _at(as_coefficient("x1 + 1"), 2.0) == 3.0
        assert _at(as_coefficient(as_coefficient("x1")), 7.0) == 7.0

    def test_as_coefficient_rejects_bare_callables(self):
        with pytest.raises(ExpressionError):
            as_coefficient(lambda x: x[:, 0] ** 2)
