import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galab.errors import ExpressionError
from galab.expressions import (MAX_EXPONENT, BinOp, Call, Neg, Num, Pow, Var, _variables,
                               as_function_of_z, constant_value, evaluate, evaluate_on_grid,
                               parse_expression, point_env)

from conftest import make_grid


def value_at(src, x, y):
    node = parse_expression(src)
    return complex(evaluate(node, point_env(complex(x, y))))


class TestLiteralsAndVariables:
    def test_plain_numbers(self):
        assert value_at("1.5", 0, 0) == 1.5
        assert value_at("2e-3", 0, 0) == 0.002
        assert value_at(".5", 0, 0) == 0.5

    def test_imaginary_literals(self):
        assert value_at("2i", 0, 0) == 2j
        assert value_at("1.5i", 0, 0) == 1.5j
        assert value_at("2i*y", 0, 3) == 6j

    def test_variables(self):
        assert value_at("z", 1, 2) == 1 + 2j
        assert value_at("zbar", 1, 2) == 1 - 2j
        assert value_at("x + 2*y", 1, 2) == 5.0

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError):
            parse_expression("w + 1")

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin(x)")


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert value_at("-x^2", 2, 0) == -4.0

    def test_power_right_assoc_tower(self):
        assert value_at("2^3^2", 0, 0) == 512.0

    def test_negative_exponent(self):
        assert value_at("x^-2", 2, 0) == 0.25

    def test_mul_over_add(self):
        assert value_at("1 + 2*3", 0, 0) == 7.0

    def test_left_assoc_division(self):
        assert value_at("8/4/2", 0, 0) == 1.0

    def test_parentheses(self):
        assert value_at("(1 + 2)*3", 0, 0) == 9.0

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x^2.5")
        with pytest.raises(ExpressionError):
            parse_expression("x^y")


class TestExponentCap:
    def test_cap_is_inclusive(self):
        assert parse_expression(f"z^{MAX_EXPONENT}").exponent == MAX_EXPONENT
        assert parse_expression(f"z^-{MAX_EXPONENT}").exponent == -MAX_EXPONENT
        assert parse_expression("z^2^10").exponent == 1024

    @pytest.mark.parametrize("src", [
        f"z^{MAX_EXPONENT + 1}", f"z^-{MAX_EXPONENT + 1}", "z^10^30",
        "z^2^11", "z^-2^11", "z^" + "9" * 5000])
    def test_large_exponents_rejected(self, src):
        with pytest.raises(ExpressionError):
            parse_expression(src)

    def test_tower_rejected_before_it_is_computed(self):
        # 9^9^9 has about 3.7e8 digits; computing it would not finish
        with pytest.raises(ExpressionError) as err:
            parse_expression("z^9^9^9")
        assert err.value.column == 5

    def test_towers_of_one_and_zero(self):
        assert parse_expression("z^1^-5").exponent == 1
        assert parse_expression("z^-1^3").exponent == -1
        assert parse_expression("z^0^0").exponent == 1
        with pytest.raises(ExpressionError):
            parse_expression("z^0^-1")

    def test_tower_must_stay_integer(self):
        with pytest.raises(ExpressionError):
            parse_expression("z^2^-1")


class TestFunctions:
    def test_exp_conj_re_im_sqrt(self):
        assert value_at("exp(0)", 0, 0) == 1.0
        assert value_at("conj(z)", 1, 2) == 1 - 2j
        assert value_at("re(z)", 1, 2) == 1.0
        assert value_at("im(z)", 1, 2) == 2.0
        assert value_at("sqrt(4)", 0, 0) == 2.0

    def test_spot_check_singular_expression(self):
        assert value_at("exp(2i*y^2) * (-1/(2*x))", 1, 0) == pytest.approx(-0.5)


class TestErrors:
    def test_dangling_operator_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 +")
        assert err.value.column == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")

    def test_stray_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 @ 2")
        assert err.value.column == 3

    def test_multiline_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 +\n* 2")
        assert err.value.line == 2

    def test_trailing_junk(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2")

    @pytest.mark.parametrize("src", [
        "(" * 400 + "x" + ")" * 400, "exp(" * 400 + "x" + ")" * 400,
        "-" * 3000 + "x", "x+" * 3000 + "x", "z^" + "1^" * 3000 + "1"],
        ids=["parentheses", "calls", "negations", "sum", "tower"])
    def test_deep_nesting_is_an_expression_error(self, src):
        # the parser and the tree walks recurse once or twice per level
        with pytest.raises(ExpressionError, match="nests too deeply"):
            parse_expression(src)


class TestEvaluation:
    def test_on_grid(self):
        g = make_grid(8, 8)
        vals = evaluate_on_grid("z*zbar", g)
        assert np.allclose(vals, g.x ** 2 + g.y ** 2)

    def test_division_guarded(self):
        g = make_grid(8, 8, x=(-1.0, 1.0))
        vals = evaluate_on_grid("1/(x - x)", g)  # all infinities, no raise
        assert not np.isfinite(vals).any()

    def test_scalar_broadcast(self):
        g = make_grid(8, 8)
        assert evaluate_on_grid("3", g).shape == g.shape()

    def test_as_function_of_z(self):
        fn = as_function_of_z("z^2 + 1i")
        zs = np.array([1 + 1j, 2.0])
        assert np.allclose(fn(zs), zs ** 2 + 1j)

    def test_constant_value(self):
        assert constant_value("-2i/3") == pytest.approx(-2j / 3)
        with pytest.raises(ExpressionError):
            constant_value("2*x")


#: pieces of token soups: every token kind, words that are not names,
#: characters outside the language, and literals that overflow
_SOUP = ["0", "1", "2", "10", "1024", "2.5", ".5", "1e3", "1e400", "2i", "1.5i", "1e400i",
         "x", "y", "z", "zbar", "w", "i", "inf", "exp", "conj", "re", "im", "sqrt", "sin",
         "+", "-", "*", "/", "^", "(", ")", "@", ",", "_", ".", " ", "\n"]


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        inner.map("-{}".format), inner.map("({})".format),
        st.tuples(st.sampled_from(["exp", "conj", "re", "im", "sqrt"]), inner)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "-1", "3^2", "1024"])).map("^".join))


#: expressions that parse, or mostly do: a soup is one with pieces put in
_GRAMMATICAL = st.recursive(st.sampled_from(["2", "2.5", "1e400", "2i", "x", "y", "z", "zbar"]),
                            _compound, max_leaves=8)


def _reference_variables(node) -> set[str]:
    """Variable names of a tree, walked node type by node type."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, BinOp):
        return _reference_variables(node.left) | _reference_variables(node.right)
    child = {Call: "arg", Neg: "operand", Pow: "base"}[type(node)]
    return _reference_variables(getattr(node, child))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(expr=_GRAMMATICAL,
       pieces=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_SOUP)), max_size=4))
def test_token_soup(expr, pieces):
    """Only ExpressionError leaves the parser or the grid evaluator, and
    a parsed tree names the variables a node-by-node walk finds."""
    src = expr
    for at, piece in pieces:
        at %= len(src) + 1
        src = src[:at] + piece + src[at:]
    try:
        node = parse_expression(src)
    except ExpressionError:
        return
    assert _variables(node) == _reference_variables(node), src
    with np.errstate(all="ignore"):
        try:
            values = evaluate_on_grid(node, _SOUP_GRID)
        except ExpressionError:
            return
    assert values.shape == _SOUP_GRID.shape(), src


_SOUP_GRID = make_grid(6, 5, x=(-1.0, 1.0))
