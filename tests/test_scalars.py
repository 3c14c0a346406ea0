"""Exact quadratic-field scalars: normalization, order, parsing, arithmetic."""

import ast
import operator
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from _oracles import (FractionScalar, _is_square_free as _trial_square_free,
                      common_denominator_sub, gcd_scalar_text, scalar, scalar_parts)
from grouptrees.core import Scalar, ZERO, _is_square_free, _make, _text, field_problem
from grouptrees.errors import MixedFieldError, ParseError


ONE = Scalar.of(1)
NOTHING = object()   # a parameter that stands for no argument at all


def S(text: str) -> Scalar:
    return Scalar.parse(text)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
small_d = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13])


@st.composite
def scalars(draw, d=None):
    dd = d if d is not None else draw(small_d)
    return scalar(draw(rationals), draw(rationals), dd)


class TestNormalization:
    def test_zero_and_signs(self):
        assert scalar(Fraction(0)).sign() == 0
        assert scalar(Fraction(3), Fraction(1), 2).sign() == 1
        assert scalar(Fraction(1), Fraction(-1), 2).sign() == -1  # 1 < sqrt2

    def test_rational_collapses_field_tag(self):
        # irr == 0 must normalize d to 1 so rationals are equal across documents
        assert scalar(Fraction(1, 2), Fraction(0), 5) == scalar(Fraction(1, 2))
        assert hash(scalar(Fraction(1, 2), Fraction(0), 5)) == hash(
            scalar(Fraction(1, 2), Fraction(0), 7)
        )

    def test_d_equal_one_folds(self):
        assert scalar(Fraction(1), Fraction(2), 1) == scalar(Fraction(3))

    def test_square_free_enforced(self):
        # the field tag is checked where values come in, by parse
        for d in (4, 12, 0):
            with pytest.raises(ParseError, match="square-free"):
                Scalar.parse(f"sqrt{d}")

    @pytest.mark.parametrize("value,name", [
        (0.5, "float"), (Decimal("0.5"), "Decimal"), ("0.5", "str"), ("1e3", "str"),
        (NOTHING, "nothing")])
    def test_constructor_takes_ints_and_fractions_only(self, value, name):
        # floats never enter: Scalar.of and Scalar.parse are the only ways
        # in, and Scalar itself takes no value, nor builds a hollow one
        with pytest.raises(TypeError, match="takes no arguments"):
            Scalar() if value is NOTHING else Scalar(value)
        if name == "str":   # Scalar.of parses strings
            with pytest.raises(ParseError, match="no floats"):
                Scalar.of(value)
        elif name != "nothing":
            with pytest.raises(TypeError, match=f"cannot make a Scalar from {name}"):
                Scalar.of(value)
        assert scalar(3, Fraction(1, 2), 2) == S("3+1/2*sqrt2")


class TestSign:
    def test_mixed_sign_cross_multiplication(self):
        # 2 - sqrt2 > 0 because 4 > 2
        assert scalar(Fraction(2), Fraction(-1), 2).sign() == 1
        # 1 - sqrt2 < 0 because 1 < 2
        assert scalar(Fraction(1), Fraction(-1), 2).sign() == -1
        # -3 + 2*sqrt2 < 0 because 9 > 8
        assert scalar(Fraction(-3), Fraction(2), 2).sign() == -1
        # -2 + 2*sqrt2 > 0 because 4 < 8
        assert scalar(Fraction(-2), Fraction(2), 2).sign() == 1

    def test_golden_value_is_in_unit_interval(self):
        alpha = scalar(Fraction(3, 2), Fraction(-1, 2), 5)  # (3 - sqrt5)/2
        assert ZERO < alpha < ONE
        assert alpha < scalar(Fraction(1, 2))  # 0.381966... < 1/2

    @given(scalars(d=5), scalars(d=5))
    def test_total_order_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", scalar(Fraction(3))),
            ("-1/2", scalar(Fraction(-1, 2))),
            ("0", ZERO),
            ("3/2-1/2*sqrt5", scalar(Fraction(3, 2), Fraction(-1, 2), 5)),
            ("3/2 - 1/2*sqrt5", scalar(Fraction(3, 2), Fraction(-1, 2), 5)),
            ("sqrt2", scalar(Fraction(0), Fraction(1), 2)),
            ("-sqrt2", scalar(Fraction(0), Fraction(-1), 2)),
            ("1/2*sqrt5", scalar(Fraction(0), Fraction(1, 2), 5)),
            ("-2+sqrt2", scalar(Fraction(-2), Fraction(1), 2)),
            ("2+3*sqrt7", scalar(Fraction(2), Fraction(3), 7)),
        ],
    )
    def test_accepted(self, text, expected):
        assert Scalar.parse(text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("0/7", "0"), ("-0", "0"), ("007/3", "7/3"), ("-006/4", "-3/2"),
        ("12*sqrt2", "12*sqrt2"), ("-10*sqrt2", "-10*sqrt2"),
        ("3/22*sqrt5", "3/22*sqrt5"), ("1+sqrt1", "2"), ("2*sqrt01", "2"),
    ])
    def test_spellings(self, text, expected):
        assert str(Scalar.parse(text)) == expected

    @pytest.mark.parametrize("text,message", [
        ("1/0", "bad rational '1/0': zero denominator"),
        ("-7/0+sqrt2", "bad scalar '-7/0+sqrt2': Fraction(-7, 0)"),
        ("1/0*sqrt2", "bad scalar '1/0*sqrt2': Fraction(1, 0)"),
        ("2sqrt2", "bad scalar '2sqrt2'"),
        ("0.5", "bad rational '0.5' (integers and p/q only, no floats)"),
    ])
    def test_rejected_with_message(self, text, message):
        with pytest.raises(ParseError) as info:
            Scalar.parse(text)
        assert str(info.value) == message

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer digit limit")
    @pytest.mark.parametrize("form,kind", [("{}", "rational"), ("-1/{}", "rational"),
                                           ("{}+sqrt2", "scalar"), ("1/{}*sqrt5", "scalar")])
    def test_digits_past_the_integer_limit(self, form, kind):
        # Python refuses int() of a string past its digit limit; both branches
        # turn that into a ParseError naming the text
        text = form.format("1" * (sys.get_int_max_str_digits() + 700))
        with pytest.raises(ParseError) as info:
            Scalar.parse(text)
        assert str(info.value).startswith(f"bad {kind} {text!r}: Exceeds the limit")

    @pytest.mark.parametrize(
        "text", ["", "0.5", "1e3", "sqrt4", "sqrt-2", "1/0", "x", "3+", "sqrt", "++sqrt2"]
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            Scalar.parse(text)

    @given(scalars())
    def test_str_round_trips(self, s):
        assert Scalar.parse(str(s)) == s


class TestArithmetic:
    def test_division_by_conjugate(self):
        # Scalars do not divide: nothing in the program divides by a value
        a = S("1+sqrt2")
        for left, right in ((ONE, a), (a * a, a), (a, 2), (2, a), (Fraction(1, 2), a)):
            with pytest.raises(TypeError):
                left / right

    def test_mixed_field_error(self):
        with pytest.raises(MixedFieldError):
            S("sqrt2") + S("sqrt5")
        # rationals mix with anything
        assert S("1/2") + S("sqrt5") == scalar(Fraction(1, 2), Fraction(1), 5)

    def test_int_interop(self):
        assert S("sqrt2") * 2 == 2 * S("sqrt2") == S("2*sqrt2")
        assert 1 + S("1/2") == S("1/2") + 1 == S("3/2")
        assert S("1/2") - 1 == -S("1/2") + 0 == S("-1/2")
        # a Scalar is never subtracted from a number, and has no abs()
        with pytest.raises(TypeError):
            1 - S("1/2")
        with pytest.raises(TypeError):
            abs(S("-1/2"))

    @given(scalars(d=2), scalars(d=2), scalars(d=2))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(scalars(d=3))
    def test_sub_and_neg(self, a):
        assert a - a == ZERO
        assert a + (-a) == ZERO

    @given(scalars(d=5))
    def test_division_inverts(self, a):
        with pytest.raises(TypeError):
            a / a

    @given(scalars(d=2), scalars(d=2))
    def test_order_respects_addition(self, a, b):
        if a < b:
            assert a + ONE < b + ONE
            assert -b < -a


class TestFieldCheck:
    def test_square_free_matches_trial_division(self):
        for d in range(-3, 20000):
            assert _is_square_free(d) == _trial_square_free(d), d

    @pytest.mark.parametrize("d,expected", [
        (999983 ** 2, False),            # square of a prime above the cube root
        (2 * 999983 ** 2, False),
        (999979 * 999983, True),         # two distinct large primes
        (3 * 999979 * 999983, True),
        (10 ** 15, False),
        (999999999999989, True),         # the largest prime below 10^15
        (10 ** 15 + 37, False),          # above the bound
    ])
    def test_large_tags(self, d, expected):
        assert _is_square_free(d) is expected

    def test_bound_rejected_promptly(self):
        prime20 = 18446744073709551557   # 2^64 - 59, a 20-digit prime
        with pytest.raises(ParseError, match="bound"):
            Scalar.parse(f"1+sqrt{prime20}")
        with pytest.raises(ParseError, match="bound"):
            Scalar.parse("sqrt" + "7" * 5000)
        assert field_problem(prime20) is not None
        assert field_problem(999999999999989) is None

    def test_immutable(self):
        s = S("1+sqrt2")
        for attr in ("d", "extra"):
            with pytest.raises(AttributeError):
                setattr(s, attr, 3)


# -- agreement with the Fraction-backed oracle ---------------------------------

oracle_parts = st.one_of(st.just(Fraction(0)),
                         st.integers(-4, 4).map(Fraction), rationals)
oracle_d = st.sampled_from([1, 2, 3, 5, 7])


@st.composite
def twins(draw):
    """The same value as a Scalar and as a FractionScalar."""
    rat, irr, d = draw(oracle_parts), draw(oracle_parts), draw(oracle_d)
    return scalar(rat, irr, d), FractionScalar(rat, irr, d)


def outcome(fn, *args):
    """A comparable summary of fn(*args): a value or the error it raised."""
    try:
        value = fn(*args)
    except (MixedFieldError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    except TypeError:
        return "TypeError"
    if isinstance(value, Scalar):
        return ("scalar", *scalar_parts(value), str(value))
    if isinstance(value, FractionScalar):
        return ("scalar", value.rat, value.irr, value.d, str(value))
    return value


BINARY = [operator.add, operator.sub, operator.mul,
          operator.lt, operator.le, operator.gt, operator.ge]
# the oracle's operations that Scalar does not have
REMOVED = [operator.truediv]


class TestAgainstFractionOracle:
    @given(twins(), twins())
    def test_binary_operations(self, x, y):
        for op in BINARY:
            assert outcome(op, x[0], y[0]) == outcome(op, x[1], y[1]), op
        for op in REMOVED:
            assert outcome(op, x[0], y[0]) == "TypeError", op
        assert (x[0] == y[0]) == (x[1] == y[1])

    @given(twins(), st.one_of(st.integers(-3, 3), oracle_parts))
    def test_mixed_with_rationals(self, x, k):
        for op in BINARY:
            assert outcome(op, x[0], k) == outcome(op, x[1], k), op
        for op in BINARY:
            if op is not operator.sub:
                assert outcome(op, k, x[0]) == outcome(op, k, x[1]), op
        for op in REMOVED:
            assert outcome(op, x[0], k) == outcome(op, k, x[0]) == "TypeError", op
        # a number minus a Scalar is refused; the Scalar's negation is kept
        assert outcome(operator.sub, k, x[0]) == "TypeError"
        assert outcome(operator.add, -x[0], k) == outcome(operator.sub, k, x[1])
        assert outcome(operator.lt, x[0], "1") == "TypeError"

    @given(twins())
    def test_unary_and_rendering(self, x):
        new, old = x
        assert outcome(operator.neg, new) == outcome(operator.neg, old)
        assert outcome(abs, new) == "TypeError"
        assert new.sign() == old.sign()
        assert new.is_zero() == old.is_zero()
        assert scalar_parts(new) == (old.rat, old.irr, old.d)
        assert str(new) == str(old)
        assert_equal_values_hash_equal(new)
        assert outcome(Scalar.parse, str(new)) == outcome(FractionScalar.parse, str(old))
        assert new != old.rat and new != str(new)


class TestSubtractionByAddition:
    """a - b adds the negation of b: the common-denominator code it replaced
    and the Fraction oracle give the same value, or the same error."""

    @given(twins(), st.one_of(twins(), st.integers(-5, 5), oracle_parts))
    def test_matches_common_denominator_and_fractions(self, x, y):
        new, old = x
        y_new, y_old = y if isinstance(y, tuple) else (y, y)
        assert outcome(operator.sub, new, y_new) \
            == outcome(common_denominator_sub, new, y_new) \
            == outcome(operator.sub, old, y_old)

    @pytest.mark.parametrize("a,b", [("sqrt2", "sqrt5"), ("1+sqrt5", "1/2-1/3*sqrt2"),
                                     ("-1/7*sqrt3", "2/3+sqrt7")])
    def test_mixed_fields_name_the_left_field_first(self, a, b):
        for left, right in ((S(a), S(b)), (S(b), S(a))):
            with pytest.raises(MixedFieldError) as new:
                left - right
            with pytest.raises(MixedFieldError) as old:
                common_denominator_sub(left, right)
            assert str(new.value) == str(old.value) == (
                f"cannot mix sqrt{left.d} and sqrt{right.d} values in one computation")

    def test_text_is_no_operand(self):
        for other in ("1", "sqrt2", 0.5):
            with pytest.raises(TypeError):
                S("1+sqrt2") - other
            assert common_denominator_sub(S("1+sqrt2"), other) is NotImplemented


class TestTextWithoutASecondGcd:
    """A rational Scalar's text is str(Fraction), and every Scalar's is the
    parts' gcd text of the parent."""

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_rationals_print_as_fractions(self, p, q):
        x = Scalar.of(Fraction(p, q))
        assert str(x) == str(Fraction(p, q)) == gcd_scalar_text(x)
        for y in (x + Scalar.of(Fraction(q, p or 1)), x * x, x - ONE, -x):
            assert str(y) == str(scalar_parts(y)[0]) == gcd_scalar_text(y)

    @given(small_d.flatmap(lambda d: st.tuples(scalars(d=d), scalars(d=d))))
    @example((S("-sqrt2"), S("1/2+sqrt2")))
    def test_field_values_print_as_before(self, pair):
        x, y = pair
        for z in (x, y, x + y, x - y, x * y, -x):
            assert str(z) == gcd_scalar_text(z)


@st.composite
def point_ints(draw):
    """(a, b, den, d) as an orbit's int view holds a point: not normalised.  A
    zero rational part, a sqrt coefficient of 0 or +-1, negative values, d == 1
    (where b is 0) and values that reduce by a common factor are all drawn."""
    d = draw(st.sampled_from([1, 2, 3, 5, 7]))
    den = draw(st.integers(1, 60))
    a = draw(st.just(0) | st.integers(-10**6, 10**6))
    b = 0 if d == 1 else draw(st.sampled_from([0, den, -den]) | st.integers(-10**6, 10**6))
    k = draw(st.sampled_from([1, 2, 6, 35]))
    return a * k, b * k, den * k, d


class TestPointText:
    """_text prints the orbit reports' points from their int pairs: it must give
    the str of the normalised Scalar, which the reports printed before."""

    @given(point_ints())
    @example((0, 0, 1, 1))
    @example((6, 0, 3, 1))
    @example((-2, 0, 4, 3))
    @example((0, 4, 4, 5))
    @example((0, -6, 6, 2))
    @example((3, 3, 6, 5))
    @example((-4, -2, 2, 3))
    @example((10, 4, 6, 7))
    def test_text_is_str_of_the_scalar(self, ints):
        assert _text(*ints) == str(_make(*ints))

    @given(point_ints())
    def test_text_parses_back(self, ints):
        assert Scalar.parse(_text(*ints)) == _make(*ints)


# -- the hash: equal values hash equal, whatever path built them --------------


def equal_values(x: Scalar) -> list[Scalar]:
    """x rebuilt along several paths: from its parts, parse, arithmetic and,
    for a rational x, Scalar.of of a Fraction and of an int."""
    rat, irr, d = scalar_parts(x)
    third = scalar(Fraction(1, 3))
    out = [scalar(rat, irr, d), scalar(rat) + scalar(0, irr, d), Scalar.parse(str(x)),
           (x + third) - third, x * 3 - x * 2, -(-x), x * ONE + ZERO,
           x * scalar(Fraction(1, 7)) * 7]
    if not irr:
        out += [Scalar.of(rat), scalar(rat, 0, 5), Scalar.parse(f"{rat}+0*sqrt3")]
        if rat.denominator == 1:
            out.append(Scalar.of(rat.numerator))
    return out


def assert_equal_values_hash_equal(x: Scalar) -> None:
    for y in equal_values(x):
        assert y == x and hash(y) == hash(x), (str(x), str(y))


class TestHash:
    def test_hash_ignores_the_hash_seed(self):
        code = ("from grouptrees.core import Scalar\n"
                "print([hash(Scalar.parse(t)) for t in ('-1/2', '3/2-1/2*sqrt5', '7')])")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                               text=True, env={**env, "PYTHONHASHSEED": seed}).stdout
                for seed in ("1", "4242")}
        assert len(outs) == 1

    def test_no_module_imports_fractions(self):
        package = Path(__file__).resolve().parent.parent / "src" / "grouptrees"
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                assert "fractions" not in names, path.name


# -- rendering and hashing from the integers, beyond small values --------------

P = sys.hash_info.modulus


def assert_like_oracle(rat, irr, d):
    """str and the parsed str agree with the Fraction-backed oracle, and equal
    values hash equal."""
    new, old = scalar(rat, irr, d), FractionScalar(rat, irr, d)
    assert str(new) == str(old)
    assert_equal_values_hash_equal(new)
    assert Scalar.parse(str(new)) == new
    assert FractionScalar.parse(str(old)) == old


class TestWideValues:
    @pytest.mark.parametrize("den", [P, 2 * P, P * P, 3 * P - 3, P + 1])
    @pytest.mark.parametrize("num", [1, -1, 5, -(P + 2), P - 1, 10**40 + 1])
    def test_denominators_near_the_hash_modulus(self, num, den):
        for rat, irr, d in ((Fraction(num, den), 0, 1), (0, Fraction(num, den), 2),
                            (Fraction(num, den), Fraction(-num, 3 * den), 5),
                            (Fraction(1, 3), Fraction(num, den), 7)):
            assert_like_oracle(rat, irr, d)

    @pytest.mark.parametrize("num", [10**60 + 7, -(10**60 + 7), -(2**200), 7**90])
    def test_huge_numerators(self, num):
        for den in (1, 3, 10**30 + 57, P):
            assert_like_oracle(Fraction(num, den), Fraction(-num, den + 1), 6)
            assert_like_oracle(0, Fraction(num, den), 13)

    @given(st.integers(-10**40, 10**40),
           st.one_of(st.integers(1, 10**40), st.sampled_from([P, 2 * P, P * P])),
           st.integers(-10**40, 10**40),
           st.one_of(st.integers(1, 10**40), st.sampled_from([P, 3 * P])),
           oracle_d)
    def test_wide_integers_match_the_oracle(self, p, q, r, s, d):
        assert_like_oracle(Fraction(p, q), Fraction(r, s), d)
