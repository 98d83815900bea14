"""Polynomial parsing, printing, evaluation, differentiation, Hessian ranks."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes.errors import DataError, HomogeneityError, ParseError, ResourceError
from nodalcodes.fields import PrimeField, QQ
from nodalcodes.forms import (
    DEGREE_CAP,
    HomogeneousForm,
    evaluate_at,
    gradient,
    hessian_rank_at,
    parse_form,
    partial,
)
from parse_oracle import parse_form_oracle


class TestParse:
    def test_three_term_quartic(self):
        f = parse_form("x^2*y^2 - 2*x*y*z*w + w^4")
        assert f.degree == 4
        assert len(f.terms) == 3
        assert f.terms[(1, 1, 1, 1)] == -2

    def test_homogeneity_error_reports_both_degrees(self):
        with pytest.raises(HomogeneityError) as err:
            parse_form("x^2 + y")
        assert err.value.degrees == (2, 1)

    def test_fractional_coefficient(self):
        f = parse_form("3/2*x^6 - w^6")
        assert f.degree == 6
        assert f.terms[(6, 0, 0, 0)] == Fraction(3, 2)
        assert f.terms[(0, 0, 0, 6)] == -1

    def test_unknown_identifier_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_form("x^2 + v^2")
        assert err.value.position == 6

    def test_implicit_multiplication(self):
        assert parse_form("2xy") == parse_form("2*x*y")
        assert parse_form("x y z w") == parse_form("x*y*z*w")

    def test_leading_minus_and_cancellation(self):
        f = parse_form("-x^2 + x^2")
        assert f.is_zero()
        assert f.degree == 2

    def test_rejects_stray_slash(self):
        with pytest.raises(ParseError):
            parse_form("x/2")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_form("   ")

    def test_prime_field_coefficients(self):
        f7 = PrimeField(7)
        f = parse_form("3/2*x^2", f7)
        assert f.terms[(2, 0, 0, 0)] == 3 * pow(2, -1, 7) % 7

    def test_print_parse_fixed_point(self):
        for text in (
            "x^2*y^2 - 2*x*y*z*w + w^4",
            "3/2*x^6 - w^6",
            "x^2 + y^2 + z^2",
            "w^3",
            "5",
        ):
            f = parse_form(text)
            assert parse_form(str(f)) == f
            assert str(parse_form(str(f))) == str(f)

    def test_degree_cap(self):
        assert parse_form(f"x^{DEGREE_CAP - 1}*w").degree == DEGREE_CAP
        for text in (f"x^{DEGREE_CAP + 1}", f"x^{DEGREE_CAP}*y", "x^100000000",
                     f"y^4 + x^{DEGREE_CAP // 2 + 1}*z^{DEGREE_CAP // 2}"):
            with pytest.raises(ResourceError, match=f"capped at degree {DEGREE_CAP}"):
                parse_form(text)

    def test_integer_longer_than_int_conversion_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer strings of any length")
        digits = limit + 1
        for text in ("x^" + "9" * digits, "9" * digits + "*x", "1/" + "7" * digits + "*x"):
            with pytest.raises(ResourceError, match=f"{digits} digits"):
                parse_form(text)

    def test_leading_plus(self):
        assert parse_form("+ x*y - 2z^2") == parse_form("x*y - 2z^2")
        assert parse_form("+5") == parse_form("5")

    @pytest.mark.parametrize("text, message, position", [
        ("", "empty polynomial", 0),
        (" \t\n", "empty polynomial", 3),
        ("x + ", "empty term", 3),  # right after the sign, before the space
        ("x +  - y", "empty term", 3),
        ("-", "empty term", 1),
        ("1/ 0*x", "zero denominator", 2),  # right after the '/'
        ("x^", "expected an integer", 2),
        ("x^ y", "expected an integer", 3),
        ("3/ x", "expected an integer", 3),
        ("x *", "expected a variable after '*'", 3),
        ("x * 2", "expected a variable after '*'", 4),
        ("2x * + y", "expected a variable after '*'", 5),
        ("x 3", "coefficient must come first in a term", 2),
        ("x^2 12y", "coefficient must come first in a term", 4),
        ("x + v", "unknown identifier 'v'", 4),
        ("x ß", "unknown identifier 'ß'", 2),
        ("x (", "unexpected character '('", 2),
        ("1/2/3", "unexpected character '/'", 3),
        ("x^2^3", "unexpected character '^'", 3),
        # digits that are not decimal: '²' is str.isdigit but not str.isdecimal
        ("x^²", "expected an integer", 2),
        ("1/²", "expected an integer", 2),
        ("²x", "unexpected character '²'", 0),
        ("x²", "unexpected character '²'", 1),
    ])
    def test_parse_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_form(text)
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})",
                                                        position)

    @pytest.mark.parametrize("text, position", [
        (f"x^{DEGREE_CAP + 1}", 0), (f"  x^{DEGREE_CAP + 1}", 2), (f"- x^{DEGREE_CAP + 1}", 1),
        (f"x^{DEGREE_CAP} + \ty^{DEGREE_CAP + 1}", 8),
    ])
    def test_degree_cap_reports_the_term_position(self, text, position):
        # a signed term starts right after its sign, before any space
        with pytest.raises(ResourceError, match=f"at position {position};"):
            parse_form(text)

    def test_too_long_integer_reports_its_position(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer strings of any length")
        with pytest.raises(ResourceError, match=f"of {limit + 1} digits at position 4 "):
            parse_form("x^ \t" + "9" * (limit + 1))

    def test_print_order_is_canonical(self):
        f = parse_form("w^4 + x^2*y^2 - 2*x*y*z*w")
        assert str(f) == "x^2*y^2 - 2*x*y*z*w + w^4"


# the oracle's alphabet: every character class the parser tells apart,
# non-decimal digits aside (the parsers differ there by design)
_PARSE_ALPHABET = list("xyzw0123456789+-*/^ \t\n") + ["٣", "é", "ß", "(", ".", "\x0b", "\u3000"]
_PARSE_PIECES = ["x", "y", "z", "w", "x^2", "^", "0", "2", "12", "3/4", "1/0", "/", "*", "+", "-",
                 " + ", " ", "\t", "٣", "é", "("]


def _parse_outcome(parse, text, field):
    """(degree, terms) of the parsed form, or the exception's type, message and position."""
    try:
        result = parse(text, field)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return result if isinstance(result, tuple) else (result.degree, result.terms)


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.text(_PARSE_ALPHABET, max_size=16),
                 st.lists(st.sampled_from(_PARSE_PIECES), max_size=10).map("".join)),
       st.sampled_from([QQ, PrimeField(7), PrimeField(10007)]))
def test_parse_form_matches_the_character_parser(text, field):
    assert _parse_outcome(parse_form, text, field) == _parse_outcome(parse_form_oracle, text, field)


def _random_form(rng, degree, nterms=5, field=QQ):
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(degree):
            e[rng.randrange(4)] += 1
        if field == QQ:
            terms[tuple(e)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            terms[tuple(e)] = rng.randrange(field.p)
    return HomogeneousForm.from_terms(degree, field, terms)


def _evaluate_by_repeated_multiplication(form, point):
    """One multiplication per unit of exponent, no ``pow``; mod p over F_p."""
    p = form.field.characteristic
    coords = [form.field.validate(c) for c in point]
    total = 0
    for m, c in form.terms.items():
        v = c
        for coord, e in zip(coords, m):
            for _ in range(e):
                v = v * coord % p if p else v * coord
        total += v
    return total % p if p else total


def _assert_euler_identity(f):
    """sum_i x_i * d_i f = deg(f) * f, coefficient by coefficient: the
    coefficient of x_i * d_i f at m is that of d_i f at m - e_i."""
    lhs = {}
    for i in range(4):
        for m, c in partial(f, i).terms.items():
            shifted = tuple(e + (j == i) for j, e in enumerate(m))
            lhs[shifted] = lhs.get(shifted, 0) + c
    assert {m: c for m, c in lhs.items() if c} == {m: f.degree * c for m, c in f.terms.items()}


@pytest.mark.parametrize("field, zero", [(QQ, Fraction(0)), (PrimeField(7), 0), (PrimeField(7), 7)])
def test_stored_zero_coefficient_rejected(field, zero):
    with pytest.raises(DataError):
        HomogeneousForm(1, field, {(1, 0, 0, 0): zero})


class TestEvaluate:
    def test_zero_point(self):
        f = parse_form("x^3 + y^3")
        assert evaluate_at(f, (0, 0, 0, 0)) == 0

    def test_monomial_power(self):
        f = parse_form("x^4")
        assert evaluate_at(f, (2, 0, 0, 1)) == 16

    def test_against_term_by_term_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            f = _random_form(rng, 3)
            pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
            oracle = sum(
                (c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] * pt[3] ** e[3]
                 for e, c in f.terms.items()),
                Fraction(0),
            )
            assert evaluate_at(f, pt) == oracle

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(1000)
        for field in (QQ, PrimeField(3), PrimeField(101), PrimeField(2**61 - 1)):
            for _ in range(40):
                f = _random_form(rng, rng.randint(0, 12), nterms=rng.randint(1, 6), field=field)
                if field == QQ:
                    pt = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(4))
                else:
                    # unreduced coordinates, zero included
                    pt = tuple(rng.randint(-3 * field.p, 3 * field.p) for _ in range(4))
                assert evaluate_at(f, pt) == _evaluate_by_repeated_multiplication(f, pt)

    def test_wrong_coordinate_count(self):
        with pytest.raises(DataError):
            evaluate_at(parse_form("x^2"), (1, 2, 3))


class TestGradient:
    def test_square(self):
        gx, gy, gz, gw = gradient(parse_form("x^2"))
        assert str(gx) == "2*x"
        assert gy.is_zero() and gz.is_zero() and gw.is_zero()

    def test_xyzw(self):
        g = gradient(parse_form("x*y*z*w"))
        assert [str(v) for v in g] == ["y*z*w", "x*z*w", "x*y*w", "x*y*z"]

    def test_degree_zero_gives_zero_forms(self):
        g = gradient(parse_form("5"))
        assert all(v.is_zero() for v in g)

    def test_degree_drops_by_one(self):
        rng = random.Random(3)
        for _ in range(20):
            f = _random_form(rng, rng.randint(1, 5))
            for df in gradient(f):
                if not df.is_zero():
                    assert df.degree == f.degree - 1

    def test_euler_identity(self):
        rng = random.Random(23)
        for _ in range(50):
            _assert_euler_identity(_random_form(rng, rng.randint(1, 5)))


class TestHessian:
    def test_three_squares(self):
        assert hessian_rank_at(parse_form("x^2 + y^2 + z^2"), (0, 0, 0, 1)) == 3

    def test_two_squares(self):
        assert hessian_rank_at(parse_form("x^2 + y^2"), (0, 0, 0, 1)) == 2

    def test_cubic_with_cone_term(self):
        # w(x^2+y^2+z^2) + x^3 at (0,0,0,1): Hessian is diag(2,2,2,0) there
        f = parse_form("x^2*w + y^2*w + z^2*w + x^3")
        assert hessian_rank_at(f, (0, 0, 0, 1)) == 3
        # direct 4x4 oracle: second partials computed by hand
        from nodalcodes.linalg import ExactMatrix
        from rank_oracle import rank_and_rref

        hand = ExactMatrix.from_rows(
            QQ, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]
        )
        assert rank_and_rref(hand)[0] == 3


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_parse_print_round_trip_random(data):
    degree = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    nonzero = st.integers(-9, 9).filter(lambda v: v != 0)
    terms = {}
    for _ in range(n):
        e = [0, 0, 0, 0]
        for _ in range(degree):
            e[data.draw(st.integers(0, 3))] += 1
        terms[tuple(e)] = Fraction(data.draw(nonzero), data.draw(st.integers(1, 5)))
    f = HomogeneousForm.from_terms(degree, QQ, terms)
    assert parse_form(str(f)) == f


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_euler_identity_exact(data):
    degree = data.draw(st.integers(1, 5))
    nterms = data.draw(st.integers(1, 4))
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(degree):
            e[data.draw(st.integers(0, 3))] += 1
        terms[tuple(e)] = Fraction(data.draw(st.integers(-6, 6) | st.just(1)))
    _assert_euler_identity(HomogeneousForm.from_terms(degree, QQ, terms))
