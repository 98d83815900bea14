"""Homogeneous polynomials in x, y, z, w with exact coefficients.

Sparse representation: a form is a degree together with a map from
exponent vectors to nonzero coefficients.  Printing uses graded
reverse-lexicographic term order, so parse -> print -> parse is a fixed
point and printed output is canonical.

Grammar (ASCII, whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff? ('*'? factor)*
    factor := var ('^' uint)?
    var    := 'x' | 'y' | 'z' | 'w'
    coeff  := int | int '/' uint
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .errors import DataError, HomogeneityError, ParseError, ResourceError
from .fields import Field, QQ, Scalar
from .linalg import ExactMatrix, exact_rank
from .record import Record

VARIABLES = ("x", "y", "z", "w")

# parsed forms stop at this degree: verify-nodes on a degree-1000 surface
# over Q with 7-digit coordinates takes ~5 ms, at degree 10^5 already ~27 s
DEGREE_CAP = 1000

Monomial = tuple[int, int, int, int]


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def grevlex_key(m: Monomial):
    """Sort key: ascending by this key = descending graded reverse-lex order."""
    return (-sum(m),) + tuple(reversed(m))


def _format_monomial(m: Monomial) -> str:
    parts = []
    for var, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "*".join(parts)


class HomogeneousForm(Record):
    """A homogeneous polynomial of fixed degree; zero coefficients never stored."""

    degree: int
    field: Field
    terms: dict[Monomial, Scalar]

    def __post_init__(self):
        for m, c in self.terms.items():
            if len(m) != 4 or any(e < 0 for e in m):
                raise DataError(f"bad exponent vector {m}")
            if monomial_degree(m) != self.degree:
                raise HomogeneityError(self.degree, monomial_degree(m))
            if self.field.reduce(c) == 0:
                raise DataError("zero coefficient stored in a form")

    @classmethod
    def from_terms(cls, degree: int, field: Field, terms: dict) -> "HomogeneousForm":
        cleaned = {}
        for m, c in terms.items():
            c = field.validate(c)
            if c != 0:
                cleaned[tuple(m)] = c
        return cls(degree, field, cleaned)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        f = self.field
        pieces = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            mono = _format_monomial(m)
            negative = f.characteristic == 0 and c < 0
            coeff_str = str(-c if negative else c)
            if mono and coeff_str == "1":
                body = mono
            elif mono:
                body = f"{coeff_str}*{mono}"
            else:
                body = coeff_str
            if i == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"HomogeneousForm({self})"


def evaluate_at(form: HomogeneousForm, point: Sequence[Scalar]) -> Scalar:
    """Exact value of the form at a point given by 4 coordinates."""
    return _value(form, _coords(form.field, point))


def _coords(field: Field, point: Sequence[Scalar]) -> list[Scalar]:
    """The 4 coordinates of a point as the field's scalars."""
    if len(point) != 4:
        raise DataError(f"expected 4 coordinates, got {len(point)}")
    return [field.validate(c) for c in point]


def _value(form: HomogeneousForm, coords: Sequence[Scalar]) -> Scalar:
    """:func:`evaluate_at` at 4 coordinates that are already the field's scalars."""
    f = form.field
    p = f.characteristic or None
    total = f.zero
    for m, c in form.terms.items():
        v = c
        for coord, e in zip(coords, m):
            if e:
                v = f.reduce(v * pow(coord, e, p))
        total = f.reduce(total + v)
    return total


def partial(form: HomogeneousForm, index: int) -> HomogeneousForm:
    """Formal partial derivative with respect to x, y, z or w."""
    f = form.field
    new_degree = max(form.degree - 1, 0)
    terms: dict[Monomial, Scalar] = {}
    for m, c in form.terms.items():
        e = m[index]
        if e == 0:
            continue
        coeff = f.reduce(c * e)
        if coeff == 0:
            continue  # exponent divisible by the characteristic
        dm = tuple(v - 1 if i == index else v for i, v in enumerate(m))
        terms[dm] = coeff
    return HomogeneousForm(new_degree, f, terms)


def gradient(form: HomogeneousForm) -> tuple[HomogeneousForm, ...]:
    """The four formal partials; each homogeneous of degree deg - 1."""
    return tuple(partial(form, i) for i in range(4))


def _second_partials(first: Sequence[HomogeneousForm]) -> dict[tuple[int, int], HomogeneousForm]:
    """The ten distinct second partials, keyed (i, j) with i <= j, from the
    four first partials; the Hessian is symmetric, so these are all of it."""
    return {(i, j): partial(first[i], j) for i in range(4) for j in range(i, 4)}


def _hessian_rank(second: dict[tuple[int, int], HomogeneousForm], coords: Sequence[Scalar]) -> int:
    """Rank of the Hessian given by :func:`_second_partials` at 4 coordinates
    that are already the field's scalars, filled in symmetrically."""
    hessian = [[None] * 4 for _ in range(4)]
    for (i, j), g in second.items():
        hessian[i][j] = hessian[j][i] = _value(g, coords)
    return exact_rank(ExactMatrix(second[0, 0].field, tuple(map(tuple, hessian))))


def hessian_rank_at(form: HomogeneousForm, point: Sequence[Scalar]) -> int:
    """Rank (0..4) of the symmetric matrix of second partials at a point."""
    return _hessian_rank(_second_partials(gradient(form)), _coords(form.field, point))


# --- parsing ---------------------------------------------------------------

_VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}

# each match is one token: a run of decimal digits or any other character
# that is not a space, after the spaces before it
_TOKEN = re.compile(r"\s*(?:(\d+)|(\S))")


def parse_form(text: str, field: Field = QQ) -> HomogeneousForm:
    """Parse a homogeneous polynomial; canonical sparse form.

    Raises :class:`HomogeneityError` (with the two offending degrees) for
    mixed-degree input, :class:`ParseError` (with position) for anything
    outside the grammar, including unknown identifiers, and
    :class:`ResourceError` for a term of degree above :data:`DEGREE_CAP`.
    """
    tokens = [(m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty polynomial", len(text))
    tokens.append(("", len(text)))
    i = 0
    terms: dict[Monomial, Scalar] = {}
    degree: int | None = None

    def integer() -> int:
        nonlocal i
        digits, pos = tokens[i]
        if not digits.isdecimal():
            raise ParseError("expected an integer", pos)
        i += 1
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ResourceError(
                f"integer of {len(digits)} digits at position {pos} is too long"
            ) from None

    while tokens[i][0]:  # every term after the first starts with its sign
        s, term_pos = tokens[i]
        sign = -1 if s == "-" else 1
        if s in ("+", "-"):
            term_pos += 1  # right after the sign, before any space
            i += 1
        start = i
        coeff = field.one
        if tokens[i][0].isdecimal():
            num = integer()
            if tokens[i][0] == "/":
                den_pos = tokens[i][1] + 1
                i += 1
                den = integer()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                coeff = field.parse(f"{num}/{den}")
            else:
                coeff = field.validate(num)

        exps = [0, 0, 0, 0]
        while tokens[i][0] not in ("", "+", "-"):
            s, pos = tokens[i]
            if s == "*":
                i += 1
                s, pos = tokens[i]
                if s not in _VAR_INDEX:
                    raise ParseError("expected a variable after '*'", pos)
            if s in _VAR_INDEX:
                i += 1
                e = 1
                if tokens[i][0] == "^":
                    i += 1
                    e = integer()
                exps[_VAR_INDEX[s]] += e
            elif s.isalpha():
                raise ParseError(f"unknown identifier {s!r}", pos)
            elif s.isdecimal():
                raise ParseError("coefficient must come first in a term", pos)
            else:
                raise ParseError(f"unexpected character {s!r}", pos)

        if i == start:
            raise ParseError("empty term", term_pos)
        d = sum(exps)
        if d > DEGREE_CAP:
            raise ResourceError(
                f"term of degree {d} at position {term_pos}; forms are capped at degree {DEGREE_CAP}"
            )
        if degree is not None and d != degree:
            raise HomogeneityError(degree, d)
        degree = d
        m = tuple(exps)
        c = field.reduce(terms.get(m, 0) + sign * coeff)
        if c == 0:
            terms.pop(m, None)
        else:
            terms[m] = c

    return HomogeneousForm(degree if degree is not None else 0, field, terms)
