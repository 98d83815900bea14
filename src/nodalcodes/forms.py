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

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .errors import DataError, HomogeneityError, ParseError, ResourceError
from .fields import Field, QQ, Scalar
from .linalg import ExactMatrix, exact_rank

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


@dataclass(frozen=True)
class HomogeneousForm:
    """A homogeneous polynomial of fixed degree; zero coefficients never stored."""

    degree: int
    field: Field
    terms: dict[Monomial, Scalar] = dc_field(default_factory=dict)

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
    f = form.field
    if len(point) != 4:
        raise DataError(f"expected 4 coordinates, got {len(point)}")
    coords = [f.validate(c) for c in point]
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


def hessian_rank_at(form: HomogeneousForm, point: Sequence[Scalar]) -> int:
    """Rank (0..4) of the symmetric matrix of second partials at a point."""
    partials = gradient(form)
    rows = []
    for i in range(4):
        second = gradient(partials[i])
        rows.append([evaluate_at(second[j], point) for j in range(4)])
    return exact_rank(ExactMatrix.from_rows(form.field, rows))


# --- parsing ---------------------------------------------------------------

_VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ResourceError(
                f"integer of {self.pos - start} digits at position {start} is too long"
            ) from None

    def take_char(self) -> str:
        self._skip_ws()
        ch = self.text[self.pos]
        self.pos += 1
        return ch


def parse_form(text: str, field: Field = QQ) -> HomogeneousForm:
    """Parse a homogeneous polynomial; canonical sparse form.

    Raises :class:`HomogeneityError` (with the two offending degrees) for
    mixed-degree input, :class:`ParseError` (with position) for anything
    outside the grammar, including unknown identifiers, and
    :class:`ResourceError` for a term of degree above :data:`DEGREE_CAP`.
    """
    tok = _Tokenizer(text)
    terms: dict[Monomial, Scalar] = {}
    degree: int | None = None

    def add_term(sign: int, coeff: Scalar, exps: list[int], term_pos: int):
        nonlocal degree
        d = sum(exps)
        if d > DEGREE_CAP:
            raise ResourceError(
                f"term of degree {d} at position {term_pos}; forms are capped at degree {DEGREE_CAP}"
            )
        if degree is None:
            degree = d
        elif d != degree:
            raise HomogeneityError(degree, d)
        m = tuple(exps)
        s = field.reduce(terms.get(m, 0) + sign * coeff)
        if s == 0:
            terms.pop(m, None)
        else:
            terms[m] = s

    first = True
    while True:
        sign = 1
        ch = tok.peek()
        if ch is None:
            if first:
                raise ParseError("empty polynomial", tok.pos)
            break
        if ch in "+-":
            if first and ch == "+":
                tok.take_char()
            elif first:  # leading minus
                tok.take_char()
                sign = -1
            else:
                sign = -1 if tok.take_char() == "-" else 1
        elif not first:
            raise ParseError(f"expected '+' or '-', found {ch!r}", tok.pos)
        first = False

        term_pos = tok.pos
        coeff = field.one
        exps = [0, 0, 0, 0]
        saw_anything = False

        ch = tok.peek()
        if ch is not None and ch.isdigit():
            num = tok.take_int()
            if tok.peek() == "/":
                tok.take_char()
                den_pos = tok.pos
                den = tok.take_int()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                coeff = field.parse(f"{num}/{den}")
            else:
                coeff = field.validate(num)
            saw_anything = True

        while True:
            ch = tok.peek()
            if ch == "*":
                tok.take_char()
                ch = tok.peek()
                if ch is None or ch not in _VAR_INDEX:
                    raise ParseError("expected a variable after '*'", tok.pos)
            if ch is None or ch in "+-":
                break
            if ch in _VAR_INDEX:
                tok.take_char()
                e = 1
                if tok.peek() == "^":
                    tok.take_char()
                    e = tok.take_int()
                exps[_VAR_INDEX[ch]] += e
                saw_anything = True
            elif ch.isalpha():
                raise ParseError(f"unknown identifier {ch!r}", tok.pos)
            elif ch.isdigit():
                raise ParseError("coefficient must come first in a term", tok.pos)
            else:
                raise ParseError(f"unexpected character {ch!r}", tok.pos)

        if not saw_anything:
            raise ParseError("empty term", term_pos)
        add_term(sign, coeff, exps, term_pos)

    return HomogeneousForm(degree if degree is not None else 0, field, terms)
