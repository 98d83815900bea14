"""The character-by-character form parser, kept for tests only.

The library tokenizes a form with one regular expression and walks the
token list.  This is the parser it replaced, copied unchanged except that
it returns ``(degree, terms)`` instead of a ``HomogeneousForm`` and
imports nothing from ``nodalcodes.forms``, so the two share no code.  It
reads any character with ``str.isdigit`` as a digit, so the two differ on
digits that are not decimal, such as '²'; the tests pin the library's
answers there directly.
"""

from __future__ import annotations

from nodalcodes.errors import HomogeneityError, ParseError, ResourceError
from nodalcodes.fields import Field, QQ

DEGREE_CAP = 1000

_VAR_INDEX = {v: i for i, v in enumerate(("x", "y", "z", "w"))}


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


def parse_form_oracle(text: str, field: Field = QQ):
    """``(degree, terms)`` of a homogeneous polynomial, or the parse error."""
    tok = _Tokenizer(text)
    terms = {}
    degree = None

    def add_term(sign, coeff, exps, term_pos):
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

    return (degree if degree is not None else 0), terms
