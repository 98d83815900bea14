"""Exact coefficient fields: the rationals and odd prime fields.

Scalars are plain Python values: ``Fraction`` for Q, ``int`` in
``[0, p)`` for F_p.  Arithmetic on them is Python's operators followed by
the field's ``reduce`` (``a % p`` over F_p, the value itself over Q), so
``f.reduce(a * b)`` is a product in either field.  A field object holds
only what differs between the two: its name, characteristic, zero and
one, and how to parse, validate, reduce and invert a scalar.  Rationals
are always in lowest terms with positive denominator (``Fraction``
guarantees this), and every prime-field value the library stores is
already reduced mod p, so ``a == 0`` is the zero test in both fields.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DataError, DomainError

Scalar = Fraction | int


# the prime bases of the Miller-Rabin test, and psi_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below psi_13 = 3317044064679887385961981.

    Larger n raise :class:`DomainError` rather than guess.
    """
    if n >= _PSI_13:
        raise DomainError(f"primality is decided only below {_PSI_13}")
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Arbitrary-precision rational arithmetic on ``Fraction`` values."""

    name = "rational"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text: str) -> Fraction:
        text = text.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"not a rational number: {text!r}") from exc

    def validate(self, a: Scalar) -> Fraction:
        if isinstance(a, bool) or not isinstance(a, (int, Fraction)):
            raise DataError(f"not a rational scalar: {a!r}")
        return Fraction(a)

    def reduce(self, a: Fraction) -> Fraction:
        return a

    def inverse(self, a):
        if a == 0:
            raise DomainError("division by zero")
        return 1 / Fraction(a)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("rational-field")

    def __repr__(self) -> str:
        return "RationalField()"


class PrimeField:
    """Arithmetic modulo an odd prime, on ints reduced to ``[0, p)``."""

    characteristic: int

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int):
            raise DataError(f"prime must be an integer, got {p!r}")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if p == 2:
            raise DomainError(f"prime field needs an odd prime, got {p}")
        self.p = p
        self.characteristic = p
        self.name = f"F_{p}"
        self.zero = 0
        self.one = 1

    def parse(self, text: str) -> int:
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            try:
                num, den = int(num_s), int(den_s)
            except ValueError as exc:
                raise DataError(f"not a scalar: {text!r}") from exc
            if den % self.p == 0:
                raise DataError(f"denominator {den} is divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise DataError(f"not a scalar: {text!r}") from exc

    def validate(self, a: Scalar) -> int:
        if isinstance(a, bool) or not isinstance(a, int):
            if isinstance(a, Fraction):
                raise DataError("rational scalar supplied to a prime-field matrix")
            raise DataError(f"not a prime-field scalar: {a!r}")
        return a % self.p

    def reduce(self, a: int) -> int:
        return a % self.p

    def inverse(self, a):
        if a % self.p == 0:
            raise DomainError("division by zero")
        return pow(a, -1, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("prime-field", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


Field = RationalField | PrimeField

QQ = RationalField()
