"""Exact matrix rank and kernels mod p.

One elimination, :func:`_echelon_mod_p`, serves ranks over both fields
and kernels over F_p, on plain Python integers.  It takes rows of any
ints and reduces them mod p itself, so no caller reduces first.  Over
F_p it inserts rows one at a time, packed into one int each in slots of
8, 16 or 32 bits or whole bytes (:func:`_slot_bits`), wide enough that
the unreduced updates never carry from one column into the next; it
stops once every column has a pivot, so a matrix with fewer rows than
columns is ranked on its transpose.  Rows move in and out of the packed
form by :func:`_slot_codec`, in linear time, and back-substitution gives
the kernel.  Over Q, int rows are taken as they are and rational rows
have their denominators cleared; the rank is then taken mod the prime
2^26 - 5, whose slots fit one 64-bit word.  That rank is a lower bound,
and when it is min(rows, cols) it is the answer; a matrix with fewer rows
than columns is ranked on its transpose first, and below full row rank
falls back to the rows that pass's pivots name.  Otherwise the kernel
vectors found mod the prime are lifted to Q by rational reconstruction
and checked exactly against every row over Z, column by column, which
proves the matching upper bound; when the lift or the check fails, more
primes, on all rows, are combined by CRT.  Over Q
the library needs ranks only, so :func:`nullspace_basis` is F_p-only.
Everything is pure: operations never mutate their inputs.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from math import isqrt, lcm, prod
from operator import add

from .errors import DataError, DomainError
from .fields import Field, PrimeField, Scalar, is_prime
from .record import Record

# the first prime of the certified rank over Q: at the largest matrices
# ranked (2000 monomial columns), its worst-case slot p + 2000 (p-1)^2 is
# below 2^64, so every slot of the elimination is one machine word
_Q_PRIME = 2**26 - 5


class ExactMatrix(Record):
    """Immutable dense matrix with entries in a single exact field.

    :meth:`from_rows` validates entries into the field's scalars.  A row
    may also hold any ints, as ``nodes.evaluation_matrix`` builds: the
    elimination reduces them mod p, so over F_p they need not be residues,
    and over Q an integer row is taken as it is.  Rows of different
    lengths raise DataError.
    """

    field: Field
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise DataError(f"ragged matrix: rows have lengths {sorted(widths)}")

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "ExactMatrix":
        return cls(field, tuple(tuple(field.validate(a) for a in row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {self.nrows}x{self.ncols})"


def _slot_bits(bound: int) -> int:
    """Bits of a packed slot for values up to ``bound``: 8, 16 or 32 (one
    array item), above that whole bytes.  Every slot width is rounded here."""
    bits = bound.bit_length()
    if bits > 32:
        return bits + 7 & -8
    return max(8, 1 << (bits - 1).bit_length())


def _slot_width(p: int, nrows: int, ncols: int) -> int:
    """Bits per slot of :func:`_echelon_mod_p`: its worst case p + min(nrows, ncols) (p-1)^2."""
    return _slot_bits(p + min(nrows, ncols) * (p - 1) ** 2)


# the array constructor for each slot width of one array item, in bits.
# Array items are native-endian and packed ints little-endian, so a
# big-endian machine has none and converts slot by slot.
_ITEM_CODECS = {} if sys.byteorder == "big" else {8 * array(t).itemsize: partial(array, t) for t in "QIHB"}


def _slot_codec(w: int):
    """``(pack, unpack)`` between slot values and ints packed in w-bit slots.

    ``pack(values)`` puts values[i] in the slot at bit i*w, and ``unpack(q,
    n)`` reads n slots back: zeros above a short q, OverflowError for a
    wider one, so no carry out of the top slot is lost.  A slot of one
    array item converts in C, and so does one of 3 to 7 bytes, by
    extended-slice copies through 64-bit items; a wider slot, or any slot
    without items, converts one by one: in linear time either way.
    """
    k = w >> 3
    if w in _ITEM_CODECS:
        to_data = from_data = _ITEM_CODECS[w]
    elif k < 8 and _ITEM_CODECS:
        def to_data(values):
            items, data = array("Q", values).tobytes(), bytearray(k * len(values))
            for j in range(k):
                data[j::k] = items[j::8]
            return data

        def from_data(data):
            items = bytearray(len(data) // k * 8)
            for j in range(k):
                items[j::8] = data[j::k]
            return array("Q", items)
    else:
        def to_data(values):
            return b"".join(a.to_bytes(k, "little") for a in values)

        def from_data(data):
            return [int.from_bytes(data[i:i + k], "little") for i in range(0, len(data), k)]

    def pack(values):
        return int.from_bytes(to_data(values), "little")

    def unpack(q, n):
        return from_data(q.to_bytes(k * n, "little"))

    return pack, unpack


def _echelon_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[tuple[int, int]]:
    """Echelon form mod p of rows of ints, one pair per pivot, by column.

    Each pair is the pivot's column c and ``prow``, the pivot row's entries
    right of c scaled by -1/lead mod p and packed in w-bit slots, column
    c + 1 lowest, with ``w = _slot_width(p, m, n)``; so every kernel vector
    x has ``x[c] = sum(prow[t] * x[c + 1 + t])``.  The rank mod p is the
    number of pivots.  Rows are inserted in turn, each packed into one int,
    column j in the slot at bit j*w, and reduced mod p as it is packed, so
    entries may be any ints.  Its lowest slot is always the current column:
    the step ``(u >> w) + f * prow`` clears a lead f at a pivot's column,
    and the first nonzero lead at a column with no pivot makes the row its
    pivot row.  The loop stops once every column has a pivot.  A slot
    starts below p and gains at most (p-1)^2 per pivot, so with this w no
    slot carries into the next, and only ``(u & mask) % p`` is ever read.
    Rows are packed, and pivot rows unpacked and packed again, by
    :func:`_slot_codec`, in time linear in the row.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return []
    w = _slot_width(p, len(rows), ncols)
    mask = (1 << w) - 1
    pack, unpack = _slot_codec(w)
    prows, pivots = [None] * ncols, []
    for row in rows:
        u = pack([a % p for a in row])
        for c, prow in enumerate(prows):
            f = (u & mask) % p
            if not f:
                u >>= w
            elif prow is not None:
                u = (u >> w) + f * prow
            else:
                scale = p - pow(f, -1, p)
                prows[c] = pack([a * scale % p for a in unpack(u >> w, ncols - c - 1)])
                pivots.append(c)
                break
        if len(pivots) == ncols:
            break
    return [(c, prows[c]) for c in sorted(pivots)]


def _kernel_images(pivots: list[tuple[int, int]], nrows: int, ncols: int,
                   p: int) -> tuple[list[int], list[list[int]]]:
    """The free columns and the kernel basis mod p with the identity pattern on them.

    ``pivots`` come from :func:`_echelon_mod_p` on an nrows x ncols matrix.
    Image k holds the entry at the k-th pivot column of each free column's
    kernel vector, free columns in order.  Back-substitution runs from the
    last pivot up in the elimination's slots, one per free column: a free
    column is the unit of its own slot, and a pivot column the sum of its
    ``prow`` entries times the later columns.  A slot gains less than p from
    its own free column and (p-1)^2 per later pivot, so it stays below the
    elimination's bound, and is reduced mod p as soon as its pivot is done.
    """
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    w = _slot_width(p, nrows, ncols)
    pack, unpack = _slot_codec(w)
    packed = {c: 1 << (i * w) for i, c in enumerate(free)}
    images = []
    for c, prow in reversed(pivots):
        acc = sum(f * packed[j] for j, f in enumerate(unpack(prow, ncols - c - 1), c + 1) if f)
        image = [a % p for a in unpack(acc, len(free))]
        packed[c] = pack(image)
        images.append(image)
    images.reverse()
    return free, images


def _lift(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b*u mod ``modulus``, |a| <= bound and 0 < b <= bound.

    Rational reconstruction by half-extended Euclid (Wang 1981): for an odd
    modulus and ``bound = isqrt(modulus // 2)`` at most one such a/b
    exists, and this finds it; None when the cofactor exceeds the bound.
    """
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_certificate(rows: list[list[int]], pivot_cols: list[int], free: list[int],
                        residues: list[list[int]],
                        modulus: int) -> list[list[tuple[int, int]]] | None:
    """Lift the kernel basis to Q and check exactly that it annihilates ``rows``.

    Each free column's vector is lifted entry by entry and its denominators
    are cleared; then the matrix times it must be zero over Z.  That product
    is summed by columns, the vector's nonzeros times their columns of the
    rows, transposed once.  The vectors have the identity pattern on the
    free columns, so passing proves rank <= len(pivot_cols).  Returns the
    integer vectors, one list of (column, value) pairs per free column with
    that column first, or None when a lift or the check fails.
    """
    bound = isqrt(modulus // 2)
    columns = list(zip(*rows))
    vectors = []
    for i, fc in enumerate(free):
        lifted = []
        for c, image in zip(pivot_cols, residues):
            if not image[i]:  # lifts to 0
                continue
            ab = _lift(image[i], modulus, bound)
            if ab is None:
                return None
            if ab[0]:
                lifted.append((c, *ab))
        scale = lcm(*(b for _, _, b in lifted))
        vec = [(fc, scale)] + [(c, a * (scale // b)) for c, a, b in lifted]
        product = [0] * len(rows)
        for c, v in vec:
            product = list(map(add, product, map(v.__mul__, columns[c])))
        if any(product):
            return None
        vectors.append(vec)
    return vectors


def _q_primes() -> Iterator[int]:
    """:data:`_Q_PRIME`, then the primes below it in descending order."""
    n = _Q_PRIME
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _rational_kernel(rows: list[list[int]], ncols: int, spanning: list[list[int]] | None = None
                     ) -> tuple[int, list[list[tuple[int, int]]] | None, int]:
    """Rank over Q of integer rows, its certified kernel, and the primes it took.

    A minor that is nonzero mod a prime is nonzero over Z, so every rank mod
    a prime is a lower bound; a prime whose rank reaches min(rows, cols)
    ends the loop with no kernel.  Below that, a kernel certificate
    (:func:`_kernel_certificate`) proves the matching upper bound, and its
    integer vectors are returned.  The best echelon so far (highest rank,
    then smallest pivot columns; a prime can only lower the rank or push
    pivots right) supplies the kernel residues, and each prime with that
    echelon extends them by CRT.  Let H, the product of the min(rows, cols)
    largest row norms rounded up, bound every minor.  A wrong echelon
    collects only primes dividing one fixed nonzero minor, so its modulus
    stays at most H; with the right one and a modulus above 2*H^2 every
    kernel entry (a ratio of minors by Cramer's rule) lifts exactly and the
    check passes.  So a certificate failing past 2*H^2 is a fault and
    raises ArithmeticError rather than trying primes forever.  ``spanning``,
    when given, are rows that span all of ``rows`` mod :data:`_Q_PRIME`:
    that prime eliminates only them, which gives the same echelon, and the
    certificate still checks every row.
    """
    full = min(len(rows), ncols)
    best = limit = None
    for used, p in enumerate(_q_primes(), 1):
        eliminated = rows if spanning is None or used > 1 else spanning
        pivots = _echelon_mod_p(eliminated, p)
        if len(pivots) == full:
            return full, None, used
        key = (-len(pivots), [c for c, _ in pivots])
        if best is not None and key > best:
            continue
        free, images = _kernel_images(pivots, len(eliminated), ncols, p)
        if key == best:
            k = pow(modulus, -1, p)
            residues = [[x + modulus * ((y - x) * k % p) for x, y in zip(xs, ys)]
                        for xs, ys in zip(residues, images)]
            modulus *= p
        else:
            best, residues, modulus = key, images, p
        kernel = _kernel_certificate(rows, best[1], free, residues, modulus)
        if kernel is not None:
            return len(best[1]), kernel, used
        if limit is None:  # H is needed only once a certificate fails
            norms = sorted((isqrt(sum(a * a for a in row)) + 1 for row in rows), reverse=True)
            limit = 2 * prod(norms[:full]) ** 2
        if modulus > limit:
            raise ArithmeticError(f"kernel certificate failed past 2*H^2 after {used} primes")


def _integer_rows(entries: Iterable[Sequence[Scalar]]) -> list[Sequence[int]]:
    """Scale each rational row by its denominators' lcm; the rank is unchanged.

    A row of ints is already integral and is kept as it is.
    """
    rows = []
    for row in entries:
        if not row or type(row[0]) is int:
            rows.append(row)
            continue
        scale = lcm(*(a.denominator for a in row))
        rows.append([a.numerator * (scale // a.denominator) for a in row])
    return rows


def exact_rank(m: ExactMatrix) -> int:
    """Exact rank on plain integers.

    Over F_p: packed-row elimination mod p, which reduces the entries
    itself, so they may be any ints, on the columns when they outnumber
    the rows, so that it stops early.  Over Q: take int rows as they are
    and clear each rational row's denominators, so none can vanish mod a
    prime.  A wide matrix is ranked on its columns mod :data:`_Q_PRIME`
    first: exact when it reaches the row count, else its pivots name rows
    that span the rest.  Then take the rank of the rows (only those, when
    named) mod :data:`_Q_PRIME`, on one-word slots: the certificate needs
    kernel vectors of the columns, and the transpose's would be relations
    among the points, with large entries.
    When that lower bound reaches min(rows, cols) it is the rank; otherwise
    lifted kernel vectors, checked exactly over Z, certify it from above,
    with more primes when one is not enough.
    """
    if isinstance(m.field, PrimeField):
        rows = m.entries if m.nrows >= m.ncols else list(zip(*m.entries))
        return len(_echelon_mod_p(rows, m.field.p))
    rows = _integer_rows(m.entries)
    if not 0 < m.nrows < m.ncols:
        return _rational_kernel(rows, m.ncols)[0]
    spanning = [rows[c] for c, _ in _echelon_mod_p(list(zip(*rows)), _Q_PRIME)]
    return m.nrows if len(spanning) == m.nrows else _rational_kernel(rows, m.ncols, spanning)[0]


def nullspace_basis(m: ExactMatrix) -> list[tuple[int, ...]]:
    """Basis of the right kernel over F_p; returns ``ncols - rank`` vectors.

    The basis is the one Gauss-Jordan gives: one vector per free column of
    the reduced row echelon form, 1 there, 0 at the other free columns,
    read off :func:`_echelon_mod_p` by :func:`_kernel_images`.  Over Q the
    library computes ranks, not kernels, so a Q matrix raises DomainError.
    """
    if not isinstance(m.field, PrimeField):
        raise DomainError("nullspace_basis works over F_p only; over Q take exact_rank")
    p, ncols = m.field.p, m.ncols
    pivots = _echelon_mod_p(m.entries, p)
    free, images = _kernel_images(pivots, m.nrows, ncols, p)
    pivot_cols = [c for c, _ in pivots]
    basis = []
    for i, fc in enumerate(free):
        vec = [0] * ncols
        vec[fc] = 1
        for c, image in zip(pivot_cols, images):
            vec[c] = image[i]
        basis.append(tuple(vec))
    return basis

