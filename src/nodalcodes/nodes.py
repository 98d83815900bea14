"""Node configurations, vanishing dimensions, and the defect of a double solid.

A double cover of P^3 branched over an even-degree surface with mu nodes
has second cohomology of rank 1 + mu + d.  The defect d measures how
special the node positions are: it is the excess of the actual over the
expected dimension of the space of forms of degree 3b/2 - 4 through the
nodes.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb, lcm

from .errors import DataError, DomainError, ResourceError, json_fields, read_json
from .fields import Field, PrimeField, QQ, Scalar
from .forms import (
    HomogeneousForm,
    Monomial,
    evaluate_at,
    gradient,
    parse_form,
    rank_at,
)
from .linalg import ExactMatrix, exact_rank
from .record import Record

Point = tuple[Scalar, Scalar, Scalar, Scalar]

# Largest monomial count C(d+3,3) a vanishing dimension is computed for:
# form degree 20 (1771 monomials) passes, 21 (2024) does not.  Surfaces of
# degree 6 and 8 need form degrees 5 and 8 (56 and 165 monomials).
MONOMIAL_CAP = 2000


def normalize_point(field: Field, coords: Sequence[Scalar]) -> Point:
    """Scale so the first nonzero coordinate is 1; canonical projective representative."""
    if len(coords) != 4:
        raise DataError(f"expected 4 coordinates, got {len(coords)}")
    vals = [field.validate(c) for c in coords]
    for v in vals:
        if v != 0:
            inv = field.inverse(v)
            return tuple(field.reduce(inv * c) for c in vals)
    raise DataError("(0:0:0:0) is not a projective point")


class NodeConfiguration(Record):
    """A set of distinct projective points, the ambient surface degree, and
    optionally the surface equation itself."""

    degree: int
    field: Field
    points: tuple[Point, ...]
    surface: HomogeneousForm | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise DomainError(f"surface degree must be positive, got {self.degree}")
        seen = set()
        normalized = []
        for coords in self.points:
            pt = normalize_point(self.field, coords)
            if pt in seen:
                raise DataError(f"duplicate projective point {pt}")
            seen.add(pt)
            normalized.append(pt)
        object.__setattr__(self, "points", tuple(normalized))
        if self.surface is not None:
            if self.surface.field != self.field:
                raise DataError("surface and nodes live over different fields")
            if not self.surface.is_zero() and self.surface.degree != self.degree:
                raise DataError(
                    f"surface has degree {self.surface.degree}, configuration says {self.degree}"
                )

    @property
    def mu(self) -> int:
        return len(self.points)


def _node_verdicts(f: HomogeneousForm, points: Sequence[Sequence[Scalar]]) -> list[bool]:
    """:func:`verify_node` at each point, with the four first and the
    sixteen second partials of f built once for all of them."""
    first = gradient(f)
    second = [gradient(g) for g in first]
    verdicts = []
    for point in points:
        pt = normalize_point(f.field, point)
        verdicts.append(
            evaluate_at(f, pt) == 0
            and all(evaluate_at(g, pt) == 0 for g in first)
            and rank_at(second, pt) == 3
        )
    return verdicts


def verify_node(f: HomogeneousForm, point: Sequence[Scalar]) -> bool:
    """True iff the point is an ordinary double point of {f = 0}:
    f and all four partials vanish there and the Hessian has rank exactly 3."""
    return _node_verdicts(f, [point])[0]


def verify_configuration(cfg: NodeConfiguration) -> list[bool]:
    """Per-node verdict of :func:`verify_node` against the attached surface."""
    if cfg.surface is None:
        raise DataError("configuration has no surface attached")
    return _node_verdicts(cfg.surface, cfg.points)


def monomial_basis(d: int) -> list[Monomial]:
    """All degree-d monomials in x, y, z, w in graded reverse-lex order.

    That is ascending ``grevlex_key`` order: the exponent of w, then of z,
    then of y ascending, so the list is built in order and never sorted.
    """
    if d < 0:
        raise DomainError(f"degree must be non-negative, got {d}")
    monos = [
        (d - y - z - w, y, z, w)
        for w in range(d + 1)
        for z in range(d + 1 - w)
        for y in range(d + 1 - w - z)
    ]
    assert len(monos) == comb(d + 3, 3)
    return monos


def evaluation_matrix(cfg: NodeConfiguration, d: int) -> ExactMatrix:
    """mu x C(d+3,3) matrix of degree-d monomials evaluated at the nodes.

    Entries are plain ints.  Each point is scaled by the lcm L of its
    denominators (1 over F_p), which scales its row by L^d and leaves the
    rank unchanged, so a row is the monomials at the point's integer
    coordinates: no ``Fraction`` is built.  Over F_p the powers are taken
    mod p and their products, below p^4, are left for the elimination to
    reduce.
    """
    p = cfg.field.characteristic or None
    basis = monomial_basis(d)
    rows = []
    for pt in cfg.points:
        scale = lcm(*(c.denominator for c in pt))
        ints = [c.numerator * (scale // c.denominator) for c in pt]
        px, py, pz, pw = ([pow(n, e, p) for e in range(d + 1)] for n in ints)
        rows.append(tuple(px[i] * py[j] * pz[k] * pw[l] for i, j, k, l in basis))
    return ExactMatrix(cfg.field, tuple(rows))


def vanishing_dimension(cfg: NodeConfiguration, d: int) -> int:
    """Dimension of the space of degree-d forms vanishing at every node.

    Raises :class:`ResourceError` when there are more than
    :data:`MONOMIAL_CAP` degree-d monomials.
    """
    if d < 0:
        raise DomainError(f"degree must be non-negative, got {d}")
    total = comb(d + 3, 3)
    if total > MONOMIAL_CAP:
        raise ResourceError(
            f"degree-{d} forms have {total} monomials; capped at {MONOMIAL_CAP} (form degree <= 20)"
        )
    return total - exact_rank(evaluation_matrix(cfg, d))


class DefectReport(Record):
    """Defect computation breakdown.

    ``defect = dim_m - estimate`` with ``estimate = C(3b/2-1, 3) - mu``;
    the value is signed and never clamped, so a negative defect flags
    inconsistent input rather than being hidden.
    """

    b: int
    mu: int
    m_degree: int
    dim_m: int
    estimate: int
    defect: int

    def to_dict(self) -> dict:
        return {
            "degree": self.b,
            "mu": self.mu,
            "form_degree": self.m_degree,
            "dim_vanishing_space": self.dim_m,
            "estimate": self.estimate,
            "defect": self.defect,
        }


def form_degree(b: int) -> int:
    """3b/2 - 4, the degree of the forms through the nodes (3b/2 rounded down)."""
    return 3 * b // 2 - 4


def defect(b: int, mu: int, dim_m: int) -> DefectReport:
    """Defect of the double solid branched over a degree-b surface with mu
    nodes, given the dimension of the forms of ``form_degree(b)`` through them."""
    if b % 2 != 0:
        raise DomainError(f"branch degree must be even, got {b}")
    if b < 2:
        raise DomainError(f"branch degree must be at least 2, got {b}")
    if mu < 0 or dim_m < 0:
        raise DomainError("mu and dim_m must be non-negative")
    m_degree = form_degree(b)
    estimate = comb(m_degree + 3, 3) - mu
    return DefectReport(b, mu, m_degree, dim_m, estimate, dim_m - estimate)


def defect_from_nodes(cfg: NodeConfiguration) -> DefectReport:
    """Compute the defect directly from a node configuration."""
    b, m_degree = cfg.degree, form_degree(cfg.degree)
    if b % 2 != 0:
        raise DomainError(f"branch degree must be even, got {b}")
    return defect(b, cfg.mu, vanishing_dimension(cfg, m_degree) if m_degree >= 0 else 0)


# --- node file format --------------------------------------------------------
#
# { "degree": <even int>,
#   "field": "rational" | {"prime": <int>},
#   "surface": <optional polynomial string>,
#   "nodes": [["c0","c1","c2","c3"], ...] }   (coordinates "p/q" allowed over Q;
#                                               a coordinate is a string or an integer)


def _field_from_json(spec) -> Field:
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        return PrimeField(spec["prime"])
    raise DataError(f"bad field spec {spec!r}; use \"rational\" or {{\"prime\": p}}")


def config_from_dict(data: dict) -> NodeConfiguration:
    degree, nodes = json_fields(data, "node file", "degree", "nodes")
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise DataError("degree must be an integer")
    if not isinstance(nodes, list):
        raise DataError("nodes must be a list of 4-coordinate lists")
    field = _field_from_json(data.get("field", "rational"))
    points = []
    for raw in nodes:
        if not isinstance(raw, list) or len(raw) != 4:
            raise DataError(f"node {raw!r} is not a list of 4 coordinates")
        for c in raw:  # a JSON float is not exact: 1e-400 reads as 0
            if isinstance(c, bool) or not isinstance(c, (str, int)):
                raise DataError(f"node coordinate must be a string or an integer, got {type(c).__name__}")
        points.append(tuple(field.parse(str(c)) for c in raw))
    surface = data.get("surface")
    if surface is not None:
        if not isinstance(surface, str):
            raise DataError("surface must be a polynomial string")
        surface = parse_form(surface, field)
    return NodeConfiguration(degree, field, tuple(points), surface)


def load_node_file(path: str) -> NodeConfiguration:
    return config_from_dict(read_json(path, "node file"))
