"""Exact computations around nodal surfaces and their double covers:
defects, even-set codes of quartics, dimension bounds, and finite-field
symmetroid scans.

``import nodalcodes`` loads the code side only: ``errors``, ``record``,
``bounds``, ``series``, ``codes`` and ``classify``.  The classifier is one
of them because its only input is mu: loaded on first use, its compile
would land inside the first ``classify_quartic_codes`` call instead.  The
names of the field, rank, form, node, scan and generator modules
(``fields``, ``linalg``, ``forms``, ``nodes``, ``symmetroid``, ``seeded``)
resolve on first access through the module ``__getattr__`` (PEP 562), so a
process that never uses them never compiles them; the modules themselves
are their only cache.
"""

from importlib import import_module

from .bounds import (
    BoundReport,
    beauville_bound,
    beauville_bound_printed,
    bound_report,
    improved_bound,
    jacobian_slice_dim,
    miyaoka_max_nodes,
    torsion_rank,
)
from .classify import ClassificationTable, TableEntry, classify_quartic_codes
from .codes import (
    EvenSetCode,
    EvenSetWord,
    canonical_form,
    is_isomorphic,
    weight_enumerator,
)
from .errors import (
    DataError,
    DomainError,
    HomogeneityError,
    InconsistencyError,
    InputError,
    NodalcodesError,
    ParseError,
    ResourceError,
)
from .series import symmetroid_hilbert_check, symmetroid_hilbert_series

__version__ = "0.1.0"

# each name that loads on first access, and the module that defines it
_DEFERRED = {
    "PrimeField": "fields",
    "QQ": "fields",
    "RationalField": "fields",
    "HomogeneousForm": "forms",
    "evaluate_at": "forms",
    "gradient": "forms",
    "hessian_rank_at": "forms",
    "parse_form": "forms",
    "ExactMatrix": "linalg",
    "nullspace_basis": "linalg",
    "DefectReport": "nodes",
    "NodeConfiguration": "nodes",
    "defect": "nodes",
    "defect_from_nodes": "nodes",
    "monomial_basis": "nodes",
    "vanishing_dimension": "nodes",
    "verify_node": "nodes",
    "random_symmetric_matrix": "seeded",
    "random_symmetroid_matrix": "seeded",
    "ScanResult": "symmetroid",
    "SymmetricLinearMatrix": "symmetroid",
    "no_quadric_certificate": "symmetroid",
    "scan_nodes_fp": "symmetroid",
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_DEFERRED})
