"""Exact computations around nodal surfaces and their double covers:
defects, even-set codes of quartics, dimension bounds, and finite-field
symmetroid scans."""

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
from .fields import PrimeField, QQ, RationalField
from .forms import HomogeneousForm, evaluate_at, gradient, hessian_rank_at, parse_form
from .linalg import ExactMatrix, nullspace_basis
from .nodes import (
    DefectReport,
    NodeConfiguration,
    defect,
    defect_from_nodes,
    monomial_basis,
    vanishing_dimension,
    verify_node,
)
from .series import symmetroid_hilbert_check, symmetroid_hilbert_series
from .seeded import random_symmetric_matrix, random_symmetroid_matrix
from .symmetroid import ScanResult, SymmetricLinearMatrix, no_quadric_certificate, scan_nodes_fp

__version__ = "0.1.0"
