"""Exact computations around nodal surfaces and their double covers:
defects, even-set codes of quartics, dimension bounds, and finite-field
symmetroid scans.

``_PUBLIC`` is the one list of public names, by defining module; ``__all__``,
the module ``__getattr__`` and ``__dir__`` read it.  ``import nodalcodes``
loads the code side only: ``errors``, ``record``, ``bounds``, ``series``,
``codes`` and ``classify``, whose names are bound at once.  The classifier
is one of them because its only input is mu: loaded on first use, its
compile would land inside the first ``classify_quartic_codes`` call
instead.  The names of the field, rank, form, node, scan and generator
modules resolve on first access (PEP 562), so a process that never uses
them never compiles them; the modules themselves are their only cache.
"""

from importlib import import_module

from . import bounds, classify, codes, errors, series

__version__ = "0.1.0"

_PUBLIC = {
    "bounds": ("BoundReport", "DefectReport", "beauville_bound", "beauville_bound_printed", "bound_report",
               "defect", "improved_bound", "jacobian_slice_dim", "miyaoka_max_nodes", "torsion_rank"),
    "classify": ("ClassificationTable", "TableEntry", "classify_quartic_codes"),
    "codes": ("EvenSetCode", "EvenSetWord", "canonical_form", "is_isomorphic", "weight_enumerator"),
    "errors": ("DataError", "DomainError", "HomogeneityError", "InconsistencyError", "InputError",
               "NodalcodesError", "ParseError", "ResourceError"),
    "series": ("symmetroid_hilbert_check", "symmetroid_hilbert_series"),
    "fields": ("PrimeField", "QQ", "RationalField"),
    "forms": ("HomogeneousForm", "evaluate_at", "gradient", "hessian_rank_at", "parse_form"),
    "linalg": ("ExactMatrix", "nullspace_basis"),
    "nodes": ("NodeConfiguration", "defect_from_nodes", "monomial_basis", "vanishing_dimension",
              "verify_node"),
    "seeded": ("random_symmetric_matrix", "random_symmetroid_matrix"),
    "symmetroid": ("ScanResult", "SymmetricLinearMatrix", "no_quadric_certificate", "scan_nodes_fp"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)

# the names of the modules loaded above; the rest resolve in __getattr__
globals().update({name: getattr(module, name) for module in (bounds, classify, codes, errors, series)
                  for name in _PUBLIC[module.__name__.rpartition(".")[2]]})


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
