"""Exact cohomology of the degree-3 associative envelope of the Virasoro
conformal algebra: rewriting system, resolution, and dimension tables."""

__version__ = "0.1.0"

from .algebra import check_overlap, nf_word, normal_form, verify_defining_relations
from .anick import (
    Chain,
    chain_to_text,
    compose_delta,
    delta_generic,
    enumerate_chains,
    grade,
    is_chain,
)
from .cochain import reduced_row
from .cohom import (
    DimTable,
    cohomology_dims,
    contraction_defects,
    locate_classes,
    truncated_cohomology,
)
from .scalars import ParamPoly, format_rational, parse_rational

__all__ = [
    "__version__",
    "Chain",
    "DimTable",
    "ParamPoly",
    "chain_to_text",
    "check_overlap",
    "cohomology_dims",
    "compose_delta",
    "contraction_defects",
    "delta_generic",
    "enumerate_chains",
    "format_rational",
    "grade",
    "is_chain",
    "locate_classes",
    "nf_word",
    "normal_form",
    "parse_rational",
    "reduced_row",
    "truncated_cohomology",
    "verify_defining_relations",
]
