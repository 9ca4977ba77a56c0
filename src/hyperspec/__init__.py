"""Exact spectra of uniform hypergraphs.

The package computes characteristic and E-characteristic polynomials of
adjacency tensors through Macaulay resultants, exactly, in integer and
modular arithmetic, and uses them to study which hypergraphs are
determined by their spectra: edge switching that preserves E-spectra,
exhaustive determined-by-spectrum searches on small vertex counts, and
the brute-force bound on how many simplices an edge deletion can spare.
"""

from .analysis import (
    DsVerdict,
    PolyCache,
    ScanReport,
    are_cospectral,
    are_e_cospectral,
    cospectral_invariant_scan,
    ds_verify,
    simplex_destruction_min,
)
from .config import DEFAULT_CONFIG, RunConfig, config_from_env
from .errors import (
    CapExceeded,
    HyperspecError,
    InputError,
    MathError,
)
from .hypergraph import (
    Hypergraph,
    adjacency_tensor,
    canonical_form,
    complement,
    count_simplices,
    format_hypergraph,
    is_isomorphic,
    neighbors_in,
    parse_hypergraph,
    simplices,
)
from .polynomial import UniPoly
from .spectra import char_poly, det_tensor, e_char_poly
from .switching import (
    SwitchingPartition,
    example_pair,
    find_partitions,
    switch,
    validate,
    verify_similarity,
)
from .tensor import Tensor, mat_sim

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DEFAULT_CONFIG",
    "DsVerdict",
    "HyperspecError",
    "Hypergraph",
    "InputError",
    "MathError",
    "PolyCache",
    "RunConfig",
    "ScanReport",
    "SwitchingPartition",
    "Tensor",
    "UniPoly",
    "adjacency_tensor",
    "are_cospectral",
    "are_e_cospectral",
    "canonical_form",
    "char_poly",
    "complement",
    "config_from_env",
    "cospectral_invariant_scan",
    "count_simplices",
    "det_tensor",
    "ds_verify",
    "e_char_poly",
    "example_pair",
    "find_partitions",
    "format_hypergraph",
    "is_isomorphic",
    "mat_sim",
    "neighbors_in",
    "parse_hypergraph",
    "simplex_destruction_min",
    "simplices",
    "switch",
    "validate",
    "verify_similarity",
]
