"""Exact spanning-tree counts for K_n minus a subtrahend graph.

Fast engines cover subtrahends that are trees, quasi-threshold graphs, or
complete split graphs; determinant oracles (Laplacian cofactor, and
det(n*I - L(H)) on the subtrahend's vertices) and exhaustive enumeration
verify every result.
"""

from .arith import (
    ExactField,
    NonIntegerProductError,
    PrimeField,
    random_prime,
)
from .graph import (
    EdgeListParseError,
    Graph,
    Problem,
    complement_in_host,
    is_connected,
    is_tree,
    parse_edge_list,
    serialize_edge_list,
)
from .oracle import (
    cst_matrix_count,
    enumerate_count,
    kirchhoff_count,
    random_labeled_tree,
    random_qt_graph,
)
from .qt_engine import (
    CentTree,
    NotQuasiThresholdError,
    cent_function,
    recognize_and_build_cent_tree,
)
from .tree_engine import (
    NotATreeError,
    StDecomposition,
    count_kn_minus_tree,
    st_decompose,
    st_function,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Problem",
    "parse_edge_list",
    "serialize_edge_list",
    "is_tree",
    "is_connected",
    "complement_in_host",
    "EdgeListParseError",
    "random_prime",
    "ExactField",
    "PrimeField",
    "NonIntegerProductError",
    "StDecomposition",
    "st_decompose",
    "st_function",
    "count_kn_minus_tree",
    "NotATreeError",
    "CentTree",
    "recognize_and_build_cent_tree",
    "cent_function",
    "NotQuasiThresholdError",
    "kirchhoff_count",
    "cst_matrix_count",
    "enumerate_count",
    "random_labeled_tree",
    "random_qt_graph",
    "__version__",
]
