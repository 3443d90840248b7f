"""Nested Construction-A / LDA lattice coding laboratory."""

from .channel import capacity, wiener
from .codec import NestedLatticePair, bp_decode, build_pair, encode, extract_message, mmse_decode_exact
from .expander import (
    TannerGraph,
    binary_entropy,
    build_graph,
    check_d_good,
    delta_threshold,
    lda_delta_p_threshold,
    neighborhood,
)
from .fieldcore import centered_rep, nearest_prime
from .gfmatrix import GfMatrix, StackedParityCheck, rank, solve
from .lattice import BallSpec, ConstructionALattice, ball_volume, count_integer_points

__all__ = [
    "BallSpec",
    "ConstructionALattice",
    "GfMatrix",
    "NestedLatticePair",
    "StackedParityCheck",
    "TannerGraph",
    "ball_volume",
    "binary_entropy",
    "bp_decode",
    "build_graph",
    "build_pair",
    "capacity",
    "centered_rep",
    "check_d_good",
    "count_integer_points",
    "delta_threshold",
    "encode",
    "extract_message",
    "lda_delta_p_threshold",
    "mmse_decode_exact",
    "nearest_prime",
    "neighborhood",
    "rank",
    "solve",
    "wiener",
]
