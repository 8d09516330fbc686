"""Exact-arithmetic Lie algebra invariants and commutative polarizations."""

from .exactla import LinFormMatrix, RankPolicy, DEFAULT_POLICY, generic_rank, rank_exact
from .liealg import (
    LieAlgebra,
    Subspace,
    Functional,
    AssocAlgebra,
    LSAAlgebra,
    new_lie_algebra,
    parse_algebra,
    serialize_algebra,
)

__version__ = "0.1.0"

__all__ = [
    "LinFormMatrix",
    "RankPolicy",
    "DEFAULT_POLICY",
    "generic_rank",
    "rank_exact",
    "LieAlgebra",
    "Subspace",
    "Functional",
    "AssocAlgebra",
    "LSAAlgebra",
    "new_lie_algebra",
    "parse_algebra",
    "serialize_algebra",
]
