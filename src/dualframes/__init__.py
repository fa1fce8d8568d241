"""Sparsity and spectral analysis of the dual frames of a finite frame."""

__version__ = "0.1.0"

from .frames import (
    DualParametrization,
    Frame,
    FrameBounds,
    canonical_dual,
    dual_set_dimension,
    frame_bounds,
    frame_operator,
    is_dual,
    row_delete,
)
from .sparsity import (
    biorthogonal_dual,
    enumerate_sparsest_duals,
    generalized_spark,
    in_P,
    is_general_position,
    spark,
    sparsest_dual,
    sparsity_bounds,
)
from .spectral import (
    dual_eigs_2x3,
    lambda_region,
    prescribed_spectrum_dual,
    spectrum_feasible,
    tight_dual,
)
from .tetris import (
    tetris_frame,
    tetris_plan,
    tetris_sparse_dual,
    tetris_sparsity,
)

__all__ = [
    "DualParametrization",
    "Frame",
    "FrameBounds",
    "biorthogonal_dual",
    "canonical_dual",
    "dual_eigs_2x3",
    "dual_set_dimension",
    "enumerate_sparsest_duals",
    "frame_bounds",
    "frame_operator",
    "generalized_spark",
    "in_P",
    "is_dual",
    "is_general_position",
    "lambda_region",
    "prescribed_spectrum_dual",
    "row_delete",
    "spark",
    "sparsest_dual",
    "sparsity_bounds",
    "spectrum_feasible",
    "tetris_frame",
    "tetris_plan",
    "tetris_sparse_dual",
    "tetris_sparsity",
    "tight_dual",
]
