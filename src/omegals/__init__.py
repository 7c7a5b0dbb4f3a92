"""Shift-parameterized least squares over subspaces.

The library solves argmin over an affine set of ||(A + omega I)^{-1/2}
(b - A x)|| for Hermitian invertible A, studies how the solution family
moves with the shift (it stays inside a low-dimensional subspace whose
dimension is the index of invariance of the constraint subspace), and ships
the block decompositions, dimension estimators, and matrix-set tools built
around that fact.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    CollisionReport,
    ConditionReport,
    ConvexityResult,
    DifferenceSubspace,
    SweepResult,
    condition_report,
    constant_kernel,
    convexity_coordinates,
    default_omega_grid,
    difference_subspace,
    estimate_span_dim,
    membership_residual,
    sweep_solutions,
)
from .decomposition import (
    NullspaceN,
    ShiftedBlocks,
    TridiagDecomp,
    nullspace_of_hstar,
    shifted_blocks,
    tridiagonal_block_decomposition,
)
from .experiments import (
    Figure1Config,
    Figure1Result,
    KrylovSumResult,
    KrylovSumSpec,
    krylov_sum_subspace,
    poisson_2d,
    run_figure1,
)
from .linalg import (
    EigDecomposition,
    hermitian_eig,
    numerical_rank,
    orthonormalize,
    solve_hermitian,
)
from .manifolds import (
    ManifoldClass,
    construct_positive_member,
    manifold_dimension,
    membership,
    perturb_to_invertible,
    swap_witness,
)
from .solver import (
    OMEGA_INF,
    ProblemInstance,
    SystemSolution,
    difference_via_blocks,
    limit_difference_via_blocks,
    solution_map,
    solve_limit,
    solve_weighted,
)
from .subspaces import (
    AffineSubspace,
    Subspace,
    eigenspace_split,
    index_of_invariance,
    krylov,
    normal_representation,
    orthogonal_complement,
    subspace_intersect,
    subspace_sum,
    subspaces_equal,
)

# the names imported above; the submodules (io, linalg, ...) stay out, so a
# star import cannot shadow a standard-library module
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
