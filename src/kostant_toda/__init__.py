"""Finite truncations of the full Kostant-Toda lattice.

Tridiagonal-plus-one-band complex matrices J (unit superdiagonal, bands
a, b, c) evolved by the Lax flow dJ/dt = [J, J_lower], together with the
2x2 block moment functional, vector polynomials, leading resolvent
block, and two closed-form solution routes. The verify module cross
checks every law numerically on seeded random instances.
"""

from .backends import HAS_NUMBA, active_backend
from .core import (
    LatticeState,
    TruncationTooSmallError,
    a_block,
    b_block,
    block_at,
    c0_block,
    c0_block_inv,
    c_block,
    commutator,
    d_block,
    norm_bound,
    random_state,
)
from .dynamics import (
    CNearZeroError,
    CorruptionSpec,
    IntegratorConfig,
    Trajectory,
    central_diff,
    integrate,
    kostant_rhs,
    lax_rhs,
)
from .moments import (
    ExponentialMoments,
    MomentFunctional,
    OrderOverflowError,
    SeriesCapError,
    SingularBlockError,
    apply_u,
    exponential_moments,
    functional_derivative_residual,
    moment_ode_residual,
    moments_from_j,
    moments_from_recurrence,
    reconstruct_blocks,
)
from .polynomials import (
    VectorPolynomial,
    derivative_law_residual,
    scalar_polys,
    shift_coeffs,
    stacked_eigen_residual,
    vector_polys,
    vector_recurrence_residual,
)
from .resolvent import (
    MARGIN,
    ResolventBlock,
    ZTooSmallError,
    closed_form_resolvent,
    dense_resolvent_block,
    generating_function,
    generating_ode_residual,
    neumann_terms_needed,
    resolvent_block,
    resolvent_ode_residual,
)
from .verify import CheckReport, reports_to_json, run_suite

__version__ = "0.1.0"

__all__ = [
    "CNearZeroError",
    "CheckReport",
    "CorruptionSpec",
    "ExponentialMoments",
    "HAS_NUMBA",
    "IntegratorConfig",
    "LatticeState",
    "MARGIN",
    "MomentFunctional",
    "OrderOverflowError",
    "ResolventBlock",
    "SeriesCapError",
    "SingularBlockError",
    "Trajectory",
    "TruncationTooSmallError",
    "VectorPolynomial",
    "ZTooSmallError",
    "__version__",
    "a_block",
    "active_backend",
    "apply_u",
    "b_block",
    "block_at",
    "c0_block",
    "c0_block_inv",
    "c_block",
    "central_diff",
    "closed_form_resolvent",
    "commutator",
    "d_block",
    "dense_resolvent_block",
    "derivative_law_residual",
    "exponential_moments",
    "functional_derivative_residual",
    "generating_function",
    "generating_ode_residual",
    "integrate",
    "kostant_rhs",
    "lax_rhs",
    "moment_ode_residual",
    "moments_from_j",
    "moments_from_recurrence",
    "neumann_terms_needed",
    "norm_bound",
    "random_state",
    "reconstruct_blocks",
    "reports_to_json",
    "resolvent_block",
    "resolvent_ode_residual",
    "run_suite",
    "scalar_polys",
    "shift_coeffs",
    "stacked_eigen_residual",
    "vector_polys",
    "vector_recurrence_residual",
]
