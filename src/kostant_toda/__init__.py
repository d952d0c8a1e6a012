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
    b_block,
    c0_block,
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
    characteristic_identity,
    derivative_law_residual,
    scalar_polys,
    shift_coeffs,
    vector_polys,
)
from .resolvent import (
    MARGIN,
    ResolventBlock,
    ZTooSmallError,
    closed_form_resolvent,
    dense_resolvent_block,
    generating_ode_residual,
    resolvent_block,
    resolvent_ode_residual,
    resolvent_sweep,
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
    "active_backend",
    "apply_u",
    "b_block",
    "c0_block",
    "c_block",
    "central_diff",
    "characteristic_identity",
    "closed_form_resolvent",
    "commutator",
    "d_block",
    "dense_resolvent_block",
    "derivative_law_residual",
    "exponential_moments",
    "functional_derivative_residual",
    "generating_ode_residual",
    "integrate",
    "kostant_rhs",
    "lax_rhs",
    "moment_ode_residual",
    "moments_from_j",
    "moments_from_recurrence",
    "norm_bound",
    "random_state",
    "reconstruct_blocks",
    "reports_to_json",
    "resolvent_block",
    "resolvent_ode_residual",
    "resolvent_sweep",
    "run_suite",
    "scalar_polys",
    "shift_coeffs",
    "vector_polys",
]
