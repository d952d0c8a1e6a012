"""Finite truncations of the full Kostant-Toda lattice.

Tridiagonal-plus-one-band complex matrices J (unit superdiagonal, bands
a, b, c) evolved by the Lax flow dJ/dt = [J, J_lower], together with the
2x2 block moment functional, vector polynomials, leading resolvent
block, and two closed-form solution routes. The verify module cross
checks every law numerically on seeded random instances. Each module's
__all__ is the one list of its public names, and the package exports them.
"""

from . import backends, core, dynamics, moments, polynomials, resolvent, verify
from .backends import *  # noqa: F403
from .core import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .moments import *  # noqa: F403
from .polynomials import *  # noqa: F403
from .resolvent import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (backends, core, dynamics, moments, polynomials, resolvent, verify)
    for name in module.__all__
] + ["__version__"]
