import numpy as np
import pytest

from kostant_toda import LatticeState


@pytest.fixture
def unit_instance():
    """Zero diagonal, unit bands: every hand-derived value uses this one."""
    return LatticeState(
        a=np.zeros(6, dtype=np.complex128),
        b=np.ones(5, dtype=np.complex128),
        c=np.ones(4, dtype=np.complex128),
    )
