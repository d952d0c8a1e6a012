import contextlib
import os

import numpy as np
import pytest

from kostant_toda import LatticeState, norm_bound


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped, such as
    a CSV helper that outlived its writer."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process is still running" if pid == 0 else
                f"child process {pid} was left unreaped")


def _open_fds():
    """What each open file descriptor of this process refers to."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        # the descriptor of the listing itself is closed by now
        with contextlib.suppress(FileNotFoundError):
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
    return fds


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test that leaves a file descriptor open, such as a CSV
    helper's file or pipe. Hosts without /proc/self/fd go unchecked."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_fds()
    yield
    left = {fd: to for fd, to in _open_fds().items() if before.get(fd) != to}
    if left:
        pytest.fail(f"file descriptors left open: {left}")


@pytest.fixture
def unit_instance():
    """Zero diagonal, unit bands: every hand-derived value uses this one."""
    return LatticeState(
        a=np.zeros(6, dtype=np.complex128),
        b=np.ones(5, dtype=np.complex128),
        c=np.ones(4, dtype=np.complex128),
    )


def _neumann_by_hand(state, z, tol, terms=None):
    """Value and tail bound of the Neumann sum of one state at one z, as a
    lone call forms it: the term count from a loop on Python floats, the
    2-D power loop W <- W J over the whole dense J and the powers of 1/z in
    z's own scalar type. It sums terms powers, by default the count that
    certifies tol."""
    rho = norm_bound(state)
    K, bound = -1, 1.0 / (abs(z) - rho)
    while bound >= tol:
        K += 1
        bound *= rho / abs(z)
    K = max(K, 0) if terms is None else terms - 1
    J, W = state.dense(), np.eye(2, state.m, dtype=np.complex128)
    value = np.zeros((2, 2), dtype=np.complex128)
    zinv = 1.0 / z
    zp = zinv
    for _ in range(K + 1):
        value += W[:, :2].copy() * zp
        W = W @ J
        zp *= zinv
    return value, (rho / abs(z)) ** (K + 1) / (abs(z) - rho)


@pytest.fixture
def neumann_by_hand():
    """The oracle of the resolvent series: _neumann_by_hand."""
    return _neumann_by_hand
