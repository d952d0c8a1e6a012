import numpy as np
import pytest

from kostant_toda import (
    LatticeState,
    b_block,
    c0_block,
    c_block,
    commutator,
    d_block,
    norm_bound,
    random_state,
)


def test_state_validation():
    a = np.zeros(6, dtype=complex)
    b = np.ones(5, dtype=complex)
    c = np.ones(4, dtype=complex)
    st = LatticeState(a, b, c)
    assert st.m == 6
    with pytest.raises(ValueError):
        LatticeState(a[:5], b[:4], c[:3])  # odd m
    with pytest.raises(ValueError):
        LatticeState(a[:2], b[:1], c[:0])  # m < 4
    with pytest.raises(ValueError):
        LatticeState(a, b[:3], c)  # wrong b length
    with pytest.raises(ValueError):
        LatticeState(a, b, np.array([1.0, 0.0, 1.0, 1.0], dtype=complex))  # zero c


def test_dense_band_layout():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    J = LatticeState(a, b, c).dense()
    assert np.array_equal(np.diagonal(J, 1), np.ones(5))
    assert np.array_equal(np.diagonal(J), a)
    assert np.array_equal(np.diagonal(J, -1), b)
    assert np.array_equal(np.diagonal(J, -2), c)
    assert np.count_nonzero(np.triu(J, 2)) == 0
    assert np.count_nonzero(np.tril(J, -3)) == 0


def test_block_partition():
    # the named 2x2 blocks tile J: B_n on the diagonal, A above it and C_n
    # below it, zero elsewhere
    st = random_state(1, 8)
    zero = np.zeros((2, 2), dtype=complex)
    a_blk = np.array([[0, 0], [1, 0]], dtype=complex)  # constant superdiagonal block
    k = st.m // 2
    blocks = [
        [b_block(st, i + 1) if j == i else a_blk if j == i + 1
         else c_block(st, j + 1) if i == j + 1 else zero for j in range(k)]
        for i in range(k)
    ]
    assert np.array_equal(np.block(blocks), st.dense())


def test_named_blocks_match_dense():
    st = random_state(2, 10)
    J = st.dense()
    # 2x2 block (i, j) covers rows 2i-1, 2i and cols 2j-1, 2j (1-based)
    for n in range(1, 5):
        assert np.array_equal(b_block(st, n), J[2 * n - 2 : 2 * n, 2 * n - 2 : 2 * n])
    for n in range(1, 4):
        assert np.array_equal(c_block(st, n), J[2 * n : 2 * n + 2, 2 * n - 2 : 2 * n])
    # superdiagonal blocks are all A = [[0, 0], [1, 0]]
    for n in range(1, 5):
        assert np.array_equal(J[2 * n - 2 : 2 * n, 2 * n : 2 * n + 2], [[0, 0], [1, 0]])
    # D_n is the diagonal block of the strictly lower part
    L = np.tril(J, -1)
    for n in range(0, 5):
        assert np.array_equal(d_block(st, n), L[2 * n : 2 * n + 2, 2 * n : 2 * n + 2])


def test_c0_block_and_inverse():
    a1 = 0.3 - 1.2j
    c0 = c0_block(a1)
    assert np.array_equal(c0, np.array([[1, 0], [-a1, 1]]))
    assert np.allclose(c0 @ c0_block(-a1), np.eye(2), atol=1e-15)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(commutator(X, Y), -commutator(Y, X))
    assert np.allclose(commutator(X, X), 0)


def test_norm_bound_dominates_spectrum():
    for seed in range(6):
        st = random_state(seed, 12)
        rho = norm_bound(st)
        assert np.max(np.abs(np.linalg.eigvals(st.dense()))) <= rho
        # row sums of |J|, with the unit superdiagonal charged to every row
        row_sums = np.sum(np.abs(st.dense()), axis=1)
        assert np.max(row_sums) <= rho <= np.max(row_sums) + 1.0
        assert rho >= 1.0


def test_random_state_deterministic_and_bounded():
    s1 = random_state(11, 10)
    s2 = random_state(11, 10)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.b, s2.b)
    assert np.array_equal(s1.c, s2.c)
    assert random_state(12, 10).a[0] != s1.a[0]
    assert np.all(np.abs(s1.a) <= 1) and np.all(np.abs(s1.b) <= 1)
    assert np.all(np.abs(s1.c) >= 0.2) and np.all(np.abs(s1.c) <= 1)


@pytest.mark.parametrize("m", [0, 1, -4, 5])
def test_random_state_checks_the_size_first(m):
    with pytest.raises(ValueError, match=f"^lattice size m={m} must be even and >= 4$"):
        random_state(0, m)


def test_copy_is_deep():
    st = random_state(0, 8)
    cp = st.copy()
    cp.a[0] = 99.0
    assert st.a[0] != 99.0


def test_leading_power_blocks_match_dense_powers():
    from kostant_toda.core import leading_power_blocks

    st = random_state(4, 10)
    J = st.dense()
    blocks = leading_power_blocks(J[None], 6)
    assert blocks.shape == (1, 7, 2, 2)
    for k in range(7):
        assert np.allclose(blocks[0, k], np.linalg.matrix_power(J, k)[:2, :2], rtol=1e-13, atol=1e-13)


def _power_blocks_alone(J, n_max):
    """(J^k)_11 of one operator by the 2-D product loop W <- W J."""
    W = np.eye(2, J.shape[0], dtype=np.complex128)
    out = [W[:, :2].copy()]
    for _ in range(n_max):
        W = W @ J
        out.append(W[:, :2].copy())
    return np.array(out)


@pytest.mark.parametrize("size", [1, 3, 12])
@pytest.mark.parametrize("m", [4, 12, 64, 256])
def test_leading_power_blocks_are_bit_identical_alone_and_in_a_batch(m, size):
    from kostant_toda.core import dense_stack, leading_power_blocks

    states = [random_state(seed, m) for seed in range(size)]
    alone = [_power_blocks_alone(st.dense(), 40).tobytes() for st in states]
    for order in (states, states[::-1]):
        stack = dense_stack(*(np.stack([getattr(s, x) for s in order]) for x in "abc"))
        blocks = leading_power_blocks(stack, 40)
        expect = alone if order is states else alone[::-1]
        assert [b.tobytes() for b in blocks] == expect


def _frozen_leading_power_blocks(J, n_max):
    """The stacked power loop over every column of W, W <- W @ J (test oracle)."""
    S, m, _ = J.shape
    W = np.zeros((S, 2, m), dtype=np.complex128)
    W[:, 0, 0] = 1.0
    W[:, 1, 1] = 1.0
    out = np.empty((S, n_max + 1, 2, 2), dtype=np.complex128)
    out[:, 0] = W[:, :, :2]
    for k in range(1, n_max + 1):
        W = W @ J
        out[:, k] = W[:, :, :2]
    return out


@pytest.mark.parametrize("size", [1, 3, 16])
@pytest.mark.parametrize("m", [8, 12, 64])
def test_leading_power_blocks_are_the_frozen_dense_loop_bit_for_bit(m, size):
    # W's columns past k are exact zeros: skipping them keeps every bit,
    # for orders below m, at m and past it
    from kostant_toda.core import dense_stack, leading_power_blocks

    states = [random_state(seed, m) for seed in range(size)]
    stack = dense_stack(*(np.stack([getattr(s, x) for s in states]) for x in "abc"))
    for n_max in (1, m // 2, m - 1, m, m + 10):
        got = leading_power_blocks(stack, n_max)
        assert got.tobytes() == _frozen_leading_power_blocks(stack, n_max).tobytes()


@pytest.mark.parametrize("m", [4, 12, 64])
def test_leading_row_slab_is_the_first_rows_of_the_dense_stack(m):
    # the slab of min(m, n_max + 1) rows gives the power blocks of the
    # whole J bit for bit, for orders below m - 1, at m - 1 and past m
    from kostant_toda.core import dense_stack, leading_power_blocks

    states = [random_state(seed, m) for seed in range(3)]
    bands = [np.stack([getattr(s, x) for s in states]) for x in "abc"]
    full = dense_stack(*bands)
    for rows in range(1, m + 1):
        assert dense_stack(*bands, rows).tobytes() == full[:, :rows].tobytes()
    for n_max in (0, 1, m // 2, m - 2, m - 1, m, m + 10):
        slab = dense_stack(*bands, min(m, n_max + 1))
        got = leading_power_blocks(slab, n_max)
        assert got.tobytes() == leading_power_blocks(full, n_max).tobytes()


def _frozen_random_state(seed, m):
    """The sampler with two scalar rng.uniform draws per pair (test oracle)."""
    rng = np.random.default_rng(seed)

    def draw(n, r_min=0.0):
        out = np.empty(n, dtype=np.complex128)
        k = 0
        while k < n:
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if r_min <= abs(z) <= 1.0:
                out[k] = z
                k += 1
        return out

    return draw(m), draw(m - 1), draw(m - 2, r_min=0.2)


@pytest.mark.parametrize("m", [4, 8, 12, 64])
def test_random_state_is_the_frozen_scalar_sampler_bit_for_bit(m):
    for seed in range(200):
        st = random_state(seed, m)
        got = [x.tobytes() for x in (st.a, st.b, st.c)]
        assert got == [x.tobytes() for x in _frozen_random_state(seed, m)], seed


def test_random_state_at_m1024_is_the_frozen_scalar_sampler_bit_for_bit():
    st = random_state(3, 1024)
    got = [x.tobytes() for x in (st.a, st.b, st.c)]
    assert got == [x.tobytes() for x in _frozen_random_state(3, 1024)]


def test_random_state_too_big_to_store_names_its_size():
    # 10^12 entries, 14.6 TiB: the allocation fails at once
    with pytest.raises(ValueError, match=r"cannot store the instance.*\(1000000000000,\)"):
        random_state(0, 10**12)


def test_dense_stack_lays_out_each_state_bands():
    from kostant_toda.core import dense_stack

    states = [random_state(seed, 8) for seed in range(3)]
    stack = dense_stack(*(np.stack([getattr(s, x) for s in states]) for x in "abc"))
    for J, s in zip(stack, states):
        bands = np.diag(s.a) + np.diag(np.ones(7), 1)
        bands += np.diag(s.b, -1) + np.diag(s.c, -2)
        assert J.tobytes() == bands.tobytes()


def test_norm_bound_stack_is_norm_bound_at_every_sample():
    from kostant_toda import IntegratorConfig, integrate
    from kostant_toda.core import norm_bound_stack

    traj = integrate(random_state(0, 12), IntegratorConfig(t_end=0.05, h=1e-3))
    expect = []
    for i in range(traj.n_samples):  # row sums added |c| + |b| + |a| + 1
        st = traj.state_at(i)
        rows = np.concatenate([[0.0, 0.0], np.abs(st.c)])
        rows = rows + np.concatenate([[0.0], np.abs(st.b)]) + np.abs(st.a) + 1.0
        expect.append(float(np.max(rows)))
    assert norm_bound_stack(traj.a, traj.b, traj.c).tolist() == expect
    assert [norm_bound(traj.state_at(i)) for i in range(traj.n_samples)] == expect


@pytest.mark.parametrize("field", ["a", "b", "c", "t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_nonfinite_entries(field, bad):
    bands = {"a": np.zeros(6, dtype=complex), "b": np.ones(5, dtype=complex),
             "c": np.ones(4, dtype=complex)}
    if field == "t":
        bands["t"] = bad
    else:
        bands[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        LatticeState(**bands)
