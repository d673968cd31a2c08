import numpy as np
import pytest

from jacobi_oracle import NoConvergence, jacobi_eig
from qkdsec.linalg import (
    coset_leader_table,
    eigvals_of_factored_sum,
    gf2_rank,
    hermitian_eig,
    psd_factor,
    psd_sqrt,
    trace_norm_of_factored_sum,
)
from qkdsec.protocols.hashing import default_code_matrices

DIMS = [1, 2, 3, 5, 8, 16, 64]


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


@pytest.mark.parametrize("dim", DIMS)
def test_jacobi_matches_lapack(dim):
    m = _random_hermitian(dim, dim)
    w, v = jacobi_eig(m)
    assert np.all(np.diff(w) >= -1e-12)
    recon = (v * w) @ v.conj().T
    assert np.abs(recon - m).max() <= 1e-9
    assert np.abs(w - np.linalg.eigvalsh(m)).max() <= 1e-8
    # orthonormal eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-9


@pytest.mark.parametrize("dim", DIMS)
def test_hermitian_eig_matches_oracle(dim):
    m = _random_hermitian(dim, 1000 + dim)
    w, v = hermitian_eig(m)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.abs(w - jacobi_eig(m)[0]).max() <= 1e-8
    assert np.abs(w - np.linalg.eigvalsh(m)).max() <= 1e-8
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-9
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-9


def test_jacobi_simple_values():
    w, _ = jacobi_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = jacobi_eig(x)
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvectors reconstruct Pauli X
    assert np.abs((v * w) @ v.conj().T - x).max() <= 1e-12


def test_jacobi_trace_invariance_dim64():
    rng = np.random.default_rng(99)
    m = rng.normal(size=(64, 64))
    m = m + m.T
    w, _ = jacobi_eig(m)
    assert abs(w.sum() - np.trace(m)) <= 1e-9


def test_jacobi_sweep_cap():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergence):
        jacobi_eig(m, max_sweeps=0)


def test_factored_sum_matches_direct():
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    coeffs = rng.normal(size=5)
    direct = sum(c * np.outer(cols[:, j], cols[:, j].conj())
                 for j, c in enumerate(coeffs))
    want = np.abs(np.linalg.eigvalsh(direct)).sum()
    got = np.abs(eigvals_of_factored_sum(cols, coeffs)).sum()
    assert abs(got - want) <= 1e-9


def test_psd_helpers():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    root = psd_sqrt(m)
    assert np.abs(root @ root - m).max() <= 1e-8
    f, wmin = psd_factor(m)
    assert wmin >= -1e-12
    assert np.abs(f @ f.conj().T - m).max() <= 1e-8


def _psd_stack(count, dim, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, dim, rank)) + 1j * rng.normal(size=(count, dim, rank))
    return g @ g.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_stacked_calls_match_each_slice_bit_for_bit(dim):
    # a stack is a loop over its slices in one call: the same floats, not
    # close ones; the zero matrix's factor keeps no column
    stack = np.concatenate([_psd_stack(4, dim, max(1, dim // 2), dim),
                            np.zeros((1, dim, dim)), _psd_stack(2, dim, dim, 50 + dim)])
    w, v = hermitian_eig(stack)
    factors, wmin = psd_factor(stack)
    roots = psd_sqrt(stack)
    assert len(factors) == len(stack) and wmin.shape == (len(stack),)
    for i, m in enumerate(stack):
        wi, vi = hermitian_eig(m)
        fi, mi = psd_factor(m)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
        assert np.array_equal(factors[i], fi) and wmin[i] == mi
        assert np.array_equal(roots[i], psd_sqrt(m))
    assert np.array_equal(factors[4], np.zeros((dim, 1)))
    rng = np.random.default_rng(dim)
    for m in (1, 2, dim + 1):
        cols = rng.normal(size=(5, dim, m)) + 1j * rng.normal(size=(5, dim, m))
        coeffs = rng.normal(size=(5, m))
        norms = trace_norm_of_factored_sum(cols, coeffs)
        assert norms.shape == (5,)
        for i in range(5):
            one = trace_norm_of_factored_sum(cols[i], coeffs[i])
            assert type(one) is float and norms[i] == one


def test_stack_edge_sizes():
    # sizes 0 and 1 take the closed form per slice, and an empty stack is empty
    w, v = hermitian_eig(np.array([[[2.0 + 1e-3j]], [[-0.5]]]))
    assert w.tolist() == [[2.0], [-0.5]] and v.shape == (2, 1, 1)
    w, v = hermitian_eig(np.zeros((3, 0, 0)))
    assert w.shape == (3, 0) and v.shape == (3, 0, 0)
    factors, wmin = psd_factor(np.zeros((2, 0, 0)))
    assert [f.shape for f in factors] == [(0, 1), (0, 1)] and wmin.tolist() == [0.0, 0.0]
    w, _ = hermitian_eig(np.zeros((0, 4, 4)))
    assert w.shape == (0, 4)
    assert trace_norm_of_factored_sum(np.zeros((3, 4, 0)), np.zeros((3, 0))).tolist() == \
        [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        trace_norm_of_factored_sum(np.zeros((2, 4, 3)), np.zeros(3))


def _syndrome(h, e) -> int:
    """Syndrome of pattern e, little-endian: bit i of e is position i, bit r
    of the result is row r."""
    bits = [(e >> i) & 1 for i in range(len(h[0]))]
    return sum((sum(int(x) * b for x, b in zip(row, bits)) % 2) << r
               for r, row in enumerate(h))


def _loop_coset_leaders(h):
    """Reference: patterns by (weight, value), each syndrome keeps its first."""
    h = np.asarray(h, dtype=np.uint8) % 2
    rows, width = h.shape
    table = -np.ones(2 ** rows, dtype=np.int64)
    for e in sorted(range(2 ** width), key=lambda e: (bin(e).count("1"), e)):
        syn = _syndrome(h, e)
        if table[syn] < 0:
            table[syn] = e
    if np.any(table < 0):
        raise ValueError("syndrome map of H is not surjective; H has dependent rows")
    return table


def test_gf2_helpers():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert gf2_rank(h) == 2
    assert gf2_rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1
    # little-endian: position 0 alone gives syndrome 0b01, position 2 alone 0b10
    assert list(coset_leader_table(h)) == [0, 0b001, 0b100, 0b010]


def test_coset_leaders_min_weight():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    table = coset_leader_table(h)
    assert table[0] == 0
    for syn in range(4):
        e = int(table[syn])
        assert _syndrome(h, e) == syn
        # no lighter pattern with the same syndrome
        for other in range(8):
            if bin(other).count("1") < bin(e).count("1"):
                assert _syndrome(h, other) != syn


def test_coset_leaders_match_the_loop():
    # random H at every width and row count, dependent rows included, and the
    # H that default_code_matrices draws
    rng = np.random.default_rng(11)
    cases = [rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
             for width in range(1, 10) for rows in range(1, width + 1) for _ in range(3)]
    cases += [default_code_matrices(width, rows, 1, seed)[0]
              for width in range(2, 10) for rows in range(1, width) for seed in (1, 3)]
    refused = 0
    for h in cases:
        try:
            want = _loop_coset_leaders(h)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="not surjective"):
                coset_leader_table(h)
            continue
        got = coset_leader_table(h)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), h
    assert 0 < refused < len(cases)
