import numpy as np
import pytest

from jacobi_oracle import NoConvergence, jacobi_eig
from qkdsec.linalg import (
    coset_leader_table,
    eigvals_of_factored_sum,
    gf2_matvec,
    gf2_rank,
    hermitian_eig,
    int_to_bits,
    bits_to_int,
    psd_factor,
    psd_sqrt,
)

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


def test_gf2_helpers():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert gf2_rank(h) == 2
    assert gf2_rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1
    assert bits_to_int(int_to_bits(11, 5)) == 11
    # little-endian: 0b011 -> bits (1, 1, 0)
    assert list(gf2_matvec(h, int_to_bits(0b011, 3))) == [0, 1]


def test_coset_leaders_min_weight():
    h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    table = coset_leader_table(h)
    assert table[0] == 0
    for syn in range(4):
        e = int(table[syn])
        assert bits_to_int(gf2_matvec(h, int_to_bits(e, 3))) == syn
        # no lighter pattern with the same syndrome
        for other in range(8):
            if bin(other).count("1") < bin(e).count("1"):
                assert bits_to_int(gf2_matvec(h, int_to_bits(other, 3))) != syn
