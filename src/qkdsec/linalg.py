"""Hermitian spectra, PSD square roots and factors, plus GF(2) helpers.

Every spectrum in the package comes from LAPACK through
:func:`hermitian_eig`; the test suite cross-checks it against an independent
cyclic-Jacobi oracle.  ``eigvals_of_factored_sum`` is the fast path for
low-rank combinations sum_j c_j v_j v_j^dagger that arise in the protocol
engine: the nonzero eigenvalues of V C V^dagger equal those of the small
Hermitian matrix G^{1/2} C G^{1/2} with G = V^dagger V.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RANK_CUTOFF


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors as the columns of ``v``, so ``v @ diag(w) @ v.conj().T``
    reconstructs the input.  The input is symmetrised before the LAPACK
    call; sizes 0 and 1 take the closed form.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), np.ones((1, 1), dtype=complex)
    return np.linalg.eigh(0.5 * (a + a.conj().T))


def psd_sqrt(matrix, *, rel_cutoff: float = 0.0) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues at or below ``rel_cutoff`` times the largest one (and every
    negative one) are set to zero first.  The default only clips tiny
    negatives; Gram matrices pass :data:`RANK_CUTOFF`, because their
    near-null directions are float noise whose square roots would inject
    sqrt(ulp)-sized artifacts into downstream trace norms.
    """
    w, v = hermitian_eig(matrix)
    cutoff = rel_cutoff * max(float(w.max()), 0.0) if w.size else 0.0
    w = np.where(w > cutoff, w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_factor(matrix):
    """Factor a PSD matrix as F F^dagger; returns (F, min_eigenvalue).

    Columns of F are sqrt(lambda) * eigenvector.  Eigenvalues at or below
    :data:`RANK_CUTOFF` times the largest one are dropped: such directions
    are numerical junk whose square roots would otherwise pollute downstream
    trace norms at the sqrt-ulp scale.  The minimum eigenvalue is returned
    so the caller can decide whether mild negativity is within tolerance.
    """
    w, v = hermitian_eig(matrix)
    wmin = float(w.min()) if w.size else 0.0
    wmax = float(w.max()) if w.size else 0.0
    keep = w > RANK_CUTOFF * max(wmax, 0.0)
    f = v[:, keep] * np.sqrt(w[keep])
    if f.shape[1] == 0:
        f = np.zeros((matrix.shape[0], 1), dtype=complex)
    return f, wmin


def eigvals_of_factored_sum(columns: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of sum_j coeffs[j] * columns[:,j] columns[:,j]^dagger.

    ``columns`` is a (dim, m) array; the result is the full spectrum of the
    m x m matrix G^{1/2} C G^{1/2}, which carries every nonzero eigenvalue of
    the dim x dim combination.
    """
    cols = np.asarray(columns, dtype=complex)
    c = np.asarray(coeffs, dtype=float)
    if cols.shape[1] != c.shape[0]:
        raise ValueError("one coefficient required per column")
    if cols.shape[1] == 0:
        return np.zeros(0)
    gh = psd_sqrt(cols.conj().T @ cols, rel_cutoff=RANK_CUTOFF)
    h = gh @ (c[:, None] * gh)
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def trace_norm_of_factored_sum(columns, coeffs) -> float:
    return float(np.abs(eigvals_of_factored_sum(columns, coeffs)).sum())


# --- GF(2) helpers -----------------------------------------------------------

def gf2_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (np.asarray(m, dtype=np.uint8) @ np.asarray(x, dtype=np.uint8)) % 2


def gf2_rank(m) -> int:
    a = np.array(m, dtype=np.uint8) % 2
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Little-endian bit vector: bit i of ``value`` is position i."""
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits) -> int:
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def coset_leader_table(h: np.ndarray) -> np.ndarray:
    """Minimum-weight error pattern for every syndrome of H.

    Ties break to the numerically smallest pattern (little-endian encoding),
    making nearest-codeword decoding deterministic.
    """
    h = np.asarray(h, dtype=np.uint8) % 2
    rows, width = h.shape
    table = -np.ones(2 ** rows, dtype=np.int64)
    patterns = sorted(range(2 ** width), key=lambda e: (bin(e).count("1"), e))
    for e in patterns:
        syn = bits_to_int(gf2_matvec(h, int_to_bits(e, width)))
        if table[syn] < 0:
            table[syn] = e
    if np.any(table < 0):
        raise ValueError("syndrome map of H is not surjective; H has dependent rows")
    return table
