"""Hermitian spectra, PSD square roots and factors, plus GF(2) helpers.

Every spectrum comes from LAPACK.  The state-level code (``qstate``,
``metrics``) and the PSD helpers here go through :func:`hermitian_eig`,
which the test suite cross-checks against an independent cyclic-Jacobi
oracle.  Three callers use ``np.linalg.eigvalsh`` directly:
``bb84._trace_norms`` on a batch of stacked sector matrices,
``eigvals_of_factored_sum`` below on its small Gram-side matrix, and the
property suite's random-effect generator.

``eigvals_of_factored_sum`` is the fast path for low-rank combinations
sum_j c_j v_j v_j^dagger, which the branch gaps of ``metrics``
(``_branch_gap``) reduce to: the nonzero eigenvalues of V C V^dagger equal
those of the small Hermitian matrix G^{1/2} C G^{1/2} with G = V^dagger V.
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


def coset_leader_table(h: np.ndarray) -> np.ndarray:
    """Minimum-weight error pattern for every syndrome of H.

    Ties break to the numerically smallest pattern (little-endian encoding:
    bit i of a pattern or syndrome is position or row i), making
    nearest-codeword decoding deterministic.  One array pass: the syndromes
    of all 2^width patterns come from one matrix product, and each syndrome
    keeps its least (weight, pattern) key.
    """
    h = np.asarray(h, dtype=np.int64) % 2
    rows, width = h.shape
    patterns = np.arange(1 << width)
    bits = (patterns[:, None] >> np.arange(width)) & 1
    syndromes = (bits @ h.T) % 2 @ (1 << np.arange(rows))
    unreached = (width + 1) << width  # above every key
    best = np.full(1 << rows, unreached)
    np.minimum.at(best, syndromes, bits.sum(axis=1) << width | patterns)
    if np.any(best == unreached):
        raise ValueError("syndrome map of H is not surjective; H has dependent rows")
    return best & ((1 << width) - 1)
