"""Hermitian spectra, PSD square roots and factors, plus GF(2) helpers.

Every spectrum comes from LAPACK.  The state-level code (``qstate``,
``metrics``) and the PSD helpers here go through :func:`hermitian_eig`,
which the test suite cross-checks against an independent cyclic-Jacobi
oracle.  Three callers use ``np.linalg.eigvalsh`` directly:
``bb84._trace_norms`` on a batch of stacked sector matrices,
``eigvals_of_factored_sum`` below on its small Gram-side matrices, and the
property suite's random effects (``metrics._helstrom_trial``).

:func:`hermitian_eig`, :func:`psd_sqrt`, :func:`psd_factor`,
:func:`eigvals_of_factored_sum` and :func:`trace_norm_of_factored_sum` take
one matrix or a stack of them (a leading axis).  A matrix is the stack of
one, through the same code, and a stack gives bit for bit the results of
its slices taken one at a time: LAPACK and BLAS run once per slice either
way, and a stack saves the Python and numpy overhead of each call, which at
dimension 8 and below costs more than the spectrum.

``eigvals_of_factored_sum`` is the fast path for low-rank combinations
sum_j c_j v_j v_j^dagger, which the branch gaps of ``metrics``
(``_branch_gaps``) reduce to: the nonzero eigenvalues of V C V^dagger equal
those of the small Hermitian matrix G^{1/2} C G^{1/2} with G = V^dagger V.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RANK_CUTOFF


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors as the columns of ``v``, so ``v @ diag(w) @ v.conj().T``
    reconstructs the input.  The input is symmetrised before the LAPACK
    call; sizes 0 and 1 take the closed form.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape, dtype=complex)
    if n == 1:
        return a[..., 0].real.copy(), np.ones(a.shape, dtype=complex)
    return np.linalg.eigh(0.5 * (a + _adjoint(a)))


def psd_sqrt(matrix, *, rel_cutoff: float = 0.0) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each of a stack.

    Eigenvalues at or below ``rel_cutoff`` times the largest one (and every
    negative one) are set to zero first.  The default only clips tiny
    negatives; Gram matrices pass :data:`RANK_CUTOFF`, because their
    near-null directions are float noise whose square roots would inject
    sqrt(ulp)-sized artifacts into downstream trace norms.
    """
    w, v = hermitian_eig(matrix)
    w = np.where(w > rel_cutoff * w.max(axis=-1, initial=0.0, keepdims=True), w, 0.0)
    return (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)


def psd_factor(matrix):
    """Factor a PSD matrix as F F^dagger; returns (F, min_eigenvalue).

    Columns of F are sqrt(lambda) * eigenvector.  Eigenvalues at or below
    :data:`RANK_CUTOFF` times the largest one are dropped: such directions
    are numerical junk whose square roots would otherwise pollute downstream
    trace norms at the sqrt-ulp scale; a factor that keeps no column is one
    zero column.  The minimum eigenvalue is returned so the caller can decide
    whether mild negativity is within tolerance.  For a stack, F is a list
    with one factor per matrix, and the minima are an array.
    """
    a = np.asarray(matrix, dtype=complex)
    w, v = hermitian_eig(a[None] if a.ndim == 2 else a)
    n = w.shape[-1]
    wmin = w.min(axis=-1) if n else np.zeros(len(w))
    keep = w > RANK_CUTOFF * w.max(axis=-1, initial=0.0, keepdims=True)
    # the eigenvalues ascend, so the kept columns are the last ones
    scaled = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    factors = [np.ascontiguousarray(f[:, n - k:]) if k else np.zeros((n, 1), dtype=complex)
               for f, k in zip(scaled, keep.sum(axis=-1).tolist())]
    return (factors[0], float(wmin[0])) if a.ndim == 2 else (factors, wmin)


def eigvals_of_factored_sum(columns, coeffs) -> np.ndarray:
    """Nonzero eigenvalues of sum_j coeffs[j] * columns[:,j] columns[:,j]^dagger.

    ``columns`` is a (dim, m) array, or a (stack, dim, m) stack with
    (stack, m) ``coeffs``; the result is the full spectrum of the m x m
    matrix G^{1/2} C G^{1/2}, which carries every nonzero eigenvalue of the
    dim x dim combination.
    """
    cols = np.asarray(columns, dtype=complex)
    c = np.asarray(coeffs, dtype=float)
    if cols.shape[-1] != c.shape[-1] or cols.ndim != c.ndim + 1:
        raise ValueError("one coefficient required per column")
    if cols.shape[-1] == 0:
        return np.zeros(c.shape)
    gh = psd_sqrt(_adjoint(cols) @ cols, rel_cutoff=RANK_CUTOFF)
    h = gh @ (c[..., :, None] * gh)
    return np.linalg.eigvalsh(0.5 * (h + _adjoint(h)))


def trace_norm_of_factored_sum(columns, coeffs):
    """Trace norm of the combination: a float, or an array for a stack."""
    norms = np.abs(eigvals_of_factored_sum(columns, coeffs)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


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
