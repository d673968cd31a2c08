"""Cyclic-Jacobi Hermitian eigensolver used as an independent spectral oracle.

Pure Python rotations over numpy rows and columns: slow, but it shares no
code with LAPACK, so agreement with ``qkdsec.linalg.hermitian_eig`` checks the
production spectral path from outside.
"""

from __future__ import annotations

import math

import numpy as np

OFF_DIAGONAL_TARGET = 1e-12  # sweep stopping criterion, relative to max |entry|
MAX_JACOBI_SWEEPS = 100


class NoConvergence(RuntimeError):
    """Jacobi sweep cap was reached before meeting the off-diagonal target."""


def _max_offdiag(a: np.ndarray) -> float:
    n = a.shape[0]
    if n < 2:
        return 0.0
    mask = ~np.eye(n, dtype=bool)
    return float(np.abs(a[mask]).max())


def jacobi_eig(
    matrix,
    *,
    off_target: float = OFF_DIAGONAL_TARGET,
    max_sweeps: int = MAX_JACOBI_SWEEPS,
):
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors as the columns of ``v``, so ``v @ diag(w) @ v.conj().T``
    reconstructs the input.  Raises :class:`NoConvergence` if the
    off-diagonal mass has not dropped below the target after ``max_sweeps``
    full sweeps.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), np.ones((1, 1), dtype=complex)

    scale = max(1.0, float(np.abs(a).max()))
    target = off_target * scale
    skip = target / (10.0 * n)
    v = np.eye(n, dtype=complex)

    converged = False
    for _ in range(max_sweeps):
        if _max_offdiag(a) <= target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) <= skip:
                    continue
                _rotate(a, v, p, q, g)
    else:
        converged = _max_offdiag(a) <= target
    if not converged:
        raise NoConvergence(
            f"off-diagonal {_max_offdiag(a):.3e} above target {target:.3e} "
            f"after {max_sweeps} sweeps (dim {n})"
        )

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, g: complex) -> None:
    # Unitary 2x2 block [[c, sigma], [-conj(sigma), c]] chosen to zero a[p, q].
    absg = abs(g)
    phase = g / absg
    tau = (a[q, q].real - a[p, p].real) / (2.0 * absg)
    sgn = 1.0 if tau >= 0.0 else -1.0
    t = sgn / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    sigma = (t * c) * phase

    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = c * cp - np.conj(sigma) * cq
    a[:, q] = sigma * cp + c * cq
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = c * rp - sigma * rq
    a[q, :] = np.conj(sigma) * rp + c * rq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - np.conj(sigma) * vq
    v[:, q] = sigma * vp + c * vq
