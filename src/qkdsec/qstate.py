"""Exact finite-dimensional quantum/classical state kernel.

Density operators carry an explicit tensor factorisation (``dims``) and an
explicit trace mass, so subnormalised conditional states are first-class.
Classical-quantum states are stored as weighted classical branches whose
quantum parts are kept in factored form ``F F^dagger`` — pure branches are a
single column, mixed branches several — which keeps every downstream distance
computation a small Gram-matrix eigenproblem.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import tolerances as tol
from .linalg import hermitian_eig, psd_factor, psd_sqrt

__all__ = [
    "StateError",
    "NotHermitian",
    "NotPSD",
    "BadTrace",
    "DimMismatch",
    "DimensionCap",
    "EmptyKeep",
    "DuplicateAssignment",
    "AlphabetMismatch",
    "RegisterMismatch",
    "NotFinite",
    "DensityOperator",
    "ClassicalDistribution",
    "Register",
    "CQBranch",
    "CQState",
    "Povm",
    "KrausChannel",
    "hermitian_eig",
    "make_density",
    "make_povm",
    "make_channel",
    "validate",
    "tensor_product",
    "partial_trace",
    "apply_channel",
    "measure_povm",
    "make_cq",
    "flatten_cq",
    "cq_from_density",
    "tensor_cq",
    "random_density",
    "random_channel",
    "stinespring",
    "identity_channel",
    "depolarizing_channel",
    "maximally_mixed",
    "pure_state",
    "basis_povm",
    "save_matrix",
    "load_matrix",
    "save_cq_fixture",
    "load_cq_fixture",
]


class StateError(ValueError):
    """Base class for state-construction and dimension errors."""


class NotHermitian(StateError):
    pass


class NotPSD(StateError):
    pass


class BadTrace(StateError):
    pass


class NotFinite(StateError):
    """Input holds NaN or an infinity."""


class DimMismatch(StateError):
    pass


class DimensionCap(StateError):
    pass


class EmptyKeep(StateError):
    pass


class DuplicateAssignment(StateError):
    pass


class AlphabetMismatch(StateError):
    pass


class RegisterMismatch(StateError):
    pass


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace (or subnormalised) operator over labelled factors."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    trace_mass: float

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims)) if self.dims else 1


def make_density(matrix, dims=None, *, renormalize: bool = False,
                 max_dim: int = tol.DIM_CAP) -> DensityOperator:
    """Validate and build a :class:`DensityOperator`.

    The input is symmetrised to (M + M^dagger)/2 before validation; eigenvalues
    in [-PSD_TOL, 0) are clipped to zero without renormalising unless
    ``renormalize`` is set, in which case the state is scaled to trace one.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"density matrix must be square, got shape {m.shape}")
    d = m.shape[0]
    if dims is None:
        dims = (d,)
    dims = tuple(int(x) for x in dims)
    if any(x < 1 for x in dims):
        raise DimMismatch(f"every factor dimension must be >= 1, got {dims}")
    if int(np.prod(dims)) != d:
        raise DimMismatch(f"prod(dims)={int(np.prod(dims))} does not match matrix size {d}")
    if d > max_dim:
        raise DimensionCap(f"total dimension {d} exceeds cap {max_dim}")
    if not np.isfinite(m).all():
        raise NotFinite("density matrix has a NaN or infinite entry")

    herm_defect = float(np.abs(m - m.conj().T).max()) if d else 0.0
    if herm_defect > tol.HERMITIAN_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: max |M - M^dagger| = {herm_defect:.3e} "
            f"exceeds {tol.HERMITIAN_TOL:.0e}")
    m = 0.5 * (m + m.conj().T)

    w, v = hermitian_eig(m)
    wmin = float(w.min())
    if wmin < -tol.PSD_TOL:
        raise NotPSD(
            f"matrix is not positive semidefinite: min eigenvalue {wmin:.3e} "
            f"below -{tol.PSD_TOL:.0e}")
    if wmin < 0.0:
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m = 0.5 * (m + m.conj().T)

    trace = float(np.trace(m).real)
    if renormalize:
        if trace <= 0.0:
            raise BadTrace("cannot renormalise a zero-trace matrix")
        m = m / trace
        trace = 1.0
    if trace < -tol.TRACE_TOL or trace > 1.0 + tol.TRACE_TOL:
        raise BadTrace(
            f"trace {trace:.12g} outside [0, 1] by more than {tol.TRACE_TOL:.0e}")
    return DensityOperator(dims=dims, matrix=_frozen(m), trace_mass=min(max(trace, 0.0), 1.0))


def _wrap(matrix: np.ndarray, dims: tuple[int, ...], trace_mass: float) -> DensityOperator:
    # Internal constructor for operations that preserve validity analytically.
    return DensityOperator(dims=dims, matrix=_frozen(matrix), trace_mass=trace_mass)


def validate(state: DensityOperator) -> DensityOperator:
    """Re-run the construction invariants; idempotent on valid states."""
    out = make_density(state.matrix, state.dims)
    if abs(out.trace_mass - state.trace_mass) > tol.TRACE_TOL:
        raise BadTrace(
            f"stored trace_mass {state.trace_mass!r} differs from trace "
            f"{out.trace_mass!r} by more than {tol.TRACE_TOL:.0e}")
    return out


def tensor_product(a: DensityOperator, b: DensityOperator, *,
                   max_dim: int = tol.DIM_CAP) -> DensityOperator:
    total = a.dim * b.dim
    if total > max_dim:
        raise DimensionCap(f"tensor product dimension {total} exceeds cap {max_dim}")
    return _wrap(np.kron(a.matrix, b.matrix), a.dims + b.dims,
                 a.trace_mass * b.trace_mass)


def partial_trace(s: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    keep = sorted(set(int(k) for k in keep))
    n = len(s.dims)
    if not keep:
        raise EmptyKeep("keep set must name at least one factor")
    if any(k < 0 or k >= n for k in keep):
        raise DimMismatch(f"keep indices {keep} out of range for {n} factors")
    drop = [i for i in range(n) if i not in keep]
    tensor = s.matrix.reshape(s.dims + s.dims)
    for count, i in enumerate(sorted(drop, reverse=True)):
        m = n - count  # current number of factors per side
        tensor = np.trace(tensor, axis1=i, axis2=m + i)
    kept_dims = tuple(s.dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return _wrap(tensor.reshape(d, d), kept_dims, s.trace_mass)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by a Kraus family.

    Operators map ``in_dim`` to ``out_dim``; ``out_dims`` records the factor
    structure of the output space (a dilated channel keeps its environment as
    an extra factor).
    """

    kraus_ops: tuple[np.ndarray, ...]
    out_dims: tuple[int, ...]

    @property
    def in_dim(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def make_channel(kraus_ops: Sequence, out_dims=None) -> KrausChannel:
    ops = tuple(np.array(k, dtype=complex) for k in kraus_ops)
    if not ops:
        raise DimMismatch("a channel needs at least one Kraus operator")
    out_dim, in_dim = ops[0].shape
    if any(o.shape != (out_dim, in_dim) for o in ops):
        raise DimMismatch("all Kraus operators must share one shape")
    if not all(np.isfinite(o).all() for o in ops):
        raise NotFinite("Kraus operator has a NaN or infinite entry")
    total = sum(o.conj().T @ o for o in ops)
    defect = float(np.abs(total - np.eye(in_dim)).max())
    if defect > tol.CHANNEL_TOL:
        raise DimMismatch(
            f"channel is not trace preserving: |sum K^dagger K - I| = {defect:.3e}")
    if out_dims is None:
        out_dims = (out_dim,)
    out_dims = tuple(int(x) for x in out_dims)
    if int(np.prod(out_dims)) != out_dim:
        raise DimMismatch(f"out_dims {out_dims} inconsistent with operator rows {out_dim}")
    return KrausChannel(tuple(_frozen(o) for o in ops), out_dims)


def identity_channel(dim: int = 2) -> KrausChannel:
    return make_channel([np.eye(dim)])


def depolarizing_channel(q: float, *, keep_environment: bool = False) -> KrausChannel:
    """Qubit depolarising noise with probability ``q``.

    With ``keep_environment`` the Stinespring dilation is returned instead:
    a single isometry into qubit (x) four-dimensional environment, which is
    the attack variant where the eavesdropper retains the purifying system.
    """
    if not 0.0 <= q <= 1.0:
        raise DimMismatch(f"depolarising probability {q} outside [0, 1]")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    weights = [1.0 - 0.75 * q, 0.25 * q, 0.25 * q, 0.25 * q]
    paulis = [np.eye(2, dtype=complex), sx, sy, sz]
    kraus = [np.sqrt(w) * p for w, p in zip(weights, paulis)]
    if not keep_environment:
        return make_channel(kraus)
    return stinespring(make_channel(kraus))


def stinespring(ch: KrausChannel) -> KrausChannel:
    """Dilate a channel to a single isometry with an appended environment factor."""
    k = len(ch.kraus_ops)
    v = np.zeros((ch.out_dim * k, ch.in_dim), dtype=complex)
    for j, op in enumerate(ch.kraus_ops):
        env = np.zeros((k, 1), dtype=complex)
        env[j, 0] = 1.0
        v += np.kron(op, env)
    return make_channel([v], out_dims=ch.out_dims + (k,))


def apply_channel(ch: KrausChannel, s: DensityOperator, factor: int) -> DensityOperator:
    n = len(s.dims)
    if factor < 0 or factor >= n:
        raise DimMismatch(f"factor {factor} out of range for {n} factors")
    if ch.in_dim != s.dims[factor]:
        raise DimMismatch(
            f"channel acts on dimension {ch.in_dim}, factor {factor} has "
            f"dimension {s.dims[factor]}")
    left = int(np.prod(s.dims[:factor])) if factor else 1
    right = int(np.prod(s.dims[factor + 1:])) if factor + 1 < n else 1
    new_dims = s.dims[:factor] + ch.out_dims + s.dims[factor + 1:]
    if int(np.prod(new_dims)) > tol.DIM_CAP:
        raise DimensionCap(f"channel output dimension {int(np.prod(new_dims))} exceeds cap")
    out = np.zeros((left * ch.out_dim * right,) * 2, dtype=complex)
    for op in ch.kraus_ops:
        lifted = np.kron(np.kron(np.eye(left), op), np.eye(right))
        out += lifted @ s.matrix @ lifted.conj().T
    return _wrap(0.5 * (out + out.conj().T), new_dims, s.trace_mass)


@dataclass(frozen=True)
class ClassicalDistribution:
    alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(self.alphabet) != p.shape[0]:
            raise AlphabetMismatch("one probability per symbol required")
        if p.size and float(p.min()) < -tol.PROB_TOL:
            raise BadTrace(f"negative probability {float(p.min()):.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > tol.PROB_TOL:
            raise BadTrace(f"probabilities sum to {total!r}, not 1 within {tol.PROB_TOL:.0e}")
        object.__setattr__(self, "probs", _frozen(np.clip(p, 0.0, None)))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))

    def prob(self, symbol) -> float:
        return float(self.probs[self.alphabet.index(symbol)])


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: labelled elements summing to identity."""

    labels: tuple
    elements: tuple[np.ndarray, ...]
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def make_povm(labels, elements, dims=None) -> Povm:
    labels = tuple(labels)
    ops = tuple(np.array(e, dtype=complex) for e in elements)
    if len(labels) != len(ops):
        raise AlphabetMismatch("one label per element required")
    d = ops[0].shape[0]
    if dims is None:
        dims = (d,)
    dims = tuple(int(x) for x in dims)
    if int(np.prod(dims)) != d:
        raise DimMismatch("prod(dims) does not match element size")
    total = np.zeros((d, d), dtype=complex)
    for op in ops:
        if op.shape != (d, d):
            raise DimMismatch("POVM elements must share one shape")
        if not np.isfinite(op).all():
            raise NotFinite("POVM element has a NaN or infinite entry")
        herm = float(np.abs(op - op.conj().T).max())
        if herm > tol.HERMITIAN_TOL:
            raise NotHermitian(f"POVM element not Hermitian (defect {herm:.3e})")
        w = hermitian_eig(op)[0]
        if w.min() < -tol.POVM_ELEM_TOL or w.max() > 1.0 + tol.POVM_ELEM_TOL:
            raise NotPSD(
                f"POVM element eigenvalues [{w.min():.3e}, {w.max():.3e}] "
                "outside [0, 1]")
        total += op
    defect = float(np.abs(total - np.eye(d)).max())
    if defect > tol.POVM_SUM_TOL:
        raise BadTrace(f"POVM elements sum to identity defect {defect:.3e}")
    return Povm(labels, tuple(_frozen(o) for o in ops), dims)


def basis_povm(dim: int = 2) -> Povm:
    eye = np.eye(dim, dtype=complex)
    return make_povm(tuple(range(dim)), [np.outer(eye[i], eye[i]) for i in range(dim)], (dim,))


# --- classical-quantum states -------------------------------------------------

@dataclass(frozen=True)
class Register:
    name: str
    alphabet: tuple

    def index(self, value) -> int:
        return self.alphabet.index(value)


@dataclass(frozen=True)
class CQBranch:
    """One classical branch: assignment, weight, and factored quantum part.

    The branch operator is ``weight * factor @ factor.conj().T`` with the
    factor normalised to unit trace (``tr F F^dagger = 1``) whenever the
    weight is positive.
    """

    assignment: tuple
    weight: float
    factor: np.ndarray

    def operator(self) -> np.ndarray:
        return self.weight * (self.factor @ self.factor.conj().T)


@dataclass(frozen=True)
class CQState:
    registers: tuple[Register, ...]
    branches: tuple[CQBranch, ...]
    quantum_dims: tuple[int, ...]
    trace_mass: float = 1.0

    @property
    def quantum_dim(self) -> int:
        return int(np.prod(self.quantum_dims)) if self.quantum_dims else 1

    def register_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    def branch_map(self) -> dict:
        return {b.assignment: b for b in self.branches}


def _canonical_factor(op, qdim: int) -> tuple[np.ndarray, float]:
    """Normalise a branch quantum part to (unit-trace factor, trace)."""
    arr = np.array(op, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[0] != qdim:
        raise DimMismatch(
            f"branch operator lives on dimension {arr.shape[0]}, expected {qdim}")
    # a NaN or infinite entry anywhere makes the squared norm non-finite;
    # checked first, so that no arithmetic below meets such an entry
    trace = float(np.vdot(arr, arr).real)
    if not math.isfinite(trace):
        raise NotFinite(f"branch operator is not finite (squared norm {trace})")
    if arr.shape[0] == arr.shape[1]:
        herm = float(np.abs(arr - arr.conj().T).max())
        if herm <= tol.HERMITIAN_TOL:
            # Square Hermitian input: treat as a density matrix and factor it.
            f, wmin = psd_factor(0.5 * (arr + arr.conj().T))
            if wmin < -tol.PSD_TOL:
                raise NotPSD(f"branch operator has eigenvalue {wmin:.3e}")
            arr = f
            trace = float(np.vdot(arr, arr).real)
        # Square non-Hermitian input is taken to be a factor already.
    if trace <= 0.0:
        return np.zeros((qdim, 1), dtype=complex), 0.0
    return arr / np.sqrt(trace), trace


def _scalar_factor(op) -> tuple[np.ndarray, float] | None:
    """:func:`_canonical_factor` of a scalar branch when there is no quantum part.

    Repeats its arithmetic bit for bit on Python floats: the squared norm,
    the Hermiticity probe (|z - conj z| = |2 Im z|), the closed-form 1x1
    ``psd_factor`` (the real part kept above the rank cutoff, then its
    square root) and the trace re-taken from that root.  Returns None where
    the general path decides: a non-finite squared norm (so that its
    ``NotFinite`` message is the same) and a non-Hermitian scalar, which it
    takes as a factor.
    """
    z = complex(op)
    re, im = z.real, z.imag
    if not math.isfinite(re * re + im * im) or abs(2.0 * im) > tol.HERMITIAN_TOL:
        return None
    if re < -tol.PSD_TOL:
        raise NotPSD(f"branch operator has eigenvalue {re:.3e}")
    if not re > tol.RANK_CUTOFF * max(re, 0.0):
        return np.zeros((1, 1), dtype=complex), 0.0
    root = math.sqrt(re)
    trace = root * root
    # numpy divides the complex factor root + 0j by the real sqrt(trace) as
    # root * (1 / sqrt(trace)) (Smith's algorithm with a zero imaginary part)
    return _unit_column(root * (1.0 / math.sqrt(trace))), trace


@lru_cache(maxsize=64)
def _unit_column(value: float) -> np.ndarray:
    # the normalised 1x1 factor is within an ulp of 1, so a few shared
    # read-only arrays serve every scalar branch
    return _frozen(np.full((1, 1), value, dtype=complex))


def make_cq(registers, branches, quantum_dims=()) -> CQState:
    """Build a validated classical-quantum state.

    ``registers`` is a sequence of ``(name, alphabet)`` pairs or
    :class:`Register` values; each branch is ``(assignment, weight, op)``
    where ``op`` is a density matrix on the quantum factors or a factor with
    columns (pure branches may pass a vector).
    """
    regs = tuple(r if isinstance(r, Register) else Register(r[0], tuple(r[1]))
                 for r in registers)
    qdims = tuple(int(d) for d in quantum_dims)
    qdim = int(np.prod(qdims)) if qdims else 1
    alphabets = [frozenset(r.alphabet) for r in regs]
    seen = set()
    out = []
    mass = 0.0
    for assignment, weight, op in branches:
        assignment = tuple(assignment) if isinstance(assignment, (tuple, list)) else (assignment,)
        if len(assignment) != len(regs):
            raise RegisterMismatch(
                f"assignment {assignment} has {len(assignment)} values for "
                f"{len(regs)} registers")
        for reg, alphabet, value in zip(regs, alphabets, assignment):
            if value not in alphabet:
                raise AlphabetMismatch(f"value {value!r} not in alphabet of register {reg.name}")
        if assignment in seen:
            raise DuplicateAssignment(f"assignment {assignment} appears twice")
        seen.add(assignment)
        weight = float(weight)
        if not math.isfinite(weight):
            raise NotFinite(f"branch weight {weight} is not finite")
        if weight < -tol.PROB_TOL:
            raise BadTrace(f"negative branch weight {weight}")
        if weight <= 0.0:
            continue
        canon = _scalar_factor(op) if qdim == 1 and isinstance(op, numbers.Number) else None
        factor, op_trace = canon if canon is not None else _canonical_factor(op, qdim)
        eff = weight * op_trace
        if eff <= 0.0:
            continue
        mass += eff
        out.append(CQBranch(assignment, eff, _frozen(factor)))
    if mass > 1.0 + tol.TRACE_TOL:
        raise BadTrace(f"branch weights sum to {mass!r} > 1")
    out.sort(key=lambda b: tuple(map(str, b.assignment)))
    return CQState(regs, tuple(out), qdims, trace_mass=mass)


def flatten_cq(c: CQState, *, max_dim: int = tol.DIM_CAP) -> DensityOperator:
    """Embed classical registers as orthonormal basis factors and materialise."""
    reg_dims = tuple(len(r.alphabet) for r in c.registers)
    dims = reg_dims + c.quantum_dims
    total = int(np.prod(dims)) if dims else 1
    if total > max_dim:
        raise DimensionCap(f"flattened dimension {total} exceeds cap {max_dim}")
    qdim = c.quantum_dim
    cdim = total // qdim
    matrix = np.zeros((total, total), dtype=complex)
    for b in c.branches:
        idx = 0
        for reg, value in zip(c.registers, b.assignment):
            idx = idx * len(reg.alphabet) + reg.index(value)
        op = b.operator()
        lo = idx * qdim
        matrix[lo:lo + qdim, lo:lo + qdim] += op
    del cdim
    return _wrap(matrix, dims if dims else (1,), min(c.trace_mass, 1.0))


def cq_from_density(rho: DensityOperator, registers) -> CQState:
    """Split the leading factors of a density operator back into classical registers.

    Off-diagonal classical blocks must vanish within the Hermitian tolerance;
    this inverts :func:`flatten_cq`.
    """
    regs = tuple(r if isinstance(r, Register) else Register(r[0], tuple(r[1]))
                 for r in registers)
    reg_dims = tuple(len(r.alphabet) for r in regs)
    k = len(reg_dims)
    if rho.dims[:k] != reg_dims:
        raise RegisterMismatch(
            f"leading factors {rho.dims[:k]} do not match register sizes {reg_dims}")
    qdims = rho.dims[k:]
    qdim = int(np.prod(qdims)) if qdims else 1
    cdim = int(np.prod(reg_dims)) if reg_dims else 1
    blocks = rho.matrix.reshape(cdim, qdim, cdim, qdim)
    off = 0.0
    branches = []
    for i in range(cdim):
        for j in range(cdim):
            if i == j:
                continue
            off = max(off, float(np.abs(blocks[i, :, j, :]).max()))
    if off > 10 * tol.HERMITIAN_TOL:
        raise RegisterMismatch(
            f"state is not classical on the named registers (coherence {off:.3e})")
    for i in range(cdim):
        block = blocks[i, :, i, :]
        weight = float(np.trace(block).real)
        if weight <= tol.PROB_TOL:
            continue
        assignment = []
        rem = i
        for d in reversed(reg_dims):
            assignment.append(rem % d)
            rem //= d
        assignment = tuple(regs[j].alphabet[v] for j, v in enumerate(reversed(assignment)))
        branches.append((assignment, weight, block / weight))
    return make_cq(regs, branches, qdims)


def tensor_cq(a: CQState, b: CQState, *, sep: str = ".") -> CQState:
    """Parallel composition of cq states; register names get 1./2. prefixes."""
    regs = tuple(Register(f"1{sep}{r.name}", r.alphabet) for r in a.registers) + \
        tuple(Register(f"2{sep}{r.name}", r.alphabet) for r in b.registers)
    qdims = a.quantum_dims + b.quantum_dims
    branches = []
    for x in a.branches:
        for y in b.branches:
            # factors are already unit-trace canonical; compose directly
            factor = _frozen(np.kron(x.factor, y.factor))
            branches.append(CQBranch(x.assignment + y.assignment,
                                     x.weight * y.weight, factor))
    branches.sort(key=lambda br: tuple(str(v) for v in br.assignment))
    return CQState(regs, tuple(branches), qdims,
                   trace_mass=a.trace_mass * b.trace_mass)


def measure_povm(p: Povm, s, factors=None):
    """Born-rule measurement; returns the outcome distribution and post-state.

    ``factors`` selects which quantum factors the POVM acts on (default all).
    The post-measurement state is a cq state whose new ``outcome`` register
    records the result; branch operators are the standard
    sqrt(Gamma) rho sqrt(Gamma) updates.
    """
    if isinstance(s, CQState):
        return _measure_cq(p, s, factors)
    if factors is None:
        factors = tuple(range(len(s.dims)))
    factors = tuple(sorted(set(int(f) for f in factors)))
    sel_dims = tuple(s.dims[f] for f in factors)
    if int(np.prod(sel_dims)) != p.dim:
        raise DimMismatch(
            f"POVM dimension {p.dim} does not match selected factors {sel_dims}")
    probs = []
    branches = []
    for label, elem in zip(p.labels, p.elements):
        lifted = _lift(elem, s.dims, factors)
        prob = float(np.trace(lifted @ s.matrix).real)
        prob = max(prob, 0.0)
        probs.append(prob)
        if prob > tol.PROB_TOL:
            root = _lift(psd_sqrt(elem), s.dims, factors)
            post = root @ s.matrix @ root.conj().T
            branches.append(((label,), prob, post / prob))
    total = sum(probs)
    if s.trace_mass > tol.PROB_TOL and abs(total - s.trace_mass) > 100 * tol.TRACE_TOL:
        raise BadTrace(f"measurement probabilities sum to {total!r}")
    norm = total if total > 0 else 1.0
    dist = ClassicalDistribution(tuple(p.labels), np.array(probs) / norm)
    post_state = make_cq([("outcome", tuple(p.labels))], branches, s.dims)
    return dist, post_state


def _lift(op: np.ndarray, dims: tuple[int, ...], factors: tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    sel = list(factors)
    rest = [i for i in range(n) if i not in sel]
    sel_dim = int(np.prod([dims[i] for i in sel]))
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(op.reshape(sel_dim, sel_dim), np.eye(rest_dim))
    # big acts on (sel factors..., rest factors...); permute back to original order.
    order = sel + rest
    perm = np.argsort(order)
    tensor = big.reshape(tuple(dims[i] for i in order) * 2)
    tensor = np.transpose(tensor, tuple(perm) + tuple(len(order) + p for p in perm))
    d = int(np.prod(dims))
    return tensor.reshape(d, d)


def _measure_cq(p: Povm, s: CQState, factors):
    if factors is None:
        factors = tuple(range(len(s.quantum_dims)))
    factors = tuple(sorted(set(int(f) for f in factors)))
    sel_dims = tuple(s.quantum_dims[f] for f in factors)
    if int(np.prod(sel_dims)) != p.dim:
        raise DimMismatch(
            f"POVM dimension {p.dim} does not match selected factors {sel_dims}")
    probs = {label: 0.0 for label in p.labels}
    branches = []
    roots = {label: _lift(psd_sqrt(e), s.quantum_dims, factors)
             for label, e in zip(p.labels, p.elements)}
    lifted = {label: _lift(e, s.quantum_dims, factors)
              for label, e in zip(p.labels, p.elements)}
    for b in s.branches:
        op = b.operator()
        for label in p.labels:
            prob = float(np.trace(lifted[label] @ op).real)
            if prob <= tol.PROB_TOL:
                continue
            probs[label] += prob
            post = roots[label] @ op @ roots[label].conj().T
            branches.append((b.assignment + (label,), prob, post / prob))
    regs = list(s.registers) + [Register("outcome", tuple(p.labels))]
    total = sum(probs.values())
    norm = total if total > 0 else 1.0
    dist = ClassicalDistribution(tuple(p.labels),
                                 np.array([probs[l] for l in p.labels]) / norm)
    return dist, make_cq(regs, branches, s.quantum_dims)


# --- constructors and generators ----------------------------------------------

def maximally_mixed(dim: int = 2) -> DensityOperator:
    return _wrap(np.eye(dim, dtype=complex) / dim, (dim,), 1.0)


def pure_state(vector, dims=None) -> DensityOperator:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm <= 0:
        raise BadTrace("zero vector cannot be normalised")
    v = v / norm
    return make_density(np.outer(v, v.conj()), dims if dims is not None else (v.size,))


def random_density(seed: int, dim: int, rank: int) -> DensityOperator:
    """Deterministic Ginibre-construction random state of the given rank."""
    if not 1 <= rank <= dim:
        raise DimMismatch(f"rank {rank} outside [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return make_density(m / np.trace(m).real, (dim,))


def random_channel(seed: int, in_dim: int, out_dim=None, kraus: int = 2) -> KrausChannel:
    """Haar-style random CPTP map built from a random isometry."""
    out_dim = in_dim if out_dim is None else int(out_dim)
    if out_dim * kraus < in_dim:
        raise DimMismatch(
            f"need out_dim * kraus >= in_dim for an isometry, got "
            f"{out_dim} * {kraus} < {in_dim}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(out_dim * kraus, in_dim)) + 1j * rng.normal(size=(out_dim * kraus, in_dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :in_dim]
    ops = [v[j * out_dim:(j + 1) * out_dim, :] for j in range(kraus)]
    return make_channel(ops)


# --- text fixtures --------------------------------------------------------------

def save_matrix(path, state: DensityOperator) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dims " + " ".join(str(d) for d in state.dims) + "\n")
        for row in state.matrix:
            fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


def load_matrix(path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if not header or header[0] != "dims":
            raise DimMismatch(f"{path}: first line must be 'dims d1 d2 ...'")
        dims = tuple(int(x) for x in header[1:])
        d = int(np.prod(dims))
        rows = []
        for _ in range(d):
            parts = fh.readline().split()
            if len(parts) != d:
                raise DimMismatch(f"{path}: expected {d} entries per row")
            rows.append([complex(float(re), float(im))
                         for re, im in (p.split(",") for p in parts)])
    return make_density(np.array(rows), dims)


def save_cq_fixture(path, c: CQState, *, prefix: str = "branch") -> None:
    """One branch per line: ``assignment | weight | matrix-file``."""
    import os

    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as fh:
        for i, b in enumerate(c.branches):
            name = f"{prefix}{i}.mat"
            save_matrix(os.path.join(base, name),
                        _wrap(b.factor @ b.factor.conj().T,
                              c.quantum_dims if c.quantum_dims else (1,), 1.0))
            assignment = ",".join(str(v) for v in b.assignment)
            fh.write(f"{assignment} | {b.weight:.17g} | {name}\n")


def load_cq_fixture(path) -> CQState:
    import os

    base = os.path.dirname(os.path.abspath(path))
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            assignment, weight, name = (p.strip() for p in line.split("|"))
            rows.append((tuple(assignment.split(",")), float(weight),
                         load_matrix(os.path.join(base, name))))
    if not rows:
        raise RegisterMismatch(f"{path}: no branches")
    width = len(rows[0][0])
    alphabets = [tuple(sorted({r[0][i] for r in rows})) for i in range(width)]
    regs = [Register(f"r{i}", alphabets[i]) for i in range(width)]
    qdims = rows[0][2].dims
    return make_cq(regs, [(a, w, m.matrix) for a, w, m in rows], qdims)
