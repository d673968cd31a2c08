"""Exact finite-dimensional quantum/classical state kernel.

Density operators carry an explicit tensor factorisation (``dims``) and an
explicit trace mass, so subnormalised conditional states are first-class.
Classical-quantum states are stored as weighted classical branches whose
quantum parts are kept in factored form ``F F^dagger`` — pure branches are a
single column, mixed branches several — which keeps every downstream distance
computation a small Gram-matrix eigenproblem.  A state holds its branches as
columns: an integer code per assignment, sorted, so that branches are in
alphabet order (first register most significant), a weight array and the
factors.  :func:`make_classical_cq` builds a state with no quantum part from
scalar weights, and :func:`make_classical_cq_columns` from alphabet-index
columns.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import tolerances as tol
from .linalg import hermitian_eig, psd_factor

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
    "tensor_product",
    "partial_trace",
    "apply_channel",
    "make_cq",
    "make_classical_cq",
    "make_classical_cq_columns",
    "flatten_cq",
    "tensor_cq",
    "random_density",
    "random_channel",
    "stinespring",
    "depolarizing_channel",
    "maximally_mixed",
    "pure_state",
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


def make_density(matrix, dims=None) -> DensityOperator:
    """Validate and build a :class:`DensityOperator`.

    The input is symmetrised to (M + M^dagger)/2 before validation; eigenvalues
    in [-PSD_TOL, 0) are clipped to zero without renormalising.
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
    if d > tol.DIM_CAP:
        raise DimensionCap(f"total dimension {d} exceeds cap {tol.DIM_CAP}")
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
    if trace < -tol.TRACE_TOL or trace > 1.0 + tol.TRACE_TOL:
        raise BadTrace(
            f"trace {trace:.12g} outside [0, 1] by more than {tol.TRACE_TOL:.0e}")
    return DensityOperator(dims=dims, matrix=_frozen(m), trace_mass=min(max(trace, 0.0), 1.0))


def _wrap(matrix: np.ndarray, dims: tuple[int, ...], trace_mass: float) -> DensityOperator:
    # Internal constructor for operations that preserve validity analytically.
    return DensityOperator(dims=dims, matrix=_frozen(matrix), trace_mass=trace_mass)


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
        if p.ndim != 1 or len(self.alphabet) != p.shape[0]:
            raise AlphabetMismatch("one probability per symbol required")
        if not np.isfinite(p).all():
            raise NotFinite("distribution has a NaN or infinite probability")
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
    if not ops:
        raise DimMismatch("a POVM needs at least one element")
    d = ops[0].shape[0]
    if dims is None:
        dims = (d,)
    dims = tuple(int(x) for x in dims)
    if int(np.prod(dims)) != d:
        raise DimMismatch("prod(dims) does not match element size")
    # one pass of the entrywise checks, then one stacked range spectrum
    for op in ops:
        if op.shape != (d, d):
            raise DimMismatch("POVM elements must share one shape")
        if not np.isfinite(op).all():
            raise NotFinite("POVM element has a NaN or infinite entry")
        herm = float(np.abs(op - op.conj().T).max())
        if herm > tol.HERMITIAN_TOL:
            raise NotHermitian(f"POVM element not Hermitian (defect {herm:.3e})")
    w = hermitian_eig(np.stack(ops))[0]
    low, high = w.min(axis=1), w.max(axis=1)
    outside = np.flatnonzero((low < -tol.POVM_ELEM_TOL) | (high > 1.0 + tol.POVM_ELEM_TOL))
    if outside.size:
        j = outside[0]
        raise NotPSD(f"POVM element eigenvalues [{low[j]:.3e}, {high[j]:.3e}] outside [0, 1]")
    total = np.zeros((d, d), dtype=complex)
    for op in ops:
        total += op
    defect = float(np.abs(total - np.eye(d)).max())
    if defect > tol.POVM_SUM_TOL:
        raise BadTrace(f"POVM elements sum to identity defect {defect:.3e}")
    return Povm(labels, tuple(_frozen(o) for o in ops), dims)


# --- classical-quantum states -------------------------------------------------

@dataclass(frozen=True)
class Register:
    """A named classical register over a finite alphabet of distinct values.

    ``_positions`` maps each value to its alphabet position.  An alphabet
    that repeats a value, such as ``('a', 'a')`` or ``(1, True)`` (equal in
    Python), raises :class:`AlphabetMismatch`.
    """

    name: str
    alphabet: tuple

    def __post_init__(self):
        if len(self._positions) != len(self.alphabet):
            raise AlphabetMismatch(f"alphabet of register {self.name} repeats a value")

    def index(self, value) -> int:
        return self.alphabet.index(value)

    @cached_property
    def _positions(self) -> dict:
        return {value: i for i, value in enumerate(self.alphabet)}


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


@dataclass(frozen=True, eq=False)
class CQState:
    """A classical-quantum state stored as read-only columns, one entry per branch.

    ``codes`` number the assignments: the mixed-radix number, first register
    most significant, of each value's position in its alphabet.  They are
    sorted and distinct, so branches are in alphabet order.  ``weights`` are
    the branch weights.  ``factors`` are the branches' unit-trace factors,
    or ``None`` when every branch has the shared read-only unit column of a
    classical state.  ``branches`` is a view derived from the columns on
    first use and cached: one :class:`CQBranch` per code, with the alphabet
    values and a ``float`` weight.
    """

    registers: tuple[Register, ...]
    codes: np.ndarray
    weights: np.ndarray
    factors: tuple[np.ndarray, ...] | None
    quantum_dims: tuple[int, ...]
    trace_mass: float = 1.0

    @property
    def quantum_dim(self) -> int:
        return int(np.prod(self.quantum_dims)) if self.quantum_dims else 1

    @cached_property
    def branches(self) -> tuple[CQBranch, ...]:
        columns = []
        codes = self.codes
        for reg in reversed(self.registers):
            codes, positions = codes // len(reg.alphabet), codes % len(reg.alphabet)
            columns.append(map(reg.alphabet.__getitem__, positions.tolist()))
        assignments = zip(*reversed(columns)) if columns else [()] * len(codes)
        factors = self.factors
        if factors is None:
            factors = (_unit_column(1.0),) * len(codes)
        return tuple(map(CQBranch, assignments, self.weights.tolist(), factors))


def _factors(ops, qdim: int):
    """Unit-trace factors and traces of branch quantum parts, in input order.

    A scalar or square op is a density matrix, which must be Hermitian; a
    vector or any other ``qdim x k`` matrix is a factor.  One pass checks
    each op's shape, finiteness and Hermiticity and raises at the first
    failure; one stacked :func:`psd_factor` then factors the density
    matrices and raises :class:`NotPSD` for the first that is not PSD.  A
    part of zero trace becomes one zero column.
    """
    parts, traces, density = [], [], []
    for op in ops:
        arr = np.array(op, dtype=complex)
        square = arr.ndim == 0 or (arr.ndim == 2 and arr.shape[0] == arr.shape[1])
        if arr.ndim < 2:
            arr = arr.reshape(-1, 1)
        if arr.ndim > 2 or arr.shape[0] != qdim:
            raise DimMismatch(
                f"branch operator of shape {arr.shape} is not a matrix on dimension {qdim}")
        # a NaN or infinite entry anywhere makes the squared norm non-finite;
        # checked first, so that no arithmetic below meets such an entry
        trace = float(np.vdot(arr, arr).real)
        if not math.isfinite(trace):
            raise NotFinite(f"branch operator is not finite (squared norm {trace})")
        if square:
            herm = float(np.abs(arr - arr.conj().T).max())
            if herm > tol.HERMITIAN_TOL:
                raise NotHermitian(
                    f"branch operator is not Hermitian: max |M - M^dagger| = {herm:.3e} "
                    f"exceeds {tol.HERMITIAN_TOL:.0e}")
            density.append(len(parts))
            arr = 0.5 * (arr + arr.conj().T)
        parts.append(arr)
        traces.append(trace)
    if density:
        factored, wmin = psd_factor(np.stack([parts[i] for i in density]))
        below = wmin < -tol.PSD_TOL
        if below.any():
            raise NotPSD(f"branch operator has eigenvalue {float(wmin[below.argmax()]):.3e}")
        for i, f in zip(density, factored):
            parts[i], traces[i] = f, float(np.vdot(f, f).real)
    return ([arr / np.sqrt(trace) if trace > 0.0 else np.zeros((qdim, 1), dtype=complex)
             for arr, trace in zip(parts, traces)], traces)


@lru_cache(maxsize=64)
def _unit_column(value: float) -> np.ndarray:
    # the normalised 1x1 factor of a unit scalar branch, shared read-only
    # by every branch of a classical state
    return _frozen(np.full((1, 1), value, dtype=complex))


def _registers(registers) -> tuple[Register, ...]:
    return tuple(r if isinstance(r, Register) else Register(r[0], tuple(r[1]))
                 for r in registers)


def _code_dtype(regs):
    # codes are int64 while every assignment fits, else Python ints
    return np.int64 if math.prod(len(r.alphabet) for r in regs) < 2 ** 63 else object


def _encode(regs, branches):
    """Alphabet-index columns and raw weights of ``(assignment, weight, ...)`` rows.

    The first assignment with the wrong number of values raises
    :class:`RegisterMismatch`, or with a value outside its register's
    alphabet :class:`AlphabetMismatch`.
    """
    width = len(regs)
    positions = [r._positions for r in regs]
    rows, weights = [], []
    for branch in branches:
        assignment = branch[0]
        if type(assignment) is not tuple:
            assignment = tuple(assignment) if isinstance(assignment, (tuple, list)) \
                else (assignment,)
        if len(assignment) != width:
            raise RegisterMismatch(
                f"assignment {assignment} has {len(assignment)} values for "
                f"{width} registers")
        try:
            rows.append(tuple(map(dict.__getitem__, positions, assignment)))
        except KeyError:
            reg, value = next((r, v) for r, p, v in zip(regs, positions, assignment)
                              if v not in p)
            raise AlphabetMismatch(
                f"value {value!r} not in alphabet of register {reg.name}") from None
        weights.append(branch[1])
    return np.array(rows, dtype=np.int64).reshape(len(rows), width).T, weights


def _validated(regs, columns, weights):
    """``(codes, order, weights)`` of checked rows: codes and float weights in
    input order, and the argsort ``order`` of the codes.

    ``columns`` holds one alphabet-index column per register, each as long
    as ``weights``; row ``i`` is entry ``i`` of each.  One kind of check at
    a time runs over all rows and raises for the first row that fails it:
    an index outside its register's alphabet (negative ones included), then
    an assignment that another row repeats, then a weight that is not
    finite or below ``-PROB_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    try:
        idx = np.asarray(columns) if regs else np.empty((0, len(w)), dtype=np.int64)
    except ValueError:
        idx = None
    if w.ndim != 1 or idx is None or idx.shape != (len(regs), len(w)):
        raise RegisterMismatch(
            f"{len(regs)} registers need as many index columns, each as long as the "
            f"{len(w)} weights")
    if idx.dtype.kind not in "iu":
        if idx.size:
            raise AlphabetMismatch(f"alphabet indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.int64)
    sizes = [len(r.alphabet) for r in regs]
    outside = (idx < 0) | (idx >= np.array(sizes)[:, None])
    if outside.any():
        row = int(np.argmax(outside.any(axis=0)))
        r = int(np.argmax(outside[:, row]))
        raise AlphabetMismatch(
            f"index {int(idx[r, row])} outside the {sizes[r]} values of register "
            f"{regs[r].name}")
    dtype = _code_dtype(regs)
    codes = np.zeros(len(w), dtype=dtype)
    for size, col in zip(sizes, idx):
        codes *= size
        codes += col.astype(dtype, copy=False)
    order = codes.argsort()
    ordered = codes[order]
    repeats = ordered[1:] == ordered[:-1]
    if repeats.any():
        row = int(order[repeats.argmax()])
        assignment = tuple(r.alphabet[i] for r, i in zip(regs, idx[:, row].tolist()))
        raise DuplicateAssignment(f"assignment {assignment} appears twice")
    fine = (w >= -tol.PROB_TOL) & (w < math.inf)
    if not fine.all():
        weight = float(w[fine.argmin()])
        if not math.isfinite(weight):
            raise NotFinite(f"branch weight {weight} is not finite")
        raise BadTrace(f"negative branch weight {weight}")
    return codes, order, w


def _mass(weights) -> float:
    """The weights added in input order (a running sum), at most 1 within
    ``TRACE_TOL``."""
    mass = float(np.add.accumulate(weights)[-1]) if len(weights) else 0.0
    if mass > 1.0 + tol.TRACE_TOL:
        raise BadTrace(f"branch weights sum to {mass!r} > 1")
    return mass


def _cq_state(regs, codes, order, weights, factors, qdims) -> CQState:
    """The state of the rows of positive weight, given in input order with
    ``order`` sorting their codes: their :func:`_mass`, and their columns in
    code order.  ``factors`` maps a row to its factor, or is ``None``."""
    keep = weights > 0.0
    rows = order[keep[order]]
    if factors is not None:
        factors = tuple(map(factors.__getitem__, rows.tolist()))
    return CQState(regs, _frozen(codes[rows]), _frozen(weights[rows]), factors, qdims,
                   trace_mass=_mass(weights[keep]))


def make_cq(registers, branches, quantum_dims=()) -> CQState:
    """Build a validated classical-quantum state.

    ``registers`` is a sequence of ``(name, alphabet)`` pairs or
    :class:`Register` values; each branch is ``(assignment, weight, op)``.
    A square ``op`` (or a scalar, when there is no quantum part) is a density
    matrix on the quantum factors and must be Hermitian within
    ``HERMITIAN_TOL``, else :class:`NotHermitian` is raised.  A vector, or
    any other ``qdim x k`` matrix, is a factor ``F`` of the operator
    ``F F^dagger``.  The branch weight is ``weight`` times the operator's
    trace; branches of zero weight are dropped.  The assignments and weights
    are checked before the ops, whose checks are :func:`_factors`'.
    """
    regs = _registers(registers)
    qdims = tuple(int(d) for d in quantum_dims)
    qdim = int(np.prod(qdims)) if qdims else 1
    rows = [(assignment, weight, op) for assignment, weight, op in branches]
    codes, order, weights = _validated(regs, *_encode(regs, rows))
    live = np.flatnonzero(weights > 0.0).tolist()
    factors, traces = _factors([rows[i][2] for i in live], qdim)
    weights[live] *= traces
    factors = dict(zip(live, map(_frozen, factors)))
    return _cq_state(regs, codes, order, weights, factors, qdims)


def make_classical_cq_columns(registers, columns, weights) -> CQState:
    """A classical state from one alphabet-index column per register.

    Row ``i`` is the branch whose assignment takes, in each register, the
    alphabet value at ``columns[r][i]``, with weight ``weights[i]``.  The
    checks, their errors, the dropped zero weights, the trace mass (added in
    input order) and the branch order are :func:`make_cq`'s for the same
    assignments with scalar part 1.0; an index outside its alphabet,
    negative ones included, raises :class:`AlphabetMismatch`.  Every branch
    has the shared read-only unit factor.
    """
    regs = _registers(registers)
    return _cq_state(regs, *_validated(regs, columns, weights), None, ())


def make_classical_cq(registers, branches) -> CQState:
    """A classical state: :func:`make_cq` of scalar branches with unit trace.

    Each branch is ``(assignment, weight)``; the assignments are encoded as
    alphabet-index columns for :func:`make_classical_cq_columns`, whose
    checks, order and mass are make_cq's for ``(assignment, weight, 1.0)``.
    """
    regs = _registers(registers)
    pairs = [(assignment, weight) for assignment, weight in branches]
    return _cq_state(regs, *_validated(regs, *_encode(regs, pairs)), None, ())


def flatten_cq(c: CQState) -> DensityOperator:
    """Embed classical registers as orthonormal basis factors and materialise."""
    reg_dims = tuple(len(r.alphabet) for r in c.registers)
    dims = reg_dims + c.quantum_dims
    total = int(np.prod(dims)) if dims else 1
    if total > tol.DIM_CAP:
        raise DimensionCap(f"flattened dimension {total} exceeds cap {tol.DIM_CAP}")
    qdim = c.quantum_dim
    matrix = np.zeros((total, total), dtype=complex)
    # a branch's code is its classical basis index
    for code, b in zip(c.codes.tolist(), c.branches):
        lo = code * qdim
        matrix[lo:lo + qdim, lo:lo + qdim] += b.operator()
    return _wrap(matrix, dims if dims else (1,), min(c.trace_mass, 1.0))


def tensor_cq(a: CQState, b: CQState) -> CQState:
    """Parallel composition of cq states; register names get 1./2. prefixes."""
    regs = tuple(Register(f"1.{r.name}", r.alphabet) for r in a.registers) + \
        tuple(Register(f"2.{r.name}", r.alphabet) for r in b.registers)
    # a's code is the high part of the product's code, so the codes come out
    # sorted; the factors are already unit-trace canonical
    dtype = _code_dtype(regs)
    span = math.prod(len(r.alphabet) for r in b.registers)
    codes = np.add.outer(a.codes.astype(dtype) * span, b.codes.astype(dtype)).ravel()
    weights = np.multiply.outer(a.weights, b.weights).ravel()
    factors = None
    if a.factors is not None or b.factors is not None:
        factors = tuple(_frozen(np.kron(x.factor, y.factor))
                        for x in a.branches for y in b.branches)
    return CQState(regs, _frozen(codes), _frozen(weights), factors,
                   a.quantum_dims + b.quantum_dims, trace_mass=_mass(weights))


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


def random_channel(seed: int, in_dim: int, kraus: int = 2) -> KrausChannel:
    """Haar-style random CPTP map on ``in_dim``, built from a random isometry."""
    if kraus < 1:
        raise DimMismatch(f"need kraus >= 1 for an isometry, got {kraus}")
    rng = np.random.default_rng(seed)
    rows = in_dim * kraus
    g = rng.normal(size=(rows, in_dim)) + 1j * rng.normal(size=(rows, in_dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :in_dim]
    ops = [v[j * in_dim:(j + 1) * in_dim, :] for j in range(kraus)]
    return make_channel(ops)

