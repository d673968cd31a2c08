"""Branch-at-a-time construction and distance of cq states.

This is how cq states were built and compared before they were stored as
code and weight columns: one checked branch at a time, the trace mass added
in input order, the branches sorted by their values' alphabet positions
(first register first), and the distance summed branch by branch over the
sorted union of both states' assignments, each term :func:`branch_gap`.
Each branch is factored, and each gap's trace norm taken, by its own 2-D
linalg call, where the library stacks them.  Slow, and kept only to check
the column and stacked paths bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from qkdsec import qstate as qs
from qkdsec import tolerances as tol
from qkdsec.linalg import psd_factor, trace_norm_of_factored_sum


def canonical_factor(op, qdim: int):
    """``(unit-trace factor, trace)`` of one branch quantum part, with make_cq's errors."""
    arr = np.array(op, dtype=complex)
    density = arr.ndim == 0 or (arr.ndim == 2 and arr.shape[0] == arr.shape[1])
    if arr.ndim < 2:
        arr = arr.reshape(-1, 1)
    if arr.ndim > 2 or arr.shape[0] != qdim:
        raise qs.DimMismatch(arr.shape)
    trace = float(np.vdot(arr, arr).real)
    if not math.isfinite(trace):
        raise qs.NotFinite(trace)
    if density:
        if float(np.abs(arr - arr.conj().T).max()) > tol.HERMITIAN_TOL:
            raise qs.NotHermitian(arr)
        arr, wmin = psd_factor(0.5 * (arr + arr.conj().T))
        if wmin < -tol.PSD_TOL:
            raise qs.NotPSD(wmin)
        trace = float(np.vdot(arr, arr).real)
    if trace <= 0.0:
        return np.zeros((qdim, 1), dtype=complex), 0.0
    return arr / np.sqrt(trace), trace


def branch_gap(a, b) -> float:
    """Trace norm of the difference of two branch operators; ``None`` is absent."""
    if a is None:
        return 0.0 if b is None else b.weight
    if b is None:
        return a.weight
    if a.factor is b.factor or np.array_equal(a.factor, b.factor):
        return abs(a.weight - b.weight)
    cols = np.hstack([a.factor, b.factor])
    coeffs = np.concatenate([
        np.full(a.factor.shape[1], a.weight),
        np.full(b.factor.shape[1], -b.weight),
    ])
    return trace_norm_of_factored_sum(cols, coeffs)


def _sort_key(registers):
    def key(assignment):
        return tuple(reg.index(v) for reg, v in zip(registers, assignment))
    return key


def oracle_cq(registers, branches, quantum_dims=()):
    """``(branches, trace_mass)`` of make_cq, as ``(assignment, weight, factor)``.

    Each branch is ``(assignment, weight, op)``; a ``None`` op is the shared
    unit column of a classical branch.
    """
    regs = tuple(r if isinstance(r, qs.Register) else qs.Register(r[0], tuple(r[1]))
                 for r in registers)
    qdim = int(np.prod(quantum_dims)) if quantum_dims else 1
    seen, out, mass = set(), [], 0.0
    for assignment, weight, op in branches:
        assignment = tuple(assignment)
        if len(assignment) != len(regs):
            raise qs.RegisterMismatch(assignment)
        if any(v not in reg.alphabet for reg, v in zip(regs, assignment)):
            raise qs.AlphabetMismatch(assignment)
        if assignment in seen:
            raise qs.DuplicateAssignment(assignment)
        seen.add(assignment)
        weight = float(weight)
        if not np.isfinite(weight):
            raise qs.NotFinite(weight)
        if weight < -tol.PROB_TOL:
            raise qs.BadTrace(weight)
        if weight <= 0.0:
            continue
        if op is None:
            factor, op_trace = qs._unit_column(1.0), 1.0
        else:
            factor, op_trace = canonical_factor(op, qdim)
        if weight * op_trace > 0.0:
            out.append((assignment, weight * op_trace, factor))
            mass += weight * op_trace
    if mass > 1.0 + tol.TRACE_TOL:
        raise qs.BadTrace(mass)
    out.sort(key=lambda b: _sort_key(regs)(b[0]))
    return out, mass


def oracle_tensor(a: qs.CQState, b: qs.CQState):
    """``(branches, trace_mass)`` of tensor_cq, built pair by pair."""
    regs = a.registers + b.registers
    out, mass = [], 0.0
    for x in a.branches:
        for y in b.branches:
            out.append((x.assignment + y.assignment, x.weight * y.weight,
                        np.kron(x.factor, y.factor)))
            mass += x.weight * y.weight
    out.sort(key=lambda br: _sort_key(regs)(br[0]))
    return out, mass


def oracle_distance(r: qs.CQState, s: qs.CQState) -> float:
    """Half the sum, in sorted assignment order, of the branch gaps."""
    left = {b.assignment: b for b in r.branches}
    right = {b.assignment: b for b in s.branches}
    total = 0.0
    for key in sorted(set(left) | set(right), key=_sort_key(r.registers)):
        total += branch_gap(left.get(key), right.get(key))
    return 0.5 * total


def oracle_pguess(c: qs.CQState, key_index: int = 0) -> float:
    """pguess_exact for a binary key: per classical context, in branch order,
    half its weight plus half the gap of its two key branches."""
    contexts: dict = {}
    for b in c.branches:
        rest = b.assignment[:key_index] + b.assignment[key_index + 1:]
        contexts.setdefault(rest, {})[b.assignment[key_index]] = b
    k0, k1 = c.registers[key_index].alphabet
    total = 0.0
    for per_key in contexts.values():
        weights = sum(b.weight for b in per_key.values())
        total += 0.5 * weights + 0.5 * branch_gap(per_key.get(k0), per_key.get(k1))
    return total / c.trace_mass
