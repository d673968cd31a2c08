"""Branch-at-a-time construction and distance of cq states.

This is how cq states were built and compared before they were stored as
code and weight columns: one checked branch at a time, the trace mass added
in input order, the branches sorted by their values as strings (equal
strings by alphabet position, which the column codes define), and the
distance summed branch by branch over the sorted union of both states'
assignments, each term ``metrics._branch_gap``.  Slow, and kept only to
check the column path bit for bit.
"""

from __future__ import annotations

import numpy as np

from qkdsec import qstate as qs
from qkdsec import tolerances as tol
from qkdsec.metrics import _branch_gap


def _sort_key(registers):
    def key(assignment):
        return (qs.branch_order(assignment),
                tuple(reg.index(v) for reg, v in zip(registers, assignment)))
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
            factor, op_trace = qs._canonical_factor(op, qdim)
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
        total += _branch_gap(left.get(key), right.get(key))
    return 0.5 * total
