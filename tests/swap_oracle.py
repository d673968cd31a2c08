"""Pure-Python enumeration of the swap attack's joint classical state.

Two parallel BB84 runs in which Bob of each run measures the state the
other Alice prepared.  Every (a, b) word of each run is enumerated with
dict-keyed tables and every weight is added one at a time, in the order
of the 16^n joint cells of (a1, b1, a2, b2).  The weights leave out the
1 / C(n, t)^2 of the subset choice, so every term is a dyadic rational and
the crossing advantage, divided by C(n, t)^2 once, is the same float as the
array-valued ``scenarios.swap_crossing_advantage``.  Slow, and kept only to
check it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from qkdsec.linalg import coset_leader_table
from qkdsec.protocols import bb84


@lru_cache(maxsize=None)
def swap_joint_state(params):
    """Return ``(real, group_mass)``: the joint classical state of both runs.

    Eve keeps nothing, so the state is classical.  ``real`` maps (Eve-visible
    label, key-pair-pair) to its branch weight, and ``group_mass`` maps each
    label to its total mass.  The weights leave out the uniform choice of the
    two sample subsets: they sum to C(n, t)^2.  One call per parameter set
    is cached, its dicts shared by every caller, which must not change them.
    """
    n, t = params.n_qubits, params.t
    subsets = list(combinations(range(n), t))
    c = len(subsets)

    # p(b | prepared a' in basis th', measured in basis th)
    overlap = np.zeros((2, 2, 2, 2))  # [th, th', b, a']
    for th in range(2):
        for thp in range(2):
            for b in range(2):
                for ap in range(2):
                    amp = np.vdot(bb84._BASIS[th][b], bb84._BASIS[thp][ap])
                    overlap[th, thp, b, ap] = float(np.abs(amp) ** 2)
    overlap[overlap < 1e-28] = 0.0
    overlap[np.abs(overlap - 1.0) < 1e-15] = 1.0
    overlap[np.abs(overlap - 0.5) < 1e-15] = 0.5

    member_tabs = _member_tables(params)
    keys_cache = {
        (s1, s2): _group_keys(n, member_tabs[s1], member_tabs[s2])
        for s1 in range(c) for s2 in range(c)
    }
    real: dict = {}
    group_mass: dict = {}
    for th1 in product(range(2), repeat=n):
        for th2 in product(range(2), repeat=n):
            # joint weights over (a1, b1, a2, b2) per position, chained
            w = np.ones(1)
            for i in range(n):
                local = np.zeros(16)
                for a1, b1, a2, b2 in product(range(2), repeat=4):
                    local[(a1 << 3) | (b1 << 2) | (a2 << 1) | b2] = (
                        0.0625
                        * overlap[th1[i], th2[i], b1, a2]
                        * overlap[th2[i], th1[i], b2, a1])
                w = (w[:, None] * local[None, :]).reshape(-1)
            for s1 in range(c):
                for s2 in range(c):
                    for cell, mass in _grouped(w, keys_cache[(s1, s2)]):
                        label = (th1, th2, s1, s2) + cell[2:]
                        kpair = cell[:2]
                        real[(label, kpair)] = real.get((label, kpair), 0.0) + mass
                        group_mass[label] = group_mass.get(label, 0.0) + mass
    return real, group_mass


def swap_crossing_advantage(params) -> float:
    """Distance of the swap attack's joint state from two ideal keys."""
    nk = params.key_size
    c = len(list(combinations(range(params.n_qubits), params.t)))
    real, group_mass = swap_joint_state(params)
    dist = 0.0
    seen = set()
    for (label, kpair), value in real.items():
        (ka1, kb1), (ka2, kb2) = kpair
        ideal = group_mass[label]
        for ka, kb in ((ka1, kb1), (ka2, kb2)):
            if ka == "abort":
                ideal *= 1.0 if kb == "abort" else 0.0
            else:
                ideal *= (1.0 / nk) if ka == kb else 0.0
        dist += abs(value - ideal)
        seen.add((label, kpair))
    # ideal-only blocks: key pairs the real run never produced
    for label, mass in group_mass.items():
        flags = label[-1]
        options1 = [("abort", "abort")] if not flags[0] else [(k, k) for k in range(nk)]
        options2 = [("abort", "abort")] if not flags[1] else [(k, k) for k in range(nk)]
        for o1 in options1:
            for o2 in options2:
                if (label, (o1, o2)) in seen:
                    continue
                share1 = 1.0 if o1 == ("abort", "abort") else 1.0 / nk
                share2 = 1.0 if o2 == ("abort", "abort") else 1.0 / nk
                dist += mass * share1 * share2
    return 0.5 * dist / (c * c)


def _member_tables(params):
    """Per sample subset: key/syndrome/abort data for full (a, b) words."""
    n, t = params.n_qubits, params.t
    h = np.array(params.h_matrix, dtype=np.uint8)
    t_mat = np.array(params.t_matrix, dtype=np.uint8)
    leaders = coset_leader_table(h) if h.size else np.zeros(1, dtype=np.int64)
    tables = []
    for subset in combinations(range(n), t):
        rest = [i for i in range(n) if i not in subset]
        entry = {}
        for a in product(range(2), repeat=n):
            for b in product(range(2), repeat=n):
                errors = sum(1 for i in subset if a[i] != b[i])
                abort = errors > params.q_tol * t
                a_r = np.array([a[i] for i in rest], dtype=np.uint8)
                b_r = np.array([b[i] for i in rest], dtype=np.uint8)
                syn_bits = (h @ a_r) % 2 if h.size else np.zeros(0, dtype=np.uint8)
                syn = int(sum(int(x) << i for i, x in enumerate(syn_bits)))
                if abort:
                    ka = kb = "abort"
                else:
                    ka = int(sum(int(x) << i for i, x in enumerate((t_mat @ a_r) % 2)))
                    bsyn = (h @ b_r) % 2 if h.size else np.zeros(0, dtype=np.uint8)
                    diff = int(sum(int(x) << i for i, x in enumerate(bsyn))) ^ syn
                    leader = int(leaders[diff]) if h.size else 0
                    xh = b_r ^ np.array([(leader >> j) & 1 for j in range(len(rest))],
                                        dtype=np.uint8)
                    kb = int(sum(int(x) << i for i, x in enumerate((t_mat @ xh) % 2)))
                entry[(a, b)] = (ka, kb, tuple(a[i] for i in subset),
                                 tuple(b[i] for i in subset), syn, not abort)
        tables.append(entry)
    return tables


def _group_keys(n, tab1, tab2):
    keys = []
    for m in range(16 ** n):
        a1, b1, a2, b2 = [], [], [], []
        for i in range(n):
            cell = (m >> (4 * (n - 1 - i))) & 15
            a1.append((cell >> 3) & 1)
            b1.append((cell >> 2) & 1)
            a2.append((cell >> 1) & 1)
            b2.append(cell & 1)
        e1 = tab1[(tuple(a1), tuple(b1))]
        e2 = tab2[(tuple(a2), tuple(b2))]
        keys.append((((e1[0], e1[1]), (e2[0], e2[1])),
                     e1[2:5] + e2[2:5] + ((e1[5], e2[5]),)))
    return keys


def _grouped(weights, keys):
    grouped: dict = {}
    for wval, (kpair, evis) in zip(weights, keys):
        if wval <= 0.0:
            continue
        cell = (kpair[0], kpair[1]) + evis
        grouped[cell] = grouped.get(cell, 0.0) + float(wval)
    for cell, mass in grouped.items():
        kpair = (cell[0], cell[1])
        yield (kpair + cell[2:]), mass
