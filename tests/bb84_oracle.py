"""Brute-force BB84 evaluator used as the independent oracle.

Builds the full classical-quantum states of the real and ideal systems with
the generic kernel operations (apply_channel, partial_trace, make_cq) and
measures distances with the generic metric routines.  Slow but structurally
unrelated to the factorised engine it checks.  ``dense_rest_block`` holds
one (basis, label) cell of a rest the same way: every member operator
densely, with no environment sectors; summed over a rest's cells it checks
the engine's stacked contraction of that rest.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from qkdsec import metrics as mt
from qkdsec import qstate as qs
from qkdsec.linalg import coset_leader_table

BASIS = [np.array([[1, 0], [0, 1]], dtype=complex),
         np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)]

REGISTER_NAMES = ["ka", "kb", "theta", "labels", "S", "aS", "bS", "syn", "ok"]


def enumerate_branches(params, attack):
    n, t = params.n_qubits, params.t
    h = np.array(params.h_matrix, dtype=np.uint8)
    t_mat = np.array(params.t_matrix, dtype=np.uint8)
    leaders = coset_leader_table(h) if h.size else np.zeros(1, dtype=np.int64)
    quantum = attack.quantum if attack.quantum else None

    def components(i):
        if quantum is None:
            return [("pass", 1.0, qs.make_channel([np.eye(2)], out_dims=(2, 1)))]
        return [(c.label, c.weight, c.channel) for c in quantum[i].components]

    emax = []
    for i in range(n):
        dims = [int(np.prod(ch.out_dims[1:])) if len(ch.out_dims) > 1 else 1
                for _, _, ch in components(i)]
        emax.append(max(dims))

    subsets = list(combinations(range(n), t))
    branches: dict = {}
    for subset in subsets:
        rest = [i for i in range(n) if i not in subset]
        for theta in product(range(2), repeat=n):
            for a in product(range(2), repeat=n):
                for labels in product(*[range(len(components(i))) for i in range(n)]):
                    per_pos = []
                    wprior = 0.25 ** n / len(subsets)
                    comp_w = 1.0
                    for i in range(n):
                        _, cw, ch = components(i)[labels[i]]
                        comp_w *= cw
                        psi = BASIS[theta[i]][:, a[i]]
                        rho = qs.make_density(np.outer(psi, psi.conj()), (2,))
                        out = qs.apply_channel(ch, rho, 0)
                        envd = out.dims[1] if len(out.dims) > 1 else 1
                        opts = {}
                        for b in range(2):
                            phi = BASIS[theta[i]][:, b]
                            proj = np.kron(np.outer(phi, phi.conj()), np.eye(envd))
                            sub = proj @ out.matrix @ proj
                            fullop = qs.DensityOperator(
                                (2, envd), sub, min(max(np.trace(sub).real, 0.0), 1.0))
                            envop = qs.partial_trace(fullop, [1]).matrix
                            pad = np.zeros((emax[i], emax[i]), dtype=complex)
                            pad[:envd, :envd] = envop
                            opts[b] = pad
                        per_pos.append(opts)
                    for b in product(range(2), repeat=n):
                        env = np.array([[1.0 + 0j]])
                        for i in range(n):
                            env = np.kron(env, per_pos[i][b[i]])
                        w = wprior * comp_w * float(np.trace(env).real)
                        if w < 1e-30:
                            continue
                        envn = env / np.trace(env).real
                        errors = sum(1 for i in subset if a[i] != b[i])
                        abort = errors > params.q_tol * t
                        a_r = np.array([a[i] for i in rest], dtype=np.uint8)
                        b_r = np.array([b[i] for i in rest], dtype=np.uint8)
                        syn_bits = (h @ a_r) % 2 if h.size else np.zeros(0, dtype=np.uint8)
                        syn = int(sum(int(x) << i for i, x in enumerate(syn_bits)))
                        if abort:
                            ka = kb = "abort"
                        else:
                            ka = int(sum(int(x) << i
                                         for i, x in enumerate((t_mat @ a_r) % 2)))
                            bsyn = (h @ b_r) % 2 if h.size else np.zeros(0, dtype=np.uint8)
                            diff = int(sum(int(x) << i for i, x in enumerate(bsyn))) ^ syn
                            e = int(leaders[diff]) if h.size else 0
                            xh = b_r ^ np.array([(e >> j) & 1 for j in range(len(rest))],
                                                dtype=np.uint8)
                            kb = int(sum(int(x) << i
                                         for i, x in enumerate((t_mat @ xh) % 2)))
                        key = (ka, kb, theta, labels, subset,
                               tuple(a[i] for i in subset), tuple(b[i] for i in subset),
                               syn, not abort)
                        branches.setdefault(key, []).append((w, envn))
    return branches, int(np.prod(emax))


def real_and_ideal_states(branches, envdims, params):
    nk = params.key_size
    real_rows = []
    for key, items in branches.items():
        w = sum(x[0] for x in items)
        op = sum(x[0] * x[1] for x in items) / w
        real_rows.append((key, w, op))
    cols = list(zip(*[k for k, _, _ in real_rows]))
    alphabets = [tuple(sorted(set(c), key=str)) for c in cols]
    regs = list(zip(REGISTER_NAMES, alphabets))
    real = qs.make_cq(regs, real_rows, (envdims,))
    groups: dict = {}
    for key, w, op in real_rows:
        groups.setdefault(key[2:], []).append((key, w, op))
    ideal_rows = []
    for e, items in groups.items():
        tot = sum(w for _, w, _ in items)
        mix = sum(w * op for _, w, op in items) / tot
        if items[0][0][0] == "abort":
            ideal_rows.append((("abort", "abort") + e, tot, mix))
        else:
            for k in range(nk):
                ideal_rows.append(((k, k) + e, tot / nk, mix))
    ideal = qs.make_cq(regs, ideal_rows, (envdims,))
    return real, ideal


def oracle_quantities(params, attack):
    """(p_abort, eps_cor, eps_sec, advantage) from the brute states."""
    branches, envdims = enumerate_branches(params, attack)
    real, ideal = real_and_ideal_states(branches, envdims, params)
    advantage = mt.cq_trace_distance(real, ideal)
    p_abort = sum(sum(x[0] for x in v) for k, v in branches.items() if k[0] == "abort")
    eps_cor = sum(sum(x[0] for x in v) for k, v in branches.items() if k[0] != k[1])

    # secrecy: drop kb, keep ka vs everything Eve sees, non-abort part only
    ka_rows: dict = {}
    for key, items in branches.items():
        if key[0] == "abort":
            continue
        w = sum(x[0] for x in items)
        op = sum(x[0] * x[1] for x in items)
        k2 = (key[0],) + key[2:]
        if k2 in ka_rows:
            w0, op0 = ka_rows[k2]
            ka_rows[k2] = (w0 + w, op0 + op)
        else:
            ka_rows[k2] = (w, op)
    mass = sum(w for w, _ in ka_rows.values())
    rows = [(k, w / mass, op / np.trace(op).real) for k, (w, op) in ka_rows.items()]
    cols = list(zip(*[k for k, _, _ in rows]))
    alphabets = [tuple(sorted(set(c), key=str)) for c in cols]
    regs = list(zip([REGISTER_NAMES[0]] + REGISTER_NAMES[2:], alphabets))
    cond = qs.make_cq(regs, rows, (envdims,))
    eps_sec = mt.secrecy_distance(cond, 1.0 - mass, key_register="ka")
    return p_abort, eps_cor, eps_sec, advantage, (real, ideal)


class DenseBlock:
    """One basis/label cell of a rest held as its member operators (members, E, E)."""

    def __init__(self, member_ops):
        self.member_ops = member_ops
        self.w_member = np.einsum("mii->m", member_ops).real

    def trace_norms(self, coeff):
        rows = np.tensordot(coeff, self.member_ops, axes=(1, 0))
        return np.abs(np.linalg.eigvalsh(rows)).sum(axis=1)


def dense_rest_block(attack, positions, thetas, comps):
    """One cell of a rest, for these bases and mixture labels, densely.

    The base-4 digits of member m are the cells 2a+b of the positions,
    position 0 most significant; its operator is the tensor product over the
    positions of Eve's subnormalised environment state for that cell, with
    the 1/4 basis/bit prior and the mixture weight.
    """
    ops = np.ones((1, 1, 1), dtype=complex)
    for i, theta, c in zip(positions, thetas, comps):
        if attack.quantum:
            comp = attack.quantum[i].components[c]
            weight, channel = comp.weight, comp.channel
        else:
            weight, channel = 1.0, qs.make_channel([np.eye(2)], out_dims=(2, 1))
        env = channel.kraus_ops[0].shape[0] // 2
        cell_ops = np.zeros((4, env, env), dtype=complex)
        for a, b in product(range(2), repeat=2):
            for kraus in channel.kraus_ops:
                out = (kraus @ BASIS[theta][:, a]).reshape(2, env)
                phi = BASIS[theta][:, b].conj() @ out
                cell_ops[2 * a + b] += 0.25 * weight * np.outer(phi, phi.conj())
        # member 4m + c: the Kronecker product of member m's operator and cell c's
        size = ops.shape[1] * env
        ops = np.einsum("mij,ckl->mcikjl", ops, cell_ops).reshape(-1, size, size)
    return DenseBlock(ops)
