"""Pure-Python enumeration of one authenticated QKD round.

Every (sample subset, bases, Alice's bits, attack labels, per-position
outcome, tamper branch) is visited one at a time with dict-keyed records.
Every weight is held as a ``Fraction``: the exact rational of the float
component weights, overlaps (each exactly 0, 1/2 or 1) and acceptance
probabilities the round uses, so the oracle returns the exact distance
that ``scenarios.authenticated_round_distance`` approximates.  Slow, and
kept only to check it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from qkdsec.protocols import bb84
from qkdsec.protocols.auth import accept_probability


def _ir_classical_components(p: float):
    comps = []
    if p < 1.0:
        comps.append(("pass", 1.0 - p))
    if p > 0.0:
        comps.append(("Z", p / 2.0))
        comps.append(("X", p / 2.0))
    return comps


def _snapped_overlap(u, v) -> float:
    """|<u|v>|^2 snapped to the nearest of its exact values 0, 1/2 and 1."""
    value = float(np.abs(np.vdot(u, v)) ** 2)
    return min((0.0, 0.5, 1.0), key=lambda exact: abs(exact - value))


def _classical_position_model(comp_label: str, theta: int, a: int):
    """Distribution of (record, b) for classical attacks on one position."""
    psis = bb84._BASIS
    out = {}
    if comp_label == "pass":
        out[(("pass", "-"), a)] = 1.0
        return out
    meas = 0 if comp_label == "Z" else 1
    for m in range(2):
        p_m = _snapped_overlap(psis[meas][m], psis[theta][a])
        if p_m < 1e-28:
            continue
        for b in range(2):
            p_b = _snapped_overlap(psis[theta][b], psis[meas][m])
            if p_b < 1e-28:
                continue
            key = ((comp_label, m), b)
            out[key] = out.get(key, 0.0) + p_m * p_b
    return out


def authenticated_round_distance(params, fam, attack_spec) -> dict:
    """Return ``{"distance", "p_abort", "eps_cor"}`` like the scenario
    function, as exact ``Fraction`` values."""
    n, t = params.n_qubits, params.t
    nk = params.key_size
    t_mat = np.array(params.t_matrix, dtype=np.uint8)
    p_ir = float(attack_spec.get("p", 0.0))
    tamper = attack_spec.get("tamper")
    order = fam.tag_space

    comps = _ir_classical_components(p_ir)
    subsets = list(combinations(range(n), t))
    real: dict = {}

    for s_idx, subset in enumerate(subsets):
        rest = [i for i in range(n) if i not in subset]
        for theta in product(range(2), repeat=n):
            for a in product(range(2), repeat=n):
                # the uniform subset choice is divided out once, at the end
                base_w = Fraction(1, 4 ** n)
                for labels in product(range(len(comps)), repeat=n):
                    lw = base_w
                    for i in range(n):
                        lw *= Fraction(comps[labels[i]][1])
                    pos_models = [
                        _classical_position_model(comps[labels[i]][0], theta[i], a[i])
                        for i in range(n)]
                    for outcome in product(*[m.items() for m in pos_models]):
                        w = lw
                        records, b = [], []
                        for (rec, bit), pw in outcome:
                            w *= Fraction(pw)
                            records.append(rec)
                            b.append(bit)
                        if w <= 0.0:
                            continue
                        a_s = tuple(a[i] for i in subset)
                        b_s = tuple(b[i] for i in subset)
                        msg1 = _encode_msg1(theta, s_idx, a_s)
                        msg2 = _encode_bits(b_s)
                        for evis_extra, wfrac, got1, got2 in _tamper_branches(
                                fam, tamper, msg1, msg2, order):
                            ww = w * wfrac
                            if ww <= 0.0:
                                continue
                            # the forged payload flips the lowest bit, which
                            # encodes the last announced sample value
                            if got1 is None:
                                kb = "abort"
                            else:
                                a_s_bob = list(a_s)
                                if got1 == "forged":
                                    a_s_bob[-1] ^= 1
                                err_b = sum(1 for i, pos in enumerate(subset)
                                            if a_s_bob[i] != b[pos])
                                kb = "abort" if err_b > params.q_tol * t else \
                                    _hash_key(t_mat, [b[i] for i in rest])
                            if got2 is None:
                                ka = "abort"
                            else:
                                b_s_alice = list(b_s)
                                if got2 == "forged":
                                    b_s_alice[-1] ^= 1
                                err_a = sum(1 for i, pos in enumerate(subset)
                                            if a[pos] != b_s_alice[i])
                                ka = "abort" if err_a > params.q_tol * t else \
                                    _hash_key(t_mat, [a[i] for i in rest])
                            key = ((theta, tuple(records), s_idx, a_s, b_s, evis_extra),
                                   (ka, kb))
                            real[key] = real.get(key, 0) + ww

    p_abort = Fraction(0)
    eps_cor = Fraction(0)
    for (evis, kpair), value in real.items():
        ka, kb = kpair
        if ka == "abort" and kb == "abort":
            p_abort += value
        if ka != kb:
            eps_cor += value

    sector: dict = {}
    for (evis, kpair), value in real.items():
        fa = kpair[0] == "abort"
        fb = kpair[1] == "abort"
        sector[(evis, fa, fb)] = sector.get((evis, fa, fb), 0) + value

    dist = Fraction(0)
    seen = set()
    for (evis, kpair), value in real.items():
        ka, kb = kpair
        fa, fb = ka == "abort", kb == "abort"
        mass = sector[(evis, fa, fb)]
        if fa and fb:
            ideal = mass
        elif fa or fb:
            ideal = mass / nk
        else:
            ideal = mass / nk if ka == kb else 0
        dist += abs(value - ideal)
        seen.add((evis, kpair))
    for (evis, fa, fb), mass in sector.items():
        if fa and fb:
            continue
        if fa:
            options = [("abort", k) for k in range(nk)]
        elif fb:
            options = [(k, "abort") for k in range(nk)]
        else:
            options = [(k, k) for k in range(nk)]
        for kpair in options:
            if (evis, kpair) not in seen:
                dist += mass / nk
    c = len(subsets)
    return {"distance": dist / (2 * c), "p_abort": p_abort / c, "eps_cor": eps_cor / c}


def _encode_msg1(theta, s_idx, a_s) -> int:
    out = s_idx
    for bit in theta:
        out = (out << 1) | bit
    for bit in a_s:
        out = (out << 1) | bit
    return out


def _encode_bits(bits) -> int:
    out = 0
    for bit in bits:
        out = (out << 1) | bit
    return out


def _hash_key(t_mat, bits) -> int:
    vec = np.array(bits, dtype=np.uint8)
    return int(sum(int(x) << i for i, x in enumerate((t_mat @ vec) % 2)))


def _tamper_branches(fam, tamper, msg1, msg2, order):
    """Yield (eve_registers, weight, bob_msg1, alice_msg2) branches."""
    msg1 %= order
    msg2 %= order
    if tamper is None:
        yield ((), Fraction(1), "same", "same")
        return
    # substitution rule: flip the low payload bit, keep the observed tag
    target = msg1 if tamper == "msg1" else msg2
    forged = target ^ 1
    for y in range(order):
        p_tag = Fraction(1, order)
        acc = Fraction(accept_probability(fam, target, y, forged, y))
        for weight, verdict in ((acc, "forged"), (1 - acc, None)):
            if weight <= 0.0:
                continue
            record = ((tamper, y, forged),)
            if tamper == "msg1":
                yield (record, p_tag * weight, verdict, "same")
            else:
                yield (record, p_tag * weight, "same", verdict)
