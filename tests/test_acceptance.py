"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated runtime budget where one exists.  Expected values
tagged as derived were computed by the independent oracles in this file or
in ``bb84_oracle.py`` before being frozen into assertions.
"""

import itertools
import math
import time

import numpy as np

from qkdsec import metrics as mt
from qkdsec import qstate as qs
from qkdsec.acframework import advantage_over_family, identity_strategy
from qkdsec.protocols import auth, bb84, scenarios
from qkdsec.protocols.hashing import affine_family, verify_asu2
from qkdsec.protocols.otp import build_otp_systems, message_family

from helpers import seeded_rng


def report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _random_state(rng, dim):
    return qs.random_density(int(rng.integers(0, 2 ** 31)), dim,
                             int(rng.integers(1, dim + 1)))


def _random_effect(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    w = np.linalg.eigvalsh(h)
    return (h - w[0] * np.eye(dim)) / max(w[-1] - w[0], 1e-12)


def test_criterion_01_helstrom_equality():
    started = time.perf_counter()
    rng = seeded_rng(101)
    worst_eq = worst_beat = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a, b = _random_state(rng, dim), _random_state(rng, dim)
        d = mt.trace_distance(a, b)
        povm = mt.helstrom_povm(a, b)
        achieved = 0.5 * float(np.trace(povm.elements[0] @ a.matrix).real) \
            + 0.5 * float(np.trace(povm.elements[1] @ b.matrix).real)
        worst_eq = max(worst_eq, abs(achieved - (0.5 + 0.5 * d)))
        for _ in range(200):
            effect = _random_effect(rng, dim)
            guess = 0.5 + 0.5 * float(np.trace(effect @ (a.matrix - b.matrix)).real)
            worst_beat = max(worst_beat, guess - (0.5 + 0.5 * d))
    elapsed = time.perf_counter() - started
    report(1, "helstrom-equality",
           worst_eq <= 1e-9 and worst_beat <= 1e-9 and elapsed < 30.0,
           f"equality defect {worst_eq:.2e}, best excess {worst_beat:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_maximal_coupling():
    started = time.perf_counter()
    rng = seeded_rng(102)
    worst_marginal = worst_equal = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 33))
        p = rng.random(size)
        p /= p.sum()
        q = rng.random(size)
        q /= q.sum()
        pd = qs.ClassicalDistribution(tuple(range(size)), p)
        qd = qs.ClassicalDistribution(tuple(range(size)), q)
        coupling = mt.maximal_coupling(pd, qd)
        worst_marginal = max(
            worst_marginal,
            float(np.abs(coupling.marginal_left() - pd.probs).max()),
            float(np.abs(coupling.marginal_right() - qd.probs).max()))
        tv = mt.total_variation(pd, qd)
        worst_equal = max(worst_equal, abs(coupling.pr_equal - (1.0 - tv)))
    elapsed = time.perf_counter() - started
    report(2, "maximal-coupling",
           worst_marginal <= 1e-12 and worst_equal <= 1e-12 and elapsed < 5.0,
           f"marginal defect {worst_marginal:.2e}, equality defect "
           f"{worst_equal:.2e}, {elapsed:.1f}s")


def test_criterion_03_metric_and_data_processing():
    started = time.perf_counter()
    rng = seeded_rng(103)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a, b, c = (_random_state(rng, dim) for _ in range(3))
        worst = max(worst, mt.trace_distance(a, a))
        worst = max(worst, abs(mt.trace_distance(a, b) - mt.trace_distance(b, a)))
        worst = max(worst, mt.trace_distance(a, b) - mt.trace_distance(a, c)
                    - mt.trace_distance(c, b))
    worst_dp = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a, b = _random_state(rng, dim), _random_state(rng, dim)
        ch = qs.random_channel(int(rng.integers(0, 2 ** 31)), dim,
                               kraus=int(rng.integers(1, 4)))
        worst_dp = max(worst_dp, mt.trace_distance(
            qs.apply_channel(ch, a, 0), qs.apply_channel(ch, b, 0))
            - mt.trace_distance(a, b))
    elapsed = time.perf_counter() - started
    report(3, "metric-axioms-data-processing",
           worst <= 1e-9 and worst_dp <= 1e-9 and elapsed < 60.0,
           f"axiom defect {worst:.2e}, processing excess {worst_dp:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_04_one_time_pad_perfection():
    started = time.perf_counter()
    worst = 0.0
    for length in range(1, 9):
        real, ideal = build_otp_systems(length)
        advantage, _ = advantage_over_family(real, ideal, message_family(length))
        worst = max(worst, advantage)
    elapsed = time.perf_counter() - started
    report(4, "one-time-pad-perfection", worst == 0.0 and elapsed < 5.0,
           f"max advantage {worst!r}, {elapsed:.1f}s")


def test_criterion_05_decomposition_sandwich_grid():
    started = time.perf_counter()
    grid = [i / 16.0 for i in range(17)]
    worst_fwd = worst_cor = worst_sec = -math.inf
    cases = 0
    for q_tol in (0.0, 0.25):
        params = bb84.default_params(n_qubits=4, t=2, q_tol=q_tol)
        attacks = [bb84.identity_attack()]
        attacks += [bb84.intercept_resend(4, p) for p in grid]
        attacks += [bb84.depolarize_attack(4, q) for q in grid]
        for attack in attacks:
            run = bb84.qkd_run(params, attack)
            worst_fwd = max(worst_fwd, run.advantage - run.eps_cor - run.eps_sec)
            worst_cor = max(worst_cor, run.eps_cor - run.advantage)
            worst_sec = max(worst_sec, run.eps_sec - 2.0 * run.advantage)
            cases += 1
    elapsed = time.perf_counter() - started
    report(5, "decomposition-sandwich",
           worst_fwd <= 1e-9 and worst_cor <= 1e-9 and worst_sec <= 1e-9
           and elapsed < 600.0,
           f"{cases} attacks, decomposition excess {worst_fwd:.2e}, converse "
           f"excesses {worst_cor:.2e}/{worst_sec:.2e}, {elapsed:.1f}s")


def test_criterion_06_noiseless_exactness():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    run = bb84.qkd_run(params, bb84.identity_attack())
    ok = (abs(run.p_abort) <= 1e-12 and abs(run.eps_cor) <= 1e-12
          and abs(run.eps_sec) <= 1e-12)
    report(6, "noiseless-exactness", ok,
           f"p_abort={run.p_abort!r} eps_cor={run.eps_cor!r} "
           f"eps_sec={run.eps_sec!r}")


def test_criterion_07_robustness_matching():
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    results = {q: bb84.qkd_robustness_eval(params, q) for q in (0.0, 0.1, 0.3)}
    ok = results[0.0].filtered_distance == 0.0
    detail = []
    for q, rob in results.items():
        ok = ok and rob.filtered_distance <= rob.condition_ii_advantage + 1e-9
        detail.append(f"q={q}: {rob.filtered_distance:.4f}<="
                      f"{rob.condition_ii_advantage:.4f}")
    report(7, "robustness-matching", ok, "; ".join(detail))


def _classical_vector(state, support):
    vec = np.zeros(len(support))
    for branch in state.branches:
        vec[support[branch.assignment]] = branch.weight
    return vec


def test_criterion_08_authentication():
    started = time.perf_counter()
    ok = True
    detail = []
    for bits in (3, 4):
        fam = affine_family(bits)
        worst_pair, bound, uniform = verify_asu2(fam)
        ok = ok and uniform and worst_pair <= bound + 1e-15
        advantage = auth.exhaustive_substitution_advantage(fam)
        ok = ok and advantage <= 2.0 ** (-bits) + 1e-12
        detail.append(f"b={bits}: sup {advantage:.6f}")

    # three parallel instances, joint substitution attacks
    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    rules = [None, lambda pair: (pair[0] ^ 1, pair[1]),
             lambda pair: ((pair[0] + 3) % 8, pair[1]),
             lambda pair: (pair[0], pair[1] ^ 5)]
    worst_joint = 0.0
    for combo in itertools.product(range(len(rules)), repeat=3):
        reals, ideals, supports = [], [], []
        for idx in combo:
            tamper = () if rules[idx] is None else (("auth", rules[idx]),)
            strat = identity_strategy(name=f"r{idx}",
                                      inputs=(("message", 1),), tamper=tamper)
            r_state = real.evaluator(strat)
            i_state = ideal.evaluator(strat)
            keys = sorted({b.assignment for b in r_state.branches}
                          | {b.assignment for b in i_state.branches}, key=str)
            support = {k: i for i, k in enumerate(keys)}
            reals.append(_classical_vector(r_state, support))
            ideals.append(_classical_vector(i_state, support))
        joint_r = reals[0]
        joint_i = ideals[0]
        for k in range(1, 3):
            joint_r = np.kron(joint_r, reals[k])
            joint_i = np.kron(joint_i, ideals[k])
        worst_joint = max(worst_joint, 0.5 * float(np.abs(joint_r - joint_i).sum()))
    ok = ok and worst_joint <= 3.0 * (2.0 ** -3) + 1e-9
    elapsed = time.perf_counter() - started
    report(8, "authentication", ok and elapsed < 60.0,
           "; ".join(detail) + f"; parallel-3 worst {worst_joint:.6f}, "
           f"{elapsed:.1f}s")


def test_criterion_09_composition_arithmetic():
    started = time.perf_counter()
    # leaked key: advantage unchanged
    params_leak = bb84.default_params(n_qubits=4, t=1, q_tol=0.25, out_len=2,
                                      h_rows=1)
    attacks = [bb84.identity_attack(), bb84.intercept_resend(4, 1.0)]
    leak = scenarios.leaked_key_scenario(params_leak, 1, attacks)
    ok = leak.left_value <= 1e-9

    # QKD then one-time pad
    params_otp = bb84.default_params(n_qubits=4, t=2, q_tol=0.25)
    otp = scenarios.qkd_otp_scenario(params_otp, 1, attacks)
    ok = ok and otp.left_value <= 1e-9

    # two parallel instances, product family plus crossing attack
    params_par = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1,
                                     h_rows=1)
    par_report, rows, eps_single = scenarios.parallel_qkd_scenario(params_par)
    ok = ok and par_report.holds
    ok = ok and any(name == "swap-crossing" for name, _ in rows)

    # key expansion, two rounds
    params_ke = bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1,
                                    h_rows=0)
    fam = affine_family(4)
    one = scenarios.key_expansion(1, fam, params_ke)
    two = scenarios.key_expansion(2, fam, params_ke)
    ok = ok and two.ledger.total == 2.0 * one.ledger.total
    ok = ok and two.report.left_value <= two.ledger.total + 1e-9
    elapsed = time.perf_counter() - started
    report(9, "composition-arithmetic", ok,
           f"leak defect {leak.left_value:.2e}, otp excess {otp.left_value:.2e}, "
           f"parallel worst {par_report.left_value:.4f} <= {par_report.right_value:.4f}, "
           f"ledger {two.ledger.total:.6f}, {elapsed:.1f}s")


def test_criterion_10_appendix_bound_suite():
    started = time.perf_counter()
    rng = seeded_rng(110)
    worst = {"pguess": -math.inf, "af": -math.inf, "pinsker": -math.inf,
             "factor2": -math.inf}
    af_cases = 0
    for trial in range(500):
        nk = int(rng.choice([2, 4]))
        dim_e = int(rng.integers(2, 5))
        weights = rng.random(nk)
        weights /= weights.sum()
        if trial % 2 == 0:
            # near-uniform key with weakly key-dependent side information,
            # so the Alicki-Fannes regime (eps <= 1/4) is well represented
            weights = (weights + 9.0) / (weights + 9.0).sum()
            base = _random_state(rng, dim_e).matrix
            rows = [((k,), float(weights[k]),
                     0.9 * base + 0.1 * _random_state(rng, dim_e).matrix)
                    for k in range(nk)]
        else:
            rows = [((k,), float(weights[k]), _random_state(rng, dim_e).matrix)
                    for k in range(nk)]
        state = qs.make_cq([("K", tuple(range(nk)))], rows, (dim_e,))
        twin = mt.uniform_key_twin(state)
        eps = mt.cq_trace_distance(state, twin)
        if nk == 2:
            worst["pguess"] = max(worst["pguess"],
                                  mt.pguess_exact(state) - (1.0 / nk + eps))
        for rep in mt.entropy_bounds(state):
            if rep.name == "alicki-fannes-lower":
                if rep.applicable:
                    af_cases += 1
                    worst["af"] = max(worst["af"], -rep.slack)
            elif rep.name == "pinsker-distance":
                worst["pinsker"] = max(worst["pinsker"], -rep.slack)
        marginal = mt._side_marginal(state)
        candidates = [marginal, _random_state(rng, dim_e)]
        rep = mt.alt_secrecy_relation(state, candidates)
        worst["factor2"] = max(worst["factor2"], -rep.slack)
    elapsed = time.perf_counter() - started
    ok = all(v <= 1e-9 for v in worst.values()) and af_cases > 0
    report(10, "appendix-bound-suite", ok and elapsed < 120.0,
           f"excesses {worst['pguess']:.2e}/{worst['af']:.2e}/"
           f"{worst['pinsker']:.2e}/{worst['factor2']:.2e}, "
           f"{af_cases} AF cases, {elapsed:.1f}s")


def test_criterion_11_locking_demo():
    rep = scenarios.locking_demo(2)
    # oracle: exact joint distribution of the fixed computational measurement
    dim = 4
    joint = {}
    for k1 in range(2):
        for k2 in range(dim):
            for y in range(dim):
                p = (1.0 if y == k2 else 0.0) if k1 == 0 else 1.0 / dim
                joint[(k2, y)] = joint.get((k2, y), 0.0) + p / (2 * dim)
    pk = {}
    py = {}
    for (k2, y), p in joint.items():
        pk[k2] = pk.get(k2, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    oracle = sum(p * math.log2(p / (pk[k2] * py[y]))
                 for (k2, y), p in joint.items() if p > 0)
    ok = (rep.post_reveal_info == 2.0
          and abs(rep.pre_reveal_k2_info - oracle) <= 1e-9
          and rep.pre_reveal_k2_info < 2.0)
    report(11, "locking-demo", ok,
           f"post {rep.post_reveal_info!r}, pre {rep.pre_reveal_k2_info:.6f} "
           f"(oracle {oracle:.6f})")
