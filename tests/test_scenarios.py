import math

import pytest

import swap_oracle
from bb84_oracle import enumerate_branches, real_and_ideal_states
from qkdsec import metrics as mt
from qkdsec import qstate as qs
from qkdsec.protocols import bb84, scenarios
from qkdsec.protocols.hashing import affine_family


@pytest.fixture(scope="module")
def round_params():
    return bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1, h_rows=0)


def test_qkd_system_wrappers():
    from qkdsec.acframework import AttackFamily, advantage_over_family, identity_strategy

    params = bb84.default_params(n_qubits=2, t=1, h_rows=0)
    real, ideal = scenarios.build_qkd_systems(params)
    fam = AttackFamily(name="f", strategies=(
        identity_strategy(), bb84.intercept_resend(2, 1.0)))
    value, best = advantage_over_family(real, ideal, fam)
    run = bb84.qkd_run(params, bb84.intercept_resend(2, 1.0))
    assert value == pytest.approx(run.advantage, abs=1e-12)
    assert best == "intercept-resend:p=1"


def test_leaked_key_scenario_invariance():
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=2, h_rows=0)
    attacks = [bb84.identity_attack(), bb84.intercept_resend(3, 1.0)]
    report = scenarios.leaked_key_scenario(params, 1, attacks)
    assert report.holds and report.left_value <= 1e-9


def test_qkd_otp_scenario_bound():
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    attacks = [bb84.identity_attack(), bb84.intercept_resend(3, 1.0),
               bb84.depolarize_attack(3, 0.3)]
    report = scenarios.qkd_otp_scenario(params, 1, attacks)
    assert report.holds


def test_product_pair_against_brute_tensor(round_params):
    ir = bb84.intercept_resend(2, 1.0)
    br, envd = enumerate_branches(round_params, ir)
    real, ideal = real_and_ideal_states(br, envd, round_params)
    brute = mt.cq_trace_distance(qs.tensor_cq(real, real), qs.tensor_cq(ideal, ideal))
    run = bb84.qkd_run(round_params, ir, keep_engine=True)
    fast = scenarios.product_pair_advantage(run, run)
    assert abs(brute - fast) <= 1e-9


def test_product_pair_identity_shortcut(round_params):
    ident = bb84.qkd_run(round_params, bb84.identity_attack(), keep_engine=True)
    noisy = bb84.qkd_run(round_params, bb84.intercept_resend(2, 0.5), keep_engine=True)
    assert scenarios.product_pair_advantage(ident, noisy) == noisy.advantage
    assert scenarios.product_pair_advantage(noisy, ident) == noisy.advantage
    assert scenarios.product_pair_advantage(ident, ident) == 0.0


def test_swap_crossing_structural_bounds():
    params = bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1, h_rows=0)
    value = scenarios.swap_crossing_advantage(params)
    steal = bb84.qkd_run(params, bb84.steal_replace_attack(2))
    # hybrid argument: the swap attack on either side is dominated by
    # steal-and-replace, so twice that advantage bounds the composite
    assert 0.0 <= value <= 2.0 * steal.advantage + 1e-9


def test_parallel_qkd_scenario_holds():
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    report, rows, eps_single = scenarios.parallel_qkd_scenario(params)
    assert report.holds
    names = [name for name, _ in rows]
    assert "swap-crossing" in names
    assert any("||" in name for name in names)
    for _, value in rows:
        assert value <= 2.0 * eps_single + 1e-9


def test_authenticated_round_matches_engine(round_params):
    fam = affine_family(4)
    for p, attack in ((0.0, bb84.identity_attack()),
                      (0.5, bb84.intercept_resend(2, 0.5)),
                      (1.0, bb84.intercept_resend(2, 1.0))):
        res = scenarios.authenticated_round_distance(round_params, fam, {"p": p})
        run = bb84.qkd_run(round_params, attack)
        assert abs(res["distance"] - run.advantage) <= 1e-9
        assert abs(res["p_abort"] - run.p_abort) <= 1e-12
        assert abs(res["eps_cor"] - run.eps_cor) <= 1e-12


def test_authenticated_round_tamper_bounded(round_params):
    fam = affine_family(4)
    eps_auth = 2.0 * fam.epsilon
    eps_qkd = max(bb84.qkd_run(round_params, a).decomposition_bound
                  for a in (bb84.identity_attack(), bb84.intercept_resend(2, 1.0)))
    for spec in ({"p": 0.0, "tamper": "msg1"}, {"p": 0.0, "tamper": "msg2"},
                 {"p": 1.0, "tamper": "msg1"}, {"p": 1.0, "tamper": "msg2"}):
        res = scenarios.authenticated_round_distance(round_params, fam, spec)
        assert res["distance"] <= eps_auth + eps_qkd + 1e-9


def test_key_expansion_ledger_arithmetic(round_params):
    fam = affine_family(4)
    zero = scenarios.key_expansion(0, fam, round_params)
    assert zero.ledger.total == 0.0 and not zero.ledger.entries

    one = scenarios.key_expansion(1, fam, round_params)
    eps_auth = 2.0 * fam.epsilon
    eps_qkd = max(bb84.qkd_run(round_params, a).decomposition_bound
                  for a in (bb84.identity_attack(), bb84.intercept_resend(2, 1.0)))
    assert one.ledger.total == eps_auth + eps_qkd
    assert one.report.holds

    two = scenarios.key_expansion(2, fam, round_params)
    assert two.ledger.total == 2.0 * (eps_auth + eps_qkd)
    assert two.report.holds
    assert len(two.ledger.entries) == 4
    sources = {e.protocol: e.source for e in two.ledger.entries}
    assert sources["authentication"] == "asserted"
    assert sources["qkd"] == "measured"


def test_key_expansion_computes_each_round_distance_once(round_params, monkeypatch):
    fam = affine_family(4)
    specs = [{"p": 0.0}, {"p": 1.0}, {"p": 0.0, "tamper": "msg2"},
             {"p": 1.0, "tamper": "msg1"}]
    want = [scenarios.authenticated_round_distance(round_params, fam, spec)["distance"]
            for spec in specs]
    calls = []
    real = scenarios.authenticated_round_distance
    monkeypatch.setattr(scenarios, "authenticated_round_distance",
                        lambda *args: calls.append(args) or real(*args))
    result = scenarios.key_expansion(3, fam, round_params)
    assert len(calls) == len(specs)
    assert [value for _, value in result.rows] == want * 3
    assert [name for name, _ in result.rows][4:6] == ["round2:p=0.0", "round2:p=1.0"]


def test_key_expansion_budget(round_params):
    fam = affine_family(4)
    with pytest.raises(scenarios.KeyBudgetExhausted):
        scenarios.key_expansion(2, fam, round_params, initial_pool_bits=16)


def test_locking_demo_against_enumeration_oracle():
    for m in (1, 2, 3):
        report = scenarios.locking_demo(m)
        # oracle: direct classical joint distribution of the measurement
        dim = 2 ** m
        joint = {}
        for k1 in range(2):
            for k2 in range(dim):
                for y in range(dim):
                    if k1 == 0:
                        p = 1.0 if y == k2 else 0.0
                    else:
                        p = 1.0 / dim
                    joint[(k1, k2, y)] = p / (2 * dim)
        def mutual(joint, left, right):
            px, py, pxy = {}, {}, {}
            for key, p in joint.items():
                if p <= 0:
                    continue
                x, y = left(key), right(key)
                px[x] = px.get(x, 0.0) + p
                py[y] = py.get(y, 0.0) + p
                pxy[(x, y)] = pxy.get((x, y), 0.0) + p
            return sum(p * math.log2(p / (px[x] * py[y]))
                       for (x, y), p in pxy.items())
        want_key = mutual(joint, lambda k: (k[0], k[1]), lambda k: k[2])
        want_k2 = mutual(joint, lambda k: k[1], lambda k: k[2])
        assert abs(report.pre_reveal_key_info - want_key) <= 1e-9
        assert abs(report.pre_reveal_key_info - m / 2) <= 1e-9
        assert abs(report.pre_reveal_k2_info - want_k2) <= 1e-9
        assert abs(report.post_reveal_info - m) <= 1e-9
        assert report.pre_reveal_k2_info < report.post_reveal_info
    assert scenarios.locking_demo(2).post_reveal_info == 2.0
    with pytest.raises(ValueError):
        scenarios.locking_demo(4)


def test_swap_marginal_equals_steal_replace():
    # tracing out instance 2 of the swap attack leaves instance 1 facing a
    # fresh random BB84 state, i.e. exactly the steal-and-replace channel
    params = bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1, h_rows=0)
    real, _ = scenarios.swap_joint_state(params)
    marginal = {}
    for (_, (kp1, _kp2)), w in real.items():
        marginal[kp1] = marginal.get(kp1, 0.0) + w
    steal = bb84.qkd_run(params, bb84.steal_replace_attack(2))
    keys = set(marginal) | set(steal.key_joint)
    for key in keys:
        assert abs(marginal.get(key, 0.0) - steal.key_joint.get(key, 0.0)) <= 1e-12
    assert abs(sum(marginal.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("n, t, h_rows, out_len, q_tol", [
    (2, 1, 0, 1, 0.25), (3, 1, 0, 1, 0.25), (3, 1, 1, 1, 0.25), (3, 2, 0, 1, 0.5)])
def test_swap_joint_state_matches_scalar_oracle(n, t, h_rows, out_len, q_tol):
    # key for key, value for value and in the same order as the pure-Python
    # enumeration; the advantage sums the same terms in the same order
    params = bb84.default_params(n_qubits=n, t=t, q_tol=q_tol, out_len=out_len,
                                 h_rows=h_rows, seed=5)
    real, group_mass = scenarios.swap_joint_state(params)
    want_real, want_mass = swap_oracle.swap_joint_state(params)
    assert list(real.items()) == list(want_real.items())
    assert list(group_mass.items()) == list(want_mass.items())
    assert all(type(v) is float for v in real.values())
    assert scenarios.swap_crossing_advantage(params) == \
        swap_oracle.swap_crossing_advantage(params, (want_real, want_mass))
