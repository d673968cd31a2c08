import math
from fractions import Fraction

import numpy as np
import pytest

import round_oracle
import swap_oracle
from bb84_oracle import enumerate_branches, real_and_ideal_states
from qkdsec import acframework
from qkdsec import metrics as mt
from qkdsec import qstate as qs
from qkdsec.protocols import bb84, scenarios
from qkdsec.protocols.hashing import affine_family


@pytest.fixture(scope="module")
def round_params():
    return bb84.default_params(n_qubits=2, t=1, q_tol=0.25, out_len=1, h_rows=0)


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
    run = bb84.qkd_run(round_params, ir)
    fast = scenarios.product_pair_advantage(run, run)
    assert abs(brute - fast) <= 1e-9


def test_product_pair_identity_shortcut(round_params):
    ident = bb84.qkd_run(round_params, bb84.identity_attack())
    noisy = bb84.qkd_run(round_params, bb84.intercept_resend(2, 0.5))
    assert scenarios.product_pair_advantage(ident, noisy) == noisy.advantage
    assert scenarios.product_pair_advantage(noisy, ident) == noisy.advantage
    assert scenarios.product_pair_advantage(ident, ident) == 0.0


def test_product_pair_chunks_match_dense(monkeypatch):
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    run1 = bb84.qkd_run(params, bb84.intercept_resend(3, 1.0))
    run2 = bb84.qkd_run(params, bb84.intercept_resend(3, 0.5))
    r1, i1 = scenarios._diagonal_blocks(run1)
    r2, i2 = scenarios._diagonal_blocks(run2)
    dense = (run1.p_abort * run2.advantage + run2.p_abort * run1.advantage
             + 0.5 * float(np.abs(np.outer(r1, r2) - np.outer(i1, i2)).sum()))
    # a batch of a few rows forces many chunks, including a ragged last one
    monkeypatch.setattr(bb84, "_BATCH_ENTRIES", 5 * r2.size + 1)
    assert r1.size % 5 != 0
    assert abs(scenarios.product_pair_advantage(run1, run2) - dense) <= 1e-12
    monkeypatch.undo()
    assert abs(scenarios.product_pair_advantage(run1, run2) - dense) <= 1e-12


@pytest.mark.parametrize("attack", [bb84.depolarize_attack(3, 0.3), bb84.steal_replace_attack(3)],
                         ids=["depolarise", "steal-replace"])
def test_diagonal_export_refuses_quantum_sectors(attack):
    # steal-replace has one-dimensional Z sectors beside a two-dimensional X
    # sector: one class of dimension 2 is enough to refuse
    params = bb84.default_params(n_qubits=3, t=1, q_tol=0.25, out_len=1, h_rows=1)
    with pytest.raises(acframework.ScheduleMismatch, match="not classical"):
        scenarios._diagonal_blocks(bb84.qkd_run(params, attack))


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


@pytest.mark.parametrize("n,t,out_len", [(2, 1, 1), (3, 1, 1), (3, 1, 2), (4, 2, 1)])
def test_authenticated_round_matches_engine(n, t, out_len):
    # the untampered round and the BB84 engine are independent enumerations
    params = bb84.default_params(n_qubits=n, t=t, q_tol=0.25, out_len=out_len, h_rows=0)
    fam = affine_family(4)
    for p, attack in ((0.0, bb84.identity_attack()),
                      (0.5, bb84.intercept_resend(n, 0.5)),
                      (1.0, bb84.intercept_resend(n, 1.0))):
        res = scenarios.authenticated_round_distance(params, fam, {"p": p})
        run = bb84.qkd_run(params, attack)
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


_KEY_EXPANSION_SPECS = [{"p": 0.0}, {"p": 1.0}, {"p": 0.0, "tamper": "msg2"},
                        {"p": 1.0, "tamper": "msg1"}]


@pytest.mark.parametrize("bits", [3, 4])
@pytest.mark.parametrize("spec", _KEY_EXPANSION_SPECS + [
    {"p": 0.5, "tamper": "msg1"}, {"p": 0.5, "tamper": "msg2"}])
def test_authenticated_round_matches_scalar_oracle(round_params, bits, spec):
    fam = affine_family(bits)
    got = scenarios.authenticated_round_distance(round_params, fam, spec)
    _assert_matches_exact(got, round_oracle.authenticated_round_distance(round_params, fam, spec),
                          spec["p"])
    assert all(type(value) is float for value in got.values())


def _assert_matches_exact(got, exact, p):
    # dyadic odds give the exact rational correctly rounded; at other
    # intercept probabilities each value lies within 1e-15 of it
    assert got.keys() == exact.keys()
    for name, value in exact.items():
        if p in (0.0, 0.5, 1.0):
            assert got[name] == float(value), name
        else:
            assert abs(got[name] - value) <= 1e-15, (name, float(got[name] - value))


# fractional-p tampering takes the oracle 17 s per case at b = 4, so those
# cases run at b = 1; the ids keep the b = 4 cases' names
_N3_CASES = [
    (1, 1, {"p": 0.0}, 4), (1, 2, {"p": 1.0}, 4), (1, 1, {"p": 0.0, "tamper": "msg2"}, 4),
    (1, 1, {"p": 0.5}, 4), (2, 1, {"p": 1.0}, 4), (2, 1, {"p": 0.3}, 4),
    (1, 1, {"p": 0.37, "tamper": "msg2"}, 1), (1, 2, {"p": 0.37, "tamper": "msg1"}, 1)]


@pytest.mark.parametrize("t, out_len, spec, bits", _N3_CASES, ids=[
    f"{t}-{out_len}-spec{i}" + ("" if bits == 4 else f"-b{bits}")
    for i, (t, out_len, _, bits) in enumerate(_N3_CASES)])
def test_authenticated_round_matches_scalar_oracle_n3(t, out_len, spec, bits):
    params = bb84.default_params(n_qubits=3, t=t, q_tol=0.25, out_len=out_len, h_rows=0)
    fam = affine_family(bits)
    _assert_matches_exact(scenarios.authenticated_round_distance(params, fam, spec),
                          round_oracle.authenticated_round_distance(params, fam, spec),
                          spec["p"])


@pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
def test_outcome_table_matches_the_position_model(p):
    # every entry of the round's table is the oracle's (record, b) odds, bit
    # for bit, and every other slot is 0
    weights, odds, records = scenarios._outcome_table(p)
    comps = round_oracle._ir_classical_components(p)
    assert weights.tolist() == [w for _, w in comps]
    codes = {("pass", "-"): 0, ("Z", 0): 1, ("Z", 1): 2, ("X", 0): 3, ("X", 1): 4}
    for c, (label, _) in enumerate(comps):
        for theta in range(2):
            for a in range(2):
                model = round_oracle._classical_position_model(label, theta, a)
                want = np.zeros(4)
                for (record, b), pw in model.items():
                    slot = 2 * (0 if record[1] == "-" else record[1]) + b
                    want[slot] = pw
                    assert records[c, slot] == codes[record]
                assert odds[c, theta, a].tolist() == want.tolist(), (label, theta, a)


def test_overlaps_are_exact():
    # same basis: 1 or 0; across bases: 1/2, with no float dust
    overlap = bb84._overlaps()
    for th, thp, b, ap in np.ndindex(overlap.shape):
        want = (1.0 if b == ap else 0.0) if th == thp else 0.5
        assert overlap[th, thp, b, ap] == want


_DYADIC_SPECS = [{"p": p, **({"tamper": tamper} if tamper else {})}
                 for p in (0.0, 1.0) for tamper in (None, "msg1", "msg2")]


@pytest.mark.parametrize("n, t", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_authenticated_round_exact_with_dyadic_odds(n, t):
    # at p in {0, 1} every weight is a dyadic rational and only the subset
    # choice divides by C(n, t): each value is a probability, and C(n, t)
    # times it is a dyadic rational with a small denominator
    c = math.comb(n, t)
    for seed in range(1, 6):
        params = bb84.default_params(n_qubits=n, t=t, q_tol=0.25, out_len=1,
                                     h_rows=0, seed=seed)
        for bits in (1, 2):
            fam = affine_family(bits)
            for spec in _DYADIC_SPECS:
                got = scenarios.authenticated_round_distance(params, fam, spec)
                for name, value in got.items():
                    where = (seed, bits, spec, name)
                    assert 0.0 <= value <= 1.0, where
                    assert (value * c * 2.0 ** 32).is_integer(), where


def test_authenticated_round_abort_probability_is_exact():
    # the exact values at n = 4: a p_abort of 25/64 under either tamper
    params = bb84.default_params(n_qubits=4, t=2, q_tol=0.25, out_len=1, h_rows=0, seed=5)
    tampered = {"distance": 39 / 512, "p_abort": 25 / 64, "eps_cor": 39 / 64}
    for spec, want in (({"p": 1, "tamper": "msg2"}, tampered),
                       ({"p": 1, "tamper": "msg1"}, tampered),
                       ({"p": 1}, {"distance": 9 / 32, "p_abort": 7 / 16, "eps_cor": 27 / 128})):
        assert scenarios.authenticated_round_distance(params, affine_family(2), spec) == want, spec


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan, math.inf])
def test_authenticated_round_rejects_bad_probability(round_params, p):
    with pytest.raises(bb84.InvalidParams, match="intercept probability"):
        scenarios.authenticated_round_distance(round_params, affine_family(3), {"p": p})


@pytest.mark.parametrize("spec, key", [({"P": 1.0}, "P"), ({"p": 1.0, "tampr": "msg1"}, "tampr")])
def test_authenticated_round_refuses_unknown_spec_keys(round_params, spec, key):
    # a misspelt key would otherwise run the honest round or drop the tamper
    with pytest.raises(acframework.ScheduleMismatch, match=f"unknown attack_spec key '{key}'"):
        scenarios.authenticated_round_distance(round_params, affine_family(3), spec)


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


def test_key_expansion_builds_ledger_in_one_call(round_params, monkeypatch):
    fam = affine_family(4)
    rounds = 50
    calls = []
    real = scenarios.serial_compose
    monkeypatch.setattr(scenarios, "serial_compose",
                        lambda *args: calls.append(args) or real(*args))
    ledger = scenarios.key_expansion(rounds, fam, round_params).ledger
    assert len(calls) == 1
    # the same entries and total as appending one round at a time
    eps_qkd = max(bb84.qkd_run(round_params, a).decomposition_bound
                  for a in (bb84.identity_attack(), bb84.intercept_resend(2, 1.0)))
    want = acframework.EpsilonLedger()
    for _ in range(rounds):
        want = real(want, acframework.LedgerEntry("authentication", 2.0 * fam.epsilon,
                                                  "asserted"),
                    acframework.LedgerEntry("qkd", eps_qkd, "measured"))
    assert ledger.entries == want.entries
    assert ledger.total == want.total


def test_key_expansion_budget(round_params):
    fam = affine_family(4)
    with pytest.raises(scenarios.KeyBudgetExhausted):
        scenarios.key_expansion(2, fam, round_params, initial_pool_bits=16)


@pytest.mark.parametrize("rounds", [-1, -3])
def test_key_expansion_rejects_negative_rounds(round_params, monkeypatch, rounds):
    # rejected before any work
    monkeypatch.setattr(scenarios, "qkd_run", None)
    monkeypatch.setattr(scenarios, "authenticated_round_distance", None)
    with pytest.raises(scenarios.NegativeRounds, match=f"rounds = {rounds}"):
        scenarios.key_expansion(rounds, affine_family(4), round_params)


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
    real, _ = swap_oracle.swap_joint_state(params)
    # the oracle's weights leave out the uniform choice of two sample subsets
    pairs = math.comb(2, 1) ** 2
    marginal = {}
    for (_, (kp1, _kp2)), w in real.items():
        marginal[kp1] = marginal.get(kp1, 0.0) + w / pairs
    steal = bb84.qkd_run(params, bb84.steal_replace_attack(2))
    keys = set(marginal) | set(steal.key_joint)
    for key in keys:
        assert abs(marginal.get(key, 0.0) - steal.key_joint.get(key, 0.0)) <= 1e-12
    assert abs(sum(marginal.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("n, t, h_rows, out_len, q_tol", [
    (2, 1, 0, 1, 0.25), (3, 1, 0, 1, 0.25), (3, 1, 1, 1, 0.25), (3, 2, 0, 1, 0.5)])
def test_swap_joint_state_matches_scalar_oracle(n, t, h_rows, out_len, q_tol):
    # every term is exact and the total is divided once, so the advantage is
    # the same float as the pure-Python enumeration's
    params = bb84.default_params(n_qubits=n, t=t, q_tol=q_tol, out_len=out_len,
                                 h_rows=h_rows, seed=5)
    assert scenarios.swap_crossing_advantage(params) == \
        swap_oracle.swap_crossing_advantage(params)


@pytest.mark.parametrize("n, t, h_rows, out_len, seed, exact", [
    (3, 1, 1, 1, 6, Fraction(251, 576)), (3, 2, 0, 1, 1, Fraction(385, 1536)),
    (3, 1, 0, 2, 3, Fraction(923, 1536)), (4, 1, 1, 1, 5, Fraction(225, 512)),
    (4, 2, 1, 1, 5, Fraction(779, 3072))])
def test_swap_crossing_is_the_rounded_rational(n, t, h_rows, out_len, seed, exact):
    # every term is dyadic and the subset pairs divide the total once, so the
    # advantage is the exact distance correctly rounded
    params = bb84.default_params(n_qubits=n, t=t, q_tol=0.25, out_len=out_len,
                                 h_rows=h_rows, seed=seed)
    assert scenarios.swap_crossing_advantage(params) == float(exact)


def _blocks_by_unique(params, cells):
    """Each block's cells and masses from an ``np.unique`` of its cell codes."""
    pairs = cells.shape[0]
    for w in scenarios._block_weights(params.n_qubits):
        live = np.flatnonzero(w > 0.0)
        block = cells[:, live].ravel()
        unique, inverse = np.unique(block, return_inverse=True)
        yield unique, np.bincount(inverse, weights=np.tile(w[live], pairs))


@pytest.mark.parametrize("n, t, h_rows", [(2, 1, 0), (3, 1, 1), (3, 2, 0)])
def test_swap_blocks_match_per_block_unique(n, t, h_rows):
    # the cells are numbered once per run; every block's cells, in ascending
    # order, and their masses are those of a per-block np.unique
    params = bb84.default_params(n_qubits=n, t=t, q_tol=0.25, out_len=1,
                                 h_rows=h_rows, seed=5)
    codes = scenarios._SwapCodes(params)
    cells = codes._cell_codes(params)
    assert np.array_equal(codes.codes[codes.group], cells)
    blocks = list(scenarios._swap_blocks(params, codes))
    expected = list(_blocks_by_unique(params, cells))
    assert len(blocks) == len(expected) == 4 ** n
    for (ids, masses), (block_cells, sums) in zip(blocks, expected):
        assert np.array_equal(codes.codes[ids], block_cells)
        assert np.array_equal(masses, sums)


def test_matched_terms_on_hand_built_block():
    # two keys: a passing label's ideal cells are (0, 0) and (1, 1), each
    # with half its mass; an abort label's one cell takes all of it.  Label 0
    # passes with keys (0, 0) and the mismatch (0, 1); label 1 aborts
    masses = np.array([0.375, 0.125, 0.25])
    found, ideal_only = scenarios._matched_terms(
        masses, np.array([0, 0, 1]), np.array([0.5, 0.0, 1.0]), np.array([0.5, 1.0]))
    # the mismatch lies outside its label's ideal cells and keeps its full mass
    assert found.tolist() == [0.375 - 0.5 * 0.5, 0.125, 0.0]
    # the missing key pair (1, 1) of label 0 is ideal-only; the abort adds none
    assert ideal_only.tolist() == [0.5 * 0.5]


@pytest.mark.parametrize("labels, share, label_share, ideal_only", [
    # a passing label that reaches none of its ideal cells: both are ideal-only
    ([0], [0.0], [0.5], [0.25, 0.25]),
    # a both-abort label is its own ideal cell, and label 0, which the block
    # does not reach, has no mass: neither adds a term
    ([1], [1.0], [0.5, 1.0], []),
], ids=["passing-unreached", "abort-only"])
def test_matched_terms_on_one_label(labels, share, label_share, ideal_only):
    found, got = scenarios._matched_terms(
        np.array([0.5]), np.array(labels), np.array(share), np.array(label_share))
    assert found.tolist() == [0.5 - 0.5 * share[0]]
    assert got.tolist() == ideal_only
