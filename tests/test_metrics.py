import math

import numpy as np
import pytest

from qkdsec import metrics as mt
from qkdsec import qstate as qs


def dist(*probs):
    return qs.ClassicalDistribution(tuple(range(len(probs))), np.array(probs))


def test_total_variation_examples():
    assert mt.total_variation(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0
    p = dist(0.3, 0.7)
    assert mt.total_variation(p, p) == 0.0
    assert mt.total_variation(dist(0.5, 0.5), dist(0.75, 0.25)) == pytest.approx(
        0.25, abs=1e-15)
    with pytest.raises(qs.AlphabetMismatch):
        mt.total_variation(p, qs.ClassicalDistribution(("a", "b"), np.array([0.5, 0.5])))


def test_tv_alternative_formula():
    rng = np.random.default_rng(1)
    for _ in range(500):
        size = int(rng.integers(2, 33))
        p = rng.random(size); p /= p.sum()
        q = rng.random(size); q /= q.sum()
        direct = 0.5 * np.abs(p - q).sum()
        overlap = 1.0 - np.minimum(p, q).sum()
        assert abs(direct - overlap) <= 1e-12


def test_trace_distance_examples():
    z0, z1 = qs.pure_state([1, 0]), qs.pure_state([0, 1])
    plus = qs.pure_state([1, 1])
    rho = qs.random_density(2, 3, 2)
    assert mt.trace_distance(rho, rho) == 0.0
    assert mt.trace_distance(z0, z1) == pytest.approx(1.0, abs=1e-12)
    # pure-state overlap oracle: sqrt(1 - |<psi|phi>|^2)
    overlap = abs(np.vdot([1, 0], np.array([1, 1]) / math.sqrt(2))) ** 2
    assert mt.trace_distance(z0, plus) == pytest.approx(
        math.sqrt(1.0 - overlap), abs=1e-12)
    assert mt.trace_distance(z0, plus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_helstrom_povm_examples():
    z0, z1 = qs.pure_state([1, 0]), qs.pure_state([0, 1])
    povm = mt.helstrom_povm(z0, z1)
    assert np.abs(povm.elements[0] - z0.matrix).max() <= 1e-9
    rho = qs.random_density(10, 4, 2)
    povm = mt.helstrom_povm(rho, rho)
    achieved = float(np.trace(povm.elements[0] @ (rho.matrix - rho.matrix)).real)
    assert abs(achieved) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        b = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        povm = mt.helstrom_povm(a, b)
        achieved = float(np.trace(povm.elements[0] @ (a.matrix - b.matrix)).real)
        assert abs(achieved - mt.trace_distance(a, b)) <= 1e-9


def test_random_povms_never_beat_helstrom():
    rng = np.random.default_rng(17)
    a = qs.random_density(100, 4, 2)
    b = qs.random_density(101, 4, 3)
    bound = 0.5 + 0.5 * mt.trace_distance(a, b)
    for _ in range(200):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        w = np.linalg.eigvalsh(h)
        m = (h - w[0] * np.eye(4)) / (w[-1] - w[0])
        guess = 0.5 + 0.5 * float(np.trace(m @ (a.matrix - b.matrix)).real)
        assert guess <= bound + 1e-9


def test_cq_trace_distance_classical_case():
    env = np.eye(2) / 2
    a = qs.make_cq([("k", (0, 1))], [((0,), 0.7, env), ((1,), 0.3, env)], (2,))
    b = qs.make_cq([("k", (0, 1))], [((0,), 0.5, env), ((1,), 0.5, env)], (2,))
    assert mt.cq_trace_distance(a, b) == pytest.approx(0.2, abs=1e-12)
    assert mt.cq_trace_distance(a, a) == 0.0


def test_maximal_coupling_examples():
    p = dist(0.5, 0.5)
    cp = mt.maximal_coupling(p, p)
    assert cp.pr_equal == pytest.approx(1.0, abs=1e-15)
    q = dist(0.0, 1.0)
    r = dist(1.0, 0.0)
    assert mt.maximal_coupling(q, r).pr_equal == pytest.approx(0.0, abs=1e-15)
    cp = mt.maximal_coupling(dist(0.5, 0.5), dist(0.75, 0.25))
    assert cp.pr_equal == pytest.approx(0.75, abs=1e-15)
    assert np.abs(cp.marginal_left() - [0.5, 0.5]).max() <= 1e-15
    assert np.abs(cp.marginal_right() - [0.75, 0.25]).max() <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coupling_rejects_non_finite(bad):
    with pytest.raises(qs.NotFinite):
        mt.Coupling((0, 1), np.full((2, 2), bad))


def _key_state(branches, dim_e):
    nk = len(branches)
    return qs.make_cq([("K", tuple(range(nk)))],
                      [((k,), w, op) for k, (w, op) in enumerate(branches)], (dim_e,))


def test_pguess_examples():
    env = qs.random_density(40, 2, 2).matrix
    product = _key_state([(0.5, env), (0.5, env)], 2)
    assert mt.pguess_exact(product) == pytest.approx(0.5, abs=1e-12)
    correlated = qs.make_cq([("K", (0, 1)), ("E", (0, 1))],
                            [((0, 0), 0.5, 1.0), ((1, 1), 0.5, 1.0)], ())
    assert mt.pguess_exact(correlated) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(mt.Unsupported):
        mt.pguess_exact(_key_state([(0.25, env)] * 4, 2))


def test_absent_branch_gives_exact_weight():
    regs = [("K", (0, 1)), ("E", ("a", "b"))]
    rho = [qs.random_density(seed, 3, 3 - seed % 2).matrix for seed in range(3)]
    r = qs.make_cq(regs, [((0, "a"), 0.3, rho[0]), ((1, "b"), 0.6, rho[1])], (3,))
    s = qs.make_cq(regs, [((0, "a"), 0.3, rho[0]), ((0, "b"), 0.5, rho[2])], (3,))
    w = {b.assignment: b.weight for b in r.branches + s.branches}
    # (0, a) is equal on both sides, (1, b) is absent from s, (0, b) from r
    assert mt.cq_trace_distance(r, s) == 0.5 * (w[(1, "b")] + w[(0, "b")])
    # each classical context holds one key value, so the key is always guessed
    assert mt.pguess_exact(r) == 1.0


def test_pguess_bound_audit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        dim_e = int(rng.integers(2, 5))
        w = rng.random(2)
        w /= w.sum()
        state = _key_state(
            [(float(w[0]), qs.random_density(int(rng.integers(0, 2 ** 31)), dim_e,
                                             int(rng.integers(1, dim_e + 1))).matrix),
             (float(w[1]), qs.random_density(int(rng.integers(0, 2 ** 31)), dim_e,
                                             int(rng.integers(1, dim_e + 1))).matrix)],
            dim_e)
        eps = mt.cq_trace_distance(state, mt.uniform_key_twin(state))
        assert mt.pguess_exact(state) <= 0.5 + eps + 1e-9


def test_entropies():
    assert mt.von_neumann_entropy(qs.maximally_mixed(4)) == pytest.approx(2.0, abs=1e-10)
    assert mt.von_neumann_entropy(qs.pure_state([1, 1])) <= 1e-9
    env = qs.random_density(51, 3, 2).matrix
    product = _key_state([(0.25, env)] * 4, 3)
    assert mt.conditional_entropy(product) == pytest.approx(2.0, abs=1e-9)


def test_conditional_entropy_identity_check():
    # S(K|E) = S(KE) - S(E), the right side from the flattened state and its
    # partial trace over the key
    rng = np.random.default_rng(61)
    for _ in range(20):
        state = _key_state(
            [(0.5, qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2).matrix),
             (0.5, qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2).matrix)], 2)
        joint = qs.flatten_cq(state)
        direct = (mt.von_neumann_entropy(joint)
                  - mt.von_neumann_entropy(qs.partial_trace(joint, keep=[1])))
        assert mt.conditional_entropy(state) == pytest.approx(direct, abs=1e-8)


def test_entropy_bounds_examples():
    env = qs.random_density(70, 2, 2).matrix
    product = _key_state([(0.5, env), (0.5, env)], 2)
    reports = {r.name: r for r in mt.entropy_bounds(product)}
    af = reports["alicki-fannes-lower"]
    assert af.applicable and abs(af.left_value - 1.0) <= 1e-9
    assert abs(af.right_value - 1.0) <= 1e-9
    assert reports["pinsker-distance"].left_value <= 1e-9

    correlated = qs.make_cq([("K", (0, 1)), ("E", (0, 1))],
                            [((0, 0), 0.5, 1.0), ((1, 1), 0.5, 1.0)], ())
    reports = {r.name: r for r in mt.entropy_bounds(correlated)}
    pinsker = reports["pinsker-distance"]
    assert pinsker.left_value == pytest.approx(0.5, abs=1e-12)
    assert pinsker.right_value == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert pinsker.holds
    assert not reports["alicki-fannes-lower"].applicable


def test_secrecy_distance_examples():
    env = qs.random_density(80, 2, 1).matrix
    product = _key_state([(0.5, env), (0.5, env)], 2)
    assert mt.secrecy_distance(product, 0.0) == pytest.approx(0.0, abs=1e-12)
    correlated = qs.make_cq([("K", (0, 1)), ("E", (0, 1))],
                            [((0, 0), 0.5, 1.0), ((1, 1), 0.5, 1.0)], ())
    assert mt.secrecy_distance(correlated, 1.0) == 0.0
    assert mt.secrecy_distance(correlated, 0.0) == pytest.approx(0.5, abs=1e-12)
    # frozen oracle: eigenvalues of rho_KE - tau (x) rho_E are (1/4) * (1,-1,-1,1)
    flat = qs.flatten_cq(correlated)
    twin = qs.flatten_cq(mt.uniform_key_twin(correlated))
    assert mt.trace_distance(flat, twin) == pytest.approx(0.5, abs=1e-12)


def test_alt_secrecy_relation():
    env = qs.random_density(90, 2, 2)
    product = _key_state([(0.5, env.matrix), (0.5, env.matrix)], 2)
    report = mt.alt_secrecy_relation(product, [env])
    assert report.holds and report.left_value <= 1e-12
    rng = np.random.default_rng(91)
    for _ in range(100):
        state = _key_state(
            [(0.5, qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2).matrix),
             (0.5, qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2).matrix)], 2)
        marginal = mt._side_marginal(state)
        candidates = [marginal] + [qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2)
                                   for _ in range(10)]
        report = mt.alt_secrecy_relation(state, candidates)
        assert report.holds
    with pytest.raises(ValueError):
        mt.alt_secrecy_relation(product, [qs.random_density(123, 2, 2)])


def test_metric_axioms_sampled():
    rng = np.random.default_rng(200)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        b = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        c = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        dab = mt.trace_distance(a, b)
        assert mt.trace_distance(a, a) <= 1e-12
        assert abs(dab - mt.trace_distance(b, a)) <= 1e-12
        assert dab <= mt.trace_distance(a, c) + mt.trace_distance(c, b) + 1e-9
        assert -1e-12 <= dab <= 1.0 + 1e-12


def test_data_processing_sampled():
    rng = np.random.default_rng(201)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        b = qs.random_density(int(rng.integers(0, 2 ** 31)), d, int(rng.integers(1, d + 1)))
        ch = qs.random_channel(int(rng.integers(0, 2 ** 31)), d,
                               kraus=int(rng.integers(1, 4)))
        assert (mt.trace_distance(qs.apply_channel(ch, a, 0), qs.apply_channel(ch, b, 0))
                <= mt.trace_distance(a, b) + 1e-9)


def test_product_invariance_sampled():
    rng = np.random.default_rng(202)
    for _ in range(50):
        a = qs.random_density(int(rng.integers(0, 2 ** 31)), 3, 2)
        b = qs.random_density(int(rng.integers(0, 2 ** 31)), 3, 3)
        extra = qs.random_density(int(rng.integers(0, 2 ** 31)), 2, 2)
        lhs = mt.trace_distance(qs.tensor_product(a, extra), qs.tensor_product(b, extra))
        assert abs(lhs - mt.trace_distance(a, b)) <= 1e-9


# --- property-based checks ---------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def distributions(draw, max_size=16):
    size = draw(st.integers(min_value=2, max_value=max_size))
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                        min_size=size, max_size=size))
    total = sum(raw)
    return qs.ClassicalDistribution(tuple(range(size)),
                                    np.array([x / total for x in raw]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(distributions(), st.data())
def test_tv_formulas_agree_property(p, data):
    q = data.draw(distributions(max_size=len(p.alphabet)).filter(
        lambda d: len(d.alphabet) == len(p.alphabet)))
    direct = mt.total_variation(p, q)
    overlap = 1.0 - float(np.minimum(p.probs, q.probs).sum())
    assert abs(direct - overlap) <= 1e-12
    assert -1e-15 <= direct <= 1.0 + 1e-15


@settings(max_examples=50, deadline=None, derandomize=True)
@given(distributions(), st.data())
def test_maximal_coupling_property(p, data):
    q = data.draw(distributions(max_size=len(p.alphabet)).filter(
        lambda d: len(d.alphabet) == len(p.alphabet)))
    coupling = mt.maximal_coupling(p, q)
    assert np.abs(coupling.marginal_left() - p.probs).max() <= 1e-12
    assert np.abs(coupling.marginal_right() - q.probs).max() <= 1e-12
    assert abs(coupling.pr_equal - (1.0 - mt.total_variation(p, q))) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=6))
def test_trace_distance_range_property(seed, dim):
    a = qs.random_density(seed, dim, 1 + seed % dim)
    b = qs.random_density(seed + 1, dim, 1 + (seed + 1) % dim)
    d = mt.trace_distance(a, b)
    assert -1e-12 <= d <= 1.0 + 1e-12


@pytest.mark.parametrize("trials", [0, -2])
def test_property_suite_rejects_nonpositive_trials(trials):
    with pytest.raises(mt.InvalidTrials):
        mt.property_suite(1, trials)


def test_property_suite_factor2_can_be_tight(monkeypatch):
    # with rho_E as the only candidate the reported side is 2 D(rho, tau (x)
    # rho_E) computed a second way; the maximally mixed candidate beats it on
    # some draws, so the check compares two different quantities.  The suite
    # passes its standard distance to the relation's private helper.
    reports = []
    relation = mt._alt_secrecy

    def recording(*args, **kwargs):
        reports.append(relation(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(mt, "_alt_secrecy", recording)
    mt.property_suite(1)
    assert any(r.right_value < 2 * r.left_value - 1e-12 for r in reports)


# --- cq distance against the branch-at-a-time oracle ---------------------------

from itertools import product as _product

from cq_oracle import oracle_cq, oracle_distance, oracle_pguess, oracle_tensor

# values whose strings tie: 1 and "1", 2 and "2", 10 and "10"
_CQ_VALUES = (0, 1, 2, 10, "1", "2", "10", "a", 2.5)
# scalar parts for states with no quantum factor: the unit, and 1x2 factors
# whose gap to the unit takes the trace-norm route
_SCALAR_OPS = (None, 1.0, [[0.6, 0.8j]], [[0.8, 0.6]])


@st.composite
def cq_state_pairs(draw):
    regs = tuple(
        qs.Register(f"r{i}", tuple(draw(st.lists(st.sampled_from(_CQ_VALUES), min_size=1,
                                                 max_size=4, unique=True))))
        for i in range(draw(st.integers(min_value=1, max_value=3))))
    words = list(_product(*(r.alphabet for r in regs)))
    qdims = draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    # a small pool of unit-trace factors, so that equal ones meet on both sides
    pool = _SCALAR_OPS if not qdims else [
        f / np.linalg.norm(f) for f in (rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
                                        for k in (1, 1, 3))]
    sides = []
    for _ in range(2):
        picked = draw(st.lists(st.integers(min_value=0, max_value=len(words) - 1),
                               max_size=len(words), unique=True))
        cap = 1.0 / max(len(picked), 1)
        weights = [draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=cap)))
                   for _ in picked]
        ops = [pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
               for _ in picked]
        sides.append([(words[i], w, op) for i, w, op in zip(picked, weights, ops)])
    return regs, qdims, sides


def _built(regs, qdims, branches, how):
    if how == "tuples":
        return qs.make_classical_cq(regs, [(a, w) for a, w, _ in branches])
    if how == "columns":
        columns = [[reg.index(a[r]) for a, _, _ in branches] for r, reg in enumerate(regs)]
        return qs.make_classical_cq_columns(regs, columns, [w for _, w, _ in branches])
    return qs.make_cq(regs, [(a, w, 1.0 if op is None else op) for a, w, op in branches],
                      qdims)


def _same_as_oracle(state, want):
    branches, mass = want
    assert [(b.assignment, b.weight, b.factor.tobytes()) for b in state.branches] == \
        [(a, w, f.tobytes()) for a, w, f in branches]
    assert all(type(b.weight) is float for b in state.branches)
    assert state.trace_mass == mass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cq_state_pairs(), st.data())
def test_cq_trace_distance_matches_oracle(pair, data):
    # classical and quantum states on shared registers, with one-sided
    # branches and zero weights: every branch, weight, factor, trace mass and
    # distance equals the branch-at-a-time oracle's, bit for bit
    regs, qdims, sides = pair
    states = []
    for branches in sides:
        kinds = ["make_cq"] if qdims else ["tuples", "columns", "make_cq"]
        how = data.draw(st.sampled_from(kinds))
        if how == "make_cq":
            want = oracle_cq(regs, [(a, w, 1.0 if op is None else op)
                                    for a, w, op in branches], qdims)
        else:
            want = oracle_cq(regs, [(a, w, None) for a, w, _ in branches])
        state = _built(regs, qdims, branches, how)
        _same_as_oracle(state, want)
        states.append(state)
    r, s = states
    assert mt.cq_trace_distance(r, s) == oracle_distance(r, s)
    assert mt.cq_trace_distance(s, r) == oracle_distance(s, r)
    rs, sr = qs.tensor_cq(r, s), qs.tensor_cq(s, r)
    _same_as_oracle(rs, oracle_tensor(r, s))
    assert mt.cq_trace_distance(rs, sr) == oracle_distance(rs, sr)


def _ranked_key_state(rng, regs, ranks, dim=3):
    # one branch per assignment, each of its own rank; one of weight zero
    words = list(_product(*(r.alphabet for r in regs)))
    weights = rng.random(len(words))
    weights[rng.integers(len(words))] = 0.0
    weights /= weights.sum()
    return qs.make_cq(regs, [(w, float(p), qs.random_density(int(rng.integers(0, 2 ** 31)),
                                                              dim, int(rank)).matrix)
                             for w, p, rank in zip(words, weights, ranks)], (dim,))


def test_stacked_gaps_match_the_per_pair_route():
    # branch gaps are grouped by the column counts of their two factors, one
    # stacked call per group; the distance and guessing probability are the
    # per-pair oracle's, as the same float
    rng = np.random.default_rng(12)
    regs = (qs.Register("K", (0, 1)), qs.Register("E", ("a", "b", "c")))
    for _ in range(30):
        # six (rank of r, rank of s) shapes, one per assignment in a random order
        order = rng.permutation(6)
        r = _ranked_key_state(rng, regs, np.array([1, 2, 3, 1, 2, 3])[order])
        s = _ranked_key_state(rng, regs, np.array([2, 3, 1, 1, 2, 3])[order])
        right = {b.assignment: b for b in s.branches}
        shapes = {(a.factor.shape[1], right[a.assignment].factor.shape[1])
                  for a in r.branches if a.assignment in right}
        assert len(shapes) >= 2
        assert mt.cq_trace_distance(r, s) == oracle_distance(r, s)
        assert mt.cq_trace_distance(s, r) == oracle_distance(s, r)
        twin = mt.uniform_key_twin(r)
        assert mt.cq_trace_distance(r, twin) == oracle_distance(r, twin)
        assert mt.pguess_exact(r) == oracle_pguess(r)
        assert mt.pguess_exact(s, "K") == oracle_pguess(s)


# today's suite trials, one state and one effect at a time: the generator
# stream the stacked trials must keep

def _pair_one_at_a_time(rng, max_dim=8):
    dim = int(rng.integers(2, max_dim + 1))
    r = qs.random_density(int(rng.integers(0, 2 ** 31)), dim, int(rng.integers(1, dim + 1)))
    s = qs.random_density(int(rng.integers(0, 2 ** 31)), dim, int(rng.integers(1, dim + 1)))
    return r, s


def _metric_trial_one_at_a_time(rng):
    r, s = _pair_one_at_a_time(rng)
    t = _pair_one_at_a_time(rng)[0]
    while t.dim != r.dim:
        t = _pair_one_at_a_time(rng)[0]
    d = mt.trace_distance(r, s)
    return (mt.trace_distance(r, r), abs(d - mt.trace_distance(s, r)),
            d - mt.trace_distance(r, t) - mt.trace_distance(t, s))


def _effect_one_at_a_time(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    w = np.linalg.eigvalsh(h)
    return (h - w[0] * np.eye(dim)) / max(w[-1] - w[0], 1e-12)


def _helstrom_trial_one_at_a_time(rng):
    r, s = _pair_one_at_a_time(rng)
    best = 0.5 + 0.5 * mt.trace_distance(r, s)
    povm = mt.helstrom_povm(r, s)
    achieved = 0.5 * float(np.trace(povm.elements[0] @ r.matrix).real) \
        + 0.5 * float(np.trace(povm.elements[1] @ s.matrix).real)
    delta = r.matrix - s.matrix
    beats = [0.5 + 0.5 * float(np.trace(_effect_one_at_a_time(rng, r.dim) @ delta).real)
             - best for _ in range(20)]
    return abs(achieved - best), max(beats)


@pytest.mark.parametrize("trial, reference", [
    (mt._metric_trial, _metric_trial_one_at_a_time),
    (mt._helstrom_trial, _helstrom_trial_one_at_a_time),
])
def test_suite_trials_keep_the_generator_stream(monkeypatch, trial, reference):
    want_rng, got_rng = np.random.default_rng(33), np.random.default_rng(33)
    want = [reference(want_rng) for _ in range(25)]
    built = []
    build = mt.random_density

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(mt, "random_density", counting)
    got = [trial(got_rng) for _ in range(25)]
    assert got == want
    assert got_rng.random() == want_rng.random()
    # the metric trial builds r, s and the t it keeps, never a discarded candidate
    assert len(built) == 25 * (3 if trial is mt._metric_trial else 2)
