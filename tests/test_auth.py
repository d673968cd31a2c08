import gc
import re
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdsec.acframework import advantage_over_family
from qkdsec.protocols import auth, hashing
from qkdsec.protocols.hashing import (
    GF2m,
    HashFamily,
    TagOutOfRange,
    affine_family,
    default_code_matrices,
    toeplitz_matrix,
    verify_asu2,
)
from qkdsec.linalg import gf2_rank


def test_affine_family_uniform_and_asu2_by_exhaustion():
    fam = affine_family(3)
    worst_pair, bound, uniform = verify_asu2(fam)
    assert uniform
    assert worst_pair <= bound + 1e-15
    assert bound == pytest.approx(fam.epsilon / fam.tag_space, abs=1e-18)


def test_affine_family_asu2_at_the_largest_field():
    assert verify_asu2(affine_family(8)) == (2**-16, 2**-16, True)


def test_asu2_oracle_direct_count():
    # independent oracle: literal loop over all keys for one message pair
    fam = affine_family(3)
    x, x2 = 3, 5
    counts = np.zeros((8, 8), dtype=int)
    for key in fam.keys():
        counts[fam.digest(key, x), fam.digest(key, x2)] += 1
    assert counts.sum() == fam.key_count
    assert counts.max() / fam.key_count <= fam.epsilon / fam.tag_space + 1e-15
    digests = fam.digest_all_keys(x)
    for i, key in enumerate(fam.keys()):
        if i % 7 == 0:
            assert digests[i] == fam.digest(key, x)


def test_multi_block_polynomial_hash():
    fam = affine_family(3, max_blocks=2)
    assert fam.epsilon == pytest.approx(2 / 8)
    messages = [(0, 0), (1, 2), (7, 7), (3, 0), (0, 3)]
    worst_pair, bound, uniform = verify_asu2(fam, messages=messages)
    assert uniform and worst_pair <= bound + 1e-15
    with pytest.raises(ValueError):
        fam.digest((1, 1), (1, 2, 3))


def test_tag_round_trip_and_forgery_probability():
    fam = affine_family(3)
    key = (5, 2)
    # a forged message keeps the sent tag: under this key it fails to verify
    assert fam.digest(key, 6 ^ 1) != fam.digest(key, 6)

    # modified message, unchanged tag: acceptance over uniform keys <= epsilon
    x = 2
    accepted = 0
    for key in fam.keys():
        y = fam.digest(key, x)
        if fam.digest(key, x ^ 1) == y:
            accepted += 1
    assert accepted / fam.key_count <= fam.epsilon + 1e-15


def test_exhaustive_substitution_supremum():
    for bits in (3, 4):
        fam = affine_family(bits)
        advantage = auth.exhaustive_substitution_advantage(fam)
        assert advantage <= fam.epsilon + 1e-12
        # the affine family saturates the bound exactly
        assert advantage == pytest.approx(fam.epsilon, abs=1e-12)


def test_family_advantage_below_exhaustive():
    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    measured, name = advantage_over_family(real, ideal, auth.substitution_family(fam))
    assert measured <= fam.epsilon + 1e-12
    exhaustive = auth.exhaustive_substitution_advantage(fam, message=1)
    assert measured <= exhaustive + 1e-12


@pytest.mark.parametrize("x2, y2", [(1, -1), (1, 8), (-1, 0)],
                         ids=["tag-minus-1", "tag-8", "message-minus-1"])
def test_accept_probability_refuses_forgery_outside_space(x2, y2):
    # a negative value would read the tables from their ends
    with pytest.raises(auth.LengthOverflow, match=r"forged pair .* outside"):
        auth.accept_probability(affine_family(3), 0, 0, x2, y2)


@pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (9, 0), (0, 8)],
                         ids=["message-minus-1", "tag-minus-1", "message-9", "tag-8"])
def test_accept_probability_refuses_observed_pair_outside_space(x, y):
    # the observed pair passes the forged pair's check: a negative value
    # would read the tables from their ends, a large one past them
    with pytest.raises(auth.LengthOverflow, match=r"observed pair .* outside .* range\(8\)"):
        auth.accept_probability(affine_family(3), x, y, 1, 0)


@pytest.mark.parametrize("message, bad", [(-1, "-1"), (8, "8"), (3.0, "3.0"), ("a", "'a'"),
                                          ((1, -1), "-1")],
                         ids=["minus-1", "8", "float", "str", "block-minus-1"])
def test_digest_refuses_a_block_outside_the_field(message, bad):
    # -1 would read the tables from their ends and tag like 7; 8 would raise
    # a bare IndexError
    fam = affine_family(3, max_blocks=2)
    pattern = rf"message block {bad} is not an integer in range\(8\)"
    with pytest.raises(hashing.NotAFieldElement, match=pattern):
        fam.digest((1, 0), message)
    with pytest.raises(hashing.NotAFieldElement, match=pattern):
        fam.digest_all_keys(message)


@pytest.mark.parametrize("key, bad", [((1, 9), "9"), ((8, 0), "8"), ((-1, 0), "-1"),
                                      ((1, 2.0), "2.0")],
                         ids=["offset-9", "multiplier-8", "multiplier-minus-1", "float"])
def test_digest_refuses_a_key_part_outside_the_field(key, bad):
    # an offset of 9 would give tag 8, outside the tag space
    with pytest.raises(hashing.NotAFieldElement,
                       match=rf"key part {bad} is not an integer in range\(8\)"):
        affine_family(3).digest(key, 3)


def test_digest_reads_integer_like_blocks_and_key_parts():
    # numpy integers and bools are read as their integer values
    fam = affine_family(3, max_blocks=2)
    assert fam.digest((np.int64(5), np.uint8(2)), np.int64(3)) == fam.digest((5, 2), 3)
    assert fam.digest((5, 2), True) == fam.digest((5, 2), 1)
    assert fam.digest((5, 2), np.array([3, 1])) == fam.digest((5, 2), (3, 1))
    assert np.array_equal(fam.digest_all_keys(np.int64(3)), fam.digest_all_keys(3))
    assert np.array_equal(fam.digest_all_keys(True), fam.digest_all_keys(1))


def test_auth_verify_refuses_a_negative_message():
    # verifying a pair recomputes the message's tag: the tables read from
    # their ends once verified -1 against tag 7
    fam = affine_family(3)
    with pytest.raises(hashing.NotAFieldElement, match=r"message block -1"):
        fam.digest((1, 0), -1)
    with pytest.raises(auth.LengthOverflow, match=r"forged pair \(-1, 7\) outside"):
        auth.accept_probability(fam, 0, 0, -1, 7)


def test_asu2_refuses_a_message_outside_the_field():
    # message -1 tagged like 7 and read as a false violation of the bound
    with pytest.raises(hashing.NotAFieldElement, match=r"message block -1"):
        verify_asu2(affine_family(3), messages=[0, 7, -1])


_OUTSIDE = {
    "tag-minus-1": (1, -1),
    "tag-8": (1, 8),
    "message-minus-1": (-1, 0),
    "message-2-70": (2**70, 0),
    "float-message": (1.5, 0),
    "float-tag": (1, 2.5),
    "str-message": ("1", 0),
}


@pytest.mark.parametrize("system", ["real", "ideal"])
@pytest.mark.parametrize("pair", list(_OUTSIDE.values()), ids=list(_OUTSIDE))
def test_auth_systems_refuse_forged_pair_outside_space(pair, system):
    from qkdsec.acframework import AttackStrategy, evaluate

    attack = AttackStrategy(name="wrap", inputs=(("message", 0),),
                            tamper=(("auth", lambda observed: pair),))
    real, ideal = auth.build_auth_systems(affine_family(3))
    with pytest.raises(auth.LengthOverflow,
                       match=rf"forged pair {re.escape(repr(pair))} outside"):
        evaluate(real if system == "real" else ideal, attack)


_forged_values = st.one_of(
    st.integers(min_value=-2, max_value=9),
    st.integers(min_value=-2, max_value=9).map(np.int64),
    st.booleans(),
    st.sampled_from([2**70, -2**70, 1.0, 1.5, float("nan"), "1", b"1", None, 1j]),
)
_forged_pairs = st.one_of(st.tuples(_forged_values, _forged_values),
                          st.tuples(_forged_values, _forged_values),
                          st.tuples(_forged_values), st.tuples(*[_forged_values] * 3),
                          _forged_values)


def _index_pair(pair):
    # the oracle: two ints, numpy integers or bools, each in range(8)
    ok = isinstance(pair, tuple) and len(pair) == 2 and all(
        isinstance(v, (int, np.integer)) and 0 <= v < 8 for v in pair)
    return (int(pair[0]), int(pair[1])) if ok else None


def _evaluate_or_refuse(system, attack):
    from qkdsec.acframework import evaluate

    try:
        return evaluate(system, attack)
    except auth.LengthOverflow:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=7), st.lists(_forged_pairs, min_size=8, max_size=8))
@example(1, [(True, 0)] * 8)
@example(0, [(np.int64(1), np.int64(0)), (True, False)] * 4)
def test_auth_systems_agree_on_forged_pairs(message, forged):
    # for any forged values, both systems return a state or both refuse the
    # attack by name, and an accepted value acts as the integer it equals
    from qkdsec.acframework import AttackStrategy, evaluate

    real, ideal = auth.build_auth_systems(affine_family(3))

    def attack(pairs):
        return AttackStrategy(name="fuzz", inputs=(("message", message),),
                              tamper=(("auth", lambda observed: pairs[observed[1]]),))

    got = [_evaluate_or_refuse(system, attack(forged)) for system in (real, ideal)]
    ints = [_index_pair(pair) for pair in forged]
    if None in ints:
        assert got == [None, None]
        return
    for state, system in zip(got, (real, ideal)):
        want = evaluate(system, attack(ints))
        assert state.registers == want.registers
        assert np.array_equal(state.codes, want.codes)
        assert np.array_equal(state.weights, want.weights)
        assert state.trace_mass == want.trace_mass


def test_identity_attack_advantage_zero():
    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    from qkdsec.acframework import AttackFamily, identity_strategy

    only_id = AttackFamily(name="id", strategies=(
        identity_strategy(inputs=(("message", 2),)),))
    assert advantage_over_family(real, ideal, only_id)[0] == 0.0


def test_toeplitz_structure_and_determinism():
    t1 = toeplitz_matrix(3, 5, seed=9)
    t2 = toeplitz_matrix(3, 5, seed=9)
    assert np.array_equal(t1, t2)
    for i in range(1, 3):
        for j in range(1, 5):
            assert t1[i, j] == t1[i - 1, j - 1]


def test_default_code_matrices_jointly_independent():
    for width, rows, out in ((2, 1, 1), (3, 1, 2), (4, 2, 2)):
        h, t = default_code_matrices(width, rows, out, seed=4)
        stacked = np.vstack([h, t]) if rows else t
        assert gf2_rank(stacked) == rows + out
    with pytest.raises(ValueError):
        default_code_matrices(2, 2, 1, seed=4)


@pytest.mark.parametrize("bits", [5, 6, 7, 8])
def test_larger_families_on_restricted_spaces(bits):
    # exhaustive over all keys, message subset keeps the check desk-scale
    fam = affine_family(bits)
    messages = [0, 1, 2, (1 << bits) - 1, 1 << (bits - 1)]
    worst_pair, bound, uniform = verify_asu2(fam, messages=messages)
    assert uniform
    assert worst_pair <= bound + 1e-15


def _scalar_supremum(fam, message):
    # brute-force oracle: the scalar triple loop over every forgery
    order = fam.tag_space
    total = 0.0
    for y in range(order):
        best = 0.0
        for x2 in range(order):
            if x2 == message:
                continue
            for y2 in range(order):
                best = max(best, auth.accept_probability(fam, message, y, x2, y2))
        total += best / order
    return total


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
def test_substitution_supremum_matches_scalar_oracle(bits):
    fam = affine_family(bits)
    order = fam.tag_space
    messages = sorted({0, 1, order // 2 + 1, order - 1}) if bits < 6 else [0, 45]
    for message in messages:
        assert auth.exhaustive_substitution_advantage(fam, message=message) == \
            _scalar_supremum(fam, message)


def test_substitution_sweep_leaves_pair_cache_empty():
    auth._pair_counts.cache_clear()
    auth.exhaustive_substitution_advantage(affine_family(5), message=3)
    assert auth._pair_counts.cache_info().currsize == 0


@dataclass(frozen=True)
class _TableFamily(HashFamily):
    """A family whose tags come from a fixed random table: far from ASU2."""

    def digest_all_keys(self, message):
        blocks = (message,) if isinstance(message, int) else tuple(message)
        rng = np.random.default_rng([self.block_bits, len(blocks), *blocks])
        return rng.integers(0, self.tag_space, size=self.key_count)


@dataclass(frozen=True)
class _CopyFamily(_TableFamily):
    """A random-table family in which one message repeats another's tags."""

    source: int = 0
    copy: int = 1

    def digest_all_keys(self, message):
        return super().digest_all_keys(self.source if message == self.copy else message)


@pytest.mark.parametrize("source, copy", [(0, 1), (0, 16), (4, 20), (0, 31), (30, 31)])
def test_asu2_batched_count_reaches_every_pair(source, copy):
    # only the pair (source, copy) collides on every key, so the worst pair
    # count is the largest tag count of the source, wherever the pair sits
    fam = _CopyFamily(5, source=source, copy=copy)
    worst, _, _ = verify_asu2(fam)
    assert worst == np.bincount(fam.digest_all_keys(source)).max() / fam.key_count


def _direct_asu2(fam, messages, digest):
    # pairwise oracle: one count table per message pair, as written
    order, nkeys = fam.tag_space, fam.key_count
    uniform = True
    for m in messages:
        counts = np.zeros(order, dtype=int)
        for y in digest(m):
            counts[y] += 1
        uniform &= bool(np.all(counts * order == nkeys))
    worst = 0
    for i, m in enumerate(messages):
        for m2 in messages[i + 1:]:
            counts = np.zeros((order, order), dtype=int)
            for y, y2 in zip(digest(m), digest(m2)):
                counts[y, y2] += 1
            worst = max(worst, int(counts.max()))
    return worst / nkeys, fam.epsilon / order, uniform


def _literal_digests(fam):
    return lambda m: [fam.digest(key, m) for key in fam.keys()]


@dataclass(frozen=True)
class _ShiftFamily(HashFamily):
    """Offset form with g_x(a) = a for every x: every pair collides."""

    def digest_all_keys(self, message):
        order = self.tag_space
        return (np.arange(order)[:, None] ^ np.arange(order)[None, :]).reshape(-1)


@dataclass(frozen=True)
class _EditedFamily(HashFamily):
    """The affine family with one key's tag flipped, or set to ``tag``, for one message."""

    message: int = 1
    key: int = 5
    tag: int | None = None

    def digest_all_keys(self, message):
        tags = super().digest_all_keys(message)
        if message == self.message:
            tags[self.key] = tags[self.key] ^ 1 if self.tag is None else self.tag
        return tags


def _runs_difference_count(fam, messages):
    digests = hashing._digest_table(fam, messages)
    return hashing._offset_form(digests, fam.tag_space) is not None


@pytest.mark.parametrize("bits", [3, 5])
def test_asu2_batched_count_matches_direct_pairwise_count(bits):
    fam = affine_family(bits)
    messages = list(range(fam.tag_space))
    digest = _literal_digests(fam) if bits == 3 else fam.digest_all_keys
    assert _runs_difference_count(fam, messages)
    assert verify_asu2(fam) == _direct_asu2(fam, messages, digest)
    # a family far from the property: the counts must track it too
    bad = _TableFamily(bits)
    want = _direct_asu2(bad, messages, bad.digest_all_keys)
    assert verify_asu2(bad) == want
    assert want[0] > want[1] and not want[2]
    # in offset form but not ASU2: the difference count must see it
    shift = _ShiftFamily(bits)
    assert _runs_difference_count(shift, messages)
    want = _direct_asu2(shift, messages, shift.digest_all_keys)
    assert verify_asu2(shift) == want
    assert want[0] == 1 / fam.tag_space > want[1] and want[2]
    # one tag off the offset form: the all-keys count must see it
    edited = _EditedFamily(bits)
    assert not _runs_difference_count(edited, messages)
    want = _direct_asu2(edited, messages, edited.digest_all_keys)
    assert verify_asu2(edited) == want
    assert want[0] == 2 / fam.key_count > want[1] and not want[2]


@pytest.mark.parametrize("tag", [8, -1])
def test_asu2_refuses_a_tag_outside_the_tag_space(tag):
    # a tag of 8 would be counted in the next message's bins, and -1 would
    # fail inside numpy with an unrelated message
    fam = _EditedFamily(3, message=2, key=0, tag=tag)
    with pytest.raises(TagOutOfRange, match=rf"message 2 has tag {tag}, outside range\(8\)"):
        verify_asu2(fam)


def test_asu2_batched_count_on_restricted_multi_block_messages():
    fam = affine_family(3, max_blocks=2)
    messages = [(0, 0), (1, 2), (7, 7), (3, 0), (0, 3), (5, 1), (2, 6)]
    assert verify_asu2(fam, messages=messages) == \
        _direct_asu2(fam, messages, _literal_digests(fam))
    bad = _TableFamily(3, max_blocks=2)
    assert verify_asu2(bad, messages=messages) == \
        _direct_asu2(bad, messages, bad.digest_all_keys)
    # a repeated message pairs with itself and breaks the bound
    worst, bound, _ = verify_asu2(fam, messages=messages + [(1, 2)])
    assert worst == 1 / fam.tag_space > bound


def _make_cq_auth_states(fam, strategy):
    # the former construction: accept_probability per observed tag, branches
    # merged and sorted by str of (assignment, weight), then make_cq
    from qkdsec.qstate import make_cq

    order = fam.tag_space
    registers = [("B_out", tuple(range(order)) + ("reject",)),
                 ("E_msg", tuple(range(order))), ("E_tag", tuple(range(order)))]
    x = strategy.input("message", 0)
    rule = strategy.tamper_rule("auth") or (lambda pair: pair)
    real, ideal = {}, {}
    p_tag = 1.0 / order
    for y in range(order):
        x2, y2 = rule((x, y))
        accept = auth.accept_probability(fam, x, y, x2, y2)
        if accept > 0.0:
            real[(x2, x, y)] = real.get((x2, x, y), 0.0) + p_tag * accept
        if accept < 1.0:
            real[("reject", x, y)] = real.get(("reject", x, y), 0.0) + p_tag * (1.0 - accept)
        out = x if (x2, y2) == (x, y) else "reject"
        ideal[(out, x, y)] = ideal.get((out, x, y), 0.0) + p_tag
    return tuple(make_cq(registers, [(a, w, 1.0) for a, w in sorted(merged.items(), key=str)])
                 for merged in (real, ideal))


def _assert_same_state(got, want):
    assert got.registers == want.registers and got.quantum_dims == want.quantum_dims
    assert [b.assignment for b in got.branches] == [b.assignment for b in want.branches]
    assert [b.weight for b in got.branches] == [b.weight for b in want.branches]
    assert all(type(b.weight) is float for b in got.branches)
    assert got.trace_mass == want.trace_mass
    for b, w in zip(got.branches, want.branches):
        assert b.factor.shape == (1, 1) and b.factor[0, 0] == w.factor[0, 0]
    # every branch shares one read-only unit factor
    assert len({id(b.factor) for b in got.branches}) <= 1
    assert not any(b.factor.flags.writeable for b in got.branches)


def _subset_rules(order):
    # rules that keep some observed tags and forge the others: the ideal
    # states must be told apart by the whole kept pattern, not its size
    return (
        ("even-kept", lambda pair: pair if pair[1] % 2 == 0 else (pair[0] ^ 1, pair[1])),
        ("low-kept", lambda pair: pair if pair[1] < order // 2 else (pair[0], pair[1] ^ 1)),
        ("odd-kept", lambda pair: pair if pair[1] % 2 else (0, 0)),
        ("every-third-kept", lambda pair: pair if pair[1] % 3 == 0 else (pair[1], pair[0])),
    )


def _auth_strategies(fam, message):
    from qkdsec.acframework import AttackStrategy

    subset = tuple(AttackStrategy(name=name, inputs=(("message", message),),
                                  tamper=(("auth", rule),))
                   for name, rule in _subset_rules(fam.tag_space))
    return auth.substitution_family(fam, message=message).strategies + subset


@pytest.mark.parametrize("bits", [3, 4, 5])
def test_auth_states_match_make_cq_path(bits):
    from qkdsec.acframework import evaluate

    fam = affine_family(bits)
    real, ideal = auth.build_auth_systems(fam)
    # the messages take turns through one pair of systems, so each one's
    # cached entries are read between another message's
    per_message = [_auth_strategies(fam, message) for message in (0, 1, fam.tag_space - 1)]
    for turn in zip(*per_message):
        for strategy in turn:
            want_real, want_ideal = _make_cq_auth_states(fam, strategy)
            _assert_same_state(evaluate(real, strategy), want_real)
            _assert_same_state(evaluate(ideal, strategy), want_ideal)


def test_cached_ideal_state_dies_with_its_systems():
    from qkdsec.acframework import evaluate

    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    strategies = _auth_strategies(fam, 2)
    for strategy in strategies:
        evaluate(real, strategy)
    ref = weakref.ref(evaluate(ideal, strategies[-1]))
    assert evaluate(ideal, strategies[-1]) is ref()
    del real, ideal
    gc.collect()
    assert ref() is None


def _clmul(a: int, b: int, bits: int, modulus: int) -> int:
    """Carry-less product in GF(2^bits), one bit of b at a time."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & (1 << bits):
            a ^= modulus
    return out


@pytest.mark.parametrize("bits", range(1, 9))
def test_gf2m_table_matches_scalar_multiply(bits):
    field = GF2m(bits)
    want = [[_clmul(a, b, bits, field.modulus) for b in range(field.order)]
            for a in range(field.order)]
    assert field.mul_table.dtype == np.int64
    assert field.mul_table.tolist() == want


@pytest.mark.parametrize("system", ["real", "ideal"])
@pytest.mark.parametrize("message", [2.0, 1 + 0j, np.float64(1.0), "1", None, -1, 8, 2**70],
                         ids=["float", "complex", "numpy-float", "str", "none", "minus-1", "8",
                              "2-70"])
def test_auth_systems_refuse_a_message_that_is_not_an_integer_in_range(message, system):
    # the sent message is read through operator.index, as the forged pairs
    # are: 2.0 and 1+0j are not the messages 2 and 1
    from qkdsec.acframework import AttackStrategy, evaluate

    real, ideal = auth.build_auth_systems(affine_family(3))
    attack = AttackStrategy(name="sent", inputs=(("message", message),))
    with pytest.raises(auth.LengthOverflow,
                       match=rf"message {re.escape(repr(message))} outside"):
        evaluate(real if system == "real" else ideal, attack)


@pytest.mark.parametrize("message, value", [(np.int64(2), 2), (np.uint8(7), 7), (True, 1),
                                            (False, 0)])
def test_auth_systems_read_integer_like_messages(message, value):
    from qkdsec.acframework import AttackStrategy, evaluate

    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    rule = (("auth", lambda pair: (pair[0] ^ 1, pair[1])),)
    for system in (real, ideal):
        got = evaluate(system, AttackStrategy(name="a", inputs=(("message", message),),
                                              tamper=rule))
        want = evaluate(system, AttackStrategy(name="b", inputs=(("message", value),),
                                               tamper=rule))
        _assert_same_state(got, want)


def test_forged_pairs_are_derived_once_per_strategy():
    # both systems share the last attack's checked forged pairs, so a
    # counting rule runs once per observed tag per strategy
    from collections import Counter

    from qkdsec.acframework import AttackFamily, AttackStrategy, identity_strategy

    fam = affine_family(3)
    calls = Counter()

    def counting(name, target):
        def rule(pair):
            calls[name, pair] += 1
            return target
        return rule

    strategies = (identity_strategy(inputs=(("message", 2),)),) + tuple(
        AttackStrategy(name=f"const{i}", inputs=(("message", 2),),
                       tamper=(("auth", counting(f"const{i}", (i, 0))),))
        for i in range(4))
    value, name = advantage_over_family(*auth.build_auth_systems(fam),
                                        AttackFamily(name="counted", strategies=strategies))
    assert calls == {(f"const{i}", (2, y)): 1 for i in range(4) for y in range(8)}
    assert (value, name) == (0.125, "const0")


def _state_key(state):
    return state.codes.tolist(), state.weights.tolist(), state.trace_mass


def test_alternating_strategies_across_system_pairs_match_fresh_systems():
    # one pair's memo must never serve another attack, or another pair's
    from qkdsec.acframework import evaluate, state_distance

    fam = affine_family(3)
    first, second = auth.build_auth_systems(fam), auth.build_auth_systems(fam)
    strategies = _auth_strategies(fam, 1) + _auth_strategies(fam, 6)
    for s, t in zip(strategies, strategies[1:] + strategies[:1]):
        fresh = {u: [_state_key(evaluate(system, u)) for system in auth.build_auth_systems(fam)]
                 for u in (s, t)}
        got = {s: [None, None], t: [None, None]}
        for (real, ideal), (u, side) in zip((first, second, first, second, second, first),
                                            ((s, 0), (t, 0), (t, 1), (s, 1), (t, 0), (s, 0))):
            got[u][side] = _state_key(evaluate((real, ideal)[side], u))
        assert got[s] == fresh[s] and got[t] == fresh[t]
        assert state_distance(evaluate(first[0], s), evaluate(second[1], s)) == \
            state_distance(*(evaluate(system, s) for system in auth.build_auth_systems(fam)))


def _literal_pair_counts(fam, x, x2):
    # the count over every key, one key at a time
    order = fam.tag_space
    counts = np.zeros((order, order), dtype=np.int64)
    for y, y2 in zip(fam.digest_all_keys(x).tolist(), fam.digest_all_keys(x2).tolist()):
        counts[y, y2] += 1
    return counts


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_pair_counts_match_the_count_over_all_keys(bits):
    fam = affine_family(bits)
    order = fam.tag_space
    # the affine family's digests are the literal ones
    assert fam.digest_all_keys(order - 1).tolist() == \
        [fam.digest(key, order - 1) for key in fam.keys()]
    messages = sorted({0, 1, order // 2, order - 1})
    for x in messages:
        dx = hashing._digest_row(fam, x)
        for x2 in messages:
            want = _literal_pair_counts(fam, x, x2)
            got = auth._count_pairs(fam, dx, x2)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # resending x verifies exactly when the tag is kept
            for y, y2 in np.ndindex(order, order):
                accept = float(y2 == y) if x2 == x else float(want[y, y2]) / float(want[y].sum())
                assert auth.accept_probability(fam, x, y, x2, y2) == accept


@pytest.mark.parametrize("fam", [_TableFamily(4), _EditedFamily(4, message=1, key=5),
                                 _ShiftFamily(4)], ids=["table", "edited", "shift"])
def test_pair_counts_match_the_count_over_all_keys_off_the_affine_family(fam):
    for x, x2 in [(1, 0), (0, 1), (1, 1), (3, 9)]:
        got = auth._count_pairs(fam, hashing._digest_row(fam, x), x2)
        assert np.array_equal(got, _literal_pair_counts(fam, x, x2))
    assert auth.exhaustive_substitution_advantage(fam, message=1) == \
        _scalar_supremum(fam, 1)


@pytest.mark.parametrize("tag", [8, -1, 256], ids=["8", "minus-1", "256"])
def test_pair_counts_refuse_a_tag_outside_the_tag_space(tag):
    # as in verify_asu2: a tag of 8 would be counted in the next observed
    # tag's bins, and -1 or 256 would fail inside numpy or past the table
    fam = _EditedFamily(3, message=2, key=0, tag=tag)
    assert affine_family(3).digest_all_keys(2)[0] == 0
    match = rf"message 2 has tag {tag}, outside range\(8\)"
    with pytest.raises(TagOutOfRange, match=match):
        auth.exhaustive_substitution_advantage(fam, message=1)
    with pytest.raises(TagOutOfRange, match=match):
        auth.accept_probability(fam, 2, 0, 1, 0)
