from dataclasses import dataclass

import numpy as np
import pytest

from qkdsec.acframework import advantage_over_family
from qkdsec.protocols import auth
from qkdsec.protocols.hashing import (
    HashFamily,
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
    pair = auth.auth_tag(fam, key, 6)
    assert auth.auth_verify(fam, key, pair) == 6
    assert auth.auth_verify(fam, key, (pair[0] ^ 1, pair[1])) is None

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


@pytest.mark.parametrize("bits", [3, 5])
def test_asu2_batched_count_matches_direct_pairwise_count(bits):
    fam = affine_family(bits)
    messages = list(range(fam.tag_space))
    digest = _literal_digests(fam) if bits == 3 else fam.digest_all_keys
    assert verify_asu2(fam) == _direct_asu2(fam, messages, digest)
    # a family far from the property: the counts must track it too
    bad = _TableFamily(bits)
    want = _direct_asu2(bad, messages, bad.digest_all_keys)
    assert verify_asu2(bad) == want
    assert want[0] > want[1] and not want[2]


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
