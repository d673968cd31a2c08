"""Message authentication from almost-strongly-universal hashing.

The real system appends the tag h_k(x) and sends message||tag over an
insecure channel on which the attack substitutes arbitrary strings.  The
ideal authentic channel delivers the original message or an error, and its
simulator runs the tagging logic on a key of its own, pressing the
interrupt switch whenever the substituted string differs from what it sent.

Because tags are uniform over the key, the evaluated states branch over the
observed tag, with acceptance probabilities obtained by exhaustive key
counting; nothing is sampled.  The supremum over all substitution rules is
one array reduction per forged message: the joint tag counts of the sent
and the forged message over every key, maximised per observed tag.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..acframework import AttackFamily, AttackStrategy, SystemGraph, identity_strategy
from ..qstate import CQState, Register, make_cq
from .hashing import HashFamily

__all__ = [
    "LengthOverflow",
    "auth_tag",
    "auth_verify",
    "build_auth_systems",
    "substitution_family",
    "exhaustive_substitution_advantage",
]


class LengthOverflow(ValueError):
    pass


def auth_tag(fam: HashFamily, key: tuple[int, int], x) -> tuple:
    """Transmit pair (message, tag)."""
    blocks = (x,) if isinstance(x, int) else tuple(x)
    if len(blocks) > fam.max_blocks:
        raise LengthOverflow(
            f"{len(blocks)} blocks exceed the family cap {fam.max_blocks}")
    return (x, fam.digest(key, x))


def auth_verify(fam: HashFamily, key: tuple[int, int], pair: tuple):
    """Return the message when the tag checks out, else None (the error)."""
    x, y = pair
    blocks = (x,) if isinstance(x, int) else tuple(x)
    if len(blocks) > fam.max_blocks:
        raise LengthOverflow(
            f"{len(blocks)} blocks exceed the family cap {fam.max_blocks}")
    return x if fam.digest(key, x) == y else None


def _count_pairs(fam: HashFamily, dx: np.ndarray, x2) -> np.ndarray:
    """counts[y, y2] = #keys with h(x) = y and h(x2) = y2, given dx = h(x)."""
    order = fam.tag_space
    dx2 = fam.digest_all_keys(x2)
    return np.bincount(dx * order + dx2, minlength=order * order).reshape(order, order)


@lru_cache(maxsize=None)
def _pair_counts(fam: HashFamily, x: int, x2: int) -> np.ndarray:
    return _count_pairs(fam, fam.digest_all_keys(x), x2)


def accept_probability(fam: HashFamily, x: int, y: int, x2: int, y2: int) -> float:
    """Pr over keys consistent with (x, y) that the forged (x2, y2) verifies."""
    if x2 == x:
        return 1.0 if y2 == y else 0.0
    counts = _pair_counts(fam, x, x2)
    consistent = counts[y, :].sum()
    return float(counts[y, y2]) / float(consistent)


def build_auth_systems(fam: HashFamily, message_space=None):
    """Real and ideal single-message authentication systems.

    The distinguisher picks the transmitted message via
    ``inputs=(("message", x),)`` and tampers through a substitution rule
    named ``auth`` mapping the observed (x, y) to the injected (x', y').
    The joint message/tag space must stay at desk scale (<= 2^10).
    """
    order = fam.tag_space
    if message_space is None:
        message_space = tuple(range(order))
    if len(message_space) * order > 1024:
        raise LengthOverflow("joint message/tag space above the 2^10 desk-scale cap")
    b_alphabet = tuple(message_space) + ("reject",)
    registers = [
        Register("B_out", b_alphabet),
        Register("E_msg", tuple(message_space)),
        Register("E_tag", tuple(range(order))),
    ]

    def _common(attack: AttackStrategy):
        x = attack.input("message", message_space[0])
        if x not in message_space:
            raise LengthOverflow(f"message {x!r} outside the configured space")
        rule = attack.tamper_rule("auth")
        return x, (rule if rule is not None else (lambda pair: pair))

    def real_evaluator(attack: AttackStrategy) -> CQState:
        x, rule = _common(attack)
        branches = []
        p_tag = 1.0 / order
        for y in range(order):
            x2, y2 = rule((x, y))
            accept = accept_probability(fam, x, y, x2, y2)
            if accept > 0.0:
                branches.append(((x2, x, y), p_tag * accept, 1.0))
            if accept < 1.0:
                branches.append((("reject", x, y), p_tag * (1.0 - accept), 1.0))
        return make_cq(registers, _merge(branches), ())

    def ideal_evaluator(attack: AttackStrategy) -> CQState:
        x, rule = _common(attack)
        branches = []
        p_tag = 1.0 / order
        for y in range(order):
            x2, y2 = rule((x, y))
            out = x if (x2, y2) == (x, y) else "reject"
            branches.append(((out, x, y), p_tag, 1.0))
        return make_cq(registers, _merge(branches), ())

    real = SystemGraph(name=f"auth-real-b{fam.block_bits}", evaluator=real_evaluator)
    ideal = SystemGraph(name=f"auth-ideal-b{fam.block_bits}", evaluator=ideal_evaluator)
    return real, ideal


def _merge(branches):
    merged: dict = {}
    for assignment, weight, _ in branches:
        merged[assignment] = merged.get(assignment, 0.0) + weight
    return [(a, w, 1.0) for a, w in sorted(merged.items(), key=str)]


def _constant_rule(target):
    return lambda pair: target


def _flip_rule(msg_xor: int, tag_xor: int):
    return lambda pair: (pair[0] ^ msg_xor, pair[1] ^ tag_xor)


def substitution_family(fam: HashFamily, message: int = 1) -> AttackFamily:
    """Representative substitution attacks: constants, bit flips, identity."""
    order = fam.tag_space
    strategies = [identity_strategy(inputs=(("message", message),))]
    for x2 in range(order):
        for y2 in range(order):
            strategies.append(AttackStrategy(
                name=f"const:{x2},{y2}",
                inputs=(("message", message),),
                tamper=(("auth", _constant_rule((x2, y2))),),
            ))
    strategies.append(AttackStrategy(
        name="flip-msg", inputs=(("message", message),),
        tamper=(("auth", _flip_rule(1, 0)),)))
    strategies.append(AttackStrategy(
        name="flip-tag", inputs=(("message", message),),
        tamper=(("auth", _flip_rule(0, 1)),)))
    return AttackFamily(name=f"substitutions-b{fam.block_bits}",
                        strategies=tuple(strategies))


def exhaustive_substitution_advantage(fam: HashFamily, message: int = 0) -> float:
    """Exact supremum of the advantage over ALL substitution functions.

    The real/ideal states are block diagonal in the observed (x, y), so the
    advantage of a substitution rule f decomposes per tag value, and the
    supremum is attained by choosing, for every observed pair, the forged
    pair with the highest conditional acceptance probability:

        sup_f adv(f) = sum_y 2^-b * max(0, max_{(x',y') != (x,y)} Pr[accept])

    (substituting a different tag on the same message never verifies, and
    leaving the pair alone contributes zero).
    """
    order = fam.tag_space
    dx = fam.digest_all_keys(message)
    # keys consistent with each observed tag: the row sums of every table
    consistent = np.bincount(dx, minlength=order)
    # all forgeries of one observed tag share its denominator, so the best
    # acceptance is the largest count over it; the tables are built here and
    # not through _pair_counts, whose cache would keep all of them
    best_count = np.zeros(order, dtype=np.int64)
    for x2 in range(order):
        if x2 != message:
            np.maximum(best_count, _count_pairs(fam, dx, x2).max(axis=1), out=best_count)
    best = best_count / consistent
    total = 0.0
    for y in range(order):
        total += float(best[y]) / order
    return total
