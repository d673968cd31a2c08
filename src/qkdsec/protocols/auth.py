"""Message authentication from almost-strongly-universal hashing.

The real system appends the tag h_k(x) and sends message||tag over an
insecure channel on which the attack substitutes arbitrary strings.  The
ideal authentic channel delivers the original message or an error, and its
simulator runs the tagging logic on a key of its own, pressing the
interrupt switch whenever the substituted string differs from what it sent.

Because tags are uniform over the key, the evaluated states branch over the
observed tag, with acceptance probabilities obtained by exhaustive key
counting; nothing is sampled.  Each system keeps a cache that is freed
with it.  The real system reads the acceptances of all tags in one
gather from a per-message table, keyed by the sent message x:
``table[x2, y, y2]`` is the probability that the forged (x2, y2) verifies
given the observed tag y, built once from the joint tag counts of x and
every message.  The ideal system's state depends only on x and on which
observed tags are forwarded unchanged, so it is built once per
``(x, kept-tag pattern)``.  Both build their classical states from
alphabet-index columns with ``make_classical_cq_columns``.  The supremum
over all substitution rules is one array reduction per forged message: the
joint tag counts of the sent and the forged message over every key,
maximised per observed tag.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

import numpy as np

from ..acframework import AttackFamily, AttackStrategy, SystemGraph, identity_strategy
from ..qstate import CQState, Register, make_classical_cq_columns
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
    blocks = fam.blocks(x)
    if len(blocks) > fam.max_blocks:
        raise LengthOverflow(
            f"{len(blocks)} blocks exceed the family cap {fam.max_blocks}")
    return (x, fam.digest(key, x))


def auth_verify(fam: HashFamily, key: tuple[int, int], pair: tuple):
    """Return the message when the tag checks out, else None (the error)."""
    x, y = pair
    blocks = fam.blocks(x)
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
def _pair_counts(fam: HashFamily, x: int, x2: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, row sums) of x and x2 as read-only int arrays: counts[y, y2] as
    in :func:`_count_pairs` and sums[y] = #keys with h(x) = y."""
    counts = _count_pairs(fam, fam.digest_all_keys(x), x2)
    counts.setflags(write=False)
    sums = counts.sum(axis=1)
    sums.setflags(write=False)
    return counts, sums


def _forged_indices(order: int, pairs):
    """(messages, tags) of the forged pairs as lists of ints, or None when a
    pair is not two integers in range(order)."""
    try:
        x2 = [index(m) for m, _ in pairs]
        y2 = [index(t) for _, t in pairs]
    except (TypeError, ValueError):
        return None
    if 0 <= min(x2) and max(x2) < order and 0 <= min(y2) and max(y2) < order:
        return x2, y2
    return None


def _check_forged(order: int, pairs) -> tuple[list[int], list[int]]:
    """The forged messages and tags as ints, each in range(order).

    Every value passes through ``operator.index``, so ints, numpy integers
    and bools are read as their integer values; any other value, or one
    outside the space (a negative one would read the tables from their
    ends), raises :class:`LengthOverflow` naming the first such pair.
    """
    checked = _forged_indices(order, pairs)
    if checked is None:
        bad = next(p for p in pairs if _forged_indices(order, [p]) is None)
        raise LengthOverflow(f"forged pair {bad!r} outside the message and tag "
                             f"space range({order})")
    return checked


def accept_probability(fam: HashFamily, x: int, y: int, x2: int, y2: int) -> float:
    """Pr over keys consistent with (x, y) that the forged (x2, y2) verifies.

    The observed (x, y) must pass the forged pair's check too."""
    observed = _forged_indices(fam.tag_space, [(x, y)])
    if observed is None:
        raise LengthOverflow(f"observed pair {(x, y)!r} outside the message and tag "
                             f"space range({fam.tag_space})")
    (x,), (y,) = observed
    (x2,), (y2,) = _check_forged(fam.tag_space, [(x2, y2)])
    if x2 == x:
        return 1.0 if y2 == y else 0.0
    counts, sums = _pair_counts(fam, x, x2)
    return float(counts[y, y2]) / float(sums[y])


def build_auth_systems(fam: HashFamily):
    """Real and ideal single-message authentication systems.

    Messages range over ``range(fam.tag_space)``.  The distinguisher picks
    the transmitted message via ``inputs=(("message", x),)`` and tampers
    through a substitution rule named ``auth`` mapping the observed (x, y)
    to the injected (x', y').  Forged messages and tags must be integers in
    the same range (ints, numpy integers or bools), else both systems raise
    :class:`LengthOverflow`.  The joint message/tag space must stay at desk
    scale (<= 2^10).

    Each system keeps one cache in this closure, freed with the systems.
    The real one keeps, per sent message x, the acceptance table
    ``table[x2, y, y2]`` (at most 32^3 floats): the identity on x2 = x,
    since resending x verifies exactly when the tag is kept, and
    ``counts / sums`` of x and x2 otherwise; the forged pairs of all tags
    are read from it in one gather.  The ideal one keeps its state per
    ``(x, kept)``, where ``kept`` marks the observed tags that the rule
    forwards unchanged, the only thing its state depends on besides x.
    """
    order = fam.tag_space
    message_space = tuple(range(order))
    if len(message_space) * order > 1024:
        raise LengthOverflow("joint message/tag space above the 2^10 desk-scale cap")
    registers = [
        Register("B_out", message_space + ("reject",)),
        Register("E_msg", message_space),
        Register("E_tag", message_space),
    ]
    # a message's B_out alphabet index is the message itself
    reject = order
    tags = np.arange(order)
    tag_rows = np.repeat(tags, 2)
    p_tag = 1.0 / order
    tables: dict[int, np.ndarray] = {}
    ideal_states: dict[tuple[int, bytes], CQState] = {}

    def _common(attack: AttackStrategy):
        x = attack.input("message", message_space[0])
        if x not in message_space:
            raise LengthOverflow(f"message {x!r} outside the configured space")
        x = message_space.index(x)
        rule = attack.tamper_rule("auth")
        rule = rule if rule is not None else (lambda pair: pair)
        x2, y2 = _check_forged(order, [rule((x, y)) for y in range(order)])
        return x, np.array(x2), np.array(y2)

    def _acceptance(x: int) -> np.ndarray:
        table = tables.get(x)
        if table is None:
            dx = fam.digest_all_keys(x)
            table = np.empty((order, order, order))
            # a tag that x never takes has no consistent key: its rows are
            # nan, which the state check refuses if an attack reads them
            with np.errstate(invalid="ignore"):
                for m in message_space:
                    counts = _count_pairs(fam, dx, m)
                    table[m] = counts / counts.sum(axis=1)[:, None]
            table[x] = np.eye(order)
            table.setflags(write=False)
            tables[x] = table
        return table

    def real_evaluator(attack: AttackStrategy) -> CQState:
        x, x2, y2 = _common(attack)
        accept = _acceptance(x)[x2, tags, y2]
        # per tag, the accepted branch and then the rejected one; the state
        # drops those of zero weight
        out = np.empty(2 * order, dtype=np.int64)
        out[0::2] = x2
        out[1::2] = reject
        weights = np.empty(2 * order)
        weights[0::2] = p_tag * accept
        weights[1::2] = p_tag * (1.0 - accept)
        return make_classical_cq_columns(
            registers, [out, np.full(2 * order, x), tag_rows], weights)

    def ideal_evaluator(attack: AttackStrategy) -> CQState:
        x, x2, y2 = _common(attack)
        kept = (x2 == x) & (y2 == tags)
        key = (x, kept.tobytes())
        state = ideal_states.get(key)
        if state is None:
            state = ideal_states[key] = make_classical_cq_columns(
                registers, [np.where(kept, x, reject), np.full(order, x), tags],
                np.full(order, p_tag))
        return state

    real = SystemGraph(name=f"auth-real-b{fam.block_bits}", evaluator=real_evaluator)
    ideal = SystemGraph(name=f"auth-ideal-b{fam.block_bits}", evaluator=ideal_evaluator)
    return real, ideal


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
