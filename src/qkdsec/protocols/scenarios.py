"""Composition scenarios: leaked key, QKD+OTP, parallel QKD, key expansion.

Each scenario measures the distinguishing advantage of the composed real
and ideal protocols exactly, straight from ``qkd_run`` results and the
enumerations below, then checks it against the bound that the component
failures imply.  Parallel composition pays attention to crossing attacks:
the shipped one reroutes the quantum signals between the two instances
(swap), which couples the runs, so ``swap_crossing_advantage`` evaluates
the joint state of both runs at once.

Two examples compare a real run with an ideal key resource whose simulator
presses each party's switch as its own run aborted: the swap crossing and
an authenticated round of key expansion.  A label (Eve's view and the abort
pattern) spreads its mass evenly over its ideal cells, each of which takes
0, 1 or one over the power-of-two key count.  Both read the single-qubit
odds from ``bb84._overlaps()``.

In the swap, Bob of each run measures the qubits that the other run's
Alice prepared, so given the bases the bits split into two independent
chains: X = (Alice 1, Bob 2) and Y = (Alice 2, Bob 1).  Each chain is a
product over positions whose odds depend on the bases only through the
mask e = theta1 ^ theta2, so the 4^n basis pairs fall into 2^n masks of
2^n pairs with equal terms.  One table per ordered pair of sample subsets
(``_chain_table``, one ``np.bincount`` over the 4^n words of a chain)
serves as X of one subset pair and as Y of its mirror, and each label
adds one dense |real - ideal| sum over the keys of the runs that pass.
The weights are dyadic and leave out the uniform choice of the two sample
subsets, so every term and partial sum is held exactly, in any order; the
total is divided by 2^n exactly and by the subset pairs once, so the value
is the exact distance correctly rounded.

The round factors each (sample subset, bases) block into a sample side,
which sets the abort pattern, and a rest side, which sets the key pair;
its odds come from one outcome table per intercept probability
(``_outcome_table``), dyadic and so exact at p in {0, 1/2, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ..acframework import EpsilonLedger, LedgerEntry, ScheduleMismatch, serial_compose
from ..linalg import coset_leader_table
from ..metrics import BoundReport
from . import bb84
from .bb84 import QkdParams, QkdRun, _digits, qkd_run
from .auth import _pair_counts
from .hashing import HashFamily

__all__ = [
    "NegativeRounds",
    "leaked_key_scenario",
    "qkd_otp_scenario",
    "swap_crossing_advantage",
    "product_pair_advantage",
    "parallel_qkd_scenario",
    "authenticated_round_distance",
    "key_expansion",
    "KeyExpansionResult",
    "locking_demo",
    "LockingReport",
]


class NegativeRounds(ValueError):
    pass


# --- sequential composition examples -------------------------------------------------

def leaked_key_scenario(params: QkdParams, split: int, attacks) -> BoundReport:
    """Forward the first ``split`` key bits to Eve on both systems.

    The leak is the same register permutation on the real and ideal sides,
    so the advantage of every attack is unchanged; the leaked distance is
    evaluated from ``qkd_run``'s joint (K_A, K_B) rows on a fresh engine and
    compared with the run's advantage.
    """
    worst = 0.0
    for attack in attacks:
        run = qkd_run(params, attack)
        leaked = bb84.leaked_advantage(run, split)
        worst = max(worst, abs(leaked - run.advantage))
    return BoundReport(f"leaked-key-split{split}", worst, 0.0)


def qkd_otp_scenario(params: QkdParams, message: int, attacks) -> BoundReport:
    """QKD followed by a one-time pad on the produced key.

    The composed advantage cannot exceed the plain QKD advantage (the pad is
    perfect); both are measured per attack and the worst excess reported.
    """
    worst = -math.inf
    for attack in attacks:
        run = qkd_run(params, attack)
        composed = bb84.otp_composed_advantage(run, message)
        worst = max(worst, composed - run.advantage)
    return BoundReport("qkd-otp-compose", worst, 0.0)


# --- parallel composition -------------------------------------------------------------

def _diagonal_blocks(run: QkdRun):
    """Flattened (real, ideal) signed sector values of a classical run.

    Only valid when every environment sector of the rest is one-dimensional
    (classical attacks): then the rows' values in each sector tuple of the
    stacked contraction are scalars.  A merged sector scales a tuple's real
    and ideal values by one positive factor, so the pair term stays a sum
    over the sectors.  Values are subnormalised by the non-abort mass.
    """
    p = run.params
    engine = bb84._Engine(p, run.attack)
    subsets = list(combinations(range(p.n_qubits), p.t))
    if len({id(t) for t in engine.tables}) != 1:
        raise ScheduleMismatch(
            "diagonal export assumes position-uniform attacks")
    # uniform attacks: the rest sums are subset independent; evaluate on one
    rest = tuple(i for i in range(p.n_qubits) if i not in subsets[0])
    classes = [engine.tables[i].classes for i in rest]
    if any(len(c) > 1 or c[0].shape[-1] > 1 for c in classes):
        raise ScheduleMismatch("attack is not classical; no diagonal export")
    ops = [c[0] for c in classes]
    # per syndrome and key pair: the real branch sum, the ideal uniform key;
    # both contractions batch alike, so their values line up
    select, mix = bb84.key_rows(p, *bb84._joint_keys(p.key_size))
    reals = [m.ravel() for _, m in bb84._contract(select, ops)]
    ideals = [m.ravel() for _, m in bb84._contract(mix, ops)]
    pass_mass = 1.0 - run.p_abort
    scale = pass_mass if pass_mass > 0 else 1.0
    # the rest holds unit mass; rescale so each side sums to 1 - p_abort
    return np.concatenate(reals) * scale, np.concatenate(ideals) * scale


def product_pair_advantage(run1: QkdRun, run2: QkdRun) -> float:
    """Exact advantage of a product attack on two parallel QKD instances.

    Abort sectors match on both sides, so
    D = p_abort1 * D2 + p_abort2 * D1 + (pair term over non-abort sectors);
    the pair term needs the scalar sector export, hence classical attacks.
    Identity-equivalent sides short-circuit (their real and ideal states are
    equal, making the tensor distance collapse to the other side's).
    """
    if run1.advantage == 0.0:
        return run2.advantage
    if run2.advantage == 0.0:
        return run1.advantage
    r1, i1 = _diagonal_blocks(run1)
    r2, i2 = _diagonal_blocks(run2)
    # sum |r1 (x) r2 - i1 (x) i2| over row chunks of r1, one engine batch each
    step = max(1, bb84._BATCH_ENTRIES // r2.size)
    pair = 0.5 * sum(
        float(np.abs(np.outer(r1[lo:lo + step], r2)
                     - np.outer(i1[lo:lo + step], i2)).sum())
        for lo in range(0, r1.size, step))
    return run1.p_abort * run2.advantage + run2.p_abort * run1.advantage + pair


def swap_crossing_advantage(params: QkdParams) -> float:
    """Distance of the swap attack's joint state from two ideal keys.

    The ideal side uniformises the surviving keys per instance; abort
    patterns are matched per instance through the simulators' switches.
    Bob of each run measures the qubits the other run's Alice prepared, so
    given the bases the bits split into two independent chains, X = (Alice
    1, Bob 2) and Y = (Alice 2, Bob 1), whose odds depend on the bases only
    through the mask e = theta1 ^ theta2 (``_chain_table``).  The label
    (bases, subset pair and both chains' visible words) splits its real
    mass X * Y over the key pairs, and adds one dense |real - ideal| sum
    over the keys of the runs that pass.  The 2^n basis pairs of one mask
    give equal sums, so each mask is counted once with weight 2^-n.  Every
    term and partial sum is a dyadic rational that a float holds exactly;
    the total is divided by 2^n exactly and by the C(n, t)^2 subset pairs
    once, at the end, so the value is the rational distance correctly
    rounded.
    """
    n, t, rows = params.n_qubits, params.t, params.h_rows
    subsets = list(combinations(range(n), t))
    bits = _digits(2, n)
    a, b = np.repeat(bits, 1 << n, axis=0), np.tile(bits, (1 << n, 1))
    # p(a, b) of a chain word under mask e: Alice's bit uniform, the other
    # Bob's outcome from the overlap of the two bases
    weights = (0.5 * bb84._overlaps()[0])[bits[:, None, :], b, a].prod(axis=2)
    tables = {pair: _chain_table(params, weights, a, b, *pair)
              for pair in product(subsets, repeat=2)}
    # a visible word is (Alice's sample << t | Bob's sample) << rows | syndrome;
    # run 1 compares X's Alice with Y's Bob, run 2 X's Bob with Y's Alice
    visible = np.arange(4 ** t << rows)
    alice, bob = visible >> (t + rows), visible >> rows & ((1 << t) - 1)
    syn = visible & ((1 << rows) - 1)
    errors = _digits(2, t).sum(axis=1)
    pass1 = errors[alice[:, None] ^ bob] <= params.q_tol * t  # [vx, vy]
    pass2 = errors[bob[:, None] ^ alice] <= params.q_tol * t
    # the keys that a pass pattern compares with the shared uniform key: both
    # runs' pairs, flattened so that the ideal pairs are the diagonal, or the
    # passing run's pair with the aborted run's keys summed out
    patterns = [(np.nonzero(pass1 & pass2), lambda k: k.reshape(*k.shape[:2], -1)),
                (np.nonzero(pass1 & ~pass2), lambda k: k.sum(axis=3)),
                (np.nonzero(~pass1 & pass2), lambda k: k.sum(axis=2))]
    total = 0.0
    for s1, s2 in product(subsets, repeat=2):
        for (vx, vy), keys in patterns:
            # over [e, label]: x[ka1, kb2] and y[kb1, ka2], each Bob corrected
            # against the syndrome in the other chain's visible word
            u = keys(tables[s1, s2][:, vx, syn[vy]])
            v = keys(tables[s2, s1][:, vy, syn[vx]].swapaxes(2, 3))
            share = (u.sum(axis=2) * v.sum(axis=2))[..., None, None] / u.shape[2]
            total += float(np.abs(u[..., :, None] * v[..., None, :]
                                  - np.eye(u.shape[2]) * share).sum())
    return 0.5 * total / 2 ** n / len(subsets) ** 2


def _chain_table(params: QkdParams, weights, a, b, s_a, s_b) -> np.ndarray:
    """One swap chain's masses, indexed [e, visible, syndrome, K_A, K_B].

    The chain pairs one run's Alice bits ``a`` (sample subset ``s_a``) with
    the other run's Bob bits ``b`` (subset ``s_b``), word by word, with mass
    ``weights[e]`` under basis mask e.  ``visible`` packs a[s_a] and b[s_b]
    (first sample position in the high bit) and the syndrome of a's rest;
    K_A is a's key and K_B is b's corrected key against each syndrome that
    b's own Alice may announce.
    """
    n, t, rows, nk = params.n_qubits, params.t, params.h_rows, params.key_size
    rest_a, rest_b = ([i for i in range(n) if i not in s] for s in (s_a, s_b))
    b_rest = b[:, rest_b]
    syn, ka, _ = bb84._key_tables(params, a[:, rest_a], b_rest)
    # each syndrome's coset leader is a word that announces it
    h = np.array(params.h_matrix, dtype=np.int64).reshape(rows, params.width)
    leaders = coset_leader_table(h)[:, None] >> np.arange(params.width) & 1
    kb = np.array([bb84._key_tables(params, np.broadcast_to(x, b_rest.shape), b_rest)[2]
                   for x in leaders])  # [syndrome, word]
    place = 1 << np.arange(t - 1, -1, -1)
    visible = ((a[:, list(s_a)] @ place) << t | b[:, list(s_b)] @ place) << rows | syn
    cells = ((visible << rows | np.arange(1 << rows)[:, None]) * nk + ka) * nk + kb
    size = (4 ** t << 2 * rows) * nk * nk
    ids = np.arange(len(weights))[:, None, None] * size + cells
    masses = np.bincount(ids.ravel(), np.broadcast_to(weights[:, None], ids.shape).ravel(),
                         minlength=len(weights) * size)
    return masses.reshape(len(weights), 4 ** t << rows, 1 << rows, nk, nk)


def parallel_qkd_scenario(params: QkdParams):
    """Advantage of two parallel runs against twice the single-run bound.

    The rows are the product attacks (pairs over identity, full
    intercept-resend, steal-and-replace), each from ``product_pair_advantage``
    and left out where it raises ``ScheduleMismatch`` (a pair term over a
    quantum attack), followed by the swap crossing attack from
    ``swap_crossing_advantage``.
    Every composite value must stay within 2 * eps_single where eps_single
    is the single-run family maximum.
    """
    n = params.n_qubits
    singles = [
        bb84.identity_attack(),
        bb84.intercept_resend(n, 1.0),
        bb84.steal_replace_attack(n),
    ]
    runs = {a.name: qkd_run(params, a) for a in singles}
    eps_single = max(r.advantage for r in runs.values())

    rows = []
    for left in singles:
        for right in singles:
            try:
                value = product_pair_advantage(runs[left.name], runs[right.name])
            except ScheduleMismatch:
                continue  # pair term needs classical sides; covered by IR pairs
            rows.append((f"{left.name}||{right.name}", value))
    rows.append(("swap-crossing", swap_crossing_advantage(params)))
    worst = max(v for _, v in rows)
    report = BoundReport("parallel-qkd-two-instances", worst, 2.0 * eps_single)
    return report, rows, eps_single


# --- authenticated rounds and key expansion -------------------------------------------

def authenticated_round_distance(params: QkdParams, fam: HashFamily,
                                 attack_spec) -> dict:
    """Exact real-vs-ideal distance of one authenticated QKD round.

    The round sends two authenticated messages over insecure classical
    channels: msg1 = (bases, sample set, sample values) from Alice and
    msg2 = (Bob's sample values) back.  ``attack_spec`` is a dict with keys
    ``p`` (classical intercept-resend probability, in [0, 1]) and optional
    ``tamper`` in {"msg1", "msg2"} flipping the last payload bit of that
    message; any other key is refused.  Tag registers of untampered
    messages are identical on both sides and are omitted; the tampered
    message branches over its observed tag with exact acceptance counting
    over the hash keys.

    Within a (sample subset, bases) block the abort pattern depends only on
    the sample side (sample values and tamper branch), the key pair only on
    the rest positions' bits, and Eve's record is the pair of both sides'
    records.  The ideal key resource has one delivery switch per party,
    pressed as the simulator's run aborted, so each label (record and abort
    pattern) keeps its real mass and the delivered keys are one shared
    uniform value; a both-or-neither resource cannot track the interruption
    asymmetry any two-message flow has.  The distance adds over labels, so
    a block contributes
    P(pass, pass) * D_joint + P(pass, abort) * D_A + P(abort, pass) * D_B,
    with the rest sums of :func:`_rest_terms`, once per tuple of rest
    bases.  The three totals are divided by C(n, t) once, at the end, so
    rounds with dyadic odds (p in {0, 1/2, 1}) give exact values.

    Requires h_rows = 0 (no syndrome phase) to keep the enumeration small.
    """
    if params.h_rows != 0:
        raise ScheduleMismatch("authenticated rounds are modelled without syndromes")
    for key in attack_spec:
        if key not in ("p", "tamper"):
            raise ScheduleMismatch(f"unknown attack_spec key {key!r}")
    comp_w, odds, records = _outcome_table(float(attack_spec.get("p", 0.0)))
    tamper = attack_spec.get("tamper")
    if tamper not in (None, "msg1", "msg2"):
        raise ScheduleMismatch(f"unknown tamper target {tamper!r}")
    n, t = params.n_qubits, params.t
    order = fam.tag_space
    # one position's p(record, a, b) per basis, Alice's bit uniform
    position = np.zeros((2, 5, 2, 2))
    for c, slot in np.ndindex(records.shape):
        position[:, records[c, slot], :, slot & 1] += 0.5 * comp_w[c] * odds[c, :, :, slot]
    pair = position.sum(axis=1)
    # a party passes when the other's sample values (first sample position
    # in the high bit) differ from its own in at most q_tol * t places; the
    # forged payload flips the lowest bit, the last announced value
    values = np.arange(1 << t)
    errors = _digits(2, t).sum(axis=1)[values[:, None] ^ values]
    passed = (errors <= params.q_tol * t) * 1.0
    forged_passes = (errors[:, values ^ 1] <= params.q_tol * t) * 1.0
    accept, rest_terms = {}, {}
    distance = p_abort = eps_cor = 0.0
    for s_idx, subset in enumerate(combinations(range(n), t)):
        rest = [i for i in range(n) if i not in subset]
        # theta_code packs the bases with position 0 in the high bit
        for theta_code, theta in enumerate(product(range(2), repeat=n)):
            sample = np.ones((1, 1))  # p(Alice's values, Bob's values)
            for i in subset:
                sample = (sample[:, None, :, None]
                          * pair[theta[i]][None, :, None, :]).reshape(2 * len(sample), -1)
            alice = bob = passed
            if tamper is not None:
                # a rejected forgery aborts the receiver
                msg1 = ((s_idx << n | theta_code) << t) + values
                target = ((msg1 if tamper == "msg1" else values) % order).tolist()
                for x in set(target) - accept.keys():
                    counts, sums = _pair_counts(fam, x, x ^ 1)
                    accept[x] = float((counts.diagonal() / sums).sum()) / order
                acc = np.array([accept[x] for x in target])
                if tamper == "msg1":
                    bob = forged_passes * acc[:, None]
                else:
                    alice = forged_passes * acc
            pp, pa, ap, aa = (float((sample * wa * wb).sum())
                              for wa in (alice, 1.0 - alice) for wb in (bob, 1.0 - bob))
            bases = tuple(theta[i] for i in rest)
            if bases not in rest_terms:
                rest_terms[bases] = _rest_terms(params, position, bases)
            d_joint, d_a, d_b, mass, unequal = rest_terms[bases]
            distance += pp * d_joint + pa * d_a + ap * d_b
            p_abort += aa * mass
            eps_cor += pp * unequal + (pa + ap) * mass
    # each basis string has weight 2^-n, an exact scaling; only the
    # division by C(n, t) rounds
    c = math.comb(n, t) * 2 ** n
    return {"distance": 0.5 * distance / c, "p_abort": p_abort / c, "eps_cor": eps_cor / c}


def _outcome_table(p: float):
    """One position's intercept-resend odds: (weights, odds, records).

    The components are pass (weight 1 - p), measure in Z (p / 2) and
    measure in X (p / 2); one of zero weight is left out.
    ``odds[c, theta, a, 2m + b]`` is the probability that component c gives
    Eve outcome m and Bob bit b when Alice sends a in basis theta: a pass
    puts 1 in slot a, and a measurement multiplies its two overlaps, each
    exactly 0, 1/2 or 1.  ``records[c, 2m + b]``
    is Eve's record: 0 for a pass, 1 + 2 * basis + m for a measurement.
    """
    if not 0.0 <= p <= 1.0:
        raise bb84.InvalidParams(f"intercept probability {p} outside [0, 1]")
    overlap = bb84._overlaps()  # [th, th', b, a']
    # [basis, theta, a, m, b]: p(m | a measured in basis) * p(b | m resent)
    measured = (overlap.transpose(0, 1, 3, 2)[..., None]
                * overlap.transpose(1, 0, 3, 2)[:, :, None]).reshape(2, 2, 2, 4)
    odds = np.concatenate([np.broadcast_to(np.eye(2, 4), (1, 2, 2, 4)), measured])
    m = np.arange(4) >> 1
    records = np.stack([0 * m, 1 + m, 3 + m])
    keep = [p < 1.0, p > 0.0, p > 0.0]
    return np.array([1.0 - p, p / 2.0, p / 2.0])[keep], odds[keep], records[keep]


def _rest_terms(params: QkdParams, position, bases):
    """(D_joint, D_A, D_B, mass, mass with K_A != K_B) of a rest side.

    ``q[record, ka, kb]`` is built position by position: T is linear, so
    each position appends its record digit and XORs its column of T into a
    party's key when that party's bit is set.  Each D is a dense
    |real - ideal| sum against the uniform shared key, over (record, ka, kb)
    when both pass, (record, ka) when only Alice does and (record, kb) when
    only Bob does.
    """
    nk = params.key_size
    columns = (1 << np.arange(params.out_len)) @ np.array(params.t_matrix)
    keys = np.arange(nk)
    q = np.zeros((1, nk, nk))
    q[0, 0, 0] = 1.0
    for th, col in zip(bases, columns):
        q = sum(position[th, :, a, b][None, :, None, None]
                * q[:, keys ^ (a * col)][:, None, :, keys ^ (b * col)]
                for a in range(2) for b in range(2)).reshape(-1, nk, nk)
    mass = q.sum(axis=(1, 2))
    share = mass[:, None] / nk
    same = np.eye(nk, dtype=bool)
    return (float(np.abs(q - same * share[:, :, None]).sum()),
            float(np.abs(q.sum(axis=2) - share).sum()),
            float(np.abs(q.sum(axis=1) - share).sum()),
            float(mass.sum()), float(q[:, ~same].sum()))


@dataclass(frozen=True)
class KeyExpansionResult:
    ledger: EpsilonLedger
    report: BoundReport
    rows: tuple


def key_expansion(rounds: int, fam: HashFamily, params: QkdParams) -> KeyExpansionResult:
    """Iterated authentication + QKD.

    Each round authenticates its two messages with fresh keys.  The ledger
    adds, per round, the asserted authentication failure (two parallel
    instances of the epsilon-almost-strongly-universal bound) and the
    measured QKD failure (eps_cor + eps_sec over the round's quantum attack
    family).
    The measured composite advantage over the round-attack family must stay
    within the ledger total.
    """
    if rounds < 0:
        raise NegativeRounds(f"rounds = {rounds} must be >= 0")
    ledger = EpsilonLedger()
    if rounds == 0:
        return KeyExpansionResult(ledger, BoundReport("key-expansion", 0.0, 0.0), ())

    quantum_family = [bb84.identity_attack(), bb84.intercept_resend(params.n_qubits, 1.0)]
    eps_qkd = max(qkd_run(params, a).decomposition_bound for a in quantum_family)
    eps_auth = 2.0 * fam.epsilon

    ledger = serial_compose(ledger, *(LedgerEntry("authentication", eps_auth, "asserted"),
                                      LedgerEntry("qkd", eps_qkd, "measured")) * rounds)

    # measured composite: single-round attacks with the other rounds honest
    # (honest rounds have exactly equal real and ideal states, so the
    # composite distance is the attacked round's distance)
    # every round faces the same attacks, so each distance is computed once
    specs = [{"p": 0.0}, {"p": 1.0}, {"p": 0.0, "tamper": "msg2"},
             {"p": 1.0, "tamper": "msg1"}]
    distances = [authenticated_round_distance(params, fam, spec)["distance"]
                 for spec in specs]
    rows = []
    worst = 0.0
    for r in range(rounds):
        for spec, distance in zip(specs, distances):
            name = f"round{r + 1}:p={spec.get('p', 0)}" + (
                f"+{spec['tamper']}" if "tamper" in spec else "")
            rows.append((name, distance))
            worst = max(worst, distance)
    report = BoundReport(f"key-expansion-{rounds}rounds", worst, ledger.total)
    return KeyExpansionResult(ledger, report, tuple(rows))


# --- information locking demo ----------------------------------------------------------

@dataclass(frozen=True)
class LockingReport:
    m: int
    pre_reveal_key_info: float
    pre_reveal_k2_info: float
    post_reveal_info: float

    @property
    def gap(self) -> float:
        return self.post_reveal_info - self.pre_reveal_k2_info


def locking_demo(m: int) -> LockingReport:
    """Information locking at desk scale.

    The state carries a basis bit K1 and an m-bit string K2 encoded in m
    qubits using basis K1.  Before K1 is revealed a computational-basis
    measurement yields Y; after the reveal, measuring in basis K1 recovers
    K2 perfectly.  Reports the mutual informations (in bits).  The
    encodings are pure, so each outcome's Born probability is the squared
    overlap of an encoding with a basis vector.
    """
    if not 1 <= m <= 3:
        raise ValueError(f"m = {m} outside the supported range [1, 3]")
    dim = 2 ** m
    # enc[k1, k2]: the encoding of k2 in basis k1
    enc = np.array([[_encode(k1, k2, m) for k2 in range(dim)] for k1 in range(2)])
    # p(k1, k2, y) of a computational-basis outcome y, with uniform keys
    pre = np.abs(enc) ** 2 / (2 * dim)
    pre_key = _mutual_information(pre.reshape(2 * dim, dim))
    pre_k2 = _mutual_information(pre.sum(axis=0))

    # after the reveal: outcome y of measuring in basis k1, [k1, k2, y];
    # dividing by the total makes the exact reveal give exactly m bits
    post = np.abs(enc.conj() @ enc.transpose(0, 2, 1)) ** 2
    post = post / post.sum()
    post_info = _mutual_information(post.transpose(1, 0, 2).reshape(dim, 2 * dim))
    return LockingReport(m, pre_key, pre_k2, post_info)


def _encode(basis: int, value: int, m: int) -> np.ndarray:
    """The m-qubit BB84 encoding of ``value``, its high bit first, in ``basis``."""
    vec = np.ones(1, dtype=complex)
    for j in range(m):
        vec = np.kron(vec, bb84._BASIS[basis][(value >> (m - 1 - j)) & 1])
    return vec


def _mutual_information(joint: np.ndarray) -> float:
    """I(X; Y) in bits of the joint distribution ``joint[x, y]``."""
    marginals = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    live = joint > 0.0
    return float((joint[live] * np.log2(joint[live] / marginals[live])).sum())
