"""Composition scenarios: leaked key, QKD+OTP, parallel QKD, key expansion.

Each scenario builds the composed real and ideal systems and measures the
distinguishing advantage exactly, then checks it against the bound that the
component failures imply.  Parallel composition pays attention to crossing
attacks: the shipped one reroutes the quantum signals between the two
instances (swap), which couples the runs and is evaluated jointly.

The swap's joint state is enumerated with integer arrays: each run's view
of an (a, b) word is one integer code (keys, sample bits, syndrome, abort),
a joint cell is a pair of codes, and each (theta1, theta2) block of the
16^n joint assignments is reduced with ``np.unique`` and ``np.bincount``.
The reductions add in the order of the scalar enumeration they replace, so
every mass and the crossing advantage are the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from ..acframework import (
    AttackStrategy,
    EpsilonLedger,
    LedgerEntry,
    ScheduleMismatch,
    SystemGraph,
    compose_parallel,
    evaluate,
    serial_compose,
    state_distance,
)
from ..metrics import BoundReport
from ..qstate import Register, make_cq, make_povm, measure_povm
from . import bb84
from .bb84 import QkdParams, QkdRun, qkd_run
from .hashing import HashFamily

__all__ = [
    "KeyBudgetExhausted",
    "build_qkd_systems",
    "parallel_qkd_systems",
    "leaked_key_scenario",
    "qkd_otp_scenario",
    "swap_crossing_attack",
    "swap_crossing_advantage",
    "swap_joint_state",
    "product_pair_advantage",
    "parallel_qkd_scenario",
    "authenticated_round_distance",
    "key_expansion",
    "KeyExpansionResult",
    "locking_demo",
    "LockingReport",
]


class KeyBudgetExhausted(ValueError):
    pass


# --- system wrappers ---------------------------------------------------------------

@dataclass(frozen=True)
class QkdSystemState:
    """Evaluated state of the (real or ideal) QKD system, engine-backed."""

    run: QkdRun
    side: str


@state_distance.register
def _(a: QkdSystemState, b) -> float:
    if not isinstance(b, QkdSystemState):
        raise TypeError("cannot mix engine-backed and generic states")
    if a.run is not b.run:
        raise ValueError("states come from different evaluations")
    if a.side == b.side:
        return 0.0
    return a.run.advantage


def build_qkd_systems(params: QkdParams):
    """Real system and ideal (key resource + simulator) system, run-cached."""
    cache: dict = {}

    def run_for(attack: AttackStrategy) -> QkdRun:
        if attack.name not in cache:
            cache[attack.name] = qkd_run(params, attack)
        return cache[attack.name]

    real = SystemGraph(
        name=f"qkd-real-n{params.n_qubits}",
        evaluator=lambda attack: QkdSystemState(run_for(attack), "real"),
        quantum_slots=params.n_qubits,
    )
    ideal = SystemGraph(
        name=f"qkd-ideal-n{params.n_qubits}",
        evaluator=lambda attack: QkdSystemState(run_for(attack), "ideal"),
        quantum_slots=params.n_qubits,
    )
    return real, ideal


# --- sequential composition examples -------------------------------------------------

def leaked_key_scenario(params: QkdParams, split: int, attacks) -> BoundReport:
    """Forward the first ``split`` key bits to Eve on both systems.

    The leak is the same register permutation on the real and ideal sides,
    so the advantage of every attack is unchanged; both sides are evaluated
    with the refined block structure and compared.
    """
    worst = 0.0
    for attack in attacks:
        run = qkd_run(params, attack, keep_engine=True)
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
        run = qkd_run(params, attack, keep_engine=True)
        composed = bb84.otp_composed_advantage(run, message)
        worst = max(worst, composed - run.advantage)
    return BoundReport("qkd-otp-compose", worst, 0.0)


# --- parallel composition -------------------------------------------------------------

def swap_crossing_attack(n: int) -> AttackStrategy:
    """Crossing attack on two parallel runs: exchange the quantum signals."""
    return AttackStrategy(name="swap-crossing", crossing=True, quantum=(),
                          inputs=(("positions", n),))


@dataclass(frozen=True)
class SwapCrossingState:
    """Joint state of two parallel instances under the swap attack."""

    params: QkdParams
    side: str


@state_distance.register
def _(a: SwapCrossingState, b) -> float:
    if not isinstance(b, SwapCrossingState) or a.params is not b.params:
        raise ValueError("states come from different evaluations")
    if a.side == b.side:
        return 0.0
    return swap_crossing_advantage(a.params)


def parallel_qkd_systems(params: QkdParams):
    """Two instances in parallel, with the swap crossing attack routed jointly."""
    real, ideal = build_qkd_systems(params)
    real_pair = compose_parallel(
        real, real,
        crossing_evaluator=lambda attack: SwapCrossingState(params, "real"))
    ideal_pair = compose_parallel(
        ideal, ideal,
        crossing_evaluator=lambda attack: SwapCrossingState(params, "ideal"))
    return real_pair, ideal_pair


def _diagonal_blocks(run: QkdRun):
    """Flattened (real, ideal) scalar block values of a classical run.

    Only valid when every environment operator is diagonal (classical
    attacks); values are subnormalised by the non-abort mass.
    """
    engine = run.engine()
    p = run.params
    nk = p.key_size
    subsets = list(combinations(range(p.n_qubits), p.t))
    if len({id(t) for t in engine.tables}) != 1:
        raise ScheduleMismatch(
            "diagonal export assumes position-uniform attacks")
    # uniform attacks: rest blocks are subset independent; evaluate on one
    rest = tuple(i for i in range(p.n_qubits) if i not in subsets[0])
    # per syndrome and key pair: the real branch sum, the ideal uniform key
    select, mix = engine.key_rows(tuple((ka, kb, ka == kb)
                                        for ka in range(nk) for kb in range(nk)))
    reals, ideals = [], []
    for block in engine.rest_iter(rest):
        if block._ops is None:
            raise ScheduleMismatch("attack is not classical; no diagonal export")
        ops = block._ops
        off = ops - np.einsum("mij,ij->mij", ops, np.eye(ops.shape[1]))
        if float(np.abs(off).max()) > 1e-12:
            raise ScheduleMismatch("attack is not classical; no diagonal export")
        diags = np.einsum("mii->mi", ops).real
        reals.append((select @ diags).ravel())
        ideals.append((mix @ diags).ravel())
    pass_mass = 1.0 - run.p_abort
    scale = pass_mass if pass_mass > 0 else 1.0
    # rest blocks hold unit mass; rescale so each side sums to 1 - p_abort
    return np.concatenate(reals) * scale, np.concatenate(ideals) * scale


def product_pair_advantage(run1: QkdRun, run2: QkdRun) -> float:
    """Exact advantage of a product attack on two parallel QKD instances.

    Abort sectors match on both sides, so
    D = p_abort1 * D2 + p_abort2 * D1 + (pair term over non-abort blocks);
    the pair term needs the scalar block export, hence classical attacks.
    Identity-equivalent sides short-circuit (their real and ideal states are
    equal, making the tensor distance collapse to the other side's).
    """
    if run1.advantage == 0.0:
        return run2.advantage
    if run2.advantage == 0.0:
        return run1.advantage
    r1, i1 = _diagonal_blocks(run1)
    r2, i2 = _diagonal_blocks(run2)
    pair = 0.5 * float(np.abs(np.outer(r1, r2) - np.outer(i1, i2)).sum())
    return run1.p_abort * run2.advantage + run2.p_abort * run1.advantage + pair


def swap_joint_state(params: QkdParams):
    """Exact joint classical state of two parallel instances under the swap.

    Bob of each instance measures the state the other Alice prepared; Eve
    keeps nothing, so the composite state is classical.  Returns
    ``(blocks, group_mass)``: branch weights keyed by (Eve-visible label,
    key-pair-pair) and the per-label total masses.
    """
    codes = _SwapCodes(params)
    decode = lru_cache(maxsize=None)(codes.decode)  # cells recur in every block
    real: dict = {}
    group_mass: dict = {}
    for thetas, blk in _swap_blocks(params, codes):
        for cell, mass in zip(blk.cells.tolist(), blk.masses.tolist()):
            label, kpair = decode(cell)
            real[(thetas + label, kpair)] = mass
        for cell, mass in zip(blk.label_cells.tolist(), blk.label_mass.tolist()):
            group_mass[thetas + decode(cell)[0]] = mass
    return real, group_mass


def swap_crossing_advantage(params: QkdParams) -> float:
    """Distance of the swap attack's joint state from two ideal keys.

    The ideal side uniformises the surviving keys per instance; abort
    patterns are matched per instance through the simulators' switches.
    """
    codes = _SwapCodes(params)
    found, ideal_only = [], []
    for _, blk in _swap_blocks(params, codes):
        _, first, second = codes.split(blk.cells)
        ideal = blk.group_of_cell * codes.key_share(first)
        ideal = ideal * codes.key_share(second)
        found.append(np.abs(blk.masses - ideal))
        # ideal-only branches: per label, the option pairs (an abort, or
        # each equal key pair, per instance) that the real run never produced
        pair, first, second = codes.split(blk.label_cells)
        opt1, opt2 = codes.options(first), codes.options(second)
        cells = codes.join(pair[:, None, None], opt1[:, :, None], opt2[:, None, :])
        missing = (opt1 >= 0)[:, :, None] & (opt2 >= 0)[:, None, :]
        missing &= ~np.isin(cells, blk.cells)
        share = (blk.label_mass[:, None, None] * codes.option_share(opt1)[:, :, None]
                 * codes.option_share(opt2)[:, None, :])
        ideal_only.append(share[missing])
    # one running sum over the real branches and then the ideal-only ones,
    # in dict order, so the total is the float a scalar loop adds up
    return 0.5 * float(np.cumsum(np.concatenate(found + ideal_only))[-1])


class _SwapCodes:
    """Integer codes of the swap enumeration.

    One instance's view of an (a, b) word is the code
    ``(ka * (nk + 1) + kb) * evis_size + evis``: ``evis`` packs Alice's and
    Bob's sample bits (first sample position in the high bit) and the
    syndrome, and an aborted word has ka = kb = nk.  ``tables[s]`` maps word
    ``(A << n) | B`` (position 0 in the high bit) to its code under sample
    subset ``s``.  A cell of one (theta1, theta2) block is
    ``join(s1 * subsets + s2, code1, code2)``.
    """

    def __init__(self, params: QkdParams):
        n, t, rows = params.n_qubits, params.t, params.h_rows
        nk = params.key_size
        bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        a, b = np.repeat(bits, 1 << n, axis=0), np.tile(bits, (1 << n, 1))

        def high_first(x):
            return x @ (1 << np.arange(x.shape[1] - 1, -1, -1))

        self.nk = nk
        self.abort = nk * (nk + 2)  # key index of (nk, nk)
        self.evis_size = 4 ** t << rows
        self.size = (nk + 1) ** 2 * self.evis_size
        tables = []
        for subset in combinations(range(n), t):
            rest = [i for i in range(n) if i not in subset]
            syn, ka, kb = bb84._key_tables(params, a[:, rest], b[:, rest])
            passed = ~((a[:, subset] != b[:, subset]).sum(axis=1) > params.q_tol * t)
            ka, kb = np.where(passed, ka, nk), np.where(passed, kb, nk)
            evis = (high_first(a[:, subset]) << t | high_first(b[:, subset])) << rows | syn
            tables.append((ka * (nk + 1) + kb) * self.evis_size + evis)
        self.tables = np.array(tables)
        self.subsets = len(tables)

        def unpack(code):
            keys, evis = divmod(code, self.evis_size)
            samples, syn = divmod(evis, 1 << rows)
            a_s, b_s = divmod(samples, 1 << t)
            passed = keys != self.abort
            return ((tuple((a_s >> j) & 1 for j in range(t - 1, -1, -1)),
                     tuple((b_s >> j) & 1 for j in range(t - 1, -1, -1)), syn),
                    divmod(keys, nk + 1) if passed else ("abort", "abort"), passed)

        self._unpacked = [unpack(code) for code in range(self.size)]

    def join(self, pair, code1, code2):
        return (pair * self.size + code1) * self.size + code2

    def split(self, cells: np.ndarray):
        """(subset pair, first code, second code) of block cells."""
        pair, first = np.divmod(cells // self.size, self.size)
        return pair, first, cells % self.size

    def decode(self, cell: int):
        """((s1, s2) + Eve-visible label, key-pair-pair) of a cell, as dict keys."""
        rest, second = divmod(cell, self.size)
        pair, first = divmod(rest, self.size)
        evis1, keys1, passed1 = self._unpacked[first]
        evis2, keys2, passed2 = self._unpacked[second]
        return (divmod(pair, self.subsets) + evis1 + evis2 + ((passed1, passed2),),
                (keys1, keys2))

    def labels(self, cells: np.ndarray) -> np.ndarray:
        """Label index of block cells: subset pair, evis and pass flags."""
        pair, first, second = self.split(cells)
        lab1 = first % self.evis_size * 2 + (first // self.evis_size != self.abort)
        lab2 = second % self.evis_size * 2 + (second // self.evis_size != self.abort)
        return (pair * 2 * self.evis_size + lab1) * 2 * self.evis_size + lab2

    def key_share(self, codes: np.ndarray) -> np.ndarray:
        """Ideal weight factor of one instance's key pair: the uniform key's
        on equal keys, one on an abort, zero otherwise."""
        ka, kb = np.divmod(codes // self.evis_size, self.nk + 1)
        return np.where(ka == self.nk, np.where(kb == self.nk, 1.0, 0.0),
                        np.where(ka == kb, 1.0 / self.nk, 0.0))

    def options(self, codes: np.ndarray) -> np.ndarray:
        """Per code, the ideal key pairs of its label: each (k, k) when the
        instance passed, else the abort alone (padded with -1)."""
        keys, evis = np.divmod(codes, self.evis_size)
        k = np.arange(self.nk)
        passing = (k * (self.nk + 2) * self.evis_size)[None, :] + evis[:, None]
        aborting = np.where(k == 0, self.abort * self.evis_size + evis[:, None], -1)
        return np.where((keys != self.abort)[:, None], passing, aborting)

    def option_share(self, options: np.ndarray) -> np.ndarray:
        return np.where(options // self.evis_size == self.abort, 1.0, 1.0 / self.nk)


@dataclass(frozen=True)
class _SwapBlock:
    """Reduced cells of one (theta1, theta2) block, all subset pairs.

    ``cells`` holds the cells of positive mass, subset pair by subset pair
    and within one in order of first occurrence over the 16^n joint
    assignments of (a1, b1, a2, b2); ``masses`` adds each cell's weights
    in that order.  Labels are ordered by their first cell
    (``label_cells``), and ``label_mass`` adds a label's cell masses in
    cell order: the orders and sums of the dicts a scalar loop builds.
    """

    cells: np.ndarray
    masses: np.ndarray
    group_of_cell: np.ndarray
    label_cells: np.ndarray
    label_mass: np.ndarray


def _sums_by_first_seen(keys: np.ndarray, weights: np.ndarray):
    """Add the weights of each key in input order.

    Returns the positions of the distinct keys' first occurrences, in
    order of first occurrence, their sums in that order, and the sum of
    every input's key.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=weights)
    order = np.argsort(first)
    return first[order], sums[order], sums[inverse]


def _swap_blocks(params: QkdParams, codes: _SwapCodes):
    """Yield ((theta1, theta2), _SwapBlock) in enumeration order."""
    n = params.n_qubits
    pairs = codes.subsets ** 2
    # p(b | prepared a' in basis th', measured in basis th)
    overlap = np.zeros((2, 2, 2, 2))  # [th, th', b, a']
    for th in range(2):
        for thp in range(2):
            for b in range(2):
                for ap in range(2):
                    amp = np.vdot(bb84._BASIS[th][b], bb84._BASIS[thp][ap])
                    overlap[th, thp, b, ap] = float(np.abs(amp) ** 2)
    overlap[overlap < 1e-28] = 0.0
    overlap[np.abs(overlap - 1.0) < 1e-15] = 1.0
    overlap[np.abs(overlap - 0.5) < 1e-15] = 0.5
    # one position's weights over its cell (a1, b1, a2, b2), a1 the high
    # bit, indexed by the position's (theta1, theta2)
    a1, b1, a2, b2 = (np.arange(16)[None, :] >> np.arange(3, -1, -1)[:, None]) & 1
    local = 0.0625 * overlap[:, :, b1, a2] * overlap.transpose(1, 0, 2, 3)[:, :, b2, a1]

    # joint assignment m holds position i's cell in bits 4(n-1-i) and up
    nibbles = (np.arange(16 ** n)[:, None] >> (4 * np.arange(n - 1, -1, -1))) & 15
    place = 1 << np.arange(n - 1, -1, -1)

    def word(a_bit, b_bit):
        return (((nibbles >> a_bit) & 1) @ place) << n | (((nibbles >> b_bit) & 1) @ place)

    first, second = codes.tables[:, word(3, 2)], codes.tables[:, word(1, 0)]
    # row s1 * subsets + s2: every joint assignment's cell under (s1, s2)
    cells = codes.join(np.arange(pairs)[:, None], np.repeat(first, codes.subsets, axis=0),
                       np.tile(second, (codes.subsets, 1)))
    for th1 in product(range(2), repeat=n):
        for th2 in product(range(2), repeat=n):
            w = np.ones(1)
            for i in range(n):
                w = (w[:, None] * local[th1[i], th2[i]][None, :]).reshape(-1)
            share = w / pairs
            live = np.flatnonzero(share > 0.0)
            block_cells = cells[:, live].ravel()
            at, masses, _ = _sums_by_first_seen(block_cells, np.tile(share[live], pairs))
            block_cells = block_cells[at]
            at, label_mass, group_of_cell = _sums_by_first_seen(codes.labels(block_cells), masses)
            yield (th1, th2), _SwapBlock(block_cells, masses, group_of_cell,
                                         block_cells[at], label_mass)


def parallel_qkd_scenario(params: QkdParams, *, include_crossing: bool = True):
    """Advantage of two parallel runs against twice the single-run bound.

    The family holds product attacks (pairs over identity, full
    intercept-resend, steal-and-replace) and, when requested, the swap
    crossing attack evaluated jointly.  Every composite value must stay
    within 2 * eps_single where eps_single is the single-run family maximum.
    """
    n = params.n_qubits
    singles = [
        bb84.identity_attack(),
        bb84.intercept_resend(n, 1.0),
        bb84.steal_replace_attack(n),
    ]
    runs = {a.name: qkd_run(params, a, keep_engine=True) for a in singles}
    eps_single = max(r.advantage for r in runs.values())

    rows = []
    for left in singles:
        for right in singles:
            if "steal" in (left.name, right.name) and left.name == right.name:
                continue  # both-sides quantum pair needs no extra coverage
            name = f"{left.name}||{right.name}"
            r1, r2 = runs[left.name], runs[right.name]
            if r1.advantage > 0.0 and r2.advantage > 0.0 and (
                    "steal" in left.name or "steal" in right.name):
                continue  # pair term needs classical sides; covered by IR pairs
            value = product_pair_advantage(r1, r2)
            rows.append((name, value))
    if include_crossing:
        real_pair, ideal_pair = parallel_qkd_systems(params)
        attack = swap_crossing_attack(n)
        value = state_distance(evaluate(real_pair, attack),
                               evaluate(ideal_pair, attack))
        rows.append(("swap-crossing", value))
    worst = max(v for _, v in rows)
    report = BoundReport("parallel-qkd-two-instances", worst, 2.0 * eps_single)
    return report, rows, eps_single


# --- authenticated rounds and key expansion -------------------------------------------

def _ir_classical_components(p: float):
    comps = []
    if p < 1.0:
        comps.append(("pass", 1.0 - p))
    if p > 0.0:
        comps.append(("Z", p / 2.0))
        comps.append(("X", p / 2.0))
    return comps


def _classical_position_model(comp_label: str, theta: int, a: int):
    """Distribution of (record, b) for classical attacks on one position."""
    psis = bb84._BASIS
    out = {}
    if comp_label == "pass":
        out[(("pass", "-"), a)] = 1.0
        return out
    meas = 0 if comp_label == "Z" else 1
    for m in range(2):
        p_m = float(np.abs(np.vdot(psis[meas][m], psis[theta][a])) ** 2)
        if p_m < 1e-28:
            continue
        for b in range(2):
            p_b = float(np.abs(np.vdot(psis[theta][b], psis[meas][m])) ** 2)
            if p_b < 1e-28:
                continue
            key = ((comp_label, m), b)
            out[key] = out.get(key, 0.0) + p_m * p_b
    return out


def authenticated_round_distance(params: QkdParams, fam: HashFamily,
                                 attack_spec) -> dict:
    """Exact real-vs-ideal distance of one authenticated QKD round.

    The round sends two authenticated messages over insecure classical
    channels: msg1 = (bases, sample set, sample values) from Alice and
    msg2 = (Bob's sample values) back.  ``attack_spec`` is a dict with keys
    ``p`` (classical intercept-resend probability) and optional ``tamper``
    in {"msg1", "msg2"} flipping the last payload bit of that message.
    Tag registers of untampered messages are identical on both sides and are
    omitted; the tampered message branches over its observed tag with exact
    acceptance counting over the hash keys.

    Requires h_rows = 0 (no syndrome phase) to keep the enumeration small.
    """
    if params.h_rows != 0:
        raise ScheduleMismatch("authenticated rounds are modelled without syndromes")
    n, t = params.n_qubits, params.t
    nk = params.key_size
    t_mat = np.array(params.t_matrix, dtype=np.uint8)
    p_ir = float(attack_spec.get("p", 0.0))
    tamper = attack_spec.get("tamper")
    order = fam.tag_space
    if tamper not in (None, "msg1", "msg2"):
        raise ScheduleMismatch(f"unknown tamper target {tamper!r}")

    comps = _ir_classical_components(p_ir)
    subsets = list(combinations(range(n), t))
    real: dict = {}
    groups: dict = {}

    def add(evis, ka, kb, w):
        real[(evis, (ka, kb))] = real.get((evis, (ka, kb)), 0.0) + w
        groups[evis] = groups.get(evis, 0.0) + w

    from .auth import accept_probability

    for s_idx, subset in enumerate(subsets):
        rest = [i for i in range(n) if i not in subset]
        for theta in product(range(2), repeat=n):
            for a in product(range(2), repeat=n):
                base_w = 0.25 ** n / len(subsets)
                for labels in product(range(len(comps)), repeat=n):
                    lw = base_w
                    for i in range(n):
                        lw *= comps[labels[i]][1]
                    pos_models = [
                        _classical_position_model(comps[labels[i]][0], theta[i], a[i])
                        for i in range(n)]
                    for outcome in product(*[m.items() for m in pos_models]):
                        w = lw
                        records, b = [], []
                        for (rec, bit), pw in outcome:
                            w *= pw
                            records.append(rec)
                            b.append(bit)
                        if w <= 0.0:
                            continue
                        a_s = tuple(a[i] for i in subset)
                        b_s = tuple(b[i] for i in subset)
                        msg1 = _encode_msg1(theta, s_idx, a_s)
                        msg2 = _encode_bits(b_s)
                        for evis_extra, wfrac, got1, got2 in _tamper_branches(
                                fam, tamper, msg1, msg2, order, accept_probability):
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
                            evis = (theta, tuple(records), s_idx, a_s, b_s,
                                    evis_extra)
                            add(evis, ka, kb, ww)

    p_abort = 0.0
    eps_cor = 0.0
    for (evis, kpair), value in real.items():
        ka, kb = kpair
        if ka == "abort" and kb == "abort":
            p_abort += value
        if ka != kb:
            eps_cor += value

    # Ideal: key resource with one delivery switch per party.  The simulator
    # runs the round internally and presses the switches according to which
    # parties its run aborted, so within each Eve-visible group the ideal
    # abort pattern matches the real one and the delivered keys are a shared
    # uniform value.  (A both-or-neither resource cannot track the
    # interruption asymmetry any two-message flow necessarily has.)
    sector: dict = {}
    for (evis, kpair), value in real.items():
        fa = kpair[0] == "abort"
        fb = kpair[1] == "abort"
        sector[(evis, fa, fb)] = sector.get((evis, fa, fb), 0.0) + value

    dist = 0.0
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
            ideal = mass / nk if ka == kb else 0.0
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
    return {
        "distance": 0.5 * dist,
        "p_abort": p_abort,
        "eps_cor": eps_cor,
    }


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


def _tamper_branches(fam, tamper, msg1, msg2, order, accept_probability):
    """Yield (eve_registers, weight, bob_msg1, alice_msg2) branches.

    Payloads are returned decoded: ``bob_msg1`` is None on an authentication
    reject, else the (theta, s_idx, a_s) triple Bob accepted; ``alice_msg2``
    likewise Bob's sample values as seen by Alice.  Untampered messages pass
    through with weight one and no extra Eve registers (their tags are
    identically distributed on the real and ideal sides).
    """
    msg1 %= order
    msg2 %= order
    if tamper is None:
        yield ((), 1.0, "same", "same")
        return
    # substitution rule: flip the low payload bit, keep the observed tag
    target = msg1 if tamper == "msg1" else msg2
    forged = target ^ 1
    for y in range(order):
        p_tag = 1.0 / order
        acc = accept_probability(fam, target, y, forged, y)
        branches = [(acc, "forged"), (1.0 - acc, None)]
        for weight, verdict in branches:
            if weight <= 0.0:
                continue
            record = ((tamper, y, forged),)
            if tamper == "msg1":
                yield (record, p_tag * weight, verdict, "same")
            else:
                yield (record, p_tag * weight, "same", verdict)


@dataclass(frozen=True)
class KeyExpansionResult:
    ledger: EpsilonLedger
    report: BoundReport
    rows: tuple
    pool_bits: int
    output_bits: int


def key_expansion(rounds: int, fam: HashFamily, params: QkdParams,
                  initial_pool_bits: int | None = None) -> KeyExpansionResult:
    """Iterated authentication + QKD with pooled key accounting.

    Each round consumes two authentication keys (2 * 2b bits) from the key
    pool and adds the round's output on success.  The ledger adds, per
    round, the asserted authentication failure (two parallel instances of
    the epsilon-almost-strongly-universal bound) and the measured QKD
    failure (eps_cor + eps_sec over the round's quantum attack family).
    The measured composite advantage over the round-attack family must stay
    within the ledger total.
    """
    per_round_auth = 2 * 2 * fam.block_bits
    if initial_pool_bits is None:
        initial_pool_bits = rounds * per_round_auth
    pool = initial_pool_bits
    ledger = EpsilonLedger()
    if rounds == 0:
        return KeyExpansionResult(ledger, BoundReport("key-expansion", 0.0, 0.0),
                                  (), pool, pool)

    quantum_family = [bb84.identity_attack(), bb84.intercept_resend(params.n_qubits, 1.0)]
    eps_qkd = max(qkd_run(params, a).decomposition_bound for a in quantum_family)
    eps_auth = 2.0 * fam.epsilon

    output = pool
    for _ in range(rounds):
        if output < per_round_auth:
            raise KeyBudgetExhausted(
                f"pool holds {output} bits, round needs {per_round_auth}")
        output -= per_round_auth
        output += params.out_len
        ledger = serial_compose(
            ledger,
            LedgerEntry("authentication", eps_auth, "asserted"),
            LedgerEntry("qkd", eps_qkd, "measured"),
        )

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
    return KeyExpansionResult(ledger, report, tuple(rows), initial_pool_bits, output)


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
    K2 perfectly.  Reports the mutual informations (in bits).
    """
    if not 1 <= m <= 3:
        raise ValueError(f"m = {m} outside the supported range [1, 3]")
    dim = 2 ** m
    regs = [Register("k1", (0, 1)), Register("k2", tuple(range(dim)))]
    branches = []
    for k1 in range(2):
        for k2 in range(dim):
            vec = np.ones(1, dtype=complex)
            for j in range(m):
                bit = (k2 >> (m - 1 - j)) & 1
                vec = np.kron(vec, bb84._BASIS[k1][bit])
            branches.append(((k1, k2), 1.0 / (2 * dim), np.outer(vec, vec.conj())))
    state = make_cq(regs, branches, (dim,))

    eye = np.eye(dim, dtype=complex)
    comp = make_povm(tuple(range(dim)), [np.outer(eye[:, i], eye[:, i].conj())
                                         for i in range(dim)], (dim,))
    _, post = measure_povm(comp, state)
    joint = {}
    for b in post.branches:
        k1, k2, y = b.assignment
        joint[(k1, k2, y)] = joint.get((k1, k2, y), 0.0) + b.weight
    pre_key = _mutual_information(joint, lambda k: (k[0], k[1]), lambda k: k[2])
    pre_k2 = _mutual_information(joint, lambda k: k[1], lambda k: k[2])

    # after the reveal: measure each branch in its own encoding basis
    post_joint = {}
    for k1 in range(2):
        basis_vecs = []
        for y in range(dim):
            vec = np.ones(1, dtype=complex)
            for j in range(m):
                bit = (y >> (m - 1 - j)) & 1
                vec = np.kron(vec, bb84._BASIS[k1][bit])
            basis_vecs.append(vec)
        povm = make_povm(tuple(range(dim)),
                         [np.outer(v, v.conj()) for v in basis_vecs], (dim,))
        sub = make_cq(regs, [(b.assignment, b.weight, b.factor)
                             for b in state.branches if b.assignment[0] == k1],
                      (dim,))
        _, measured = measure_povm(povm, sub)
        for b in measured.branches:
            _, k2, y = b.assignment
            post_joint[(k2, (k1, y))] = post_joint.get((k2, (k1, y)), 0.0) + b.weight
    total = sum(post_joint.values())
    post_joint = {k: v / total for k, v in post_joint.items()}
    post_info = _mutual_information(post_joint, lambda k: k[0], lambda k: k[1])
    return LockingReport(m, pre_key, pre_k2, post_info)


def _mutual_information(joint: dict, left, right) -> float:
    px: dict = {}
    py: dict = {}
    pxy: dict = {}
    for key, p in joint.items():
        if p <= 0.0:
            continue
        x, y = left(key), right(key)
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
        pxy[(x, y)] = pxy.get((x, y), 0.0) + p
    info = 0.0
    for (x, y), p in pxy.items():
        info += p * math.log2(p / (px[x] * py[y]))
    return info
