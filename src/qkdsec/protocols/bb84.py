"""Toy BB84: exact evaluation of the real and ideal (simulated) systems.

Protocol shape.  Alice prepares n qubits in uniformly random bases and sends
them through the insecure channel; the basis string is announced on the
authentic channel only after the quantum phase, and Bob measures in the
announced bases, so every position is sifted (this is what makes a fixed
key-material width and a zero abort probability under the identity attack
possible at desk scale).  A random sample of t positions is compared in
public for error estimation; the protocol aborts when the observed error
rate exceeds q_tol.  The remaining n - t positions carry the key material:
Alice publishes the syndrome H x, Bob decodes to the nearest coset leader,
and both sides hash with the Toeplitz matrix T.

Evaluation.  An attack is a per-position classical mixture of Kraus
channels whose environments Eve keeps.  Conditioned on the classical record
(bases, mixture labels, sample set, sample values, syndrome), the branch
operators over Eve's environment are low-rank, and the trace distances the
security conditions need factor into a sample-part scalar times small
eigenproblems on the key-material part.  Each term of those distances is one
coefficient row over the key-material members (one syndrome and key pair,
real minus ideal); the rows of a quantity form one coefficient matrix, built
once per evaluation.  A rest block (one basis/label cell of the key-material
positions) turns the whole matrix into trace norms at once: a row-wise sum
for one-dimensional environments, otherwise one matrix product and one
batched ``eigvalsh``.  The per-row sums over a rest's blocks depend only on
the attacks at the rest positions, so they are computed once per distinct
rest and weighted by each sample subset's pass mass.  Everything is an exact
enumeration; no sampling is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ..acframework import (
    AttackStrategy,
    MixtureComponent,
    PositionAttack,
    ScheduleMismatch,
    _grid,
)
from ..linalg import coset_leader_table, gf2_rank, psd_sqrt
from ..metrics import BoundReport
from ..qstate import DimensionCap, KrausChannel, make_channel
from ..tolerances import RANK_CUTOFF
from .hashing import default_code_matrices

__all__ = [
    "InvalidParams",
    "QkdParams",
    "default_params",
    "identity_attack",
    "intercept_resend",
    "depolarize_attack",
    "steal_replace_attack",
    "custom_attack",
    "QkdRun",
    "qkd_run",
    "SecurityEvaluation",
    "qkd_security_eval",
    "RobustnessReport",
    "qkd_robustness_eval",
]


class InvalidParams(ValueError):
    pass


@dataclass(frozen=True)
class QkdParams:
    """Configuration of one BB84 instance.

    ``h_matrix`` (syndrome) and ``t_matrix`` (Toeplitz privacy amplification)
    act on the key material of width n_qubits - t; their rows must be jointly
    linearly independent over GF(2), which makes the noiseless key exactly
    uniform given the transcript.
    """

    n_qubits: int
    t: int
    q_tol: float
    h_matrix: tuple[tuple[int, ...], ...]
    t_matrix: tuple[tuple[int, ...], ...]
    pa_seed: int = 0

    def __post_init__(self):
        n, t = self.n_qubits, self.t
        if n < 2 or n > 10:
            raise InvalidParams(f"n_qubits {n} outside the supported range [2, 10]")
        if not 1 <= t < n:
            raise InvalidParams(f"sample size {t} must satisfy 1 <= t < n_qubits")
        if not 0.0 <= self.q_tol <= 1.0:
            raise InvalidParams(f"q_tol {self.q_tol} outside [0, 1]")
        h = np.array(self.h_matrix, dtype=np.uint8)
        tm = np.array(self.t_matrix, dtype=np.uint8)
        width = n - t
        if h.size and h.shape[1] != width:
            raise InvalidParams(f"H width {h.shape[1]} != key-material width {width}")
        if tm.ndim != 2 or tm.shape[1] != width or tm.shape[0] < 1:
            raise InvalidParams(f"T must be out_len x {width} with out_len >= 1")
        stacked = np.vstack([h, tm]) if h.size else tm
        if gf2_rank(stacked) != stacked.shape[0]:
            raise InvalidParams("rows of H and T are not jointly independent over GF(2)")

    @property
    def width(self) -> int:
        return self.n_qubits - self.t

    @property
    def h_rows(self) -> int:
        return len(self.h_matrix)

    @property
    def out_len(self) -> int:
        return len(self.t_matrix)

    @property
    def key_size(self) -> int:
        return 2 ** self.out_len


def default_params(n_qubits: int = 4, t: int = 2, q_tol: float = 0.25,
                   out_len: int = 1, h_rows: int = 1, seed: int = 20240901) -> QkdParams:
    if not 1 <= t < n_qubits:
        raise InvalidParams(f"sample size {t} must satisfy 1 <= t < n_qubits")
    if h_rows + out_len > n_qubits - t:
        raise InvalidParams(
            f"h_rows + out_len = {h_rows + out_len} exceeds key-material width "
            f"{n_qubits - t}")
    h, tm = default_code_matrices(n_qubits - t, h_rows, out_len, seed)
    return QkdParams(
        n_qubits=n_qubits, t=t, q_tol=q_tol,
        h_matrix=tuple(tuple(int(x) for x in row) for row in h),
        t_matrix=tuple(tuple(int(x) for x in row) for row in tm),
        pa_seed=seed,
    )


# --- attack builders --------------------------------------------------------------

def _identity_component() -> MixtureComponent:
    chan = make_channel([np.eye(2)], out_dims=(2, 1))
    return MixtureComponent("pass", 1.0, chan)


def _measure_resend(theta: int) -> KrausChannel:
    basis = _BASIS[theta]
    kraus = []
    for m in range(2):
        proj = np.outer(basis[m], basis[m].conj())
        env = np.zeros((2, 1), dtype=complex)
        env[m, 0] = 1.0
        kraus.append(np.kron(proj, env))
    return make_channel(kraus, out_dims=(2, 2))


def identity_attack(n: int = 0) -> AttackStrategy:
    del n
    return AttackStrategy(name="identity")


def intercept_resend(n: int, p: float) -> AttackStrategy:
    """Measure-and-resend in a random basis on each position with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParams(f"intercept probability {p} outside [0, 1]")
    comps = []
    if p < 1.0:
        comps.append(MixtureComponent("pass", 1.0 - p, _identity_component().channel))
    if p > 0.0:
        comps.append(MixtureComponent("Z", p / 2.0, _measure_resend(0)))
        comps.append(MixtureComponent("X", p / 2.0, _measure_resend(1)))
    pos = PositionAttack(tuple(comps))
    return AttackStrategy(name=f"intercept-resend:p={p:g}", quantum=(pos,) * n)


def depolarize_attack(n: int, q: float) -> AttackStrategy:
    """Depolarising noise with the purifying environment kept by Eve."""
    from ..qstate import depolarizing_channel

    chan = depolarizing_channel(q, keep_environment=True)
    pos = PositionAttack((MixtureComponent("dep", 1.0, chan),))
    return AttackStrategy(name=f"depolarize:q={q:g}", quantum=(pos,) * n)


def steal_replace_attack(n: int) -> AttackStrategy:
    """Eve keeps the transmitted qubit and forwards a maximally mixed one."""
    kraus = []
    for m in range(2):
        ket = np.zeros((2, 1), dtype=complex)
        ket[m, 0] = 1.0
        kraus.append(math.sqrt(0.5) * np.kron(ket, np.eye(2)))
    chan = make_channel(kraus, out_dims=(2, 2))
    pos = PositionAttack((MixtureComponent("steal", 1.0, chan),))
    return AttackStrategy(name="steal-replace", quantum=(pos,) * n)


def custom_attack(n: int, channel: KrausChannel, name: str = "custom") -> AttackStrategy:
    if channel.in_dim != 2:
        raise InvalidParams("per-position channels act on a qubit")
    env_dim = int(np.prod(channel.out_dims[1:])) if len(channel.out_dims) > 1 else 1
    if channel.out_dims[0] != 2 or env_dim > 4:
        raise DimensionCap(
            "per-position channels must return the qubit plus an environment of "
            "dimension at most 4")
    pos = PositionAttack((MixtureComponent("custom", 1.0, channel),))
    return AttackStrategy(name=name, quantum=(pos,) * n)


# --- per-position conditional tables ----------------------------------------------

_BASIS = (
    (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    (np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
     np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)),
)


@dataclass
class _ComponentTables:
    label: str
    # per theta: pruned column matrix (env_dim, ncols), member cell of each
    # column (0..3 encoding 2a+b), and weight per (a, b) cell
    cols: list
    col_ab: list
    w4: np.ndarray  # (2, 4) -> [theta, 2a+b], includes the 1/4 basis/bit prior


def _component_tables(comp: MixtureComponent) -> _ComponentTables:
    chan = comp.channel
    env_dim = int(np.prod(chan.out_dims[1:])) if len(chan.out_dims) > 1 else 1
    if chan.out_dims[0] != 2:
        raise ScheduleMismatch("attack channel must return the transmitted qubit first")
    if env_dim > 4:
        raise DimensionCap("attack environment dimension above 4 per position")
    cols, col_ab = [], []
    w4 = np.zeros((2, 4))
    scale = math.sqrt(comp.weight * 0.25)
    for theta in range(2):
        vecs, cells = [], []
        for a in range(2):
            group = []
            for b in range(2):
                psi_in = _BASIS[theta][a]
                psi_out = _BASIS[theta][b]
                for op in chan.kraus_ops:
                    out = (op @ psi_in).reshape(2, env_dim)
                    phi = scale * (psi_out.conj() @ out)
                    norm2 = float(np.vdot(phi, phi).real)
                    if norm2 > 1e-28:
                        group.append((2 * a + b, phi, norm2))
            # trace preservation makes each (theta, a) group sum to weight/4
            # analytically; snap the tiny representation drift away so the
            # classical functionals of exactly modelled attacks stay exact
            total = sum(g[2] for g in group)
            target = comp.weight * 0.25
            if total > 0.0 and abs(total - target) < 1e-12 * target:
                fix = target / total
                if len(group) == 1:
                    cell, phi, norm2 = group[0]
                    group = [(cell, phi * math.sqrt(fix), target)]
                else:
                    group = [(cell, phi * math.sqrt(fix), norm2 * fix)
                             for cell, phi, norm2 in group]
            for cell, phi, norm2 in group:
                w4[theta, cell] += norm2
                vecs.append(phi)
                cells.append(cell)
        cols.append(np.array(vecs, dtype=complex).T if vecs
                    else np.zeros((env_dim, 0), dtype=complex))
        col_ab.append(np.array(cells, dtype=np.int64))
    return _ComponentTables(comp.label, cols, col_ab, w4)


def _position_tables(attack: AttackStrategy, n: int):
    if attack.tamper:
        raise ScheduleMismatch("the QKD classical channel is authentic; no tampering")
    quantum = attack.quantum if attack.quantum else \
        (PositionAttack((_identity_component(),)),) * n
    if len(quantum) != n:
        raise ScheduleMismatch(
            f"attack supplies {len(quantum)} positions, protocol uses {n}")
    # positions sharing one PositionAttack object share one table object, so
    # the engine's rest-block cache is hit across sample subsets
    built: dict[int, list] = {}
    out = []
    for pos in quantum:
        if id(pos) not in built:
            built[id(pos)] = [_component_tables(c) for c in pos.components]
        out.append(built[id(pos)])
    return out


# --- the evaluation engine ---------------------------------------------------------

# complex entries in one batch of per-row operators: the rows are chunked so
# that each batch temporary stays near 16 MiB
_BATCH_ENTRIES = 1 << 20


def _key_tables(params: QkdParams, a: np.ndarray, b: np.ndarray):
    """Syndrome, Alice's key and Bob's corrected key per row of bits.

    Rows of ``a`` and ``b`` hold Alice's and Bob's bits at the key-material
    positions.  Bob corrects by the coset leader of the syndrome difference;
    syndromes and keys are GF(2) products packed little-endian.
    """
    lx = params.width
    h = np.array(params.h_matrix, dtype=np.int64).reshape(params.h_rows, lx)
    tm = np.array(params.t_matrix, dtype=np.int64)
    leaders = coset_leader_table(h) if params.h_rows else np.zeros(1, dtype=np.int64)

    def pack(matrix, bits):
        return ((bits @ matrix.T) % 2) @ (1 << np.arange(matrix.shape[0]))

    syn = pack(h, a)
    leader = leaders[pack(h, b) ^ syn]
    return syn, pack(tm, a), pack(tm, b ^ ((leader[:, None] >> np.arange(lx)) & 1))


class _Engine:
    def __init__(self, params: QkdParams, attack: AttackStrategy):
        self.params = params
        self.attack = attack
        self.tables = _position_tables(attack, params.n_qubits)
        self._member_tables()
        self._rest_cache: dict = {}
        self._sample_cache: dict = {}
        self._rest_sums: dict = {}

    # key/syndrome lookup per key-material member (a_r, b_r)
    def _member_tables(self):
        lx = self.params.width
        # member m holds position j's cell 2a+b in bits 2(lx-1-j) and up
        cells = (np.arange(4 ** lx)[:, None] >> (2 * np.arange(lx - 1, -1, -1))) & 3
        self.syn_of, self.ka_of, self.kb_of = _key_tables(self.params, cells >> 1, cells & 1)

    def _pos_key(self, i: int) -> int:
        # positions with identical attacks share cached rest blocks
        return id(self.tables[i])

    def _rest_block(self, positions: tuple[int, ...], thetas: tuple[int, ...],
                    comps: tuple[int, ...]):
        key = (tuple(self._pos_key(i) for i in positions), thetas, comps)
        hit = self._rest_cache.get(key)
        if hit is not None:
            return hit
        w_member = np.ones(1)
        env_dim = 1
        for i, theta, ci in zip(positions, thetas, comps):
            tab = self.tables[i][ci]
            w_member = (w_member[:, None] * tab.w4[theta][None, :]).reshape(-1)
            env_dim *= tab.cols[theta].shape[0]
        n_members = w_member.size
        if env_dim == 1 or n_members * env_dim ** 2 <= 1 << 22:
            # materialise the per-member environment operators directly
            ops = np.ones((1, 1, 1), dtype=complex)
            for i, theta, ci in zip(positions, thetas, comps):
                tab = self.tables[i][ci]
                x = tab.cols[theta]
                d = x.shape[0]
                cell_ops = np.zeros((4, d, d), dtype=complex)
                for c in range(4):
                    sel = x[:, tab.col_ab[theta] == c]
                    cell_ops[c] = sel @ sel.conj().T
                ops = np.einsum("mij,ckl->mcikjl", ops, cell_ops).reshape(
                    ops.shape[0] * 4, ops.shape[1] * d, ops.shape[2] * d)
            block = _RestBlock(w_member, ops=ops)
        else:
            member_of_col = np.zeros(1, dtype=np.int64)
            gram = np.ones((1, 1), dtype=complex)
            for i, theta, ci in zip(positions, thetas, comps):
                tab = self.tables[i][ci]
                x = tab.cols[theta]
                gram = np.kron(gram, x.conj().T @ x)
                member_of_col = (member_of_col[:, None] * 4
                                 + tab.col_ab[theta][None, :]).reshape(-1)
            block = _RestBlock(w_member, gram=gram, member_of_col=member_of_col)
        self._rest_cache[key] = block
        return block

    def sample_stats(self, positions: tuple[int, ...]):
        """(pass_mass, abort_mass) summed over bases, labels, and values."""
        key = tuple(self._pos_key(i) for i in positions)
        hit = self._sample_cache.get(key)
        if hit is not None:
            return hit
        p = self.params
        # error-count distribution: product convolution over sample positions
        dist = np.array([1.0])
        for i in positions:
            e1 = 0.0
            total = 0.0
            for tab in self.tables[i]:
                for theta in range(2):
                    e1 += float(tab.w4[theta][1] + tab.w4[theta][2])  # a != b cells
                    total += float(tab.w4[theta].sum())
            e0 = total - e1
            dist = np.convolve(dist, np.array([e0, e1]))
        counts = np.arange(dist.size)
        abort = counts > p.q_tol * p.t
        hit = self._sample_cache[key] = (float(dist[~abort].sum()),
                                         float(dist[abort].sum()))
        return hit

    def rest_iter(self, rest: tuple[int, ...]):
        lx = len(rest)
        comp_counts = [len(self.tables[i]) for i in rest]
        for thetas in product(range(2), repeat=lx):
            for comps in product(*[range(c) for c in comp_counts]):
                yield self._rest_block(rest, thetas, comps)

    def key_rows(self, entries: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(select, mix): indicator rows over the members, syndrome-major.

        There is one row per syndrome and entry ``(ka, kb, ideal)``.  Its
        ``select`` row marks the syndrome's members with keys (ka, kb), or with
        K_A = ka whatever K_B when kb is None.  Its ``mix`` row is the uniform
        key the ideal system puts in that place, the syndrome's members over
        key_size, when ``ideal`` holds, and zero otherwise.  The branch masses
        live inside the operators, so these indicators are the coefficients.
        """
        ka = np.array([e[0] for e in entries])[:, None]
        kb = np.array([-1 if e[1] is None else e[1] for e in entries])[:, None]
        ideal = np.array([e[2] for e in entries], dtype=bool)[:, None]
        in_syn = np.arange(2 ** self.params.h_rows)[:, None, None] == self.syn_of
        keys = (ka == self.ka_of) & ((kb == self.kb_of) | (kb < 0))
        select = (in_syn & keys).reshape(-1, self.syn_of.size).astype(float)
        mix = (in_syn & ideal).reshape(select.shape) / self.params.key_size
        return select, mix

    def evaluate(self, entries: tuple):
        """Sums of the entries' rows over the whole protocol run.

        Returns ``(p_abort, norms, masses, reached)``.  ``norms`` and
        ``masses`` are per-row trace norms of (real - ideal) and selected
        branch masses, weighted by each sample subset's pass mass and
        averaged over the uniform subset choice; ``reached`` marks the rows
        whose selection has positive mass in some rest block.
        """
        p = self.params
        select, mix = self.key_rows(entries)
        coeff = select - mix
        subsets = list(combinations(range(p.n_qubits), p.t))
        p_abort, norms, masses, support = 0.0, 0.0, 0.0, 0.0
        for subset in subsets:
            rest = tuple(i for i in range(p.n_qubits) if i not in subset)
            # the block sums depend only on the attacks at the rest positions,
            # so subsets whose rests share position keys share them
            key = (tuple(self._pos_key(i) for i in rest), entries)
            if key not in self._rest_sums:
                blocks = list(self.rest_iter(rest))
                self._rest_sums[key] = (sum(b.trace_norms(coeff) for b in blocks),
                                        sum(select @ b.w_member for b in blocks))
            rest_norms, rest_masses = self._rest_sums[key]
            pass_mass, abort_mass = self.sample_stats(subset)
            p_abort += abort_mass
            norms = norms + pass_mass * rest_norms
            masses = masses + pass_mass * rest_masses
            support = support + rest_masses
        # normalise by the uniform sample-subset choice once, at the end, so
        # the exactly representable attacks keep exactly representable values
        c = len(subsets)
        return p_abort / c, norms / c, masses / c, support > 0.0


class _RestBlock:
    """Spectral data of one (rest-basis, rest-label) cell of the key material.

    Small environments store the per-member operators outright; large ones
    fall back to the Gram-matrix route on the factored columns.
    """

    def __init__(self, w_member, *, ops=None, gram=None, member_of_col=None):
        self.w_member = w_member
        self._ops = ops
        self._gram_sqrt = None
        self._member_of_col = member_of_col
        if ops is not None and ops.shape[1] == 1:
            self._scalars = ops[:, 0, 0].real.copy()
        else:
            self._scalars = None
        if gram is not None:
            self._gram_sqrt = psd_sqrt(gram, rel_cutoff=RANK_CUTOFF)

    def trace_norms(self, coeff: np.ndarray) -> np.ndarray:
        """|| sum over members of coeff[r] * (branch operator) ||_1, per row r."""
        if self._scalars is not None:
            # one-dimensional environment: the block operators are scalars
            return np.abs((coeff * self._scalars).sum(axis=1))
        dim = (self._ops if self._ops is not None else self._gram_sqrt).shape[1]
        step = max(1, _BATCH_ENTRIES // dim ** 2)
        return np.concatenate([self._batch_norms(coeff[lo:lo + step])
                               for lo in range(0, len(coeff), step)])

    def _batch_norms(self, coeff: np.ndarray) -> np.ndarray:
        if self._ops is not None:
            n_members, dim, _ = self._ops.shape
            m = (coeff @ self._ops.reshape(n_members, dim * dim)).reshape(-1, dim, dim)
        else:
            col_coeff = coeff[:, self._member_of_col]
            m = (self._gram_sqrt * col_coeff[:, None, :]) @ self._gram_sqrt
        h = m.conj().swapaxes(1, 2)
        h += m
        h *= 0.5
        return np.abs(np.linalg.eigvalsh(h)).sum(axis=1)


@dataclass(frozen=True)
class QkdRun:
    """Exact evaluation of one attack: the final-state summary.

    The final classical-quantum state is represented implicitly through the
    engine's factorised blocks; the scalar fields below are the functionals
    the security conditions need, each computed without any sampling.
    """

    params: QkdParams
    attack_name: str
    p_abort: float
    eps_cor: float
    eps_sec: float
    advantage: float
    eq12_rhs: float
    error_rate: float
    transcript_registers: tuple[str, ...]
    key_joint: dict
    _engine: object = None

    @property
    def decomposition_bound(self) -> float:
        """eps_cor + eps_sec: the analytic ceiling on the advantage."""
        return self.eps_cor + self.eps_sec

    def engine(self) -> _Engine:
        if self._engine is None:
            raise ValueError("run was evaluated without keep_engine=True")
        return self._engine


_TRANSCRIPT = ("bases", "labels", "sample_set", "sample_a", "sample_b",
               "syndrome", "accepted")


def qkd_run(params: QkdParams, attack: AttackStrategy, seed: int = 0,
            *, keep_engine: bool = False) -> QkdRun:
    """Evaluate the protocol against one attack; exact and deterministic.

    All randomness (bit/basis choices, sampling, attack mixtures, Born
    outcomes) is enumerated into the classical-quantum branch structure, so
    ``seed`` does not influence the result.
    """
    del seed
    engine = _Engine(params, attack)
    p = params
    n = p.n_qubits
    nk = p.key_size
    pairs = [(ka, kb) for ka in range(nk) for kb in range(nk)]
    # secrecy rows (K_A against everything Eve sees), then the rows of the
    # full real-vs-ideal distance (keys (K_A, K_B) jointly)
    entries = tuple([(k, None, True) for k in range(nk)]
                    + [(ka, kb, ka == kb) for ka, kb in pairs])
    p_abort, norms, masses, reached = engine.evaluate(entries)
    by_syn = (-1, len(entries))
    eps_sec = 0.5 * float(norms.reshape(by_syn)[:, :nk].sum())
    advantage = 0.5 * float(norms.reshape(by_syn)[:, nk:].sum())
    joint = masses.reshape(by_syn)[:, nk:].sum(axis=0)
    reached = reached.reshape(by_syn)[:, nk:].any(axis=0)
    eps_cor = float(sum(w for (ka, kb), w in zip(pairs, joint) if ka != kb))
    key_joint = {pair: float(w) for pair, w, r in zip(pairs, joint, reached) if r}

    if p_abort > 0.0:
        key_joint[("abort", "abort")] = p_abort

    # same distance computed on the renormalised conditional state
    not_abort = 1.0 - p_abort
    eq12_rhs = not_abort * (advantage / not_abort) if not_abort > 0.0 else 0.0

    err = 0.0
    for i in range(n):
        for tab in engine.tables[i]:
            for theta in range(2):
                err += float(tab.w4[theta][1] + tab.w4[theta][2])
    err /= n

    return QkdRun(
        params=params,
        attack_name=attack.name,
        p_abort=p_abort,
        eps_cor=eps_cor,
        eps_sec=eps_sec,
        advantage=advantage,
        eq12_rhs=eq12_rhs,
        error_rate=err,
        transcript_registers=_TRANSCRIPT,
        key_joint=key_joint,
        _engine=engine if keep_engine else None,
    )


def leaked_advantage(run: QkdRun, split: int) -> float:
    """Distance after a converter forwards the first ``split`` key bits to Eve.

    Both the real and the ideal system leak the same prefix, so this must
    equal the plain advantage (the leak is a register permutation); it is
    recomputed from scratch with the refined block structure as a check.
    """
    p = run.params
    if not 0 <= split <= p.out_len:
        raise InvalidParams(f"split {split} outside [0, {p.out_len}]")
    engine = run.engine()
    low_bits = p.out_len - split
    # K_A as (leaked prefix, kept bits), against every K_B
    kas = [(k1 << low_bits) | k2 for k1 in range(2 ** split) for k2 in range(2 ** low_bits)]
    entries = tuple((ka, kb, kb == ka) for ka in kas for kb in range(p.key_size))
    return 0.5 * float(engine.evaluate(entries)[1].sum())


def otp_composed_advantage(run: QkdRun, message: int) -> float:
    """Distance of (QKD then one-time pad) real vs ideal systems.

    Registers become the ciphertext y = message XOR K_A (leaked to Eve) and
    Bob's decryption x_B = y XOR K_B; on the ideal side the secure channel
    delivers the message and the simulator emits a uniform y.  The map
    (K_A, K_B) -> (y, x_B) is a bijection for any fixed message, so the
    value must match the plain advantage.
    """
    p = run.params
    nk = p.key_size
    if not 0 <= message < nk:
        raise InvalidParams(f"message {message} is not a {p.out_len}-bit value")
    engine = run.engine()
    entries = tuple((message ^ y, y ^ xb, xb == message)
                    for y in range(nk) for xb in range(nk))
    return 0.5 * float(engine.evaluate(entries)[1].sum())


@dataclass(frozen=True)
class SecurityEvaluation:
    runs: tuple[QkdRun, ...]
    eps_cor: float
    eps_sec: float
    reports: tuple[BoundReport, ...]

    @property
    def holds(self) -> bool:
        return all(r.holds for r in self.reports)


def qkd_security_eval(params: QkdParams, attacks) -> SecurityEvaluation:
    """Correctness, secrecy, and the two-sided decomposition over a family.

    ``attacks`` is an iterable of strategies or an attack family (finite
    members plus its parameter grid).  eps_cor and eps_sec are family maxima;
    for every attack the evaluation checks the decomposition bound
    D <= eps_cor + eps_sec on that attack's own values, and the converse
    bounds eps_cor <= D and eps_sec <= 2 D.
    """
    from ..acframework import AttackFamily

    if isinstance(attacks, AttackFamily):
        members = list(attacks.strategies)
        if attacks.builder is not None and attacks.bounds:
            grids = [_grid(lo, hi, attacks.grid_points) for lo, hi in attacks.bounds]
            members.extend(attacks.builder(*point) for point in product(*grids))
        attacks = members
    runs = []
    for attack in attacks:
        runs.append(qkd_run(params, attack))
    eps_cor = max(r.eps_cor for r in runs)
    eps_sec = max(r.eps_sec for r in runs)
    worst_fwd = min((r.eps_cor + r.eps_sec) - r.advantage for r in runs)
    worst_cor = min(r.advantage - r.eps_cor for r in runs)
    worst_sec = min(2.0 * r.advantage - r.eps_sec for r in runs)
    reports = (
        BoundReport("distance-at-most-cor-plus-sec", -worst_fwd, 0.0),
        BoundReport("correctness-at-most-distance", -worst_cor, 0.0),
        BoundReport("secrecy-at-most-twice-distance", -worst_sec, 0.0),
    )
    return SecurityEvaluation(tuple(runs), eps_cor, eps_sec, reports)


@dataclass(frozen=True)
class RobustnessReport:
    q: float
    delta: float
    filtered_distance: float
    condition_ii_advantage: float
    report: BoundReport


def qkd_robustness_eval(params: QkdParams, q: float) -> RobustnessReport:
    """Availability under the honest depolarising filter, matched abort rate.

    The filtered real system only shows the key pair at the A and B
    interfaces; the ideal filter presses the switch with the same
    probability delta, so the availability gap is the total variation of the
    key-pair distributions.  It is bounded by the security advantage of the
    corresponding active attack (same channel, environment kept by Eve).
    """
    run = qkd_run(params, depolarize_attack(params.n_qubits, q))
    delta = run.p_abort
    nk = params.key_size
    ideal = {("abort", "abort"): delta}
    for k in range(nk):
        ideal[(k, k)] = (1.0 - delta) / nk
    keys = set(run.key_joint) | set(ideal)
    tv = 0.5 * sum(abs(run.key_joint.get(k, 0.0) - ideal.get(k, 0.0)) for k in keys)
    report = BoundReport(f"robustness-q={q:g}", tv, run.advantage)
    return RobustnessReport(q, delta, tv, run.advantage, report)
