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
coefficient row over the key-material members (one syndrome and key event,
real minus ideal).  ``key_rows`` builds a quantity's rows from per-row key
columns, and ``_Engine.evaluate`` takes them as one coefficient matrix.
A position's tables come from one array pass: one ``einsum`` gives Eve's
environment vector phi[c, theta, a, b, k, e] = sqrt(w_c/4) <b|_theta K_k
|a>_theta for every mixture component, basis, bit pair and Kraus operator
(components zero-padded to a common Kraus count and environment), and the
cell masses, error masses and cell operators are reductions of that array.
Each position's environment splits into orthogonal sectors that every cell
operator respects (depolarising with purification: one sector for a = b and
one for a != b; intercept-resend: one per measured outcome).  Every
basis/label cell of the key-material positions is a classical branch, so the
operators are block diagonal over cells and sectors alike, and a trace norm
is the sum of the blocks' trace norms.  So a position's sectors over all its
bases and labels are stacked into one table per sector dimension, with the
mixture weight and the 1/4 prior inside the operators, and the sectors of a
rest (the key-material positions of one sample subset) are the products of
its positions' stacked sectors: the union of every cell's sectors.  A row's
operator is linear in each position's sector table and the trace norm is
positively homogeneous, so sectors whose tables are positive multiples of
one another (to ``SECTOR_MERGE_TOL`` in unit-Frobenius form) are merged into
their sum: intercept-resend keeps 4 sectors per position of its 10 and
depolarising 2 of its 4, and a rest has that many fewer tuples.  A rest
is one contraction of the coefficient tensor per product of dimension
classes, taken one position at a time as mode products.  One-dimensional
classes reduce with ``abs`` in real arithmetic; larger ones go through a
batched ``eigvalsh`` on sector-sized matrices.  Batches split the rows and
the leading positions' sectors, so memory stays bounded, and a sector tuple
whose contraction would be too large is refused with ``DimensionCap``.  The
per-row sums over a rest depend only on the attacks at the rest positions,
so one ``evaluate`` call computes them once per distinct rest and weights
them by each sample subset's pass mass.  Its memos are local to the call: an
engine keeps nothing between calls.
Rows come in translation orbits.  Flipping Alice's and Bob's bits together
on some key-material positions (X in the Z basis, Z in the X basis) maps
row (syndrome, K_A, K_B) onto another row of the same quantity.  The same
phi certifies each position: the flip is a unitary on Eve's side when the
Gram matrices of the flipped and unflipped environment vectors agree, up to
a permutation of the Kraus operators and a phase per operator
(``FLIP_TOL``).  The trace norm is unitarily invariant, so when every
position is certified, all rows of an orbit have one norm and one mass:
``qkd_run`` evaluates 1 + key_size rows in place of 2^h_rows (key_size +
key_size^2) and gathers the values back onto every row.  An attack that is
not certified evaluates every row through the same code.
Everything is an exact enumeration; no sampling is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from ..acframework import (
    AttackStrategy,
    MixtureComponent,
    PositionAttack,
    ScheduleMismatch,
)
from ..linalg import coset_leader_table, gf2_rank
from ..metrics import BoundReport
from ..qstate import DimensionCap, KrausChannel, make_channel
from ..tolerances import FLIP_TOL, SECTOR_CUTOFF, SECTOR_MERGE_TOL
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
    "key_rows",
    "QkdRun",
    "qkd_run",
    "RobustnessReport",
    "qkd_robustness_eval",
]


class InvalidParams(ValueError):
    pass


def _check_size(n: int, t: int) -> None:
    """Refuse a sample size outside [1, n) or an n_qubits outside [2, 10]."""
    if not 1 <= t < n:
        raise InvalidParams(f"sample size {t} must satisfy 1 <= t < n_qubits")
    if n > 10:  # t < n already gives n >= 2
        raise InvalidParams(f"n_qubits {n} outside the supported range [2, 10]")


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

    def __post_init__(self):
        n, t = self.n_qubits, self.t
        _check_size(n, t)
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
    _check_size(n_qubits, t)  # before H and T, whose draw grows with n_qubits
    if h_rows < 0:
        raise InvalidParams(f"h_rows = {h_rows} must be >= 0")
    if out_len < 1:
        raise InvalidParams(f"out_len = {out_len} must be >= 1")
    if h_rows + out_len > n_qubits - t:
        raise InvalidParams(
            f"h_rows + out_len = {h_rows + out_len} exceeds key-material width "
            f"{n_qubits - t}")
    h, tm = default_code_matrices(n_qubits - t, h_rows, out_len, seed)
    return QkdParams(
        n_qubits=n_qubits, t=t, q_tol=q_tol,
        h_matrix=tuple(tuple(int(x) for x in row) for row in h),
        t_matrix=tuple(tuple(int(x) for x in row) for row in tm),
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


def identity_attack() -> AttackStrategy:
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


def _overlaps() -> np.ndarray:
    """P[theta, theta', b, a'] = |<b|_theta |a'>_theta'|^2, exactly.

    The odds of outcome b when a state prepared as a' in basis theta' is
    measured in basis theta: 1 or 0 in the same basis, 1/2 across bases.
    """
    return np.where(np.eye(2, dtype=bool)[:, :, None, None], np.eye(2), 0.5)


def _amplitudes(comps) -> np.ndarray:
    """phi[c, theta, a, b, k, e] = sqrt(w_c / 4) <b|_theta K_k |a>_theta.

    One array over the mixture components c, bases theta, Alice's and Bob's
    bits a, b, Kraus operators k and Eve's environment e: the environment
    vector of each (component, basis, bits, Kraus operator), with the
    mixture weight and the 1/4 basis/bit prior inside.  Components are
    zero-padded to a common Kraus count and environment dimension.
    """
    envs = []
    for comp in comps:
        chan = comp.channel
        if chan.out_dims[0] != 2:
            raise ScheduleMismatch("attack channel must return the transmitted qubit first")
        envs.append(int(np.prod(chan.out_dims[1:])) if len(chan.out_dims) > 1 else 1)
    if max(envs) > 4:
        raise DimensionCap("attack environment dimension above 4 per position")
    kraus = np.zeros((len(comps), max(len(c.channel.kraus_ops) for c in comps), 2,
                      max(envs), 2), dtype=complex)
    for c, (comp, env) in enumerate(zip(comps, envs)):
        ops = comp.channel.kraus_ops
        kraus[c, :len(ops), :, :env] = np.reshape(ops, (len(ops), 2, env, 2))
    scale = np.sqrt(0.25 * np.array([comp.weight for comp in comps]))
    basis = np.array(_BASIS)  # [theta, a, qubit]
    return np.einsum("tbi,ckiej,taj,c->ctabke", basis.conj(), kraus, basis, scale)


def _sectors(cell_ops: np.ndarray) -> list[np.ndarray]:
    """Split one theta's cell operators (4, d, d) into environment sectors.

    Environment indices linked by an entry above ``SECTOR_CUTOFF`` times the
    table's largest |entry| fall in one sector (a connected component), so
    every cell operator is block diagonal over the sectors; smaller entries
    are float dust and are dropped.  Returns per sector, in order of its
    first index, the four cell operators restricted to it (4, D, D).  A cell
    whose restriction holds only dust is zero there, and a sector where every
    cell is zero is left out.
    """
    d = cell_ops.shape[1]
    mag = np.abs(cell_ops)
    cutoff = SECTOR_CUTOFF * mag.max()
    linked = (mag.max(axis=0) > cutoff) | np.eye(d, dtype=bool)
    root = np.arange(d)
    for _ in range(d):  # each pass spreads the smallest index one link further
        root = np.where(linked, root, d).min(axis=1)
    sectors = []
    # each component's smallest index is its own root (np.unique would
    # import numpy.ma on first use)
    for r in np.flatnonzero(root == np.arange(d)):
        env = np.flatnonzero(root == r)
        ops = cell_ops[:, env][:, :, env]
        active = np.abs(ops).max(axis=(1, 2)) > cutoff
        if active.any():
            sectors.append(np.where(active[:, None, None], ops, 0.0))
    return sectors


@dataclass
class _PositionTables:
    """One position's tables, stacked over its bases and mixture labels.

    ``errors`` is (a != b mass, total mass) and ``mass`` (4,) the mass of
    each cell 2a+b, both summed over bases and labels.  ``classes`` holds one
    stacked table (S, 4, D, D) per sector dimension D, ascending: the
    sectors of every (basis, label) pair with that dimension, merged where
    they are positive multiples of one another (see _merge).  The mixture
    weight and the 1/4 prior are inside the operators, so the sectors of a
    rest are the products of its positions' stacked sectors.  ``covariant``
    holds when the joint bit flip maps every cell operator of (a, b) onto
    that of (a ^ 1, b ^ 1) by a unitary on Eve's side (see _flip_covariant).
    """

    errors: tuple[float, float]
    mass: np.ndarray
    classes: list[np.ndarray]
    covariant: bool


def _merge(tables: list[np.ndarray]) -> np.ndarray:
    """Stack sector tables (4, D, D), summing those that are proportional.

    A row's operator in a sector tuple is linear in each position's table,
    and the trace norm is positively homogeneous, so sectors whose tables
    are positive multiples of one another give the same sum of norms as one
    sector holding their sum.  Two tables count as proportional when their
    unit-Frobenius forms differ by at most ``SECTOR_MERGE_TOL`` in every
    entry.  Groups keep the order of their first table.
    """
    units, merged = [], []
    for ops in tables:
        unit = ops / np.linalg.norm(ops)
        for k, u in enumerate(units):
            if np.abs(unit - u).max() <= SECTOR_MERGE_TOL:
                merged[k] = merged[k] + ops
                break
        else:
            units.append(unit)
            merged.append(ops)
    return np.stack(merged)


def _cells(comps):
    """(phi, w4, cell_ops) of one position, each an array reduction of phi.

    ``phi`` is _amplitudes' array after the snap below, ``w4`` [(c, theta),
    2a+b] the cell masses and ``cell_ops`` [(c, theta), 2a+b] the cell
    operators sum_k phi_k phi_k^dagger on Eve's environment.  Vectors of
    norm^2 at most 1e-28 are dropped.
    """
    phi = _amplitudes(comps)
    norm2 = (phi.real ** 2 + phi.imag ** 2).sum(axis=-1)  # [c, theta, a, b, k]
    kept = norm2 > 1e-28
    phi = np.where(kept[..., None], phi, 0.0)
    norm2 = np.where(kept, norm2, 0.0)
    # trace preservation makes each (c, theta, a) group sum to weight/4
    # analytically; snap the tiny representation drift away so the classical
    # functionals of exactly modelled attacks stay exact
    target = 0.25 * np.array([comp.weight for comp in comps])[:, None, None]
    total = norm2.sum(axis=(3, 4))
    snap = (total > 0.0) & (abs(total - target) < 1e-12 * target)
    fix = np.where(snap, target / np.where(snap, total, 1.0), 1.0)
    phi = phi * np.sqrt(fix)[..., None, None, None]
    single = (snap & (kept.sum(axis=(3, 4)) == 1))[..., None, None] & kept
    norm2 = np.where(single, target[..., None, None], norm2 * fix[..., None, None])
    cell_ops = phi.swapaxes(-1, -2) @ phi.conj()
    env = phi.shape[-1]
    return phi, norm2.sum(axis=-1).reshape(-1, 4), cell_ops.reshape(-1, 4, env, env)


def _stack(comps) -> _PositionTables:
    phi, w4, cell_ops = _cells(comps)
    errors = (sum((w4[:, 1] + w4[:, 2]).tolist()), sum(w4.sum(axis=1).tolist()))
    by_dim: dict[int, list] = {}
    for ops in cell_ops:
        for sector in _sectors(ops):
            by_dim.setdefault(sector.shape[-1], []).append(sector)
    return _PositionTables(errors, w4.sum(axis=0), [_merge(by_dim[d]) for d in sorted(by_dim)],
                           _flip_covariant(phi))


def _flip_covariant(phi: np.ndarray) -> bool:
    """Whether the joint bit flip acts on each cell by one unitary on Eve's side.

    ``phi`` is [c, theta, a, b, k, e] (see _amplitudes).  Flipping a and b
    together is X in the Z basis and Z in the X basis.  For each component
    and basis this looks for a permutation pi of the Kraus index, phases
    alpha_k and a unitary W with phi(a^1, b^1, pi k) = e^{i alpha_k} W phi(a,
    b, k); then W maps each cell operator of (a, b) onto that of (a^1, b^1).
    Such a W exists exactly when the Gram matrices of the two families agree
    up to the phases.  pi pairs Kraus indices of matching cell norms, first
    free match first, and the phases follow from the Gram entries; entries
    agree when they differ by at most ``FLIP_TOL`` times the largest.  A
    channel whose certificate needs another pairing or a mixing of its Kraus
    operators is reported as not covariant, and evaluates every row.
    """
    blocks = phi.reshape(-1, 4, *phi.shape[-2:])  # [(c, theta), 2a+b, k, e]
    count, _, kraus, _ = blocks.shape
    norms = (blocks.real ** 2 + blocks.imag ** 2).sum(axis=-1)
    tol = FLIP_TOL * norms.max(axis=(1, 2))
    # the flip reverses the cell index 2a+b; match[block][k][j]: the flipped
    # cells of Kraus index j have the norms of k's
    match = (abs(norms[:, ::-1, None, :] - norms[:, :, :, None]).max(axis=1)
             <= tol[:, None, None]).tolist()
    perms = []
    for rows in match:
        free = list(range(kraus))
        for row in rows:
            j = next((j for j in free if row[j]), None)
            if j is None:
                return False
            free.remove(j)
            perms.append(j)
    x = blocks.reshape(count, 4 * kraus, -1)
    y = np.take_along_axis(blocks[:, ::-1], np.reshape(perms, (count, 1, kraus, 1)), axis=2)
    y = y.reshape(x.shape)
    gram = x.conj() @ x.swapaxes(1, 2)
    flipped = y.conj() @ y.swapaxes(1, 2)
    # flipped = conj(e^{i alpha}) gram e^{i alpha} over the Kraus indices:
    # each phase from the largest summed overlap with an earlier index
    overlaps = (flipped * gram.conj()).reshape(count, 4, kraus, 4, kraus).sum(axis=(1, 3))
    phases = []
    for overlap in overlaps.tolist():
        phase = [1.0] * kraus
        for k in range(1, kraus):
            sizes = [abs(overlap[i][k]) for i in range(k)]
            j = sizes.index(max(sizes))
            if overlap[j][k] != 0.0:
                phase[k] = phase[j] * overlap[j][k] / abs(overlap[j][k])
        phases.append(phase * 4)
    phase = np.array(phases, dtype=complex)
    misfit = abs(flipped - phase.conj()[:, :, None] * gram * phase[:, None, :])
    return bool((misfit.max(axis=(1, 2)) <= tol).all())


def _position_tables(attack: AttackStrategy, n: int):
    if attack.tamper:
        raise ScheduleMismatch("the QKD classical channel is authentic; no tampering")
    quantum = attack.quantum if attack.quantum else \
        (PositionAttack((_identity_component(),)),) * n
    if len(quantum) != n:
        raise ScheduleMismatch(
            f"attack supplies {len(quantum)} positions, protocol uses {n}")
    # positions sharing one PositionAttack object share one table object, so
    # sample subsets whose rests share table objects share the rest sums
    built: dict[int, _PositionTables] = {}
    out = []
    for pos in quantum:
        if id(pos) not in built:
            built[id(pos)] = _stack(pos.components)
        out.append(built[id(pos)])
    return out


# --- the evaluation engine ---------------------------------------------------------

# entries in one batch of a contraction: the rows and the leading positions'
# sectors are split so that each batch temporary stays small
_BATCH_ENTRIES = 1 << 14
# most complex entries one row of one sector tuple's contraction may hold; a
# larger one raises DimensionCap
_SECTOR_ENTRIES = 1 << 22


def _digits(base: int, n: int) -> np.ndarray:
    """Rows of all n-digit words in ``base``, in product order (digit 0 slowest)."""
    return np.arange(base ** n)[:, None] // base ** np.arange(n - 1, -1, -1) % base


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


def _joint_keys(key_size: int):
    """Key columns of the joint (K_A, K_B) rows, K_B fastest: (ka, kb, ka == kb)."""
    ka, kb = np.divmod(np.arange(key_size * key_size), key_size)
    return ka, kb, ka == kb


def key_rows(params: QkdParams, ka, kb, ideal) -> tuple[np.ndarray, np.ndarray]:
    """(select, mix): indicator rows over the key-material members, syndrome-major.

    ``ka``, ``kb`` and ``ideal`` are per-row key columns, and there is one row
    per syndrome and column entry.  Its ``select`` row marks the syndrome's
    members with keys (ka, kb), or with K_A = ka whatever K_B when kb < 0.
    Its ``mix`` row is the uniform key the ideal system puts in that place,
    the syndrome's members over key_size, when ``ideal`` holds, and zero
    otherwise.  The branch masses live inside the operators, so these
    indicators are the coefficients.
    """
    return _rows(params, *_syndrome_major(params, ka, kb, ideal))


def _syndrome_major(params: QkdParams, ka, kb, ideal):
    """Columns (syn, ka, kb, ideal) of every syndrome with every key column entry."""
    syndromes = 2 ** params.h_rows
    return (np.repeat(np.arange(syndromes), len(ka)),
            *(np.tile(np.asarray(col), syndromes) for col in (ka, kb, ideal)))


def _rows(params: QkdParams, syn, ka, kb, ideal) -> tuple[np.ndarray, np.ndarray]:
    """(select, mix) of one row per entry of the columns (see key_rows)."""
    # member m holds position j's cell 2a+b in bits 2(width-1-j) and up
    cells = _digits(4, params.width)
    syn_of, ka_of, kb_of = _key_tables(params, cells >> 1, cells & 1)
    syn, ka, kb = (np.asarray(col)[:, None] for col in (syn, ka, kb))
    in_syn = syn == syn_of
    select = in_syn & (ka == ka_of) & ((kb == kb_of) | (kb < 0))
    mix = in_syn & np.asarray(ideal, dtype=bool)[:, None]
    return select.astype(float), mix / params.key_size


def _orbit_rows(params: QkdParams, ka, kb, ideal, covariant: bool):
    """Columns (syn, ka, kb, ideal) of the rows to evaluate, and the gather.

    The rows are those of ``key_rows(params, ka, kb, ideal)``, and ``gather``
    holds, for each of them, the index of the evaluated row with its values.
    Flipping Alice's and Bob's bits together on a set e of key-material
    positions maps the members of row (s, ka, kb) onto those of (s ^ He,
    ka ^ Te, kb ^ Te), with kb < 0 kept and the same ideal flag.  When every
    position is flip covariant this conjugates each member operator by a
    unitary on Eve's side, so both rows have the same trace norm and mass.
    [H; T] has independent rows, so each orbit holds the row (0, 0, ka ^ kb),
    and only those rows are evaluated.  Otherwise every row is, and the
    gather is the identity.
    """
    columns = _syndrome_major(params, ka, kb, ideal)
    if not covariant:
        return columns, np.arange(len(columns[0]))
    _, ka, kb, ideal = columns
    orbits: dict = {}
    gather = np.array([orbits.setdefault(orbit, len(orbits)) for orbit in
                       zip(np.where(kb < 0, -1, ka ^ kb).tolist(), ideal.tolist())])
    kb, ideal = (np.array(col) for col in zip(*orbits))
    zeros = np.zeros(len(kb), dtype=np.int64)
    return (zeros, zeros, kb, ideal), gather


def _entries(ops, fixed: int) -> int:
    """Most entries per row at any stage but the first of a contraction of ``ops``.

    ``ops`` holds one stacked table (S, 4, D, D) per position, and the first
    ``fixed`` positions take one sector each.  Contracting a position trades
    its 4 cells for its (sector, row, column) triples.  The first stage is
    the coefficient rows themselves, 4^w entries per row: they are held
    already, and fixing sectors cannot shrink them, so they are not counted.
    """
    stage, most = 4 ** len(ops), 0
    for j, o in enumerate(ops):
        s, _, d, _ = o.shape
        stage = stage // 4 * d * d * (1 if j < fixed else s)
        most = max(most, stage)
    return most


def _contract(coeff: np.ndarray, ops):
    """The coefficient rows' operators over every sector tuple of ``ops``.

    ``coeff`` is (rows, members) and ``ops`` one stacked table (S, 4, D, D)
    per position.  A row's operator in a sector tuple is the sum over members
    of the coefficient times the tensor product of the members' cell
    operators; it is contracted one position at a time as mode products of
    the coefficient tensor (rows, 4, ..., 4), so no member operator is held.
    Yields ``(rows, m)`` per batch, ``rows`` a slice of the coefficient rows:
    ``m`` is (rows, sector tuples) real values when every D is 1, and (rows,
    sector tuples, prod D, prod D) Hermitian operators otherwise.  Batches
    split the rows, and when one row is too large the leading positions'
    sectors, so that each holds at most ``_BATCH_ENTRIES`` entries per stage
    after the coefficient rows (or one row with as few entries as fixing
    sectors allows).
    """
    w = len(ops)
    dims = [o.shape[-1] for o in ops]
    scalar = max(dims) == 1
    # cell-major tables (4, S, D * D); one-dimensional sectors in real arithmetic
    tabs = [np.moveaxis(o.real if scalar else o, 1, 0).reshape(4, len(o), -1).copy()
            for o in ops]
    # the fewest leading positions that bring a batch within _BATCH_ENTRIES,
    # or failing that, the fewest that bring it to its least size
    fixed = min(range(w + 1), key=lambda k: max(_entries(ops, k), _BATCH_ENTRIES))
    step = max(1, _BATCH_ENTRIES // _entries(ops, fixed))
    # sectors per position in one batch
    counts = [1] * fixed + [len(o) for o in ops[fixed:]]
    for lo in range(0, len(coeff), step):
        rows = slice(lo, lo + step)
        # (cells of each position, rows): contracting the leading axis with
        # one matrix product appends the position's (sector, row, column)
        # axes, so m ends as (rows, [sector, row, column] of each position)
        first = np.ascontiguousarray(coeff[rows].T)
        n = first.shape[1]
        for lead in product(*[range(len(o)) for o in ops[:fixed]]):
            m = first
            for j, t in enumerate(tabs):
                t = t[:, lead[j]] if j < fixed else t.reshape(4, -1)
                m = m.reshape(4, -1).T
                if m.dtype != t.dtype:
                    # real coefficients onto complex operators: one real
                    # product on the interleaved (re, im) entries
                    m = (m @ t.view(float)).view(complex)
                else:
                    m = m @ t
            if scalar:
                yield rows, m.reshape(n, -1)
                continue
            m = m.reshape(n, *[x for s, d in zip(counts, dims) for x in (s, d, d)])
            m = m.transpose(0, *range(1, 3 * w, 3), *range(2, 3 * w, 3),
                            *range(3, 3 * w + 1, 3))
            yield rows, m.reshape(n, math.prod(counts), math.prod(dims), -1)


def _trace_norms(coeff: np.ndarray, classes) -> np.ndarray:
    """Per row r, || sum over members of coeff[r] * (branch operator) ||_1.

    ``classes`` holds each position's stacked tables, one per sector
    dimension (``_PositionTables.classes``).  The branch operators are block
    diagonal over the sector tuples, one per product of the positions'
    classes, and the trace norm of a block-diagonal operator is the sum of
    its blocks' trace norms.  A product whose sector tuple needs more than
    ``_SECTOR_ENTRIES`` entries per row is refused before any is contracted.
    """
    most = _entries([c[-1] for c in classes], len(classes))
    if most > _SECTOR_ENTRIES:
        raise DimensionCap(f"a sector tuple's contraction needs {most} entries per row, "
                           f"over the cap {_SECTOR_ENTRIES}")
    norms = np.zeros(len(coeff))
    for ops in product(*classes):
        for rows, m in _contract(coeff, ops):
            if m.ndim > 2:
                # m is Hermitian up to rounding, and eigvalsh reads one triangle
                m = np.linalg.eigvalsh(m)
            norms[rows] += np.abs(m).reshape(len(m), -1).sum(axis=1)
    return norms


class _Engine:
    def __init__(self, params: QkdParams, attack: AttackStrategy):
        self.params = params
        self.tables = _position_tables(attack, params.n_qubits)
        self.covariant = all(tab.covariant for tab in self.tables)

    def sample_stats(self, positions: tuple[int, ...]):
        """(pass_mass, abort_mass) summed over bases, labels, and values."""
        p = self.params
        # error-count distribution: product convolution over sample positions
        dist = np.array([1.0])
        for i in positions:
            e1, total = self.tables[i].errors
            dist = np.convolve(dist, np.array([total - e1, e1]))
        abort = np.arange(dist.size) > p.q_tol * p.t
        return float(dist[~abort].sum()), float(dist[abort].sum())

    def rest_sums(self, rest: tuple[int, ...], select: np.ndarray, coeff: np.ndarray):
        """(trace norms, selected masses) per row, over every cell of ``rest``.

        The cells are the rest's (basis, mixture label) choices.  Nothing
        couples one cell to another, so the sums are one contraction over the
        positions' stacked tables.
        """
        tabs = [self.tables[i] for i in rest]
        mass = np.ones(1)
        for tab in tabs:
            mass = np.multiply.outer(mass, tab.mass).reshape(-1)
        return _trace_norms(coeff, [tab.classes for tab in tabs]), select @ mass

    def evaluate(self, select: np.ndarray, mix: np.ndarray):
        """Sums of the coefficient rows ``select - mix`` over the whole run.

        ``select`` and ``mix`` are (rows, members) arrays, as ``key_rows``
        builds them.  Returns ``(p_abort, norms, masses, reached)``.
        ``norms`` and ``masses`` are per-row trace norms of (real - ideal) and
        selected branch masses, weighted by each sample subset's pass mass and
        averaged over the uniform subset choice; ``reached`` marks the rows
        whose selection has positive mass in some rest.
        """
        p = self.params
        coeff = select - mix
        subsets = list(combinations(range(p.n_qubits), p.t))
        # the rest sums depend only on the tables at the rest positions and
        # the sample stats only on those at the sample positions, so subsets
        # that share table objects share them; nothing outlives this call
        rest_memo, sample_memo = {}, {}
        p_abort, norms, masses, support = 0.0, 0.0, 0.0, 0.0
        for subset in subsets:
            rest = tuple(i for i in range(p.n_qubits) if i not in subset)
            key = tuple(id(self.tables[i]) for i in rest)
            if key not in rest_memo:
                rest_memo[key] = self.rest_sums(rest, select, coeff)
            rest_norms, rest_masses = rest_memo[key]
            key = tuple(id(self.tables[i]) for i in subset)
            if key not in sample_memo:
                sample_memo[key] = self.sample_stats(subset)
            pass_mass, abort_mass = sample_memo[key]
            p_abort += abort_mass
            norms = norms + pass_mass * rest_norms
            masses = masses + pass_mass * rest_masses
            support = support + rest_masses
        # normalise by the uniform sample-subset choice once, at the end, so
        # the exactly representable attacks keep exactly representable values
        c = len(subsets)
        return p_abort / c, norms / c, masses / c, support > 0.0

    def evaluate_keys(self, ka, kb, ideal):
        """``evaluate`` of the rows ``key_rows(params, ka, kb, ideal)``.

        Only one row per translation orbit is evaluated when every position
        is flip covariant, and its values are gathered back onto every row
        of the orbit (see _orbit_rows).
        """
        columns, gather = _orbit_rows(self.params, ka, kb, ideal, self.covariant)
        p_abort, *per_row = self.evaluate(*_rows(self.params, *columns))
        return (p_abort, *(values[gather] for values in per_row))


@dataclass(frozen=True)
class QkdRun:
    """Exact evaluation of one attack: the final-state summary.

    The final classical-quantum state is represented implicitly through the
    engine's stacked sector tables; the scalar fields below are the functionals
    the security conditions need, each computed without any sampling.  No
    engine is kept: composed quantities build their own coefficient rows and
    evaluate ``attack`` on a fresh engine.
    """

    params: QkdParams
    attack: AttackStrategy = field(repr=False, compare=False)
    p_abort: float
    eps_cor: float
    eps_sec: float
    advantage: float
    error_rate: float
    key_joint: dict

    @property
    def decomposition_bound(self) -> float:
        """eps_cor + eps_sec: the analytic ceiling on the advantage."""
        return self.eps_cor + self.eps_sec


def qkd_run(params: QkdParams, attack: AttackStrategy) -> QkdRun:
    """Evaluate the protocol against one attack; exact and deterministic.

    All randomness (bit/basis choices, sampling, attack mixtures, Born
    outcomes) is enumerated into the classical-quantum branch structure.
    """
    engine = _Engine(params, attack)
    nk = params.key_size
    ka, kb, equal = _joint_keys(nk)
    # secrecy rows (K_A against everything Eve sees), then the rows of the
    # full real-vs-ideal distance (keys (K_A, K_B) jointly)
    p_abort, norms, masses, reached = engine.evaluate_keys(
        np.concatenate([np.arange(nk), ka]), np.concatenate([np.full(nk, -1), kb]),
        np.concatenate([np.ones(nk, dtype=bool), equal]))
    by_syn = (-1, nk + ka.size)
    eps_sec = 0.5 * float(norms.reshape(by_syn)[:, :nk].sum())
    advantage = 0.5 * float(norms.reshape(by_syn)[:, nk:].sum())
    joint = masses.reshape(by_syn)[:, nk:].sum(axis=0)
    reached = reached.reshape(by_syn)[:, nk:].any(axis=0)
    eps_cor = float(sum(joint[~equal].tolist()))
    key_joint = {(a, b): w for a, b, w, r in zip(ka.tolist(), kb.tolist(), joint.tolist(),
                                                  reached) if r}
    if p_abort > 0.0:
        key_joint[("abort", "abort")] = p_abort

    return QkdRun(
        params=params,
        attack=attack,
        p_abort=p_abort,
        eps_cor=eps_cor,
        eps_sec=eps_sec,
        advantage=advantage,
        error_rate=sum(tab.errors[0] for tab in engine.tables) / params.n_qubits,
        key_joint=key_joint,
    )


def leaked_advantage(run: QkdRun, split: int) -> float:
    """Distance after a converter forwards the first ``split`` key bits to Eve.

    Both the real and the ideal system leak the same prefix, so this must
    equal the plain advantage: the leak only relabels K_A as (leaked prefix,
    kept bits), and that relabelling lists K_A in its natural order.  So the
    rows are exactly ``qkd_run``'s joint (K_A, K_B) rows from ``key_rows``,
    evaluated on a fresh engine as a check; an engine keeps nothing between
    calls, so nothing of the run's evaluation is reused.  ``split`` is only
    validated.
    """
    p = run.params
    if not 0 <= split <= p.out_len:
        raise InvalidParams(f"split {split} outside [0, {p.out_len}]")
    return 0.5 * float(_Engine(p, run.attack).evaluate_keys(*_joint_keys(p.key_size))[1].sum())


def otp_composed_advantage(run: QkdRun, message: int) -> float:
    """Distance of (QKD then one-time pad) real vs ideal systems.

    Registers become the ciphertext y = message XOR K_A (leaked to Eve) and
    Bob's decryption x_B = y XOR K_B; on the ideal side the secure channel
    delivers the message and the simulator emits a uniform y.  The rows are
    the joint rows relabelled by the map (K_A, K_B) -> (y, x_B), a bijection
    for any fixed message, so the value must match the plain advantage.
    """
    p = run.params
    nk = p.key_size
    if not 0 <= message < nk:
        raise InvalidParams(f"message {message} is not a {p.out_len}-bit value")
    y, xb = np.divmod(np.arange(nk * nk), nk)
    norms = _Engine(p, run.attack).evaluate_keys(message ^ y, y ^ xb, xb == message)[1]
    return 0.5 * float(norms.sum())


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
