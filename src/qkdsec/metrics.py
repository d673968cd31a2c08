"""Distance measures, optimal discrimination, couplings, and entropy bounds.

Everything here is an exact spectral computation at desk scale: trace
distances come from full eigendecompositions (block-diagonal shortcuts for
classical-quantum states), couplings are constructed explicitly, and every
inequality is packaged as a :class:`BoundReport` with its measured slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .linalg import hermitian_eig, trace_norm_of_factored_sum
from .qstate import (
    AlphabetMismatch,
    CQState,
    ClassicalDistribution,
    DensityOperator,
    DimMismatch,
    Povm,
    RegisterMismatch,
    make_povm,
)

__all__ = [
    "BoundReport",
    "Coupling",
    "PropertyResult",
    "total_variation",
    "trace_distance",
    "cq_trace_distance",
    "helstrom_povm",
    "distinguishing_advantage",
    "guessing_probability",
    "optimal_cq_povm",
    "maximal_coupling",
    "couple_measurements",
    "pguess_exact",
    "von_neumann_entropy",
    "conditional_entropy",
    "relative_entropy",
    "binary_entropy",
    "entropy_bounds",
    "secrecy_distance",
    "uniform_key_twin",
    "alt_secrecy_relation",
    "property_suite",
]


@dataclass(frozen=True)
class BoundReport:
    """Record of one inequality check: ``left <= right`` up to METRIC_TOL."""

    name: str
    left_value: float
    right_value: float
    applicable: bool = True

    @property
    def slack(self) -> float:
        return self.right_value - self.left_value

    @property
    def holds(self) -> bool:
        if not self.applicable:
            return True
        return self.slack >= -tol.METRIC_TOL


@dataclass(frozen=True)
class Coupling:
    """Joint distribution over symbol pairs whose marginals are fixed inputs."""

    alphabet: tuple
    joint: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.joint, dtype=float)
        n = len(self.alphabet)
        if j.shape != (n, n):
            raise AlphabetMismatch(f"joint must be {n}x{n}, got {j.shape}")
        if j.size and float(j.min()) < -tol.PROB_TOL:
            raise AlphabetMismatch(f"negative joint entry {float(j.min()):.3e}")
        object.__setattr__(self, "joint", j)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))

    def marginal_left(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def marginal_right(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @property
    def pr_equal(self) -> float:
        return float(np.trace(self.joint))


def total_variation(p: ClassicalDistribution, q: ClassicalDistribution) -> float:
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch("distributions live on different alphabets")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def _overlap(p: ClassicalDistribution, q: ClassicalDistribution) -> float:
    # 1 - sum_z min[P(z), Q(z)]; the alternative total-variation formula.
    return 1.0 - float(np.minimum(p.probs, q.probs).sum())


def trace_distance(r: DensityOperator, s: DensityOperator) -> float:
    if r.dims != s.dims:
        raise DimMismatch(f"dims {r.dims} vs {s.dims}")
    w = hermitian_eig(r.matrix - s.matrix)[0]
    return 0.5 * float(np.abs(w).sum())


def helstrom_povm(r: DensityOperator, s: DensityOperator) -> Povm:
    """Projector onto the nonnegative eigenspace of r - s, paired with its complement."""
    if r.dims != s.dims:
        raise DimMismatch(f"dims {r.dims} vs {s.dims}")
    w, v = hermitian_eig(r.matrix - s.matrix)
    keep = w >= 0.0
    gamma = v[:, keep] @ v[:, keep].conj().T
    gamma = 0.5 * (gamma + gamma.conj().T)
    return make_povm((0, 1), [gamma, np.eye(r.dim) - gamma], r.dims)


def distinguishing_advantage(r: DensityOperator, s: DensityOperator) -> float:
    return trace_distance(r, s)


def guessing_probability(r: DensityOperator, s: DensityOperator) -> float:
    return 0.5 + 0.5 * trace_distance(r, s)


def _aligned_items(r: CQState, s: CQState):
    if r.register_names() != s.register_names() or r.quantum_dims != s.quantum_dims:
        raise RegisterMismatch("states must share registers and quantum dims")
    for a, b in zip(r.registers, s.registers):
        if a.alphabet != b.alphabet:
            raise RegisterMismatch(f"register {a.name} alphabets differ")
    left = r.branch_map()
    right = s.branch_map()
    for key in sorted(set(left) | set(right), key=lambda k: tuple(str(x) for x in k)):
        yield key, left.get(key), right.get(key)


def cq_trace_distance(r: CQState, s: CQState) -> float:
    """Blockwise trace distance between two cq states on the same registers.

    Equals ``trace_distance(flatten_cq(r), flatten_cq(s))`` but never
    materialises the embedding.
    """
    classical = r.quantum_dim == 1
    total = 0.0
    for _, a, b in _aligned_items(r, s):
        if a is None:
            total += b.weight
        elif b is None:
            total += a.weight
        elif classical:
            # Scalar blocks: |w_a - w_b| exactly, no spectral round-off.
            total += abs(a.weight - b.weight)
        elif a.factor is b.factor or np.array_equal(a.factor, b.factor):
            total += abs(a.weight - b.weight)
        else:
            cols = np.hstack([a.factor, b.factor])
            coeffs = np.concatenate([
                np.full(a.factor.shape[1], a.weight),
                np.full(b.factor.shape[1], -b.weight),
            ])
            total += trace_norm_of_factored_sum(cols, coeffs)
    return 0.5 * total


def optimal_cq_povm(r: CQState, s: CQState) -> Povm:
    """Measurement achieving the trace distance while reading classical registers.

    Elements are labelled ``(assignment, sign)`` and act on the flattened
    space; per classical branch they are the Helstrom projectors of the
    weighted difference of the branch operators.
    """
    reg_dims = tuple(len(reg.alphabet) for reg in r.registers)
    cdim = int(np.prod(reg_dims)) if reg_dims else 1
    qdim = r.quantum_dim
    total_dim = cdim * qdim
    if total_dim > tol.DIM_CAP:
        raise DimMismatch("flattened POVM would exceed the dimension cap")
    labels = []
    elements = []
    covered = np.zeros((total_dim, total_dim), dtype=complex)
    for key, a, b in _aligned_items(r, s):
        idx = 0
        for reg, value in zip(r.registers, key):
            idx = idx * len(reg.alphabet) + reg.index(value)
        ma = a.operator() if a is not None else np.zeros((qdim, qdim), dtype=complex)
        mb = b.operator() if b is not None else np.zeros((qdim, qdim), dtype=complex)
        w, v = hermitian_eig(ma - mb)
        keep = w >= 0.0
        plus = v[:, keep] @ v[:, keep].conj().T
        plus = 0.5 * (plus + plus.conj().T)
        for sign, block in (("+", plus), ("-", np.eye(qdim) - plus)):
            big = np.zeros((total_dim, total_dim), dtype=complex)
            big[idx * qdim:(idx + 1) * qdim, idx * qdim:(idx + 1) * qdim] = block
            labels.append((key, sign))
            elements.append(big)
            covered += big
    # Classical cells with no branch on either side still need their identity share.
    gap = np.eye(total_dim) - covered
    if float(np.abs(gap).max()) > tol.POVM_SUM_TOL:
        labels.append((("rest",), "+"))
        elements.append(gap)
    dims = reg_dims + r.quantum_dims if (reg_dims or r.quantum_dims) else (1,)
    return make_povm(tuple(labels), elements, dims)


def maximal_coupling(p: ClassicalDistribution, q: ClassicalDistribution) -> Coupling:
    """Coupling with Pr[Z = Z~] = 1 - D(P, Q), marginals exact.

    Diagonal mass min[P(z), Q(z)]; the residuals couple independently,
    normalised by the total variation distance.  When the distance vanishes
    the construction degenerates to the diagonal coupling.
    """
    if p.alphabet != q.alphabet:
        raise AlphabetMismatch("distributions live on different alphabets")
    diag = np.minimum(p.probs, q.probs)
    d = 1.0 - float(diag.sum())
    if d > 0.0:
        # the residuals are entrywise bounded by d, so dividing by d is stable
        rp = p.probs - diag
        rq = q.probs - diag
        joint = np.diag(diag) + np.outer(rp, rq) / d
    else:
        # equal distributions: the construction degenerates to the diagonal
        joint = np.diag(p.probs)
    return Coupling(p.alphabet, joint)


def couple_measurements(r: DensityOperator, s: DensityOperator, povm: Povm) -> Coupling:
    """Maximal coupling of the outcome distributions of one POVM on two states."""
    pw = [max(float(np.trace(e @ r.matrix).real), 0.0) for e in povm.elements]
    qw = [max(float(np.trace(e @ s.matrix).real), 0.0) for e in povm.elements]
    pw = np.array(pw) / sum(pw)
    qw = np.array(qw) / sum(qw)
    return maximal_coupling(ClassicalDistribution(povm.labels, pw),
                            ClassicalDistribution(povm.labels, qw))


# --- guessing probability and entropies ----------------------------------------

class Unsupported(ValueError):
    """Exact computation is out of reach; the caller should use a bound."""


def _key_register(c: CQState, key_register) -> int:
    if isinstance(key_register, int):
        return key_register
    for i, reg in enumerate(c.registers):
        if reg.name == key_register:
            return i
    raise RegisterMismatch(f"no register named {key_register!r}")


def _split_key(c: CQState, key_index: int):
    """Group branches by non-key assignment; yields (rest, {key: branch})."""
    groups: dict = {}
    for b in c.branches:
        rest = b.assignment[:key_index] + b.assignment[key_index + 1:]
        groups.setdefault(rest, {})[b.assignment[key_index]] = b
    return groups


def pguess_exact(c: CQState, key_register=0) -> float:
    """Optimal key-guessing probability from the side information.

    Exact for a binary key (Helstrom with priors) and for purely classical
    side information; refuses otherwise.
    """
    ki = _key_register(c, key_register)
    key_values = c.registers[ki].alphabet
    classical_side = c.quantum_dim == 1
    if classical_side:
        total = 0.0
        for _, per_key in _split_key(c, ki).items():
            total += max(b.weight for b in per_key.values())
        return total / c.trace_mass
    if len(key_values) != 2:
        raise Unsupported(
            "exact guessing probability with quantum side information is only "
            "computed for binary keys; use the uniformity-distance bound instead")
    total = 0.0
    for _, per_key in _split_key(c, ki).items():
        b0 = per_key.get(key_values[0])
        b1 = per_key.get(key_values[1])
        cols = []
        coeffs = []
        w0 = w1 = 0.0
        if b0 is not None:
            cols.append(b0.factor)
            coeffs.append(np.full(b0.factor.shape[1], b0.weight))
            w0 = b0.weight
        if b1 is not None:
            cols.append(b1.factor)
            coeffs.append(np.full(b1.factor.shape[1], -b1.weight))
            w1 = b1.weight
        if not cols:
            continue
        norm1 = trace_norm_of_factored_sum(np.hstack(cols), np.concatenate(coeffs))
        total += 0.5 * (w0 + w1) + 0.5 * norm1
    return total / c.trace_mass


def _entropy_from_eigs(w: np.ndarray) -> float:
    w = w[w > tol.ENTROPY_EIG_CUTOFF]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def von_neumann_entropy(r: DensityOperator) -> float:
    """Entropy in bits; subnormalised states are normalised first."""
    w = hermitian_eig(r.matrix)[0]
    if r.trace_mass > 0:
        w = w / r.trace_mass
    return _entropy_from_eigs(np.clip(w, 0.0, None))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1 - p) * math.log2(1 - p))


def _cq_entropy(c: CQState) -> float:
    """S of the flattened state, computed blockwise."""
    total = 0.0
    for b in c.branches:
        g = b.factor.conj().T @ b.factor
        w = np.clip(hermitian_eig(g)[0], 0.0, None)
        w = b.weight * w
        total += _entropy_from_eigs(w)
    return total


def conditional_entropy(c: CQState, key_register=0) -> float:
    """S(K|E) = S(KE) - S(E) in bits, for a cq state with classical key."""
    ki = _key_register(c, key_register)
    joint = _cq_entropy(c)
    marg = 0.0
    for _, per_key in _split_key(c, ki).items():
        cols = np.hstack([b.factor * math.sqrt(b.weight) for b in per_key.values()])
        g = cols.conj().T @ cols
        w = np.clip(hermitian_eig(g)[0], 0.0, None)
        marg += _entropy_from_eigs(w)
    return joint - marg


def relative_entropy(r: DensityOperator, s: DensityOperator) -> float:
    """S(rho || sigma) in bits; +inf when support(rho) escapes support(sigma)."""
    if r.dims != s.dims:
        raise DimMismatch(f"dims {r.dims} vs {s.dims}")
    wr, vr = hermitian_eig(r.matrix)
    ws, vs = hermitian_eig(s.matrix)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    overlap = np.abs(vr.conj().T @ vs) ** 2
    support_r = wr > tol.ENTROPY_EIG_CUTOFF
    null_s = ws <= tol.ENTROPY_EIG_CUTOFF
    if np.any(overlap[np.ix_(support_r, null_s)] > 1e-9):
        return math.inf
    term1 = float((wr[support_r] * np.log2(wr[support_r])).sum())
    logs = np.where(ws > tol.ENTROPY_EIG_CUTOFF, np.log2(np.maximum(ws, 1e-300)), 0.0)
    term2 = float((wr[support_r, None] * overlap[support_r][:, ~null_s]
                   * logs[None, ~null_s]).sum())
    return term1 - term2


def uniform_key_twin(c: CQState, key_register=0) -> CQState:
    """tau_K tensor rho_E: uniform key, same side-information marginal."""
    ki = _key_register(c, key_register)
    key_alphabet = c.registers[ki].alphabet
    nk = len(key_alphabet)
    branches = []
    for rest, per_key in _split_key(c, ki).items():
        weight = sum(b.weight for b in per_key.values())
        cols = np.hstack([b.factor * math.sqrt(b.weight / weight)
                          for b in per_key.values()])
        for k in key_alphabet:
            assignment = rest[:ki] + (k,) + rest[ki:]
            branches.append((assignment, weight / nk, cols))
    return CQState(
        registers=c.registers,
        branches=tuple(
            _rebuild_branch(a, w, f) for a, w, f in branches),
        quantum_dims=c.quantum_dims,
        trace_mass=c.trace_mass,
    )


def _rebuild_branch(assignment, weight, factor):
    from .qstate import CQBranch

    f = np.asarray(factor, dtype=complex)
    trace = float(np.einsum("ij,ij->", f.conj(), f).real)
    if trace > 0:
        f = f / math.sqrt(trace)
    f = f.copy()
    f.setflags(write=False)
    return CQBranch(tuple(assignment), weight, f)


def secrecy_distance(c: CQState, p_abort: float, key_register=0) -> float:
    """(1 - p_abort) * D(rho_KE, tau_K tensor rho_E) for a conditioned state."""
    if not 0.0 <= p_abort <= 1.0:
        raise ValueError(f"p_abort {p_abort} outside [0, 1]")
    if p_abort >= 1.0:
        return 0.0
    return (1.0 - p_abort) * cq_trace_distance(c, uniform_key_twin(c, key_register))


def entropy_bounds(c: CQState, key_register=0) -> list[BoundReport]:
    """Alicki-Fannes, Pinsker-type, and relative-entropy reports for one cq state."""
    ki = _key_register(c, key_register)
    nk = len(c.registers[ki].alphabet)
    log_k = math.log2(nk)
    eps = cq_trace_distance(c, uniform_key_twin(c, ki))
    s_cond = conditional_entropy(c, ki)

    af_applicable = eps <= 0.25
    af_lower = (1.0 - 8.0 * eps) * log_k - 2.0 * binary_entropy(min(2.0 * eps, 1.0))
    reports = [
        BoundReport("alicki-fannes-lower", af_lower, s_cond, applicable=af_applicable),
        BoundReport("pinsker-distance", eps,
                    math.sqrt(max(0.5 * (log_k - s_cond), 0.0))),
        # S(rho || tau tensor rho_E) = log|K| - S(K|E): exact identity for this sigma.
        BoundReport("relative-entropy-quadratic", 2.0 * eps * eps, log_k - s_cond),
    ]
    return reports


def alt_secrecy_relation(c: CQState, candidates, key_register=0,
                         p_abort: float = 0.0) -> BoundReport:
    """Factor-2 sandwich between the standard and candidate-minimised secrecy.

    Verifies D(rho_KE, tau (x) rho_E) <= 2 D(rho_KE, tau (x) sigma_E) for every
    candidate sigma_E and reports the best candidate value (an upper bound on
    the true minimum; the exact minimisation is not attempted).
    """
    ki = _key_register(c, key_register)
    standard = cq_trace_distance(c, uniform_key_twin(c, ki))
    rho_e = _side_marginal(c, ki)
    seen_rho_e = False
    best = math.inf
    for sigma in candidates:
        if sigma.dims != rho_e.dims:
            raise DimMismatch("candidate sigma_E dims do not match the E system")
        value = cq_trace_distance(c, _product_with_key(c, ki, sigma))
        best = min(best, value)
        if trace_distance(sigma, rho_e) <= 1e-9:
            seen_rho_e = True
        if standard > 2.0 * value + tol.METRIC_TOL:
            return BoundReport("alternative-secrecy-factor2", standard, 2.0 * value)
    if not seen_rho_e:
        raise ValueError("candidate list must include rho_E itself")
    return BoundReport("alternative-secrecy-factor2",
                       (1.0 - p_abort) * standard, (1.0 - p_abort) * 2.0 * best)


def _side_marginal(c: CQState, key_index: int) -> DensityOperator:
    qdim = c.quantum_dim
    out = np.zeros((qdim, qdim), dtype=complex)
    for b in c.branches:
        out += b.operator()
    from .qstate import make_density

    return make_density(out / c.trace_mass, c.quantum_dims if c.quantum_dims else (1,))


def _product_with_key(c: CQState, key_index: int, sigma: DensityOperator) -> CQState:
    """tau_K (x) sigma_E on the same registers, ignoring non-key classical regs.

    Requires the non-key classical registers to be trivial; protocol states
    pass their E-transcript inside the quantum factors for this comparison.
    """
    key_alphabet = c.registers[key_index].alphabet
    nk = len(key_alphabet)
    rests = {b.assignment[:key_index] + b.assignment[key_index + 1:] for b in c.branches}
    if len(rests) != 1:
        raise RegisterMismatch(
            "candidate comparison needs a single classical context; trace out "
            "other registers first")
    rest = next(iter(rests))
    branches = []
    for k in key_alphabet:
        assignment = rest[:key_index] + (k,) + rest[key_index:]
        branches.append((assignment, c.trace_mass / nk, sigma.matrix / sigma.trace_mass))
    from .qstate import make_cq

    state = make_cq(c.registers, branches, c.quantum_dims)
    return state


# --- property suite -------------------------------------------------------------

@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    max_violation: float
    passed: bool


def _random_pair(rng, max_dim=8):
    dim = int(rng.integers(2, max_dim + 1))
    from .qstate import random_density

    r = random_density(int(rng.integers(0, 2 ** 31)), dim, int(rng.integers(1, dim + 1)))
    s = random_density(int(rng.integers(0, 2 ** 31)), dim, int(rng.integers(1, dim + 1)))
    return r, s


def _random_distribution(rng, size):
    p = rng.random(size)
    return p / p.sum()


def _random_cq_key_state(rng, n_key, dim_e):
    from .qstate import make_cq, random_density

    weights = _random_distribution(rng, n_key)
    branches = []
    for k in range(n_key):
        rho = random_density(int(rng.integers(0, 2 ** 31)), dim_e,
                             int(rng.integers(1, dim_e + 1)))
        branches.append(((k,), float(weights[k]), rho.matrix))
    return make_cq([("K", tuple(range(n_key)))], branches, (dim_e,))


def property_suite(seed: int, trials: int | None = None) -> list[PropertyResult]:
    """Run every named metric property; one result row per property."""
    results = []
    rng = np.random.default_rng([seed, 0x6D657472])

    def scaled(n):
        return n if trials is None else max(1, min(trials, n))

    # total-variation alternative formula
    worst = 0.0
    n = scaled(500)
    for _ in range(n):
        size = int(rng.integers(2, 33))
        p = ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size))
        q = ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size))
        worst = max(worst, abs(total_variation(p, q) - _overlap(p, q)))
    results.append(PropertyResult("tv-alternative-formula", n, worst,
                                  worst <= tol.EXACT_TOL))

    # metric axioms
    n = scaled(200)
    worst_id = worst_sym = worst_tri = 0.0
    for _ in range(n):
        r, s = _random_pair(rng)
        t2 = _random_pair(rng)[0]
        while t2.dim != r.dim:
            t2 = _random_pair(rng)[0]
        worst_id = max(worst_id, trace_distance(r, r))
        worst_sym = max(worst_sym, abs(trace_distance(r, s) - trace_distance(s, r)))
        worst_tri = max(worst_tri, trace_distance(r, s)
                        - trace_distance(r, t2) - trace_distance(t2, s))
    results.append(PropertyResult("metric-identity", n, worst_id, worst_id <= tol.METRIC_TOL))
    results.append(PropertyResult("metric-symmetry", n, worst_sym, worst_sym <= tol.EXACT_TOL))
    results.append(PropertyResult("metric-triangle", n, worst_tri, worst_tri <= tol.METRIC_TOL))

    # data processing under random channels
    from .qstate import apply_channel, random_channel

    n = scaled(100)
    worst = 0.0
    for _ in range(n):
        r, s = _random_pair(rng)
        ch = random_channel(int(rng.integers(0, 2 ** 31)), r.dim,
                            kraus=int(rng.integers(1, 4)))
        worst = max(worst, trace_distance(apply_channel(ch, r, 0), apply_channel(ch, s, 0))
                    - trace_distance(r, s))
    results.append(PropertyResult("data-processing", n, worst, worst <= tol.METRIC_TOL))

    # tensoring a fixed state changes nothing
    from .qstate import random_density, tensor_product

    n = scaled(50)
    worst = 0.0
    for _ in range(n):
        r, s = _random_pair(rng, max_dim=4)
        extra = random_density(int(rng.integers(0, 2 ** 31)), int(rng.integers(2, 4)), 2)
        worst = max(worst, abs(trace_distance(tensor_product(r, extra),
                                              tensor_product(s, extra))
                               - trace_distance(r, s)))
    results.append(PropertyResult("product-invariance", n, worst, worst <= tol.METRIC_TOL))

    # Helstrom equality and POVM audit
    n = scaled(50)
    worst_eq = worst_beat = 0.0
    for _ in range(n):
        r, s = _random_pair(rng)
        d = trace_distance(r, s)
        povm = helstrom_povm(r, s)
        achieved = 0.5 * float(np.trace(povm.elements[0] @ r.matrix).real) \
            + 0.5 * float(np.trace(povm.elements[1] @ s.matrix).real)
        worst_eq = max(worst_eq, abs(achieved - (0.5 + 0.5 * d)))
        for _ in range(20):
            m = _random_effect(rng, r.dim)
            guess = 0.5 + 0.5 * float(np.trace(m @ (r.matrix - s.matrix)).real)
            worst_beat = max(worst_beat, guess - (0.5 + 0.5 * d))
    results.append(PropertyResult("helstrom-equality", n, worst_eq, worst_eq <= tol.METRIC_TOL))
    results.append(PropertyResult("helstrom-optimality-audit", n, worst_beat,
                                  worst_beat <= tol.METRIC_TOL))

    # maximal coupling equality and alternative-coupling audit
    n = scaled(200)
    worst_eq = worst_marg = worst_alt = 0.0
    for _ in range(n):
        size = int(rng.integers(2, 33))
        p = ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size))
        q = ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size))
        cp = maximal_coupling(p, q)
        tv = total_variation(p, q)
        worst_eq = max(worst_eq, abs(cp.pr_equal - (1.0 - tv)))
        worst_marg = max(worst_marg,
                         float(np.abs(cp.marginal_left() - p.probs).max()),
                         float(np.abs(cp.marginal_right() - q.probs).max()))
        alt = np.outer(p.probs, q.probs)  # independent coupling
        worst_alt = max(worst_alt, float(np.trace(alt)) - (1.0 - tv))
    results.append(PropertyResult("coupling-equality", n, worst_eq, worst_eq <= tol.EXACT_TOL))
    results.append(PropertyResult("coupling-marginals", n, worst_marg,
                                  worst_marg <= tol.EXACT_TOL))
    results.append(PropertyResult("coupling-alternative-audit", n, worst_alt,
                                  worst_alt <= tol.EXACT_TOL))

    # entropy/guessing bound suite on random cq states
    n = scaled(500)
    worst_l5 = worst_af = worst_pin = worst_rel = worst_b = 0.0
    for _ in range(n):
        n_key = int(rng.choice([2, 4]))
        dim_e = int(rng.integers(2, 5))
        c = _random_cq_key_state(rng, n_key, dim_e)
        eps = cq_trace_distance(c, uniform_key_twin(c))
        if n_key == 2:
            worst_l5 = max(worst_l5, pguess_exact(c) - (1.0 / n_key + eps))
        for rep in entropy_bounds(c):
            if not rep.applicable:
                continue
            value = -rep.slack
            if rep.name == "alicki-fannes-lower":
                worst_af = max(worst_af, value)
            elif rep.name == "pinsker-distance":
                worst_pin = max(worst_pin, value)
            else:
                worst_rel = max(worst_rel, value)
        sigma = _side_marginal(c, 0)
        rep = alt_secrecy_relation(c, [sigma], 0)
        worst_b = max(worst_b, -rep.slack)
    results.append(PropertyResult("pguess-bound", n, worst_l5, worst_l5 <= tol.METRIC_TOL))
    results.append(PropertyResult("alicki-fannes", n, worst_af, worst_af <= tol.METRIC_TOL))
    results.append(PropertyResult("pinsker-type", n, worst_pin, worst_pin <= tol.METRIC_TOL))
    results.append(PropertyResult("relative-entropy-quadratic", n, worst_rel,
                                  worst_rel <= tol.METRIC_TOL))
    results.append(PropertyResult("alternative-secrecy-factor2", n, worst_b,
                                  worst_b <= tol.METRIC_TOL))
    return results


def _random_effect(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    w = np.linalg.eigvalsh(h)
    return (h - w[0] * np.eye(dim)) / max(w[-1] - w[0], 1e-12)
