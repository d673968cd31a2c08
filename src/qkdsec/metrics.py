"""Distance measures, optimal discrimination, couplings, and entropy bounds.

Everything here is an exact spectral computation at desk scale: trace
distances come from full eigendecompositions (block-diagonal shortcuts for
classical-quantum states), couplings are constructed explicitly, and every
inequality is packaged as a :class:`BoundReport` with its measured slack.

``property_suite`` (``sim metrics check``) samples these identities and
bounds on random instances: one loop over the table ``_PROPERTIES``, whose
trial functions each return one violation per property they check.
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
    NotFinite,
    Povm,
    RegisterMismatch,
    apply_channel,
    make_cq,
    make_density,
    make_povm,
    maximally_mixed,
    random_channel,
    random_density,
    tensor_product,
)

__all__ = [
    "BoundReport",
    "Coupling",
    "InvalidTrials",
    "PropertyResult",
    "total_variation",
    "trace_distance",
    "cq_trace_distance",
    "helstrom_povm",
    "maximal_coupling",
    "pguess_exact",
    "von_neumann_entropy",
    "conditional_entropy",
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
        if not np.isfinite(j).all():
            raise NotFinite("joint has a NaN or infinite entry")
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


def _merged(r: CQState, s: CQState):
    """Both states' codes merged in order, and each state's positions in them."""
    if len(r.registers) != len(s.registers) or r.quantum_dims != s.quantum_dims or \
            any(a.name != b.name for a, b in zip(r.registers, s.registers)):
        raise RegisterMismatch("states must share registers and quantum dims")
    for a, b in zip(r.registers, s.registers):
        if a is not b and a.alphabet != b.alphabet:
            raise RegisterMismatch(f"register {a.name} alphabets differ")
    both = np.concatenate((r.codes, s.codes))
    both.sort()
    first = np.ones(len(both), dtype=bool)
    np.not_equal(both[1:], both[:-1], out=first[1:])
    codes = both[first]
    return codes, codes.searchsorted(r.codes), codes.searchsorted(s.codes)


def _branch_gaps(pairs) -> np.ndarray:
    """Trace norm of the difference of each pair of branch operators.

    ``None`` is an absent branch.  An absent side and equal factors give
    exact weights, with no spectral round-off.  The other pairs are grouped
    by the column counts of their two factors, and each group is one
    stacked :func:`trace_norm_of_factored_sum`.
    """
    gaps = np.zeros(len(pairs))
    groups: dict = {}
    for i, (a, b) in enumerate(pairs):
        if a is None or b is None:
            gaps[i] = 0.0 if a is b else (b if a is None else a).weight
        elif a.factor is b.factor or np.array_equal(a.factor, b.factor):
            gaps[i] = abs(a.weight - b.weight)
        else:
            groups.setdefault((a.factor.shape[1], b.factor.shape[1]), []).append(i)
    for (ma, mb), at in groups.items():
        cols = np.stack([np.hstack([pairs[i][0].factor, pairs[i][1].factor]) for i in at])
        coeffs = np.array([[pairs[i][0].weight] * ma + [-pairs[i][1].weight] * mb
                           for i in at])
        gaps[at] = trace_norm_of_factored_sum(cols, coeffs)
    return gaps


def cq_trace_distance(r: CQState, s: CQState) -> float:
    """Blockwise trace distance between two cq states on the same registers.

    Equals ``trace_distance(flatten_cq(r), flatten_cq(s))`` but never
    materialises the embedding.  The branch gaps are added in code order:
    |w_r - w_s| (a total variation) where a branch is on one side only or
    has the shared unit column on both, and the trace norm of
    :func:`_branch_gaps` for any other pair.
    """
    codes, at_r, at_s = _merged(r, s)
    gaps = np.zeros(len(codes))
    gaps[at_r] = r.weights
    gaps[at_s] -= s.weights
    np.abs(gaps, out=gaps)
    if r.factors is not None or s.factors is not None:
        right = dict(zip(at_s.tolist(), s.branches))
        both = [(k, a, right[k]) for k, a in zip(at_r.tolist(), r.branches) if k in right]
        gaps[[k for k, _, _ in both]] = _branch_gaps([(a, b) for _, a, b in both])
    return 0.5 * float(np.add.accumulate(gaps)[-1]) if len(gaps) else 0.0


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
    contexts = list(_split_key(c, ki).values())
    gaps = _branch_gaps([(per_key.get(key_values[0]), per_key.get(key_values[1]))
                         for per_key in contexts])
    total = 0.0
    for per_key, gap in zip(contexts, gaps.tolist()):
        weights = sum(b.weight for b in per_key.values())
        total += 0.5 * weights + 0.5 * gap
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


def _gram_entropy(factors, scales) -> float:
    """Sum, in input order, of the entropies of the spectra of scale * F^dagger F.

    The nonzero spectrum of F^dagger F is that of F F^dagger.  The Gram
    matrices of each shape take one stacked eigensolve.
    """
    groups: dict = {}
    for i, f in enumerate(factors):
        groups.setdefault(f.shape, []).append(i)
    spectra = [None] * len(factors)
    for at in groups.values():
        f = np.stack([factors[i] for i in at])
        w = np.clip(hermitian_eig(f.conj().swapaxes(-1, -2) @ f)[0], 0.0, None)
        for i, wi in zip(at, w):
            spectra[i] = wi
    total = 0.0
    for scale, w in zip(scales, spectra):
        total += _entropy_from_eigs(scale * w)
    return total


def _cq_entropy(c: CQState) -> float:
    """S of the flattened state, computed blockwise."""
    return _gram_entropy([b.factor for b in c.branches], [b.weight for b in c.branches])


def conditional_entropy(c: CQState, key_register=0) -> float:
    """S(K|E) = S(KE) - S(E) in bits, for a cq state with classical key."""
    ki = _key_register(c, key_register)
    joint = _cq_entropy(c)
    sides = [np.hstack([b.factor * math.sqrt(b.weight) for b in per_key.values()])
             for per_key in _split_key(c, ki).values()]
    return joint - _gram_entropy(sides, [1.0] * len(sides))


def uniform_key_twin(c: CQState, key_register=0) -> CQState:
    """tau_K tensor rho_E: uniform key, same side-information marginal.

    Each assignment of the other registers keeps its weight, spread evenly
    over the key values, and the normalised sum of its branch operators.
    """
    ki = _key_register(c, key_register)
    key_alphabet = c.registers[ki].alphabet
    nk = len(key_alphabet)
    branches = []
    for rest, per_key in _split_key(c, ki).items():
        weight = sum(b.weight for b in per_key.values())
        side = sum(b.operator() for b in per_key.values()) / weight
        for k in key_alphabet:
            branches.append((rest[:ki] + (k,) + rest[ki:], weight / nk, side))
    return make_cq(c.registers, branches, c.quantum_dims)


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


def alt_secrecy_relation(c: CQState, candidates, key_register=0) -> BoundReport:
    """Factor-2 sandwich between the standard and candidate-minimised secrecy.

    Verifies D(rho_KE, tau (x) rho_E) <= 2 D(rho_KE, tau (x) sigma_E) for every
    candidate sigma_E and reports the best candidate value (an upper bound on
    the true minimum; the exact minimisation is not attempted).
    """
    ki = _key_register(c, key_register)
    standard = cq_trace_distance(c, uniform_key_twin(c, ki))
    return _alt_secrecy(c, ki, standard, _side_marginal(c), candidates)


def _alt_secrecy(c: CQState, ki: int, standard: float, rho_e: DensityOperator,
                 candidates) -> BoundReport:
    """:func:`alt_secrecy_relation` given the standard distance and rho_E.

    The first candidate that violates the sandwich is reported at once.
    Otherwise one stacked eigensolve of the sigma - rho_E checks that some
    candidate is rho_E, within trace distance 1e-9.
    """
    candidates = list(candidates)
    best = math.inf
    for sigma in candidates:
        if sigma.dims != rho_e.dims:
            raise DimMismatch("candidate sigma_E dims do not match the E system")
        value = cq_trace_distance(c, _product_with_key(c, ki, sigma))
        best = min(best, value)
        if standard > 2.0 * value + tol.METRIC_TOL:
            return BoundReport("alternative-secrecy-factor2", standard, 2.0 * value)
    gaps = [sigma.matrix - rho_e.matrix for sigma in candidates]
    if not gaps or not (0.5 * np.abs(hermitian_eig(np.stack(gaps))[0]).sum(axis=-1)
                        <= 1e-9).any():
        raise ValueError("candidate list must include rho_E itself")
    return BoundReport("alternative-secrecy-factor2", standard, 2.0 * best)


def _side_marginal(c: CQState) -> DensityOperator:
    qdim = c.quantum_dim
    out = np.zeros((qdim, qdim), dtype=complex)
    for b in c.branches:
        out += b.operator()
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
    return make_cq(c.registers, branches, c.quantum_dims)


# --- property suite -------------------------------------------------------------

@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    max_violation: float
    passed: bool


def _pair_draws(rng, max_dim=8):
    """``(seed, dim, rank)`` of the two states of :func:`_random_pair`, drawn
    as it draws them, without building either."""
    dim = int(rng.integers(2, max_dim + 1))
    return [(int(rng.integers(0, 2 ** 31)), dim, int(rng.integers(1, dim + 1)))
            for _ in range(2)]


def _random_pair(rng, max_dim=8):
    return tuple(random_density(*draw) for draw in _pair_draws(rng, max_dim))


def _random_distribution(rng, size):
    p = rng.random(size)
    return p / p.sum()


def _distribution_pair(rng):
    size = int(rng.integers(2, 33))
    return (ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size)),
            ClassicalDistribution(tuple(range(size)), _random_distribution(rng, size)))


def _random_cq_key_state(rng, n_key, dim_e):
    weights = _random_distribution(rng, n_key)
    branches = []
    for k in range(n_key):
        rho = random_density(int(rng.integers(0, 2 ** 31)), dim_e,
                             int(rng.integers(1, dim_e + 1)))
        branches.append(((k,), float(weights[k]), rho.matrix))
    return make_cq([("K", tuple(range(n_key)))], branches, (dim_e,))


def _random_effects(rng, count, dim):
    """``count`` random effects 0 <= E <= I, from one stacked draw and eigensolve.

    Effect i is (H - w_min) / (w_max - w_min) for H = X + X^dagger, where X
    has real part ``draw[i, 0]`` and imaginary part ``draw[i, 1]``.
    """
    x = rng.normal(size=(count, 2, dim, dim))
    h = x[:, 0] + 1j * x[:, 1]
    h = h + h.conj().swapaxes(-1, -2)
    w = np.linalg.eigvalsh(h)
    return ((h - w[:, :1, None] * np.eye(dim))
            / np.maximum(w[:, -1] - w[:, 0], 1e-12)[:, None, None])


# Each trial draws one instance from the suite's generator and returns one
# violation per property it checks: how far its inequality fails or its
# equality is off.  A property holds when its largest violation is within
# its tolerance.

def _tv_trial(rng):
    p, q = _distribution_pair(rng)
    return (abs(total_variation(p, q) - _overlap(p, q)),)


def _metric_trial(rng):
    r, s = _random_pair(rng)
    # candidates for t are drawn until one has r's dimension; only it is built
    t = _pair_draws(rng)[0]
    while t[1] != r.dim:
        t = _pair_draws(rng)[0]
    t = random_density(*t)
    d = trace_distance(r, s)
    return (trace_distance(r, r), abs(d - trace_distance(s, r)),
            d - trace_distance(r, t) - trace_distance(t, s))


def _data_processing_trial(rng):
    r, s = _random_pair(rng)
    ch = random_channel(int(rng.integers(0, 2 ** 31)), r.dim, kraus=int(rng.integers(1, 4)))
    return (trace_distance(apply_channel(ch, r, 0), apply_channel(ch, s, 0))
            - trace_distance(r, s),)


def _product_trial(rng):
    r, s = _random_pair(rng, max_dim=4)
    extra = random_density(int(rng.integers(0, 2 ** 31)), int(rng.integers(2, 4)), 2)
    return (abs(trace_distance(tensor_product(r, extra), tensor_product(s, extra))
                - trace_distance(r, s)),)


def _helstrom_trial(rng):
    # the Helstrom POVM reaches 1/2 + D/2, and 20 random effects never beat it
    r, s = _random_pair(rng)
    best = 0.5 + 0.5 * trace_distance(r, s)
    povm = helstrom_povm(r, s)
    achieved = 0.5 * float(np.trace(povm.elements[0] @ r.matrix).real) \
        + 0.5 * float(np.trace(povm.elements[1] @ s.matrix).real)
    effects = _random_effects(rng, 20, r.dim)
    beats = 0.5 + 0.5 * np.trace(effects @ (r.matrix - s.matrix), axis1=-2, axis2=-1).real \
        - best
    return abs(achieved - best), float(beats.max())


def _coupling_trial(rng):
    # the maximal coupling is exact; the independent one never does better
    p, q = _distribution_pair(rng)
    cp = maximal_coupling(p, q)
    tv = total_variation(p, q)
    return (abs(cp.pr_equal - (1.0 - tv)),
            max(float(np.abs(cp.marginal_left() - p.probs).max()),
                float(np.abs(cp.marginal_right() - q.probs).max())),
            float(np.trace(np.outer(p.probs, q.probs))) - (1.0 - tv))


def _entropy_trial(rng):
    # guessing, entropy and factor-2 secrecy bounds on one random cq key state
    n_key = int(rng.choice([2, 4]))
    dim_e = int(rng.integers(2, 5))
    c = _random_cq_key_state(rng, n_key, dim_e)
    fannes, pinsker, quadratic = entropy_bounds(c)
    eps = pinsker.left_value  # D(rho_KE, tau_K (x) rho_E)
    guess = pguess_exact(c) - (1.0 / n_key + eps) if n_key == 2 else 0.0
    # beside rho_E, the maximally mixed sigma_E is a candidate that can be tighter
    rho_e = _side_marginal(c)
    factor2 = _alt_secrecy(c, 0, eps, rho_e, [rho_e, maximally_mixed(c.quantum_dim)])
    return (guess, -fannes.slack if fannes.applicable else 0.0, -pinsker.slack,
            -quadratic.slack, -factor2.slack)


# (default trial count, trial, (name, tolerance) of each property it checks),
# in the order of the suite's rows; the trials share one generator in order
_PROPERTIES = (
    (500, _tv_trial, (("tv-alternative-formula", tol.EXACT_TOL),)),
    (200, _metric_trial, (("metric-identity", tol.METRIC_TOL),
                          ("metric-symmetry", tol.EXACT_TOL),
                          ("metric-triangle", tol.METRIC_TOL))),
    (100, _data_processing_trial, (("data-processing", tol.METRIC_TOL),)),
    (50, _product_trial, (("product-invariance", tol.METRIC_TOL),)),
    (50, _helstrom_trial, (("helstrom-equality", tol.METRIC_TOL),
                           ("helstrom-optimality-audit", tol.METRIC_TOL))),
    (200, _coupling_trial, (("coupling-equality", tol.EXACT_TOL),
                            ("coupling-marginals", tol.EXACT_TOL),
                            ("coupling-alternative-audit", tol.EXACT_TOL))),
    (500, _entropy_trial, (("pguess-bound", tol.METRIC_TOL),
                           ("alicki-fannes", tol.METRIC_TOL),
                           ("pinsker-type", tol.METRIC_TOL),
                           ("relative-entropy-quadratic", tol.METRIC_TOL),
                           ("alternative-secrecy-factor2", tol.METRIC_TOL))),
)


class InvalidTrials(ValueError):
    pass


def property_suite(seed: int, trials: int | None = None) -> list[PropertyResult]:
    """Run every named metric property; one result row per property.

    Each entry of :data:`_PROPERTIES` runs its default count of trials, or
    ``trials`` when that is fewer, and a property's row keeps its largest
    violation over them; a NaN violation is kept and fails the row.
    """
    if trials is not None and trials < 1:
        raise InvalidTrials(f"trials = {trials} must be at least 1")
    rng = np.random.default_rng([seed, 0x6D657472])
    results = []
    for count, trial, checks in _PROPERTIES:
        n = count if trials is None else min(trials, count)
        worst = np.zeros(len(checks))
        for _ in range(n):
            worst = np.maximum(worst, trial(rng))
        results += [PropertyResult(name, n, float(w), bool(w <= bound))
                    for (name, bound), w in zip(checks, worst)]
    return results
