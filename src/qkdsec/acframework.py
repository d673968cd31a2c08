"""Three-interface composable systems, converters, and distinguishing advantage.

A system is an evaluator from an attack strategy to the exact final
classical-quantum state gathered at the A/B/E interfaces; the interaction
schedule is fixed per system, which makes evaluation terminating and exact.
Converters wrap an evaluator (rewriting the attack on the way in, the state
on the way out), so attachment is ordinary function composition and the
composition axioms hold by construction — the tests check them numerically
anyway.

Distinguisher power is represented by explicit attack families.  Computed
advantages are therefore certified lower bounds on the true (unbounded)
advantage; the analytic upper bounds come from the protocol decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import singledispatch
from itertools import product
from typing import Callable

from . import tolerances as tol
from .metrics import BoundReport, cq_trace_distance
from .qstate import CQState, KrausChannel, tensor_cq

__all__ = [
    "ArityMismatch",
    "ScheduleMismatch",
    "MixtureComponent",
    "PositionAttack",
    "AttackStrategy",
    "ProductAttack",
    "AttackFamily",
    "SystemGraph",
    "Converter",
    "EpsilonLedger",
    "LedgerEntry",
    "evaluate",
    "attach_converter",
    "compose_parallel",
    "advantage_over_family",
    "security_check",
    "serial_compose",
    "parallel_compose",
    "state_distance",
    "identity_strategy",
]


class ArityMismatch(ValueError):
    pass


class ScheduleMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MixtureComponent:
    """One classically labelled option of a per-transmission attack.

    The label is kept by Eve as part of her classical record; the channel
    maps the transmitted system to (transmitted system, kept environment).
    """

    label: str
    weight: float
    channel: KrausChannel


@dataclass(frozen=True)
class PositionAttack:
    components: tuple[MixtureComponent, ...]

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > tol.PROB_TOL:
            raise ScheduleMismatch(f"component weights sum to {total!r}")


@dataclass(frozen=True)
class AttackStrategy:
    """Distinguisher behaviour for one evaluation of a system.

    ``quantum`` holds one mixture per quantum transmission (empty means no
    tampering anywhere); ``tamper`` are substitution rules for insecure
    classical channels, keyed by message name; ``switches`` are presses on
    ideal-resource controls; ``inputs`` are the distinguisher-chosen values
    fed to honest interfaces.  Authentic channels are always passively read.
    """

    name: str
    quantum: tuple[PositionAttack, ...] = ()
    tamper: tuple[tuple[str, Callable], ...] = ()
    switches: tuple[tuple[str, int], ...] = ()
    inputs: tuple[tuple[str, object], ...] = ()
    passive_read: bool = True
    crossing: bool = False

    @property
    def is_identity(self) -> bool:
        return (not self.quantum and not self.tamper
                and all(v == 0 for _, v in self.switches))

    def tamper_rule(self, message: str):
        for name, rule in self.tamper:
            if name == message:
                return rule
        return None

    def input(self, name: str, default=None):
        for key, value in self.inputs:
            if key == name:
                return value
        return default

    def switch(self, name: str) -> int:
        for key, value in self.switches:
            if key == name:
                return int(value)
        return 0


def identity_strategy(name: str = "identity", **fields) -> AttackStrategy:
    return AttackStrategy(name=name, **fields)


@dataclass(frozen=True)
class ProductAttack:
    """Pair of independent attacks on a parallel composition."""

    name: str
    left: AttackStrategy
    right: AttackStrategy

    @property
    def is_identity(self) -> bool:
        return self.left.is_identity and self.right.is_identity


@dataclass(frozen=True)
class AttackFamily:
    """Finite or parameterised family; always contains the identity strategy.

    Parameterised families carry a builder from grid coordinates to a
    strategy; the advantage search evaluates a uniform grid and then refines
    the best cell by golden-section search on each parameter.
    """

    name: str
    strategies: tuple = ()
    parameter_names: tuple[str, ...] = ()
    builder: Callable[..., AttackStrategy] | None = None
    bounds: tuple[tuple[float, float], ...] = ()
    grid_points: int = 64
    refine: bool = True

    def __post_init__(self):
        has_identity = any(getattr(s, "is_identity", False) for s in self.strategies)
        if not has_identity and self.builder is None:
            raise ScheduleMismatch(
                f"family {self.name!r} must contain the identity strategy")
        if self.builder is not None and len(self.bounds) != len(self.parameter_names):
            raise ScheduleMismatch("one bounds pair per parameter required")


@dataclass(frozen=True)
class SystemGraph:
    """A three-interface resource with attached converters, as an evaluator.

    ``evaluator`` maps an attack strategy to the exact final cq state over
    the interface outputs; ``quantum_slots`` is the number of quantum
    transmissions an attack may tamper with.
    """

    name: str
    evaluator: Callable[[AttackStrategy], object]
    interfaces: frozenset = frozenset({"A", "B", "E"})
    schedule: tuple[str, ...] = ("quantum", "classical", "output")
    quantum_slots: int = 0
    accepts_crossing: bool = False


def evaluate(sys: SystemGraph, attack: AttackStrategy, seed: int = 0):
    """Run the system against one attack; exact and deterministic.

    All probabilistic branching is enumerated into the returned cq state, so
    the seed has no effect on the result; it is accepted for interface
    compatibility and threaded to evaluators that want it for caching.
    """
    quantum = getattr(attack, "quantum", ())
    if quantum and len(quantum) != sys.quantum_slots:
        raise ScheduleMismatch(
            f"attack supplies {len(quantum)} quantum transmissions, system "
            f"{sys.name!r} has {sys.quantum_slots}")
    if getattr(attack, "crossing", False) and not sys.accepts_crossing:
        raise ScheduleMismatch(f"system {sys.name!r} does not accept crossing attacks")
    del seed
    return sys.evaluator(attack)


@dataclass(frozen=True)
class Converter:
    """Two-interface system attached at one interface of a resource.

    ``attack_map`` rewrites the outside attack into the attack presented to
    the wrapped system (a filter ignores the outside attack entirely);
    ``state_map`` post-processes the evaluated state.
    """

    name: str
    kind: str  # "protocol" | "filter" | "simulator"
    attaches_to: frozenset = frozenset({"A", "B", "E"})
    attack_map: Callable[[AttackStrategy], AttackStrategy] = lambda a: a
    state_map: Callable[[object], object] = lambda s: s


def attach_converter(sys: SystemGraph, conv: Converter, iface: str) -> SystemGraph:
    if iface not in sys.interfaces:
        raise ArityMismatch(f"system {sys.name!r} has no interface {iface!r}")
    if iface not in conv.attaches_to:
        raise ArityMismatch(f"converter {conv.name!r} does not attach at {iface!r}")

    def evaluator(attack):
        return conv.state_map(sys.evaluator(conv.attack_map(attack)))

    return replace(sys, name=f"{conv.name}_{iface}[{sys.name}]", evaluator=evaluator)


def compose_parallel(s1: SystemGraph, s2: SystemGraph, *,
                     crossing_evaluator=None) -> SystemGraph:
    """Parallel composition; product attacks evaluate factor-wise.

    A crossing attack (one that entwines the two subsystems) is routed to
    ``crossing_evaluator`` when provided and rejected otherwise.
    """

    def evaluator(attack):
        if isinstance(attack, ProductAttack):
            return tensor_cq(s1.evaluator(attack.left), s2.evaluator(attack.right))
        if getattr(attack, "crossing", False):
            if crossing_evaluator is None:
                raise ScheduleMismatch(
                    f"{s1.name!r} || {s2.name!r} has no crossing evaluator")
            return crossing_evaluator(attack)
        # A bare strategy applies to both sides independently.
        return tensor_cq(s1.evaluator(attack), s2.evaluator(attack))

    return SystemGraph(
        name=f"({s1.name} || {s2.name})",
        evaluator=evaluator,
        interfaces=s1.interfaces | s2.interfaces,
        schedule=s1.schedule + s2.schedule,
        quantum_slots=s1.quantum_slots + s2.quantum_slots,
        accepts_crossing=crossing_evaluator is not None,
    )


@singledispatch
def state_distance(a, b) -> float:
    """Distinguishing advantage between two evaluated states.

    The generic case handles cq states; protocol modules register faster
    representations.
    """
    raise TypeError(f"no distance rule for {type(a).__name__}")


@state_distance.register
def _(a: CQState, b) -> float:
    return cq_trace_distance(a, b)


def advantage_over_family(real: SystemGraph, ideal: SystemGraph,
                          fam: AttackFamily, *, seed: int = 0):
    """Max distinguishing advantage over the family; a certified lower bound.

    Returns ``(value, name_of_maximiser)``.  Parameterised families are
    searched on a uniform grid followed by golden-section refinement of
    each parameter around the best grid point.
    """
    best = -1.0
    best_name = ""

    def probe(strategy):
        nonlocal best, best_name
        value = state_distance(evaluate(real, strategy, seed),
                               evaluate(ideal, strategy, seed))
        if value > best:
            best, best_name = value, strategy.name
        return value

    for strategy in fam.strategies:
        probe(strategy)

    if fam.builder is not None and fam.bounds:
        grids = [_grid(lo, hi, fam.grid_points) for lo, hi in fam.bounds]
        best_grid = -1.0
        best_coords = None
        for point in product(*grids):
            value = probe(fam.builder(*point))
            if value > best_grid:
                best_grid, best_coords = value, point
        if fam.refine and best_coords is not None:
            coords = list(best_coords)
            for axis, grid in enumerate(grids):
                idx = grid.index(coords[axis])
                lo = grid[max(idx - 1, 0)]
                hi = grid[min(idx + 1, len(grid) - 1)]
                if hi > lo:
                    coords[axis] = _golden_max(
                        lambda x: probe(fam.builder(*_subst(coords, axis, x))), lo, hi)
    return best, best_name


def _subst(coords, axis, x):
    out = list(coords)
    out[axis] = x
    return out


def _grid(lo: float, hi: float, points: int) -> list[float]:
    if points < 2:
        return [lo]
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _golden_max(f, lo: float, hi: float, iters: int = 24) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def security_check(real: SystemGraph, ideal: SystemGraph, real_filter: Converter,
                   ideal_filter: Converter, simulator: Converter,
                   fam: AttackFamily, eps: float):
    """Both conditions of the construction definition as bound reports.

    Condition (i): with filters covering the E interface, the two systems are
    within ``eps``.  Condition (ii): with the simulator on the ideal system,
    the advantage over the family is within ``eps``.
    """
    filtered_real = attach_converter(real, real_filter, "E")
    filtered_ideal = attach_converter(ideal, ideal_filter, "E")
    idle = identity_strategy()
    availability = state_distance(evaluate(filtered_real, idle),
                                  evaluate(filtered_ideal, idle))
    simulated = attach_converter(ideal, simulator, "E")
    advantage, _ = advantage_over_family(real, simulated, fam)
    return (BoundReport("availability", availability, eps),
            BoundReport("security", advantage, eps))


# --- failure bookkeeping ---------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    protocol: str
    epsilon: float
    source: str = "measured"  # or "asserted"
    mode: str = "serial"


@dataclass(frozen=True)
class EpsilonLedger:
    entries: tuple[LedgerEntry, ...] = ()

    @property
    def total(self) -> float:
        return math.fsum(e.epsilon for e in self.entries)


def _extend(ledger: EpsilonLedger, mode: str, entries) -> EpsilonLedger:
    new = []
    for e in entries:
        if isinstance(e, LedgerEntry):
            new.append(replace(e, mode=mode))
        else:
            protocol, epsilon = e[0], float(e[1])
            source = e[2] if len(e) > 2 else "measured"
            new.append(LedgerEntry(protocol, epsilon, source, mode))
    return EpsilonLedger(ledger.entries + tuple(new))


def serial_compose(ledger: EpsilonLedger, *entries) -> EpsilonLedger:
    """Append serially composed protocols; failures add."""
    return _extend(ledger, "serial", entries)


def parallel_compose(ledger: EpsilonLedger, *entries) -> EpsilonLedger:
    """Append parallel-composed protocols; failures add just the same."""
    return _extend(ledger, "parallel", entries)
