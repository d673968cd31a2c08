"""Three-interface composable systems, converters, and distinguishing advantage.

A system is an evaluator from an attack strategy to the exact final
classical-quantum state (a ``CQState``) gathered at the A/B/E interfaces;
the interaction schedule is fixed per system, which makes evaluation
terminating and exact.  Two evaluated states are told apart by their cq
trace distance (``state_distance``).  Protocols with their own exact path
(the BB84 engine, the swap crossing attack) are called directly, not
wrapped as systems.
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
    """A finite tuple of strategies; always contains the identity strategy."""

    name: str
    strategies: tuple = ()

    def __post_init__(self):
        if not any(getattr(s, "is_identity", False) for s in self.strategies):
            raise ScheduleMismatch(
                f"family {self.name!r} must contain the identity strategy")


# Every system exposes the same three interfaces.
INTERFACES = frozenset({"A", "B", "E"})


@dataclass(frozen=True)
class SystemGraph:
    """A three-interface resource with attached converters, as an evaluator.

    ``evaluator`` maps an attack strategy to the exact final cq state over
    the interface outputs.  No system takes quantum transmissions; the
    protocols with quantum attacks have their own exact paths.
    """

    name: str
    evaluator: Callable[[AttackStrategy], object]


def evaluate(sys: SystemGraph, attack: AttackStrategy):
    """Run the system against one attack; exact and deterministic.

    All probabilistic branching is enumerated into the returned cq state.
    """
    quantum = getattr(attack, "quantum", ())
    if quantum:
        raise ScheduleMismatch(
            f"attack supplies {len(quantum)} quantum transmissions, system "
            f"{sys.name!r} has none")
    return sys.evaluator(attack)


@dataclass(frozen=True)
class Converter:
    """Two-interface system attached at one interface of a resource.

    ``attack_map`` rewrites the outside attack into the attack presented to
    the wrapped system (a filter ignores the outside attack entirely);
    ``state_map`` post-processes the evaluated state.
    """

    name: str
    attaches_to: frozenset = INTERFACES
    attack_map: Callable[[AttackStrategy], AttackStrategy] = lambda a: a
    state_map: Callable[[object], object] = lambda s: s


def attach_converter(sys: SystemGraph, conv: Converter, iface: str) -> SystemGraph:
    if iface not in INTERFACES:
        raise ArityMismatch(f"system {sys.name!r} has no interface {iface!r}")
    if iface not in conv.attaches_to:
        raise ArityMismatch(f"converter {conv.name!r} does not attach at {iface!r}")

    def evaluator(attack):
        return conv.state_map(sys.evaluator(conv.attack_map(attack)))

    return replace(sys, name=f"{conv.name}_{iface}[{sys.name}]", evaluator=evaluator)


def compose_parallel(s1: SystemGraph, s2: SystemGraph) -> SystemGraph:
    """Parallel composition; product attacks evaluate factor-wise.

    A bare strategy applies to both sides independently.  Attacks that
    entwine the two subsystems have their own exact path (the swap crossing
    attack is ``scenarios.swap_crossing_advantage``).
    """

    def evaluator(attack):
        if isinstance(attack, ProductAttack):
            return tensor_cq(s1.evaluator(attack.left), s2.evaluator(attack.right))
        return tensor_cq(s1.evaluator(attack), s2.evaluator(attack))

    return SystemGraph(name=f"({s1.name} || {s2.name})", evaluator=evaluator)


def state_distance(a: CQState, b: CQState) -> float:
    """Distinguishing advantage between two evaluated cq states."""
    return cq_trace_distance(a, b)


def advantage_over_family(real: SystemGraph, ideal: SystemGraph, fam: AttackFamily):
    """Max distinguishing advantage over the family; a certified lower bound.

    Returns ``(value, name)`` of the first strategy attaining the maximum.
    """
    best = -1.0
    best_name = ""
    for strategy in fam.strategies:
        value = state_distance(evaluate(real, strategy), evaluate(ideal, strategy))
        if value > best:
            best, best_name = value, strategy.name
    return best, best_name


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
    return EpsilonLedger(ledger.entries + tuple(replace(e, mode=mode) for e in entries))


def serial_compose(ledger: EpsilonLedger, *entries) -> EpsilonLedger:
    """Append serially composed protocols (``LedgerEntry`` values); failures add."""
    return _extend(ledger, "serial", entries)


def parallel_compose(ledger: EpsilonLedger, *entries) -> EpsilonLedger:
    """Append parallel-composed protocols; failures add just the same."""
    return _extend(ledger, "parallel", entries)
