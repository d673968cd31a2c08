"""Three-interface composable systems and distinguishing advantage.

A system is an evaluator from an attack strategy to the exact final
classical-quantum state (a ``CQState``) gathered at the A/B/E interfaces;
the interaction schedule is fixed per system, which makes evaluation
terminating and exact.  Two evaluated states are told apart by their cq
trace distance (``state_distance``).  Protocols with their own exact path
(the BB84 engine, the swap crossing attack) are called directly, not
wrapped as systems.

Distinguisher power is represented by explicit attack families.  Computed
advantages are therefore certified lower bounds on the true (unbounded)
advantage; the analytic upper bounds come from the protocol decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import tolerances as tol
from .metrics import cq_trace_distance
from .qstate import CQState, KrausChannel

__all__ = [
    "ScheduleMismatch",
    "MixtureComponent",
    "PositionAttack",
    "AttackStrategy",
    "AttackFamily",
    "SystemGraph",
    "EpsilonLedger",
    "LedgerEntry",
    "evaluate",
    "advantage_over_family",
    "serial_compose",
    "state_distance",
    "identity_strategy",
]


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
        for c in self.components:
            if not 0.0 <= c.weight < math.inf:
                raise ScheduleMismatch(
                    f"component {c.label!r} has weight {c.weight!r}, not a finite "
                    "nonnegative number")
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
class AttackFamily:
    """A finite tuple of strategies; always contains the identity strategy."""

    name: str
    strategies: tuple = ()

    def __post_init__(self):
        if not any(s.is_identity for s in self.strategies):
            raise ScheduleMismatch(
                f"family {self.name!r} must contain the identity strategy")


@dataclass(frozen=True)
class SystemGraph:
    """A three-interface resource as an evaluator.

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
    if attack.quantum:
        raise ScheduleMismatch(
            f"attack supplies {len(attack.quantum)} quantum transmissions, system "
            f"{sys.name!r} has none")
    return sys.evaluator(attack)


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


# --- failure bookkeeping ---------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    protocol: str
    epsilon: float
    source: str = "measured"  # or "asserted"


@dataclass(frozen=True)
class EpsilonLedger:
    entries: tuple[LedgerEntry, ...] = ()

    @property
    def total(self) -> float:
        return math.fsum(e.epsilon for e in self.entries)


def serial_compose(ledger: EpsilonLedger, *entries) -> EpsilonLedger:
    """Append serially composed protocols (``LedgerEntry`` values); failures add."""
    return EpsilonLedger(ledger.entries + entries)
