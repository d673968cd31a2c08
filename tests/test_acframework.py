import numpy as np
import pytest

from qkdsec import acframework as ac
from qkdsec import qstate as qs
from qkdsec.metrics import cq_trace_distance
from qkdsec.protocols import auth, otp
from qkdsec.protocols.hashing import affine_family


def noisy_bit_system(flip: float, name: str) -> ac.SystemGraph:
    """Toy resource: transmits the distinguisher's bit, flipped w.p. flip."""
    registers = [("B_out", (0, 1)), ("E_out", (0, 1))]

    def evaluator(attack: ac.AttackStrategy):
        x = attack.input("bit", 0)
        extra = attack.input("noise", 0.0)
        p = min(max(flip + extra, 0.0), 1.0)
        rows = []
        if 1.0 - p > 0:
            rows.append(((x, x), 1.0 - p, 1.0))
        if p > 0:
            rows.append(((1 - x, x), p, 1.0))
        return qs.make_cq(registers, rows, ())

    return ac.SystemGraph(name=name, evaluator=evaluator)


def bit_family(noises=(0.0,)) -> ac.AttackFamily:
    strategies = [ac.identity_strategy()]
    for x in (0, 1):
        for nz in noises:
            strategies.append(ac.AttackStrategy(
                name=f"bit{x}-n{nz}", inputs=(("bit", x), ("noise", nz))))
    return ac.AttackFamily(name="bits", strategies=tuple(strategies))


def test_attach_identity_converter_is_noop():
    sys0 = noisy_bit_system(0.1, "noisy")
    ident = ac.Converter(name="id")
    wrapped = ac.attach_converter(sys0, ident, "E")
    for strat in bit_family().strategies:
        a = ac.evaluate(sys0, strat)
        b = ac.evaluate(wrapped, strat)
        assert cq_trace_distance(a, b) == 0.0


def test_attach_order_associativity():
    sys0 = noisy_bit_system(0.2, "noisy")

    def bump(delta):
        def attack_map(attack):
            extra = attack.input("noise", 0.0) + delta
            inputs = tuple((k, v) for k, v in attack.inputs if k != "noise")
            return ac.AttackStrategy(name=attack.name, inputs=inputs + (("noise", extra),))
        return ac.Converter(name=f"bump{delta}", attack_map=attack_map)

    alpha, beta = bump(0.05), bump(0.1)
    nested = ac.attach_converter(ac.attach_converter(sys0, beta, "E"), alpha, "E")
    combined_map = lambda a: beta.attack_map(alpha.attack_map(a))
    fused = ac.attach_converter(
        sys0, ac.Converter(name="ab", attack_map=combined_map), "E")
    for strat in bit_family((0.0, 0.3)).strategies:
        assert cq_trace_distance(ac.evaluate(nested, strat),
                                 ac.evaluate(fused, strat)) == 0.0


def test_filter_blocks_attack_inputs():
    sys0 = noisy_bit_system(0.0, "clean")
    filt = ac.Converter(name="filter",
                        attack_map=lambda _: ac.identity_strategy())
    filtered = ac.attach_converter(sys0, filt, "E")
    states = [ac.evaluate(filtered, s) for s in bit_family((0.0, 0.5)).strategies]
    for state in states[1:]:
        assert cq_trace_distance(states[0], state) == 0.0


def test_attach_arity_mismatch():
    sys0 = noisy_bit_system(0.0, "clean")
    conv = ac.Converter(name="only-a", attaches_to=frozenset({"A"}))
    with pytest.raises(ac.ArityMismatch):
        ac.attach_converter(sys0, conv, "E")
    with pytest.raises(ac.ArityMismatch):
        ac.attach_converter(sys0, conv, "Z")


def test_parallel_composition_with_trivial_resource():
    sys0 = noisy_bit_system(0.25, "noisy")
    trivial = ac.SystemGraph(
        name="trivial",
        evaluator=lambda attack: qs.make_cq([("T", ("ok",))], [(("ok",), 1.0, 1.0)], ()))
    combined = ac.compose_parallel(sys0, trivial)
    for strat in bit_family().strategies:
        joint = ac.evaluate(combined, strat)
        alone = ac.evaluate(sys0, strat)
        # marginalising the trivial factor returns the original state
        got = {b.assignment[:2]: b.weight for b in joint.branches}
        want = {b.assignment: b.weight for b in alone.branches}
        assert got == want


def test_parallel_factorisation_of_product_attacks():
    s1 = noisy_bit_system(0.1, "one")
    s2 = noisy_bit_system(0.3, "two")
    combined = ac.compose_parallel(s1, s2)
    left = ac.AttackStrategy(name="l", inputs=(("bit", 1),))
    right = ac.AttackStrategy(name="r", inputs=(("bit", 0),))
    prod = ac.ProductAttack("l||r", left, right)
    joint = ac.evaluate(combined, prod)
    manual = qs.tensor_cq(ac.evaluate(s1, left), ac.evaluate(s2, right))
    assert cq_trace_distance(joint, manual) == 0.0


def test_advantage_pseudo_metric_axioms():
    fam = bit_family((0.0, 0.2))
    systems = [noisy_bit_system(f, f"s{f}") for f in (0.0, 0.15, 0.4)]
    d = {}
    for i, a in enumerate(systems):
        for j, b in enumerate(systems):
            d[i, j] = ac.advantage_over_family(a, b, fam)[0]
    for i in range(3):
        assert d[i, i] == 0.0
        for j in range(3):
            assert abs(d[i, j] - d[j, i]) <= 1e-12
            for k in range(3):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_advantage_monotone_under_shared_converter():
    fam = bit_family((0.0, 0.2))
    a = noisy_bit_system(0.0, "a")
    b = noisy_bit_system(0.3, "b")
    base = ac.advantage_over_family(a, b, fam)[0]

    def coarsen(state):
        rows = {}
        for br in state.branches:
            key = (br.assignment[0], "-")
            rows[key] = rows.get(key, 0.0) + br.weight
        return qs.make_cq([("B_out", (0, 1)), ("E_out", ("-",))],
                          [(k, v, 1.0) for k, v in sorted(rows.items(), key=str)], ())

    gamma = ac.Converter(name="coarse", state_map=coarsen)
    wrapped = ac.advantage_over_family(
        ac.attach_converter(a, gamma, "E"), ac.attach_converter(b, gamma, "E"), fam)[0]
    assert wrapped <= base + 1e-9


def test_composed_advantage_bounded_by_component_sum():
    fam = bit_family((0.0,))
    a1, b1 = noisy_bit_system(0.0, "a1"), noisy_bit_system(0.2, "b1")
    a2, b2 = noisy_bit_system(0.1, "a2"), noisy_bit_system(0.25, "b2")
    d1 = ac.advantage_over_family(a1, b1, fam)[0]
    d2 = ac.advantage_over_family(a2, b2, fam)[0]
    pair_strats = tuple(ac.ProductAttack(f"{s.name}^2", s, s) for s in fam.strategies)
    pair_fam = ac.AttackFamily(name="pairs", strategies=pair_strats)
    composite = ac.advantage_over_family(
        ac.compose_parallel(a1, a2), ac.compose_parallel(b1, b2), pair_fam)[0]
    assert composite <= d1 + d2 + 1e-9


@pytest.mark.parametrize("message", [0, 1, 2])
def test_advantage_over_family_names_first_maximiser(message):
    # affine tags: a constant forgery (x2, y2) with x2 != message is accepted
    # with probability 2^-b whatever tag was seen, and the ideal system always
    # rejects it, so each such strategy (and flip-msg) reaches 2^-b; forgeries
    # of the sent message itself reach 0.  The family lists const:x2,y2 in
    # (x2, y2) order, so the first maximiser is const:x2,0 with the smallest
    # x2 != message.
    fam = affine_family(3)
    real, ideal = auth.build_auth_systems(fam)
    value, name = ac.advantage_over_family(
        real, ideal, auth.substitution_family(fam, message=message))
    assert value == pytest.approx(2.0 ** -3, abs=1e-12)
    assert name == f"const:{0 if message else 1},0"
    # every one-time-pad strategy has advantage 0: the first one wins
    otp_real, otp_ideal = otp.build_otp_systems(2)
    assert ac.advantage_over_family(
        otp_real, otp_ideal, otp.message_family(2, switch_presses=True)) == (0.0, "identity")


def test_family_requires_identity():
    # a strategy that only drives honest inputs still counts as no-attack
    ac.AttackFamily(name="ok", strategies=(
        ac.AttackStrategy(name="x", inputs=(("bit", 1),)),))
    with pytest.raises(ac.ScheduleMismatch):
        ac.AttackFamily(name="bad", strategies=(
            ac.AttackStrategy(name="press", switches=(("key", 1),)),))


def test_schedule_mismatch_on_quantum_slots():
    sys0 = noisy_bit_system(0.0, "clean")
    pos = ac.PositionAttack((ac.MixtureComponent(
        "pass", 1.0, qs.make_channel([np.eye(2)], out_dims=(2, 1))),))
    attack = ac.AttackStrategy(name="q", quantum=(pos,))
    with pytest.raises(ac.ScheduleMismatch):
        ac.evaluate(sys0, attack)


def test_epsilon_ledger_arithmetic():
    ledger = ac.EpsilonLedger()
    assert ledger.total == 0.0
    ledger = ac.serial_compose(ledger, ac.LedgerEntry("qkd", 0.25),
                               ac.LedgerEntry("otp", 0.0, "asserted"))
    assert ledger.total == 0.25
    ledger = ac.parallel_compose(ledger, ac.LedgerEntry("qkd2", 0.25))
    assert ledger.total == 0.5
    assert [e.mode for e in ledger.entries] == ["serial", "serial", "parallel"]
    assert abs(ledger.total - sum(e.epsilon for e in ledger.entries)) <= 1e-12


def test_security_check_on_perfect_construction():
    real = noisy_bit_system(0.0, "real")
    ideal = noisy_bit_system(0.0, "ideal")
    filt = ac.Converter(name="filter",
                        attack_map=lambda _: ac.identity_strategy())
    sim = ac.Converter(name="sim")
    availability, security = ac.security_check(
        real, ideal, filt, filt, sim, bit_family((0.0, 0.1)), eps=0.0)
    assert availability.holds and availability.left_value == 0.0
    assert security.holds and security.left_value == 0.0


def test_always_abort_protocol_secure_but_unavailable():
    # an always-aborting key protocol satisfies the simulator condition with
    # advantage zero, yet fails availability against a key-producing filter
    key_regs = [("A_out", (0, 1, "abort")), ("B_out", (0, 1, "abort"))]

    def aborting(attack):
        return qs.make_cq(key_regs, [(("abort", "abort"), 1.0, 1.0)], ())

    def ideal_key(attack):
        if attack.switch("key"):
            return qs.make_cq(key_regs, [(("abort", "abort"), 1.0, 1.0)], ())
        return qs.make_cq(key_regs, [((k, k), 0.5, 1.0) for k in (0, 1)], ())

    real = ac.SystemGraph(name="always-abort", evaluator=aborting)
    ideal = ac.SystemGraph(name="ideal-key", evaluator=ideal_key)
    press_always = ac.Converter(
        name="sim-press",
        attack_map=lambda a: ac.AttackStrategy(name=a.name, switches=(("key", 1),)))
    keep_filter = ac.Converter(
        name="filter-produce",
        attack_map=lambda _: ac.identity_strategy())
    fam = ac.AttackFamily(name="idle", strategies=(ac.identity_strategy(),))

    availability, security = ac.security_check(
        real, ideal, keep_filter, keep_filter, press_always, fam, eps=0.0)
    assert security.holds and security.left_value == 0.0
    assert not availability.holds and availability.left_value == 1.0


def test_ideal_key_resource_switch_semantics():
    key_regs = [("A_out", (0, 1, "abort")), ("B_out", (0, 1, "abort"))]

    def ideal_key(attack):
        if attack.switch("key"):
            return qs.make_cq(key_regs, [(("abort", "abort"), 1.0, 1.0)], ())
        return qs.make_cq(key_regs, [((k, k), 0.5, 1.0) for k in (0, 1)], ())

    resource = ac.SystemGraph(name="key", evaluator=ideal_key)
    plain = ac.evaluate(resource, ac.identity_strategy())
    assert {b.assignment for b in plain.branches} == {(0, 0), (1, 1)}
    assert all(b.weight == 0.5 for b in plain.branches)
    pressed = ac.evaluate(resource, ac.AttackStrategy(
        name="press", switches=(("key", 1),)))
    assert pressed.branches[0].assignment == ("abort", "abort")
