import itertools

import pytest

from qkdsec.acframework import advantage_over_family, evaluate, identity_strategy
from qkdsec.protocols.otp import (
    LengthMismatch,
    build_otp_systems,
    message_family,
    otp_decrypt,
    otp_encrypt,
)


def test_encrypt_examples():
    assert otp_encrypt("0110", "0000") == "0110"
    assert otp_encrypt("0110", "0110") == "0000"
    with pytest.raises(LengthMismatch):
        otp_encrypt("01", "011")
    with pytest.raises(LengthMismatch):
        otp_encrypt("01x", "010")


@pytest.mark.parametrize("length", range(1, 9))
def test_round_trip_exhaustive(length):
    words = ["".join(bits) for bits in itertools.product("01", repeat=length)]
    for x in words:
        for k in words:
            assert otp_decrypt(otp_encrypt(x, k), k) == x


def test_ciphertext_uniform_and_bob_correct():
    real, _ = build_otp_systems(3)
    state = evaluate(real, identity_strategy(inputs=(("message", "101"),)))
    weights = {}
    for branch in state.branches:
        b_out, cipher = branch.assignment
        assert b_out == "101"
        weights[cipher] = branch.weight
    assert len(weights) == 8
    assert all(w == pytest.approx(1 / 8, abs=1e-15) for w in weights.values())


@pytest.mark.parametrize("length", range(1, 7))
def test_perfect_security(length):
    real, ideal = build_otp_systems(length)
    advantage, _ = advantage_over_family(real, ideal, message_family(length))
    assert advantage == 0.0


def test_switch_aborts_identically():
    real, ideal = build_otp_systems(2)
    fam = message_family(2, switch_presses=True)
    advantage, _ = advantage_over_family(real, ideal, fam)
    assert advantage == 0.0
    pressed = identity_strategy(name="press", inputs=(("message", "10"),),
                                switches=(("key", 1),))
    state = evaluate(real, pressed)
    assert state.branches[0].assignment == ("abort", "abort")


def _merged_otp_state(branches):
    # the former construction: merged branches sorted by (assignment,
    # weight), a unit factor each, the mass summed in insertion order
    from types import SimpleNamespace

    import numpy as np

    from qkdsec.qstate import CQBranch

    merged = {}
    for assignment, weight in branches:
        merged[assignment] = merged.get(assignment, 0.0) + weight
    unit = np.ones((1, 1), dtype=complex)
    rows = tuple(CQBranch(a, w, unit) for a, w in sorted(merged.items()))
    return SimpleNamespace(branches=rows, trace_mass=sum(merged.values()))


@pytest.mark.parametrize("length", [1, 2, 3])
def test_otp_states_unchanged(length):
    real, ideal = build_otp_systems(length)
    words = ["".join(bits) for bits in itertools.product("01", repeat=length)]
    for x in words:
        attack = identity_strategy(inputs=(("message", x),))
        got_real, got_ideal = evaluate(real, attack), evaluate(ideal, attack)
        p = 1.0 / len(words)
        want_real = _merged_otp_state([((x, otp_encrypt(x, k)), p) for k in words])
        want_ideal = _merged_otp_state([((x, y), p) for y in words])
        for got, want in ((got_real, want_real), (got_ideal, want_ideal)):
            assert got.registers[0].alphabet == tuple(words) + ("abort",)
            assert [b.assignment for b in got.branches] == \
                [b.assignment for b in want.branches]
            assert [b.weight for b in got.branches] == [b.weight for b in want.branches]
            assert all(b.factor.shape == (1, 1) and b.factor[0, 0] == 1.0
                       and not b.factor.flags.writeable for b in got.branches)
            assert got.trace_mass == want.trace_mass and got.quantum_dims == ()
