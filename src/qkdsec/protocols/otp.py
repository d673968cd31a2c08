"""One-time pad: the protocol and its real/ideal systems.

The real system XORs the message with a fresh uniform key from a secret-key
resource and leaks the ciphertext on the authentic channel; the ideal system
is a secure channel plus a simulator that emits a uniform string of the
message length.  Both are exact classical cq states, so the perfect-security
claim can be checked as literal equality of distributions.
"""

from __future__ import annotations

from ..acframework import AttackFamily, AttackStrategy, SystemGraph, identity_strategy
from ..qstate import CQState, Register, make_classical_cq

__all__ = [
    "LengthMismatch",
    "otp_encrypt",
    "otp_decrypt",
    "build_otp_systems",
    "message_family",
]


class LengthMismatch(ValueError):
    pass


def _check_bits(value: str, name: str) -> str:
    if not value or any(ch not in "01" for ch in value):
        raise LengthMismatch(f"{name} must be a nonempty bitstring, got {value!r}")
    return value


def otp_encrypt(x: str, k: str) -> str:
    """y = x XOR k; requires equal lengths."""
    _check_bits(x, "message")
    _check_bits(k, "key")
    if len(x) != len(k):
        raise LengthMismatch(f"message length {len(x)} != key length {len(k)}")
    return "".join("1" if a != b else "0" for a, b in zip(x, k))


def otp_decrypt(y: str, k: str) -> str:
    return otp_encrypt(y, k)


def _bitstrings(n: int):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


def build_otp_systems(msg_len: int):
    """Real and ideal one-time-pad systems for messages of a fixed length.

    The distinguisher supplies the message through ``inputs=(("message", x),)``
    and may press the key resource's switch, in which case both systems abort
    identically.
    """
    if msg_len < 1:
        raise LengthMismatch(f"message length must be >= 1, got {msg_len}")
    words = _bitstrings(msg_len)
    alphabet = tuple(words) + ("abort",)
    registers = [Register("B_out", alphabet), Register("E_cipher", alphabet)]

    def real_evaluator(attack: AttackStrategy) -> CQState:
        x = attack.input("message", words[0])
        if x not in words:
            raise LengthMismatch(f"message {x!r} is not a {msg_len}-bit string")
        if attack.switch("key"):
            return make_classical_cq(registers, [(("abort", "abort"), 1.0)])
        branches = []
        p = 1.0 / len(words)
        for k in words:
            y = otp_encrypt(x, k)
            b_out = otp_decrypt(y, k)
            branches.append(((b_out, y), p))
        return make_classical_cq(registers, branches)

    def ideal_evaluator(attack: AttackStrategy) -> CQState:
        x = attack.input("message", words[0])
        if x not in words:
            raise LengthMismatch(f"message {x!r} is not a {msg_len}-bit string")
        if attack.switch("key"):
            return make_classical_cq(registers, [(("abort", "abort"), 1.0)])
        p = 1.0 / len(words)
        branches = [((x, y), p) for y in words]
        return make_classical_cq(registers, branches)

    real = SystemGraph(name=f"otp-real-{msg_len}", evaluator=real_evaluator)
    ideal = SystemGraph(name=f"otp-ideal-{msg_len}", evaluator=ideal_evaluator)
    return real, ideal


def message_family(msg_len: int, *, switch_presses: bool = False) -> AttackFamily:
    """Exhaustive family over all message inputs (and optional switch presses)."""
    strategies = [identity_strategy()]
    for x in _bitstrings(msg_len):
        strategies.append(AttackStrategy(name=f"msg:{x}", inputs=(("message", x),)))
        if switch_presses:
            strategies.append(AttackStrategy(
                name=f"msg:{x}+switch", inputs=(("message", x),),
                switches=(("key", 1),)))
    return AttackFamily(name=f"otp-messages-{msg_len}", strategies=tuple(strategies))
