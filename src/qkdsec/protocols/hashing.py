"""Universal hash families and binary matrices for post-processing.

The shipped authentication family is affine over GF(2^b): single-block
messages map through x -> a*x + c, multi-block messages through the keyed
polynomial c + sum_i x_i a^i.  Both are epsilon-almost strongly universal_2
with epsilon = max_blocks * 2^-b, and the property is verified by exhaustive
counting on the configured small spaces rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..linalg import gf2_rank

__all__ = [
    "GF2m",
    "HashFamily",
    "affine_family",
    "verify_asu2",
    "toeplitz_matrix",
    "default_code_matrices",
]

_IRREDUCIBLE = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


class GF2m:
    """Arithmetic tables for GF(2^b), b <= 8."""

    def __init__(self, bits: int):
        if bits not in _IRREDUCIBLE:
            raise ValueError(f"unsupported field size 2^{bits}")
        self.bits = bits
        self.order = 1 << bits
        self.modulus = _IRREDUCIBLE[bits]
        size = self.order
        table = np.zeros((size, size), dtype=np.int64)
        for a in range(size):
            for b in range(size):
                table[a, b] = self._clmul(a, b)
        self.mul_table = table

    def _clmul(self, a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.modulus
        return out

    def mul(self, a, b):
        return self.mul_table[a, b]

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = int(self.mul_table[out, a])
        return out


@lru_cache(maxsize=None)
def _field(bits: int) -> GF2m:
    return GF2m(bits)


@dataclass(frozen=True)
class HashFamily:
    """Keyed hash family producing ``block_bits`` tags.

    Keys are pairs (a, c) of field elements, so the key space has size
    2^(2b).  ``epsilon`` is the claimed almost-strong-universality parameter;
    :func:`verify_asu2` checks it exhaustively.
    """

    block_bits: int
    max_blocks: int = 1

    @property
    def field(self) -> GF2m:
        return _field(self.block_bits)

    @property
    def key_count(self) -> int:
        return self.field.order ** 2

    @property
    def tag_space(self) -> int:
        return self.field.order

    @property
    def epsilon(self) -> float:
        return self.max_blocks / float(self.tag_space)

    def keys(self):
        order = self.field.order
        return ((a, c) for a in range(order) for c in range(order))

    def digest(self, key: tuple[int, int], message) -> int:
        """Tag of a message given as one int or a block sequence."""
        a, c = key
        blocks = (message,) if isinstance(message, int) else tuple(message)
        if len(blocks) > self.max_blocks:
            raise ValueError(
                f"message has {len(blocks)} blocks, family caps at {self.max_blocks}")
        gf = self.field
        out = c
        for i, x in enumerate(blocks, start=1):
            out ^= int(gf.mul(x, gf.pow(a, i)))
        return out

    def digest_all_keys(self, message) -> np.ndarray:
        """Tags for every key, ordered like :meth:`keys`; vectorised."""
        gf = self.field
        order = gf.order
        blocks = (message,) if isinstance(message, int) else tuple(message)
        acc = np.zeros(order, dtype=np.int64)  # indexed by a
        power = np.ones(order, dtype=np.int64)
        a_vals = np.arange(order)
        for x in blocks:
            power = gf.mul_table[power, a_vals]
            acc ^= gf.mul_table[x, power]
        # key order: (a, c) with c fastest
        return (acc[:, None] ^ np.arange(order)[None, :]).reshape(-1)


def affine_family(block_bits: int, max_blocks: int = 1) -> HashFamily:
    return HashFamily(block_bits=block_bits, max_blocks=max_blocks)


# tag-pair bins per verify_asu2 bincount: 128 KiB of counts stays in cache,
# and larger batches were slower, the scatter missing cache (at b = 7, 2^20
# bins took 0.92 s against 0.50 s)
_ASU2_BINS = 1 << 14


def verify_asu2(fam: HashFamily, messages=None):
    """Exhaustively verify the almost-strongly-universal_2 property.

    Checks, over the uniform key, (1) Pr[h(x) = y] = 2^-b for all x, y and
    (2) Pr[h(x) = y and h(x') = y'] <= epsilon * 2^-b for all x != x', y, y'.
    Returns ``(max_pair_probability, epsilon * 2^-b, uniform_ok)``.
    """
    order = fam.tag_space
    if messages is None:
        if fam.max_blocks == 1:
            messages = list(range(order))
        else:
            messages = [tuple(m) for m in np.ndindex(*(order,) * fam.max_blocks)]
    count = len(messages)
    nkeys = fam.key_count
    digests = np.array([fam.digest_all_keys(m) for m in messages],
                       dtype=np.int64).reshape(count, nkeys)

    # one bincount per message over a batch of later messages, their
    # tag-pair counts side by side; batches are sized by _ASU2_BINS
    per_row = order * order
    chunk = max(1, _ASU2_BINS // per_row)
    offsets = np.arange(chunk)[:, None] * per_row
    tag_counts = np.bincount((np.arange(count)[:, None] * order + digests).ravel(),
                             minlength=count * order)
    uniform_ok = bool(np.all(tag_counts * order == nkeys))
    worst = 0
    for i in range(count - 1):
        base = offsets + digests[i] * order
        for lo in range(i + 1, count, chunk):
            later = digests[lo:lo + chunk]
            codes = base[:len(later)] + later
            pair_counts = np.bincount(codes.ravel(), minlength=len(later) * per_row)
            worst = max(worst, int(pair_counts.max()))
    max_pair_prob = worst / nkeys
    return max_pair_prob, fam.epsilon / order, uniform_ok


def toeplitz_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Binary Toeplitz matrix from a fixed public seed (deterministic)."""
    rng = np.random.default_rng([int(seed), 0x746F65])
    diag_bits = rng.integers(0, 2, size=rows + cols - 1, dtype=np.uint8)
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = diag_bits[i - j + cols - 1]
    return out


def default_code_matrices(width: int, h_rows: int, out_len: int, seed: int):
    """Deterministic (H, T) pair with jointly independent rows over GF(2).

    H is drawn uniformly and T is Toeplitz from the same public seed; the
    draw counter increments until the stacked matrix has full row rank.
    """
    if h_rows + out_len > width:
        raise ValueError(
            f"h_rows + out_len = {h_rows + out_len} exceeds key-material width {width}")
    for attempt in range(10_000):
        rng = np.random.default_rng([int(seed), 0x636F6465, attempt])
        h = rng.integers(0, 2, size=(h_rows, width), dtype=np.uint8)
        t = toeplitz_matrix(out_len, width, seed + attempt)
        stacked = np.vstack([h, t]) if h_rows else t
        if gf2_rank(stacked) == h_rows + out_len:
            return h, t
    raise ValueError("could not find jointly independent (H, T); widen the key material")
