"""Universal hash families and binary matrices for post-processing.

The shipped authentication family is affine over GF(2^b): single-block
messages map through x -> a*x + c, multi-block messages through the keyed
polynomial c + sum_i x_i a^i.  Both are epsilon-almost strongly universal_2
with epsilon = max_blocks * 2^-b, and the property is verified by exhaustive
counting on the configured small spaces rather than assumed.  The pair
count runs over the 2^b multipliers a alone when every message's tag at key
(a, c) is g(a) ^ c, an offset form verified on the digest table, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from ..linalg import gf2_rank

__all__ = [
    "GF2m",
    "HashFamily",
    "affine_family",
    "NotAFieldElement",
    "TagOutOfRange",
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
        # carry-less products, one bit of b per step: a * x^i mod the
        # modulus is added into table[a, b] wherever bit i of b is set
        size = self.order
        shifted = np.arange(size, dtype=np.int64)
        b_values = np.arange(size, dtype=np.int64)
        table = np.zeros((size, size), dtype=np.int64)
        for i in range(bits):
            table ^= shifted[:, None] * ((b_values >> i) & 1)[None, :]
            shifted <<= 1
            shifted ^= np.where(shifted & size, self.modulus, 0)
        self.mul_table = table

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


class NotAFieldElement(ValueError):
    """A message block or key part that is not an integer in ``range(2^b)``."""


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

    def _element(self, value, what: str) -> int:
        """``value`` as an int in range(2^b), read through ``operator.index``."""
        try:
            x = index(value)
        except TypeError:
            x = None
        if x not in range(self.field.order):
            raise NotAFieldElement(
                f"{what} {value!r} is not an integer in range({self.field.order})")
        return x

    def blocks(self, message) -> tuple[int, ...]:
        """The blocks of a message given as one integer or a block sequence.

        Ints, numpy integers and bools are read as their integer values; any
        other block, or one outside the field (a negative one would read the
        tables from their ends), raises :class:`NotAFieldElement`.
        """
        try:
            blocks = (index(message),)
        except TypeError:
            blocks = tuple(message) if np.iterable(message) else (message,)
        return tuple(self._element(x, "message block") for x in blocks)

    def digest(self, key: tuple[int, int], message) -> int:
        """Tag of a message given as one int or a block sequence."""
        a, c = (self._element(part, "key part") for part in key)
        blocks = self.blocks(message)
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
        blocks = self.blocks(message)
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


class TagOutOfRange(ValueError):
    """A family returned a tag outside ``range(tag_space)``."""


# bins per verify_asu2 bincount: 128 KiB of counts stays in cache, and larger
# batches were slower, the scatter missing cache (in the count over all keys
# at b = 7, 2^20 bins took 0.92 s against 0.50 s; the count over a takes
# 0.02 s there)
_ASU2_BINS = 1 << 14


def _digest_table(fam: HashFamily, messages) -> np.ndarray:
    """Tags of every message under every key, one ``uint8`` row per message."""
    order = fam.tag_space
    table = np.empty((len(messages), fam.key_count), dtype=np.uint8)
    for row, message in zip(table, messages):
        tags = np.asarray(fam.digest_all_keys(message)).reshape(fam.key_count)
        outside = (tags < 0) | (tags >= order)
        if outside.any():
            raise TagOutOfRange(f"message {message!r} has tag {tags[outside][0]}, "
                                f"outside range({order})")
        row[:] = tags
    return table


def _offset_form(digests: np.ndarray, order: int):
    """``g`` with tag ``g[x, a] ^ c`` at key (a, c) for every row, else None."""
    c_values = np.arange(order, dtype=np.uint8)
    g = np.ascontiguousarray(digests[:, ::order])
    for row, g_row in zip(digests, g):
        if not np.array_equal(row.reshape(order, order), g_row[:, None] ^ c_values):
            return None
    return g


def verify_asu2(fam: HashFamily, messages=None):
    """Exhaustively verify the almost-strongly-universal_2 property.

    Checks, over the uniform key, (1) Pr[h(x) = y] = 2^-b for all x, y and
    (2) Pr[h(x) = y and h(x') = y'] <= epsilon * 2^-b for all x != x', y, y'.
    Returns ``(max_pair_probability, epsilon * 2^-b, uniform_ok)``.
    A message block outside ``range(2^b)`` raises ``NotAFieldElement``, a
    tag outside it ``TagOutOfRange``.
    """
    order = fam.tag_space
    if messages is None:
        if fam.max_blocks == 1:
            messages = list(range(order))
        else:
            messages = [tuple(m) for m in np.ndindex(*(order,) * fam.max_blocks)]
    count = len(messages)
    nkeys = fam.key_count
    digests = _digest_table(fam, messages)
    uniform_ok = all(np.all(np.bincount(row, minlength=order) * order == nkeys)
                     for row in digests)

    # In offset form the key (a, c) has tag g_x(a) ^ c, and for each a one c
    # meets h(x) = y, so the keys with h(x) = y and h(x') = y' are the a with
    # g_x(a) ^ g_x'(a) = y ^ y': count those differences over the 2^b values
    # of a.  Otherwise count the tag pairs (h(x), h(x')) over all keys.
    g = _offset_form(digests, order)
    if g is not None:
        left, right, per_row = g, g, order
    else:
        left = digests.astype(np.uint16) << fam.block_bits
        right, per_row = digests, order * order
    # one bincount per message over a batch of later messages, their codes
    # left[i] ^ right[j] side by side; batches are sized by _ASU2_BINS
    chunk = max(1, _ASU2_BINS // per_row)
    offsets = np.arange(chunk)[:, None] * per_row
    worst = 0
    for i in range(count - 1):
        for lo in range(i + 1, count, chunk):
            later = right[lo:lo + chunk]
            codes = offsets[:len(later)] + (left[i] ^ later)
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
