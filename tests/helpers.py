"""Helpers shared by the tests: seeded random streams and channel fixtures."""

import numpy as np


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); streams are independent jumps."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def write_rows(fh, matrix) -> None:
    """Write a matrix one row per line, each entry as ``re,im``."""
    for row in matrix:
        fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


def save_channel(path, channel) -> None:
    """Write ``channel`` in the fixture format that ``harness.load_channel`` reads."""
    env_dim = int(np.prod(channel.out_dims[1:])) if len(channel.out_dims) > 1 else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"env {env_dim} kraus {len(channel.kraus_ops)}\n")
        for op in channel.kraus_ops:
            write_rows(fh, op)
