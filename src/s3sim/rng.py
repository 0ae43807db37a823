"""Seedable, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by an explicit 64-bit seed plus an integer spawn path, so a
run's output depends only on (seed, task index) and never on worker count
or scheduling order. A routine that takes a Generator in place of a seed
takes a Philox one: being counter-based, its stream can be entered at any
position (jumped), which the chunked kernels rely on.
"""
from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by seed and a spawn path.

    substream(seed) is the root stream; substream(seed, i) is the i-th
    task's stream; deeper paths nest the same way.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def philox(rng: np.random.Generator) -> np.random.Generator:
    """rng itself; TypeError unless it draws from Philox."""
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"expected a Philox Generator, got {type(rng.bit_generator).__name__}")
    return rng


def jumped(rng: np.random.Generator, m: int) -> np.random.Generator:
    """A new Generator in the state rng reaches after m more 64-bit draws
    (rng.random(m), say); rng itself does not move.

    Philox makes 4 words per counter step and buffers them: word buffer_pos
    of the block at the counter is next, and at buffer_pos 4 word 0 of the
    next block. advance(k) adds k to the counter and empties the buffer, so
    the jump advances the counter to the block before the one holding the
    last word to skip, then draws that block up to and including the word;
    the state, buffer included, is then the one m sequential draws leave.
    The pending 32-bit half that 32-bit draws leave is carried over, since
    64-bit draws do not touch it.
    """
    state = philox(rng).bit_generator.state
    words = state["buffer_pos"] + m  # counted from word 0 of the buffered block
    bit_generator = np.random.Philox(key=0)
    bit_generator.state = state
    if words <= 4:  # the last word to skip is in the buffered block
        bit_generator.random_raw(m)
    else:
        bit_generator.advance((words - 1) // 4 - 1)
        bit_generator.random_raw((words - 1) % 4 + 1)
        moved = bit_generator.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bit_generator.state = moved
    return np.random.Generator(bit_generator)


def uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Unit vectors uniform on S^2 via normalized Gaussian draws."""
    size = (n, 3) if n is not None else 3
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fair_coin(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Fair +/-1 draws."""
    return 2 * rng.integers(0, 2, size=n) - 1
