"""Seedable, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by an explicit 64-bit seed plus an integer spawn path, so a
run's output depends only on (seed, task index) and never on worker count
or scheduling order. A routine that takes a Generator in place of a seed
takes a Philox one: being counter-based, its stream can be entered at any
counter (seek), which the chunked kernel relies on.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_int

_WORD = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by seed and a spawn path.

    substream(seed) is the root stream; substream(seed, i) is the i-th
    task's stream; deeper paths nest the same way.
    """
    ss = np.random.SeedSequence(entropy=_require_int(seed, "seed", 0),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def philox(rng: np.random.Generator) -> np.random.Generator:
    """rng itself; TypeError unless it draws from Philox."""
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"expected a Philox Generator, got {type(rng.bit_generator).__name__}")
    return rng


def position(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """(key, counter) of a Philox Generator, the counter as a 256-bit int;
    TypeError for another bit generator."""
    state = philox(rng).bit_generator.state["state"]
    return state["key"], sum(int(w) << (64 * i) for i, w in enumerate(state["counter"]))


def seek(rng: np.random.Generator, key, counter: int) -> None:
    """Put a Philox Generator at (key, counter mod 2**256) with an empty
    buffer and no pending 32-bit half. Philox steps its counter before it
    encrypts, so the next draw starts the block of counter + 1: the state
    of Philox(key=key, counter=counter)."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter >> s & _WORD for s in (0, 64, 128, 192)], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Unit vectors uniform on S^2 via normalized Gaussian draws."""
    size = (n, 3) if n is not None else 3
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fair_coin(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Fair +/-1 draws."""
    return 2 * rng.integers(0, 2, size=n) - 1
