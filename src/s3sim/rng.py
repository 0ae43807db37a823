"""Seedable, splittable random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by an explicit 64-bit seed plus an integer spawn path, so a
run's output depends only on (seed, task index) and never on worker count
or scheduling order.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_int


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by seed and a spawn path.

    substream(seed) is the root stream; substream(seed, i) is the i-th
    task's stream; deeper paths nest the same way.
    """
    ss = np.random.SeedSequence(entropy=_require_int(seed, "seed", 0),
                                spawn_key=tuple(_require_int(p, "index", 0) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Unit vectors uniform on S^2 via normalized Gaussian draws."""
    size = (n, 3) if n is not None else 3
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fair_coin(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Fair +/-1 draws."""
    return 2 * rng.integers(0, 2, size=n) - 1
