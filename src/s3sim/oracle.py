"""Deterministic expected count tables of the three pair modes.

Every artifact of a setting pair is a function of its 3x3 outcome-count
table, so the oracle gives the expected table, not only E. With a at the
pole, e.a = x = z and e.b = y = z cos(eta) + sqrt(1 - z^2) sin(eta) cos(phi)
for z ~ U(-1, 1) and phi ~ U(0, pi), and the threshold f has the CDF
F(m) = (4/3)(1 - (1 + m)^-2) on [0, 1]. A wing detects where |e.n| >= f,
and the fair coin splits each sign class in half:

* s3 admits a candidate with probability acceptance(eta) = E F(min(|x|, |y|)),
  and its table is the both-detected part of pearle-reject's, renormalised;
* pearle-reject: both wings detect with weight F(min), a lone wing with
  F(|x|) - F(min) or F(|y|) - F(min), neither with 1 - F(max);
* flat has no threshold, and sign(x) != sign(y) with probability eta/pi.

The expectations over (z, phi) are tensor Gauss-Legendre sums. z breaks at
0, +-sin(eta), +-sin(eta/2) and +-cos(eta/2), where the roots in phi of
y in {0, +-|z|} enter or leave [0, pi]; for each z, phi breaks at those
roots, so the integrand is smooth on every piece. Each piece is mapped
by t -> sin^2(pi t/2), which removes the square-root behaviour at its ends.
It needs numpy only, and the simulator does not import it.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_choice, _require_in
from .kernel import MODES

# Gauss-Legendre nodes per piece: 48 agree with 96 to about 1e-14
_NODES = 48


def _cdf(m):
    """Threshold CDF F(m) = P(f <= m) = (4/3)(1 - (1 + m)^-2)."""
    return (4.0 / 3.0) * (1.0 - (1.0 + m) ** -2)


def _pieces(lo, hi):
    """Nodes and weights of every piece [lo, hi] (arrays of one shape),
    with a new last axis of _NODES."""
    x, w = np.polynomial.legendre.leggauss(_NODES)
    t = (x + 1.0) / 2.0
    s = np.sin(np.pi * t / 2.0) ** 2
    ds = (np.pi / 4.0) * np.sin(np.pi * t) * w  # d(sin^2(pi t/2)) with dt = dx/2
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    return lo + (hi - lo) * s, (hi - lo) * ds


def _moments(eta: float):
    """E F(min) over sign(x) == sign(y) and over sign(x) != sign(y), then
    E F(|x|) and E F(|y|)."""
    c, s = np.cos(eta), np.sin(eta)
    breaks = [0.0, s, np.sin(eta / 2.0), np.cos(eta / 2.0)]
    zb = np.unique(np.clip([-1.0, 1.0, *breaks, *(-x for x in breaks)], -1.0, 1.0))
    z, wz = (v.ravel() for v in _pieces(zb[:-1], zb[1:]))
    r = np.sqrt(1.0 - z * z)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0: y = z c for every phi
        cos_roots = (np.array([[0.0], [1.0], [-1.0]]) * np.abs(z) - z * c) / (r * s)
    roots = np.arccos(np.clip(np.nan_to_num(cos_roots, nan=1.0), -1.0, 1.0))
    edges = np.sort(np.vstack([np.zeros_like(z), roots, np.full_like(z, np.pi)]), axis=0)
    phi, wphi = _pieces(edges[:-1], edges[1:])  # (4 pieces, z nodes, _NODES)
    y = z[:, None] * c + (r * s)[:, None] * np.cos(phi)
    x = z[:, None]
    # density 1/2 in z and 1/pi in phi
    weight = wphi * (wz / (2.0 * np.pi))[:, None]
    f_min = _cdf(np.minimum(np.abs(x), np.abs(y)))
    same = (x >= 0.0) == (y >= 0.0)
    return (np.sum(weight * f_min * same), np.sum(weight * f_min * ~same),
            np.sum(weight * _cdf(np.abs(x))), np.sum(weight * _cdf(np.abs(y))))


def acceptance(eta: float) -> float:
    """Probability that s3 admits a candidate at setting angle eta
    (radians): E F(min(|e.a|, |e.b|)), pearle-reject's coincidence
    fraction g(eta)."""
    _require_in(eta, "eta", 0.0, np.pi)
    same, diff, _, _ = _moments(eta)
    return float(same + diff)


def expected_table(eta: float, mode: str) -> np.ndarray:
    """Expected 3x3 outcome-count table per emitted pair (s3: per admitted
    pair) at setting angle eta (radians): entry [i, j] is the probability
    of A = i - 1 and B = j - 1, as in pearle.outcome_counts."""
    _require_in(eta, "eta", 0.0, np.pi)
    _require_choice(mode, "mode", MODES)
    if mode == "flat":
        diff = eta / np.pi
        same, fx, fy = 1.0 - diff, 1.0, 1.0
    else:
        same, diff, fx, fy = _moments(eta)
    both = same + diff
    if mode == "s3":
        same, diff, fx, fy, both = same / both, diff / both, 1.0, 1.0, 1.0
    lone_a, lone_b = (fx - both) / 2.0, (fy - both) / 2.0
    return np.array([[diff / 2.0, lone_a, same / 2.0],
                     [lone_b, 1.0 - fx - fy + both, lone_b],
                     [same / 2.0, lone_a, diff / 2.0]])
