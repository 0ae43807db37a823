"""Sampler v2: the candidate kernel that every pair mode runs through.

A setting pair's candidates are drawn in chunks of CHUNK. Chunk c reads its
own Philox block (Salmon et al., SC'11): the pair generator's key with its
counter advanced by c * 2**64, so a chunk's draws depend only on the pair
and c. Each candidate is (z = e.a, phi, u) and a fair coin; _masks decides
its signs and cuts, equal to their float64 evaluation on the drawn values,
as four bool masks. _outcomes and _mask_counts are the two readers of those
masks: int8 outcomes and the 3x3 count table.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_choice, _require_int, _require_unit
from .rng import substream

MODES = ("s3", "pearle-reject", "flat")

# the random stream and kernel that run_pair draws with; artifacts record it
SAMPLER_VERSION = 2

# candidates per chunk: small enough that a chunk's arrays stay in cache
CHUNK = 1 << 14

# counter steps of one float32 array of a chunk's block: CHUNK 32-bit draws
# fill CHUNK/2 64-bit words, and Philox makes 4 words per step
_STEPS = CHUNK // 8

# z, phi and u from the top 24 bits m of a draw: Generator.random(dtype=float32)
# is m * 2**-24, so z = m * 2**-23 - 1, phi = m * float32(pi * 2**-24), u = m * 2**-24
_SCALES = (np.float32(2.0**-23), np.float32(np.pi * 2.0**-24), np.float32(2.0**-24))

# half-width of the band around a sign or cut decision in which e.b and f
# are redone in float64 (see _masks): 10 times the measured float32 error,
# at most 1.7e-7 in e.b plus 2.4e-7 in f (all 2**24 values of u)
_SCREEN = 4e-6

# s3 draws at most _MAX_BATCHES * max(1024, n) candidates for n admitted pairs
_MAX_BATCHES = 1000


def _position(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """(key, counter) of a Philox Generator, the counter as a 256-bit int."""
    state = rng.bit_generator.state["state"]
    return state["key"], sum(int(w) << (64 * i) for i, w in enumerate(state["counter"]))


def _seek(rng: np.random.Generator, key, counter: int) -> None:
    """Put a Philox Generator at (key, counter mod 2**256) with an empty
    buffer and no pending 32-bit half. Philox steps its counter before it
    encrypts, so the next draw starts the block of counter + 1: the state
    of Philox(key=key, counter=counter)."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter >> s & 2**64 - 1 for s in (0, 64, 128, 192)], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _pair_setup(a, b, n: int, rng_or_seed, mode: str):
    """Validated (a, b, rng) for one setting pair's run; TypeError unless
    rng draws from Philox."""
    a = _require_unit(a, "a", 3)
    b = _require_unit(b, "b", 3)
    _require_int(n, "n", 1)
    _require_choice(mode, "mode", MODES)
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"expected a Philox Generator, got {type(rng.bit_generator).__name__}")
    return a, b, rng


def _fill_draws(rng, key, start: int, z, phi, u=None):
    """Fill z ~ U(-1, 1), phi ~ U(0, pi) and, if given, u ~ U(0, 1) for the
    k = z.size candidates of a chunk, in place, and return their k coins
    (True for heads, lam = +1).

    The chunk's block is the Philox stream of key from counter start on
    (see _seek): CHUNK 32-bit draws for each of z, phi and u, each array
    starting on a counter step, then CHUNK coin bits, bit i % 64 of 64-bit
    word i // 64. A draw is a half of a raw 64-bit word, low half first, and
    its top 24 bits m give r = m * 2**-24, the float32 Generator.random draw.
    A chunk of k < CHUNK candidates reads the first k draws of each; flat
    mode skips u. z = 2r - 1 exactly, phi = pi*r in float32, and u = r is
    uniform like eta_z_so/(kappa*pi).
    """
    k = z.size
    at = None  # the counter the generator has reached, when known
    for i, (x, scale) in enumerate(zip((z, phi, u), _SCALES)):
        if x is not None:
            if at != start + i * _STEPS:
                _seek(rng, key, start + i * _STEPS)
            words = rng.bit_generator.random_raw(-(-k // 2))
            m = words.astype("<u8", copy=False).view("<u4")[:k]
            m >>= 8
            x[...] = m.view("<i4")  # m < 2**24: exact in float32, so x * scale rounds once
            x *= scale
            at = start + (i + 1) * _STEPS if k == CHUNK else None
    if at != start + 3 * _STEPS:
        _seek(rng, key, start + 3 * _STEPS)
    words = rng.bit_generator.random_raw(-(-k // 64)).astype("<u8", copy=False)
    z -= 1.0
    return np.unpackbits(words.view(np.uint8), count=k, bitorder="little").view(bool)


def _threshold(u, f):
    """f = -1 + 2/sqrt(1 + 3u) into f, in the precision of f: pearle_f of
    eta_z_so = u*kappa*pi."""
    np.multiply(u, 3.0, out=f)
    f += 1.0
    np.sqrt(f, out=f)
    np.divide(2.0, f, out=f)
    f -= 1.0
    return f


def _project_b(z, cos_phi, cos_ab: float, sin_ab: float, tmp, tmp2):
    """e.b for directions with e.a = z and azimuth phi, in place in cos_phi.

    With a at the pole, e.a = z ~ U(-1, 1) (Archimedes' theorem) and
    e.b = z*cos(eta_ab) + sqrt(1 - z^2)*sin(eta_ab)*cos(phi); the azimuth
    enters only through cos(phi), so phi ~ U(0, pi) suffices. 1 - z^2 is
    (1 - z)(1 + z), exact factors for a float32 z (and an exact product in
    float64); tmp and tmp2 are scratch of z's size and dtype.
    """
    cos_phi *= sin_ab
    np.subtract(1.0, z, out=tmp)
    np.add(1.0, z, out=tmp2)
    tmp *= tmp2
    np.sqrt(tmp, out=tmp)
    cos_phi *= tmp
    np.multiply(z, cos_ab, out=tmp)
    cos_phi += tmp
    return cos_phi


def _masks(z, phi, u, heads, cos_ab: float, sin_ab: float, scratch):
    """Bool masks (plus_a, plus_b, det_a, det_b) of a chunk's candidates:
    A = lam*sign(e.a), B = -lam*sign(e.b) are +1 (e.a = z, sign(0) := +1,
    lam = +1 for heads); |e.n| >= f at wing a, b (everywhere without u).

    e.b and f are computed in float32, in four float32 scratch arrays of
    at least k. Where the sign of e.b or a cut |e.n| >= f is within _SCREEN
    of flipping, they are redone in float64, so every sign and cut equals
    its float64 evaluation on the drawn values.
    """
    k = z.size
    eb, f, tmp, abs_eb = (x[:k] for x in scratch)
    np.cos(phi, out=eb)
    _project_b(z, eb, cos_ab, sin_ab, tmp, abs_eb)
    plus_a = np.equal(heads, z >= 0.0)
    plus_b = np.not_equal(heads, eb >= 0.0)
    near = np.abs(eb, out=abs_eb) < _SCREEN
    detected = [] if u is not None else [np.ones(k, dtype=bool)] * 2  # flat's f = 0
    if u is not None:
        _threshold(u, f)
        for margin in (np.abs(z, out=tmp), abs_eb):
            margin -= f
            detected.append(margin >= 0.0)
            near |= np.abs(margin, out=margin) < _SCREEN
    redo = np.flatnonzero(near)
    if redo.size:
        z64 = z[redo].astype(np.float64)
        eb64 = _project_b(z64, np.cos(phi[redo], dtype=np.float64), cos_ab, sin_ab,
                          np.empty(redo.size), np.empty(redo.size))
        plus_b[redo] = heads[redo] != (eb64 >= 0.0)
        if u is not None:
            f64 = _threshold(u[redo].astype(np.float64), np.empty(redo.size))
            detected[0][redo] = np.abs(z64) >= f64
            detected[1][redo] = np.abs(eb64) >= f64
    return plus_a, plus_b, *detected


def _chunks(a, b, n: int, rng, mode: str):
    """Yield (masks, k, draws) chunk by chunk for one setting pair: the
    _masks of the k candidates the chunk drew and its buffers draws =
    (z, phi, u), both valid until the next chunk.

    Chunk c reads its own Philox block: rng's key with its counter advanced
    by c * 2**64 (see _fill_draws), and rng is left at the first unused
    chunk. Every mode runs the same candidates through _masks. flat and
    pearle-reject stop at the n-th candidate; s3 stops at the n-th detected
    at both wings, its last chunk's masks cut just after it, and draws at
    most _MAX_BATCHES * max(1024, n) candidates in all.
    """
    cos_ab = float(np.clip(a @ b, -1.0, 1.0))
    sin_ab = float(np.sqrt(1.0 - cos_ab * cos_ab))
    key, base = _position(rng)
    z, phi, u, *scratch = (np.empty(CHUNK, dtype=np.float32) for _ in range(7))
    budget = _MAX_BATCHES * max(1024, n) if mode == "s3" else n
    got = drawn = chunk = 0
    while got < n:
        k = min(CHUNK, budget - drawn)
        if k <= 0:
            raise RuntimeError(f"rejection sampling did not yield {n} admissible states "
                               f"within {_MAX_BATCHES} batches")
        u_k = None if mode == "flat" else u[:k]
        heads = _fill_draws(rng, key, base + (chunk << 64), z[:k], phi[:k], u_k)
        masks = _masks(z[:k], phi[:k], u_k, heads, cos_ab, sin_ab, scratch)
        chunk += 1
        drawn += k
        if mode == "s3":  # count the coincidences; cut just after the n-th
            both = masks[2] & masks[3]
            hits = np.count_nonzero(both)
            if got + hits >= n:
                k = int(np.flatnonzero(both)[n - got - 1]) + 1
                masks = tuple(x[:k] for x in masks)
        got += hits if mode == "s3" else k
        yield masks, k, (z, phi, u)
    _seek(rng, key, base + (chunk << 64))


def _outcomes(plus_a, plus_b, det_a, det_b, mode: str | None = None):
    """(rows, A, B) of a chunk's _masks: the int8 outcomes, 0 at a wing that
    does not detect, of the pairs run_pair keeps: every candidate or, in s3
    mode, the rows detected at both wings."""
    rows = np.flatnonzero(det_a & det_b) if mode == "s3" else slice(None)
    A, B = ((2 * plus[rows].view(np.int8) - 1) * det[rows]
            for plus, det in ((plus_a, det_a), (plus_b, det_b)))
    return rows, A, B


def _mask_counts(plus_a, plus_b, det_a, det_b) -> np.ndarray:
    """3x3 int64 table: entry [i, j] counts the pairs with A = i - 1 and
    B = j - 1, from bool masks of A = +1, B = +1 and detection at each wing,
    by inclusion-exclusion over count_nonzero of the masks' ANDs."""
    count = np.count_nonzero
    pos_a, pos_b = plus_a & det_a, plus_b & det_b  # A = +1, B = +1
    k, n_a, n_b, both = plus_a.size, count(det_a), count(det_b), count(det_a & det_b)
    pp, pa, pb = count(pos_a & pos_b), count(pos_a & det_b), count(det_a & pos_b)
    p0, zp = count(pos_a) - pa, count(pos_b) - pb  # A = +1 with B undetected; mirrored
    return np.array([[both - pa - pb + pp, n_a - both - p0, pb - pp],
                     [n_b - both - zp, k - n_a - n_b + both, zp],
                     [pa - pp, p0, pp]], dtype=np.int64)
