"""Sampler v3: the candidate kernel that every pair mode runs through.

A run's candidates are drawn in chunks of CHUNK. Chunk c reads its own
Philox block (Salmon et al., SC'11): the run generator's key with its
counter advanced by c * 2**64, so a chunk's draws depend only on the
stream and c. Each candidate is (z = e.a, phi, u) and a fair coin. One run
serves every setting b of a half-plane through a: _wing_a decides a
chunk's a-wing once, and _wing_b each setting's b-wing, every sign and cut
equal to its float64 evaluation on the drawn values, as four bool masks
per setting. _outcomes and _mask_counts are the two readers of those
masks: int8 outcomes and the 3x3 count table. Version 3 keeps version 2's
stream of a single pair byte for byte; a grid of settings now reads one
stream for all of its points.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_choice, _require_int, _require_unit
from .rng import substream

MODES = ("s3", "pearle-reject", "flat")

# the random stream and kernel that run_pair draws with; artifacts record it
SAMPLER_VERSION = 3

# candidates per chunk: small enough that a chunk's arrays stay in cache
CHUNK = 1 << 14

# counter steps of one float32 array of a chunk's block: CHUNK 32-bit draws
# fill CHUNK/2 64-bit words, and Philox makes 4 words per step
_STEPS = CHUNK // 8

# z, phi and u from the top 24 bits m of a draw: Generator.random(dtype=float32)
# is m * 2**-24, so z = m * 2**-23 - 1, phi = m * float32(pi * 2**-24), u = m * 2**-24
_SCALES = (np.float32(2.0**-23), np.float32(np.pi * 2.0**-24), np.float32(2.0**-24))

# half-width of the band around a sign or cut decision in which e.b and f
# are redone in float64 (see _wing_a and _wing_b): 10 times the measured
# float32 error, at most 1.7e-7 in e.b plus 2.4e-7 in f (all 2**24 values
# of u)
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


def _pair_setup(a, bs, n: int, rng_or_seed, mode: str):
    """Validated (a, bs, rng) for a run of the setting pairs (a, b), b in
    bs; TypeError unless rng draws from Philox."""
    a = _require_unit(a, "a", 3)
    bs = tuple(_require_unit(b, "b", 3) for b in bs)
    _require_int(n, "n", 1)
    _require_choice(mode, "mode", MODES)
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"expected a Philox Generator, got {type(rng.bit_generator).__name__}")
    return a, bs, rng


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


def _root(z, out, tmp):
    """sqrt(1 - z^2) into out, as sqrt((1 - z)(1 + z)): exact factors for a
    float32 z, and an exact product in float64; tmp is scratch of z's size
    and dtype."""
    np.subtract(1.0, z, out=out)
    np.add(1.0, z, out=tmp)
    out *= tmp
    return np.sqrt(out, out=out)


def _project(z, cos_phi, root, cos_ab: float, sin_ab: float, out, tmp):
    """e.b for directions with e.a = z and azimuth phi, into out, from
    root = _root(z): cos(phi)*sin(eta_ab), then times root, then plus
    z*cos(eta_ab), in the precision of z. out may be cos_phi; tmp is
    scratch of z's size and dtype."""
    np.multiply(cos_phi, sin_ab, out=out)
    out *= root
    np.multiply(z, cos_ab, out=tmp)
    out += tmp
    return out


def _project_b(z, cos_phi, cos_ab: float, sin_ab: float, tmp, tmp2):
    """e.b for directions with e.a = z and azimuth phi, in place in cos_phi.

    With a at the pole, e.a = z ~ U(-1, 1) (Archimedes' theorem) and
    e.b = z*cos(eta_ab) + sqrt(1 - z^2)*sin(eta_ab)*cos(phi); the azimuth
    enters only through cos(phi), so phi ~ U(0, pi) suffices. It is _root
    then _project, the two steps _chunks runs once per chunk and once per
    setting; _wing_b's float64 redo and the tests call it. tmp and tmp2 are
    scratch of z's size and dtype.
    """
    return _project(z, cos_phi, _root(z, tmp, tmp2), cos_ab, sin_ab, cos_phi, tmp2)


def _wing_a(z, phi, u, heads, cos_phi, root, f, tmp):
    """The setting-free part of a chunk's decisions: cos(phi), _root(z) and,
    with u, f into the float32 arrays cos_phi, root and f, and the bool
    masks (plus_a, det_a): A = lam*sign(e.a) is +1 (e.a = z, sign(0) :=
    +1, lam = +1 for heads), and |e.a| >= f (everywhere without u).

    A cut within _SCREEN of flipping is redone in float64, so every cut
    equals its float64 evaluation on the drawn values; tmp is scratch.
    """
    np.cos(phi, out=cos_phi)
    _root(z, root, tmp)
    plus_a = np.equal(heads, z >= 0.0)
    if u is None:  # flat's f = 0
        return plus_a, np.ones(z.size, dtype=bool)
    _threshold(u, f)
    margin = np.abs(z, out=tmp)
    margin -= f
    det_a = margin >= 0.0
    redo = np.flatnonzero(np.abs(margin, out=margin) < _SCREEN)
    if redo.size:
        f64 = _threshold(u[redo].astype(np.float64), np.empty(redo.size))
        det_a[redo] = np.abs(z[redo].astype(np.float64)) >= f64
    return plus_a, det_a


def _wing_b(z, phi, u, heads, cos_phi, root, f, cos_ab: float, sin_ab: float, eb, tmp):
    """The bool masks (plus_b, det_b) of a chunk's candidates at setting b,
    from _wing_a's cos_phi, root and f: B = -lam*sign(e.b) is +1, and
    |e.b| >= f (everywhere without u).

    e.b is computed in float32 into eb, with tmp as scratch. Where the sign
    of e.b or the cut is within _SCREEN of flipping, e.b and f are redone
    in float64, so every sign and cut equals its float64 evaluation on the
    drawn values.
    """
    _project(z, cos_phi, root, cos_ab, sin_ab, eb, tmp)
    plus_b = np.not_equal(heads, eb >= 0.0)
    margin = np.abs(eb, out=eb)
    near = margin < _SCREEN
    if u is None:
        det_b = np.ones(z.size, dtype=bool)
    else:
        margin -= f
        det_b = margin >= 0.0
        near |= np.abs(margin, out=margin) < _SCREEN
    redo = np.flatnonzero(near)
    if redo.size:
        z64 = z[redo].astype(np.float64)
        eb64 = _project_b(z64, np.cos(phi[redo], dtype=np.float64), cos_ab, sin_ab,
                          np.empty(redo.size), np.empty(redo.size))
        plus_b[redo] = heads[redo] != (eb64 >= 0.0)
        if u is not None:
            det_b[redo] = np.abs(eb64) >= _threshold(u[redo].astype(np.float64),
                                                      np.empty(redo.size))
    return plus_b, det_b


def _masks(z, phi, u, heads, cos_ab: float, sin_ab: float, scratch):
    """Bool masks (plus_a, plus_b, det_a, det_b) of a chunk's candidates at
    one setting pair: _wing_a, then _wing_b. _chunks runs the two parts
    itself, _wing_a once per chunk; this one-pair composition is what the
    tests check against float64. scratch holds four float32 arrays of at
    least z.size; _wing_b's second scratch array is allocated."""
    cos_phi, root, f, eb = (x[:z.size] for x in scratch)
    plus_a, det_a = _wing_a(z, phi, u, heads, cos_phi, root, f, eb)
    plus_b, det_b = _wing_b(z, phi, u, heads, cos_phi, root, f, cos_ab, sin_ab, eb,
                            np.empty_like(eb))
    return plus_a, plus_b, det_a, det_b


def _chunks(a, bs, n: int, rng, mode: str):
    """Yield (j, masks, k, draws) chunk by chunk for the setting pairs
    (a, b), b = bs[j], of one run: for each setting still short of n, the
    _masks of the k candidates the chunk drew at that setting, and the
    chunk's buffers draws = (z, phi, u), all valid until the next yield.

    The settings lie in one half-plane through a (planar(deg) for deg in
    [0, 180] against planar(0) do), so every candidate is one direction
    e, with e.b from the same z and phi at every b. Chunk c reads its own
    Philox block: rng's key with its counter advanced by c * 2**64 (see
    _fill_draws). Its fill and _wing_a run once; each unfinished setting
    adds its own _wing_b and cut. Every mode runs the same candidates.
    flat and pearle-reject stop at the n-th candidate; in s3 each setting
    stops at its own n-th detected at both wings, its last chunk's masks
    cut just after it, and the run draws at most _MAX_BATCHES * max(1024, n)
    candidates. rng is left at the first chunk that no setting used.
    """
    settings = []
    for b in bs:
        cos_ab = float(np.clip(a @ b, -1.0, 1.0))
        settings.append((cos_ab, float(np.sqrt(1.0 - cos_ab * cos_ab))))
    key, base = _position(rng)
    z, phi, u, cos_phi, root, f, eb, tmp = (np.empty(CHUNK, dtype=np.float32) for _ in range(8))
    budget = _MAX_BATCHES * max(1024, n) if mode == "s3" else n
    got = [0] * len(settings)
    drawn = chunk = 0
    while min(got) < n:
        k = min(CHUNK, budget - drawn)
        if k <= 0:
            raise RuntimeError(f"rejection sampling did not yield {n} admissible states "
                               f"within {_MAX_BATCHES} batches")
        z_k, phi_k, u_k = z[:k], phi[:k], None if mode == "flat" else u[:k]
        heads = _fill_draws(rng, key, base + (chunk << 64), z_k, phi_k, u_k)
        shared = cos_phi[:k], root[:k], f[:k]
        plus_a, det_a = _wing_a(z_k, phi_k, u_k, heads, *shared, eb[:k])
        chunk += 1
        drawn += k
        for j, (cos_ab, sin_ab) in enumerate(settings):
            if got[j] >= n:
                continue
            plus_b, det_b = _wing_b(z_k, phi_k, u_k, heads, *shared, cos_ab, sin_ab,
                                    eb[:k], tmp[:k])
            masks, used = (plus_a, plus_b, det_a, det_b), k
            if mode == "s3":  # count the coincidences; cut just after the n-th
                both = det_a & det_b
                hits = np.count_nonzero(both)
                if got[j] + hits >= n:
                    used = int(np.flatnonzero(both)[n - got[j] - 1]) + 1
                    masks = tuple(x[:used] for x in masks)
            got[j] += hits if mode == "s3" else k
            yield j, masks, used, (z, phi, u)
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
