"""Sampler v3: the candidate kernel that every pair mode runs through.

A run's candidates are drawn in chunks of CHUNK. Chunk c reads its own
Philox block (Salmon et al., SC'11): the run generator's key with its
counter advanced by c * 2**64, so a chunk's draws depend only on the
stream and c. Each candidate is (z = e.a, phi, u) and a fair coin. A
setting b is read only as its angle eta from a, _setting's (cos eta, sin
eta), and one run serves a tuple of them. _chunks fills the chunks and
stops each setting at its n. Its chunk step _decide runs _wing at a once
and at each setting's b: every cut, and every sign where its wing
detects, equal to its float64 evaluation on the drawn values, as four
bool masks per setting, counted as it goes (wing a once per chunk, six
counts per setting) for the one table that leaves the kernel, the 3x3
_table of every candidate; _kept reads a run's kept pairs from it,
_outcomes its masks as int8 outcomes. Version 3 keeps version 2's stream
of one pair byte for byte; a grid reads one stream for all its points.
"""
from __future__ import annotations

import numpy as np

from .algebra import _require_choice, _require_int
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

# half-width of the band around a cut (or, without one, a sign) in which
# e.n and f are redone in float64 (see _wing): 10 times the measured float32
# error, at most 1.5e-7 in e.n (60 chunks at 4 angles) plus 2.4e-7 in f (all
# 2**24 values of u)
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


def _setting(cos_eta) -> tuple[float, float]:
    """The setting at angle eta from a, as the kernel reads it: (cos eta,
    sin eta >= 0) from cos eta = a.b, clipped into [-1, 1]."""
    c = float(np.clip(cos_eta, -1.0, 1.0))
    return c, float(np.sqrt(1.0 - c * c))


def _pair_setup(n: int, rng_or_seed, mode: str):
    """The validated rng of a run of n pairs in mode; TypeError unless it
    draws from Philox."""
    _require_int(n, "n", 1)
    _require_choice(mode, "mode", MODES)
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise TypeError(f"expected a Philox Generator, got {type(rng.bit_generator).__name__}")
    return rng


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
    for i, (x, scale) in enumerate(zip((z, phi, u), _SCALES)):
        if x is not None:
            _seek(rng, key, start + i * _STEPS)
            words = rng.bit_generator.random_raw(-(-k // 2))
            m = words.astype("<u8", copy=False).view("<u4")[:k]
            m >>= 8
            x[...] = m.view("<i4")  # m < 2**24: exact in float32, so x * scale rounds once
            x *= scale
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


def _project(z, w, cos_ab: float, sin_ab: float, out, tmp):
    """e.b for directions with e.a = z and w = cos(phi)*sqrt(1 - z^2), into
    out: w*sin(eta_ab) plus z*cos(eta_ab) in the precision of z, the one
    e.n formula of the float32 kernel and of _wing's float64 redo.

    With a at the pole, e.a = z ~ U(-1, 1) (Archimedes' theorem) and e.b =
    z*cos(eta_ab) + sqrt(1 - z^2)*sin(eta_ab)*cos(phi), b at azimuth 0; only
    cos(phi) enters, so phi ~ U(0, pi) suffices. At the pole, (cos, sin) =
    (1, 0), it is z bit for bit. tmp is scratch of z's size and dtype.
    """
    np.multiply(w, sin_ab, out=out)
    np.multiply(z, cos_ab, out=tmp)
    out += tmp
    return out


def _setting_free(z, phi, u, w, f, tmp):
    """A chunk's work that no setting changes, in the precision of z: w =
    cos(phi)*sqrt(1 - z^2), the root as sqrt((1 - z)(1 + z)) (exact
    factors for a float32 z, an exact product in float64), and, with u, f
    into w and f; tmp is scratch."""
    np.subtract(1.0, z, out=tmp)
    np.add(1.0, z, out=w)
    tmp *= w
    np.sqrt(tmp, out=tmp)
    np.cos(phi, out=w)
    w *= tmp
    if u is not None:  # flat's f = 0
        _threshold(u, f)


def _wing(z, phi, u, heads, f, e, cos_t: float, sin_t: float, plus_if, out):
    """The bool masks (plus, det) of a chunk's candidates at one wing's
    setting n, from e = e.n in float32, n at angle t from a: the outcome
    is +1 where det and plus_if(heads, e >= 0), and det where |e| >= f
    (everywhere without u). Wing a is n = a, t = 0 and e = z with
    np.equal: A = lam*sign(e.a), sign(0) := +1, lam = +1 for heads. Wing b
    is np.not_equal: B = -lam*sign(e.b).

    Where a decision is within _SCREEN of flipping, e and f are redone in
    float64 (_setting_free and _project at (cos_t, sin_t) on float64
    copies of the band's draws), so det, and plus wherever det, equal
    their float64 evaluation on the drawn values. With
    a cut that is the band ||e| - f| < _SCREEN alone: a wing that may
    detect has |e| > f - _SCREEN, so its |e| < _SCREEN lies in that band
    too. Without u the band is |e| < _SCREEN. out is float32 scratch of
    z's size; it may be e.
    """
    plus = plus_if(heads, e >= 0.0)
    margin = np.abs(e, out=out)
    if u is None:
        det = np.ones(z.size, dtype=bool)
    else:
        margin -= f
        det = margin >= 0.0
        np.abs(margin, out=margin)
    # rare per candidate, not per call: the seed-23 default curves redo in 56
    # of 452 calls in s3, 28 of 266 in pearle-reject and 16 of 266 in flat
    if margin.min() < _SCREEN:
        redo = np.flatnonzero(margin < _SCREEN)
        z64, phi64, u64 = (None if x is None else x[redo].astype(np.float64)
                           for x in (z, phi, u))
        w64, f64, e64, tmp = (np.empty(redo.size) for _ in range(4))
        _setting_free(z64, phi64, u64, w64, f64, tmp)
        _project(z64, w64, cos_t, sin_t, e64, tmp)
        plus[redo] = plus_if(heads[redo], e64 >= 0.0)
        if u is not None:
            det[redo] = np.abs(e64) >= f64
    return plus, det


def _decide(z, phi, u, heads, settings, scratch):
    """The chunk step: _setting_free, wing a and its three counts once, then
    for each (j, (cos_ab, sin_ab)) in settings, read one per yield, that
    setting's e.b and wing b. Yields (j, masks, sums): the bool masks
    (plus_a, plus_b, det_a, det_b) and their nine _sums, valid until the
    next yield. scratch holds four float32 arrays of at least z.size."""
    w, f, eb, tmp = (x[:z.size] for x in scratch)
    _setting_free(z, phi, u, w, f, tmp)
    plus_a, det_a = _wing(z, phi, u, heads, f, z, 1.0, 0.0, np.equal, tmp)
    pos_a = plus_a & det_a
    sums_a = (z.size, np.count_nonzero(det_a), np.count_nonzero(pos_a))
    for j, (cos_ab, sin_ab) in settings:
        e = _project(z, w, cos_ab, sin_ab, eb, tmp)
        plus_b, det_b = _wing(z, phi, u, heads, f, e, cos_ab, sin_ab, np.not_equal, e)
        yield j, (plus_a, plus_b, det_a, det_b), sums_a + _setting_sums(pos_a, det_a, plus_b, det_b)


def _chunks(settings, n: int, rng, mode: str):
    """Yield (j, masks, sums, draws) chunk by chunk for the settings of one
    run, setting j the _setting (cos, sin) of its angle from a: the masks
    and sums of the _decide step at each setting still short of n, and the
    chunk's buffers draws = (z, phi, u), all valid until the next yield.

    Every candidate is one direction e, with e.b from the same z and w at
    every setting (each b at azimuth 0, see _project). Chunk c reads its own
    Philox block: rng's key with its counter advanced by c * 2**64 (see
    _fill_draws). Every mode runs the same candidates. flat and
    pearle-reject stop at the n-th candidate; in s3 each setting stops at
    its own n-th detected at both wings, its last chunk's masks cut just
    after it and counted again, and the run draws at most _MAX_BATCHES *
    max(1024, n) candidates. Only a run's last chunk is short. rng is left
    at the first chunk that no setting used.
    """
    key, base = _position(rng)
    z, phi, u, *scratch = (np.empty(CHUNK, dtype=np.float32) for _ in range(7))
    budget = _MAX_BATCHES * max(1024, n) if mode == "s3" else n
    got, chunk = [0] * len(settings), 0
    while min(got) < n:
        k = min(CHUNK, budget - chunk * CHUNK)
        if k <= 0:
            raise RuntimeError(f"rejection sampling did not yield {n} admissible states "
                               f"within {_MAX_BATCHES} batches")
        z_k, phi_k, u_k = z[:k], phi[:k], None if mode == "flat" else u[:k]
        heads = _fill_draws(rng, key, base + (chunk << 64), z_k, phi_k, u_k)
        chunk += 1
        # a setting's got changes only after its own yield, so a lazy filter is safe
        unfinished = ((j, s) for j, s in enumerate(settings) if got[j] < n)
        for j, masks, sums in _decide(z_k, phi_k, u_k, heads, unfinished, scratch):
            if mode == "s3" and got[j] + sums[5] >= n:  # cut just after the n-th coincidence
                used = np.flatnonzero(masks[2] & masks[3])[n - got[j] - 1] + 1
                masks = tuple(x[:used] for x in masks)
                sums = _sums(*masks)
            got[j] += sums[5] if mode == "s3" else k  # sums[5] counts the coincidences
            yield j, masks, sums, (z, phi, u)
    _seek(rng, key, base + (chunk << 64))


def _candidate_tables(settings, n: int, rng_or_seed, mode: str) -> list:
    """The _table of every candidate drawn at each _setting in settings,
    from one pass over the chunks of a run of n pairs (see _chunks)."""
    rng = _pair_setup(n, rng_or_seed, mode)
    sums = np.zeros((len(settings), 9), dtype=np.int64)
    for j, _, chunk_sums, _ in _chunks(settings, n, rng, mode):
        sums[j] += chunk_sums
    return [_table(*row) for row in sums]


def _kept(counts, mode: str) -> np.ndarray:
    """The table of the pairs a run keeps, of its candidate table: in s3
    mode, which keeps the pairs detected at both wings, a copy with every
    cell where a wing does not detect set to 0; the table itself otherwise."""
    if mode == "s3":
        counts = counts.copy()
        counts[1, :] = counts[:, 1] = 0
    return counts


def _outcomes(plus_a, plus_b, det_a, det_b, mode: str | None = None):
    """(rows, A, B) of a chunk's masks (see _decide): the int8 outcomes, 0
    at a wing that does not detect, of the pairs run_pair keeps: every
    candidate or, in s3 mode, the rows detected at both wings."""
    rows = np.flatnonzero(det_a & det_b) if mode == "s3" else slice(None)
    A, B = ((2 * plus[rows].view(np.int8) - 1) * det[rows]
            for plus, det in ((plus_a, det_a), (plus_b, det_b)))
    return rows, A, B


def _setting_sums(pos_a, det_a, plus_b, det_b) -> tuple:
    """The six counts of _sums that wing b changes, with pos_a = plus_a &
    det_a: (n_b, pos_b, both, pp, pa, pb), both detected at both wings."""
    count = np.count_nonzero
    pos_b = plus_b & det_b  # B = +1
    return (count(det_b), count(pos_b), count(det_a & det_b),
            count(pos_a & pos_b), count(pos_a & det_b), count(det_a & pos_b))


def _sums(plus_a, plus_b, det_a, det_b) -> tuple:
    """The nine counts _table reads, of bool masks of A = +1, B = +1 and
    detection at each wing: the candidates k, then n_a and pos_a (detected
    at a, and with A = +1), then _setting_sums. Each is a count of pairs,
    so a run's sums are the sums of its chunks'."""
    pos_a = plus_a & det_a  # A = +1
    return ((plus_a.size, np.count_nonzero(det_a), np.count_nonzero(pos_a))
            + _setting_sums(pos_a, det_a, plus_b, det_b))


def _table(k, n_a, pos_a, n_b, pos_b, both, pp, pa, pb) -> np.ndarray:
    """3x3 int64 table of _sums: entry [i, j] counts the pairs with A = i - 1
    and B = j - 1, by inclusion-exclusion."""
    p0, zp = pos_a - pa, pos_b - pb  # A = +1 with B undetected; mirrored
    return np.array([[both - pa - pb + pp, n_a - both - p0, pb - pp],
                     [n_b - both - zp, k - n_a - n_b + both, zp],
                     [pa - pp, p0, pp]], dtype=np.int64)
