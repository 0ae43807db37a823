"""State-space bridge between the 3-sphere model and the 1970 unit-ball model.

A hidden state is a pair (e_o, s_o). The angle eta_z_so between s_o and the
reference axis z fixes a visibility threshold through the winding-indexed
mapping

    f(eta) = -1 + 2 / sqrt(1 + 3*eta/(kappa*pi)),   eta in [0, kappa*pi],

which equals cos(pi*r/2) for the unit-ball radial coordinate r. Sampling
eta_z_so UNIFORMLY on [0, kappa*pi] makes the mapping the inverse CDF of
the threshold: the induced threshold density is (8/3)(1+f)^-3 on [0, 1],
i.e. the radial density (pi/3) tan(pi r/4) sec^4(pi r/4). This is the
validated choice: with it, the correlation over the pre-selected ensemble
reproduces -cos(eta_ab) at every angle (see tests/test_pearle.py for the
Monte Carlo validation against independent oracles).

Three modes:

* ``s3``            pre-selected ensemble; a state is admitted only if
                    |n.e_o| >= f for the run's realized settings, so every
                    admitted state yields a definite outcome at both wings
                    and the detected fraction is one as a count identity.
* ``pearle-reject`` the original reading, kept as a contrast baseline
                    (non-normative): all states are emitted, each wing
                    discards events below its threshold, so g < 1.
* ``flat``          f == 0: no threshold, flat-space sign outcomes, the
                    saw-tooth correlation -1 + 2*eta/pi.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import _angle, _require_unit, planar
from .curves import CorrelationCurve, CurvePoint, format_grid
from .rng import philox, position, seek, substream
from .singlet import CorrelationEstimate, _estimate

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

_DENOM_TOL = 1e-12


class NumericError(RuntimeError):
    """A reported quantity is undefined: a correlation with no coincidences."""


def _check_kappa(kappa: int) -> int:
    if isinstance(kappa, bool) or not isinstance(kappa, (int, np.integer)) or kappa < 1:
        raise ValueError("winding index kappa must be a positive integer")
    return int(kappa)


def _scaled_eta(eta, kappa: int):
    """3*eta/(kappa*pi) for eta in the mapping domain [0, kappa*pi]."""
    kappa = _check_kappa(kappa)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < -1e-12) or np.any(eta > kappa * np.pi + 1e-12):
        raise ValueError("eta outside the mapping domain [0, kappa*pi]")
    return 3.0 * np.clip(eta, 0.0, kappa * np.pi) / (kappa * np.pi)


def pearle_f(eta, kappa: int = 1):
    """Threshold f(eta) = -1 + 2/sqrt(1 + 3*eta/(kappa*pi)).

    Strictly decreasing from f(0) = 1 to f(kappa*pi) = 0.
    """
    return -1.0 + 2.0 / np.sqrt(1.0 + _scaled_eta(eta, kappa))


def pearle_f_complement(eta, kappa: int = 1):
    """Mirror branch f(kappa*pi - eta) = -1 + 2/sqrt(4 - 3*eta/(kappa*pi))."""
    return -1.0 + 2.0 / np.sqrt(4.0 - _scaled_eta(eta, kappa))


@dataclass(frozen=True)
class PearleMapping:
    """Winding-indexed threshold mapping with its unit-ball coordinates."""

    kappa: int = 1

    def __post_init__(self):
        _check_kappa(self.kappa)

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, self.kappa * np.pi)

    def f(self, eta):
        return pearle_f(eta, self.kappa)

    def radial_coordinate(self, eta):
        """Unit-ball radius r with cos(pi*r/2) = f(eta); rotation angle pi*r."""
        return (2.0 / np.pi) * np.arccos(np.clip(self.f(eta), -1.0, 1.0))

    @staticmethod
    def threshold_density(f):
        """Density of the threshold under uniform eta_z_so: (8/3)(1+f)^-3."""
        f = np.asarray(f, dtype=float)
        return (8.0 / 3.0) * (1.0 + f) ** -3


@dataclass(frozen=True)
class InitialState:
    """Admissible hidden state: measurement axis pair plus its threshold."""

    e_o: np.ndarray
    s_o: np.ndarray
    eta_z_so: float
    threshold: float


@dataclass(frozen=True)
class ProbabilityTable:
    """Empirical detection probabilities at one setting angle, as fractions
    of emitted pairs. Outcome 0 means the wing did not detect."""

    eta: float
    n: int
    p_pp: float
    p_mm: float
    p_pm: float
    p_mp: float
    p_single_plus_1: float
    p_single_minus_1: float
    p_single_plus_2: float
    p_single_minus_2: float
    p_00: float
    p_p0: float
    p_m0: float
    p_0p: float
    p_0m: float
    g: float

    def joint_sum(self) -> float:
        return self.p_pp + self.p_mm + self.p_pm + self.p_mp

    def zero_event_sum(self) -> float:
        return self.p_00 + self.p_p0 + self.p_m0 + self.p_0p + self.p_0m

    def to_dict(self) -> dict:
        return {"eta_deg": float(np.degrees(self.eta)),
                **{k: getattr(self, k) for k in TABLE_COLUMNS[1:]}}


# the artifact columns of a table: its fields in order, eta in degrees
TABLE_COLUMNS = ("eta_deg", *(f.name for f in fields(ProbabilityTable)[1:]))


@dataclass(frozen=True)
class PairRecord:
    state: InitialState
    A: int
    B: int


@dataclass(frozen=True)
class EnsembleRun:
    """Array view of one simulated setting pair: outcomes (0 = no detection)
    and counts.

    n_candidates counts the candidate states drawn: in s3 mode every draw up
    to and including the n-th admitted one, in the other modes n.
    n_detected_pairs, alias n_admitted, counts the pairs detected at both
    wings (n in s3 mode).
    """

    A: np.ndarray
    B: np.ndarray
    n_candidates: int

    @property
    def n_detected_pairs(self) -> int:
        return int(np.sum((self.A != 0) & (self.B != 0)))

    n_admitted = n_detected_pairs


def admissible(e_o, f, *settings) -> np.ndarray:
    """Membership condition of the pre-selected ensemble: |n.e_o| >= f for
    every realized setting n. At f = 1 the admissibility cone collapses to
    e_o exactly (anti)parallel to each setting."""
    e_o = np.asarray(e_o, dtype=float)
    f = np.asarray(f, dtype=float)
    ok = np.ones(np.broadcast_shapes(e_o.shape[:-1], f.shape), dtype=bool)
    for n_vec in settings:
        n_vec = _require_unit(n_vec, "setting", 3)
        ok &= np.abs(e_o @ n_vec) >= f
    return ok


def ensemble_sample(n: int, seed: int, *, a, b, kappa: int = 1,
                    max_batches: int = 1000) -> list[InitialState]:
    """Pre-selected ensemble of n admissible states for settings (a, b).

    Admission is checked against the run's realized measurement context;
    every admitted state yields a definite +/-1 outcome at both wings, so
    downstream detection never discards (one-to-one correspondence between
    admitted and detected states). These are the states of
    pair_records(a, b, n, seed, kappa).
    """
    return _admitted_states(a, b, n, seed, kappa, max_batches)[0]


def _pair_setup(a, b, n: int, rng_or_seed, mode: str):
    """Validated (a, b, rng) for one setting pair's run."""
    a = _require_unit(a, "a", 3)
    b = _require_unit(b, "b", 3)
    if n < 1:
        raise ValueError("ensemble size n must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; choose from {MODES}")
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    return a, b, philox(rng)


def _fill_draws(rng, key, start: int, z, phi, u=None):
    """Fill z ~ U(-1, 1), phi ~ U(0, pi) and, if given, u ~ U(0, 1) for the
    k = z.size candidates of a chunk, in place, and return their k coins
    (True for heads, lam = +1).

    The chunk's block is the Philox stream of key from counter start on
    (see rng.seek): CHUNK 32-bit draws for each of z, phi and u, each array
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
                seek(rng, key, start + i * _STEPS)
            words = rng.bit_generator.random_raw(-(-k // 2))
            m = words.astype("<u8", copy=False).view("<u4")[:k]
            m >>= 8
            x[...] = m.view("<i4")  # m < 2**24: exact in float32, so x * scale rounds once
            x *= scale
            at = start + (i + 1) * _STEPS if k == CHUNK else None
    if at != start + 3 * _STEPS:
        seek(rng, key, start + 3 * _STEPS)
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


def _decide(z, phi, u, heads, cos_ab: float, sin_ab: float, scratch):
    """int8 (A, B) of a chunk's candidates: the _outcomes of their _masks."""
    return _outcomes(*_masks(z, phi, u, heads, cos_ab, sin_ab, scratch))[1:]


def _mask_counts(plus_a, plus_b, det_a, det_b):
    """3x3 int64 table of _masks: entry [i, j] counts the candidates with A = i - 1
    and B = j - 1, by inclusion-exclusion over count_nonzero of the masks' ANDs."""
    count = np.count_nonzero
    pos_a, pos_b = plus_a & det_a, plus_b & det_b  # A = +1, B = +1
    k, n_a, n_b, both = plus_a.size, count(det_a), count(det_b), count(det_a & det_b)
    pp, pa, pb = count(pos_a & pos_b), count(pos_a & det_b), count(det_a & pos_b)
    p0, zp = count(pos_a) - pa, count(pos_b) - pb  # A = +1 with B undetected; mirrored
    return np.array([[both - pa - pb + pp, n_a - both - p0, pb - pp],
                     [n_b - both - zp, k - n_a - n_b + both, zp],
                     [pa - pp, p0, pp]], dtype=np.int64)


def _chunks(a, b, n: int, rng, mode: str, max_batches: int = 1000):
    """Yield (masks, k, draws) chunk by chunk for one setting pair: the
    _masks of the k candidates the chunk drew and its buffers draws =
    (z, phi, u), both valid until the next chunk.

    Chunk c reads its own Philox block: rng's key with its counter advanced
    by c * 2**64 (see _fill_draws), and rng is left at the first unused
    chunk. Every mode runs the same candidates through _masks. flat and
    pearle-reject stop at the n-th candidate; s3 stops at the n-th detected
    at both wings, its last chunk's masks cut just after it, and draws at
    most max_batches * max(1024, n) candidates in all.
    """
    cos_ab = float(np.clip(a @ b, -1.0, 1.0))
    sin_ab = float(np.sqrt(1.0 - cos_ab * cos_ab))
    key, base = position(rng)
    z, phi, u, *scratch = (np.empty(CHUNK, dtype=np.float32) for _ in range(7))
    budget = max_batches * max(1024, n) if mode == "s3" else n
    got = drawn = chunk = 0
    while got < n:
        k = min(CHUNK, budget - drawn)
        if k <= 0:
            raise RuntimeError(f"rejection sampling did not yield {n} admissible states "
                               f"within {max_batches} batches")
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
    seek(rng, key, base + (chunk << 64))


def _outcomes(plus_a, plus_b, det_a, det_b, mode: str | None = None):
    """(rows, A, B) of a chunk's _masks: the int8 outcomes, 0 at a wing that
    does not detect, of the pairs run_pair keeps: every candidate or, in s3
    mode, the rows detected at both wings."""
    rows = np.flatnonzero(det_a & det_b) if mode == "s3" else slice(None)
    A, B = ((2 * plus[rows].view(np.int8) - 1) * det[rows]
            for plus, det in ((plus_a, det_a), (plus_b, det_b)))
    return rows, A, B


def run_pair(a, b, n: int, rng_or_seed, mode: str = "s3", kappa: int = 1,
             max_batches: int = 1000) -> EnsembleRun:
    """Simulate one setting pair and return outcome arrays.

    s3: n admitted states, all detected (A, B in {-1, +1}).
    pearle-reject: n emitted states, per-wing rejection (0 = undetected).
    flat: n states, no threshold.
    rng_or_seed: an integer seed (root substream) or a Philox Generator
    (TypeError for another bit generator), left at its first unused chunk.

    Outcomes depend on a state only through (e.a, e.b, f) and the coin, so
    only those are drawn. kappa changes no outcome: it is validated and
    used nowhere else. Every mode draws in chunks of CHUNK (see _chunks);
    in s3 mode at most max_batches * max(1024, n) candidates in all.
    """
    _check_kappa(kappa)
    a, b, rng = _pair_setup(a, b, n, rng_or_seed, mode)
    A, B = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    got = n_candidates = 0
    for masks, k, _ in _chunks(a, b, n, rng, mode, max_batches):
        _, chunk_A, chunk_B = _outcomes(*masks, mode)
        A[got:got + chunk_A.size], B[got:got + chunk_A.size] = chunk_A, chunk_B
        got += chunk_A.size
        n_candidates += k
    return EnsembleRun(A=A, B=B, n_candidates=n_candidates)


def candidate_counts(a, b, n: int, rng_or_seed, mode: str = "s3") -> np.ndarray:
    """The count table, laid out as outcome_counts, of every candidate that
    run_pair(a, b, n, rng_or_seed, mode) draws, summed from the kernel's
    masks chunk by chunk. It sums to n_candidates, and in s3 mode equals
    pearle-reject's table at n = n_candidates on the same stream."""
    a, b, rng = _pair_setup(a, b, n, rng_or_seed, mode)
    return sum(_mask_counts(*masks) for masks, *_ in _chunks(a, b, n, rng, mode))


def outcome_counts(a, b, n: int, rng_or_seed, mode: str = "s3") -> np.ndarray:
    """The outcome-count table of run_pair(a, b, n, rng_or_seed, mode), for
    every kappa, in O(CHUNK) memory for any n: entry [i, j] counts the pairs
    with A = i - 1 and B = j - 1. Every estimate, table and fraction of a
    setting pair is a function of it. It is candidate_counts with s3's
    cells where a wing does not detect set to 0: s3 keeps its admitted pairs."""
    counts = candidate_counts(a, b, n, rng_or_seed, mode)
    if mode == "s3":
        counts[1, :] = counts[:, 1] = 0
    return counts


def _frame(a, b):
    """Unit (u1, u2) with u1 along b - (a.b)a and u2 = a x u1; when a is
    parallel to b, u1 is any unit vector orthogonal to a."""
    w = np.cross(a, b)  # along u2, |w| = sin(eta_ab)
    if np.linalg.norm(w) < 1e-12:  # no direction to trust: take any normal of a
        w = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
    u1 = np.cross(w, a)  # u1 = unit(w x a) is orthogonal to a even when w is not
    u1 /= np.linalg.norm(u1)
    return u1, np.cross(a, u1)


def _admitted_states(a, b, n: int, seed: int, kappa: int, max_batches: int = 1000):
    """(states, A, B) of the n admitted states of run_pair(a, b, n, seed, "s3").

    The kernel gives z = e.a, phi, u and the outcomes. e_o = z a +
    sqrt(1 - z^2)(cos(phi) u1 + sign sin(phi) u2) in _frame(a, b), so e_o.b
    is the kernel's projection; eta_z_so = u*kappa*pi, and the threshold is
    its float64 f, the one the kernel's decisions equal.
    substream(seed, 1) draws what no outcome depends on: s_o's azimuth, then
    the sign."""
    kappa = _check_kappa(kappa)
    a, b, rng = _pair_setup(a, b, n, seed, "s3")
    chunks = []
    for masks, _, (z, phi, u) in _chunks(a, b, n, rng, "s3", max_batches):
        rows, A, B = _outcomes(*masks, "s3")
        chunks.append((z[rows], phi[rows], u[rows], A, B))
    z, phi, u, A, B = (np.concatenate(c) for c in zip(*chunks))
    z, phi, u = (x.astype(np.float64) for x in (z, phi, u))
    f = _threshold(u, np.empty(n))
    extra = substream(seed, 1)
    az = extra.uniform(0.0, 2.0 * np.pi, size=n)
    sign = 2 * extra.integers(0, 2, size=n) - 1
    r = np.sqrt(1.0 - z * z)
    basis = np.array([a, *_frame(a, b)])
    e_o = np.stack([z, r * np.cos(phi), sign * r * np.sin(phi)], axis=-1) @ basis
    eta = u * (kappa * np.pi)
    # s_o at angle eta_z_so from z, folded into [0, pi]: sin of the fold is |sin(eta)|
    sin_polar = np.abs(np.sin(eta))
    s_o = np.stack([sin_polar * np.cos(az), sin_polar * np.sin(az), np.cos(eta)], axis=-1)
    states = [InitialState(e_o=e, s_o=s, eta_z_so=x, threshold=t)
              for e, s, x, t in zip(e_o, s_o, eta.tolist(), f.tolist())]
    return states, A, B


def pair_records(a, b, n: int, seed: int, kappa: int = 1) -> list[PairRecord]:
    """Admitted states with their outcomes, for the s3 ensemble. A and B
    are the outcomes of run_pair(a, b, n, seed, "s3", kappa)."""
    states, A, B = _admitted_states(a, b, n, seed, kappa)
    return [PairRecord(state=state, A=x, B=y)
            for state, x, y in zip(states, A.tolist(), B.tolist())]


def probabilities_from_outcomes(eta: float, A, B) -> ProbabilityTable:
    """Empirical probability table from outcome arrays (0 = no detection)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.size == 0 or A.shape != B.shape:
        raise ValueError("outcome arrays must be nonempty and congruent")
    if not (np.isin(A, (-1, 0, 1)).all() and np.isin(B, (-1, 0, 1)).all()):
        raise ValueError("outcomes must be -1, 0 or +1")
    return _table_from_counts(eta, _mask_counts(A > 0, B > 0, A != 0, B != 0))


def _table_from_counts(eta: float, counts) -> ProbabilityTable:
    """Probability table from an outcome-count table: every cell is its
    count over the number of emitted pairs."""
    (mm, m0, mp), (zm, z0, zp), (pm, p0, pp) = counts.tolist()
    n = mm + m0 + mp + zm + z0 + zp + pm + p0 + pp
    return ProbabilityTable(
        eta=float(eta), n=n,
        p_pp=pp / n, p_mm=mm / n, p_pm=pm / n, p_mp=mp / n,
        p_single_plus_1=(pm + p0 + pp) / n, p_single_minus_1=(mm + m0 + mp) / n,
        p_single_plus_2=(mp + zp + pp) / n, p_single_minus_2=(mm + zm + pm) / n,
        p_00=z0 / n, p_p0=p0 / n, p_m0=m0 / n, p_0p=zp / n, p_0m=zm / n,
        g=(pp + mm + pm + mp) / n,
    )


def probabilities(eta: float, records) -> ProbabilityTable:
    """Empirical probability table from a stream of records with A/B fields."""
    outcomes = np.array([(r.A, r.B) for r in records]).reshape(-1, 2)
    return probabilities_from_outcomes(eta, outcomes[:, 0], outcomes[:, 1])


def detection_fraction(eta: float, table: ProbabilityTable) -> float:
    """Detected-pair fraction g(eta) via the ratio estimator
    P12(+-)/(cos^2(eta/2)/2), cross-checked against P12(++)/(sin^2(eta/2)/2);
    the well-conditioned branch is used near the endpoints."""
    for g in detection_fraction_branches(eta, table):
        if not np.isnan(g):
            return g
    raise ValueError("both ratio-estimator branches are ill-conditioned")


def detection_fraction_branches(eta: float, table: ProbabilityTable):
    """(g from +- branch, g from ++ branch); nan where ill-conditioned."""
    denom_pm = 0.5 * np.cos(eta / 2.0) ** 2
    denom_pp = 0.5 * np.sin(eta / 2.0) ** 2
    g_pm = table.p_pm / denom_pm if denom_pm >= _DENOM_TOL else float("nan")
    g_pp = table.p_pp / denom_pp if denom_pp >= _DENOM_TOL else float("nan")
    return g_pm, g_pp


def correlation_from_probabilities(table: ProbabilityTable) -> float:
    """E = (P++ + P-- - P+- - P-+) / (P++ + P-- + P+- + P-+)."""
    total = table.joint_sum()
    if total <= 0.0:
        raise ValueError("no coincident detections in table")
    return (table.p_pp + table.p_mm - table.p_pm - table.p_mp) / total


def _analytic(eta: float, mode: str) -> float:
    """The analytic curve at eta: the saw-tooth for flat, -cos for the sphere modes."""
    return (-1.0 + 2.0 * eta / np.pi) if mode == "flat" else -np.cos(eta)


def estimate_pair(a, b, n: int, rng_or_seed, mode: str = "s3",
                  kappa: int = 1) -> CorrelationEstimate:
    """Monte Carlo correlation for one setting pair in the given mode.

    The estimate averages A*B over detected pairs; e_analytic is -cos for
    the sphere modes and the saw-tooth for flat. kappa is only validated.
    """
    _check_kappa(kappa)
    est = _pair_estimate(a, b, mode, outcome_counts(a, b, n, rng_or_seed, mode))
    if est.n == 0:
        raise ValueError("no coincident detections; increase n")
    return est


def _coincident(est, index: int, eta_deg: float):
    """est, the CurvePoint or CorrelationEstimate of setting pair index, if
    the pair had coincident detections; NumericError if not."""
    if est.n == 0:
        raise NumericError(f"no coincident detections in setting pair {index} "
                           f"(eta = {eta_deg:g} deg); increase n")
    return est


def _pair_estimate(a, b, mode: str, counts) -> CorrelationEstimate:
    """The correlation estimate of the count table of setting pair (a, b);
    e_hat is nan when no pair was detected."""
    return _estimate(counts, _analytic(_angle(a, b), mode))


def correlation_curve(mode: str, grid_deg, n_per_angle: int, seed: int,
                      kappa: int = 1) -> CorrelationCurve:
    """Correlation sweep over planar settings separated by the grid angles.

    Point i uses the (seed, i) substream, so the curve is reproducible for
    any parallel execution of its points. kappa only enters the meta. A
    point with no coincident detections is a NumericError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; choose from {MODES}")
    kappa = _check_kappa(kappa)
    grid_deg = np.asarray(grid_deg, dtype=float)
    points = [_coincident(curve_point(mode, float(deg), n_per_angle, seed, i), i, deg)
              for i, deg in enumerate(grid_deg)]
    meta = {"model": mode, "n": str(n_per_angle), "seed": str(seed),
            "grid": format_grid(grid_deg), "kappa": str(kappa),
            "sampler": str(SAMPLER_VERSION)}
    return CorrelationCurve(points=tuple(points), meta=meta)


def curve_point(mode: str, deg: float, n: int, seed: int, index: int) -> CurvePoint:
    """One grid point of a correlation sweep, on the (seed, index) substream;
    e_hat is nan when no pair was detected."""
    counts = outcome_counts(planar(0.0), planar(deg), n, substream(seed, index), mode)
    return _point_from_counts(mode, deg, counts)


def _point_from_counts(mode: str, deg: float, counts) -> CurvePoint:
    """The curve point at deg of a count table. g is the detected fraction
    of the table's pairs: the emitted pairs (s3: the admitted ones)."""
    est = _estimate(counts, _analytic(np.radians(deg), mode))
    return CurvePoint(eta_deg=float(deg), e_hat=est.e_hat, e_analytic=est.e_analytic,
                      stderr=est.stderr, g=est.n / int(counts.sum()), n=est.n)


def flat_mode_curve(n_per_angle: int, grid_deg, seed: int) -> CorrelationCurve:
    """Saw-tooth baseline sweep: f == 0, sign outcomes in flat space."""
    return correlation_curve("flat", grid_deg, n_per_angle, seed)
