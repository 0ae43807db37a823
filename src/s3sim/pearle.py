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
from .rng import jumped, philox, substream
from .singlet import CorrelationEstimate, _count, _estimate

MODES = ("s3", "pearle-reject", "flat")

# candidates per s3 draw: small enough that a chunk's arrays stay in cache
CHUNK = 1 << 14

# half-width of the band around a sign or cut decision in which e.b is
# redone with the float64 cos (see _screened_eb)
_SCREEN = 1e-6

_DENOM_TOL = 1e-12


def _check_kappa(kappa: int) -> int:
    if not isinstance(kappa, (int, np.integer)) or kappa < 1:
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

    def f_complement(self, eta):
        return pearle_f_complement(eta, self.kappa)

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
    """Array view of one simulated setting pair: outcomes (0 = no detection),
    emitted/admitted counts, and the settings.

    n_candidates counts the candidate states drawn: in s3 mode every draw up
    to and including the n-th admitted one, in the other modes n.
    """

    a: np.ndarray
    b: np.ndarray
    A: np.ndarray
    B: np.ndarray
    n_emitted: int
    n_admitted: int
    mode: str
    kappa: int
    n_candidates: int

    @property
    def n_detected_pairs(self) -> int:
        return int(np.sum((self.A != 0) & (self.B != 0)))


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


def _pair_setup(a, b, n: int, rng_or_seed, mode: str, kappa: int):
    """Validated (a, b, kappa, rng) for one setting pair's run."""
    a = _require_unit(a, "a", 3)
    b = _require_unit(b, "b", 3)
    if n < 1:
        raise ValueError("ensemble size n must be >= 1")
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; choose from {MODES}")
    kappa = _check_kappa(kappa)
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    return a, b, kappa, philox(rng)


def _fill_draws(rng, z, phi, f=None) -> None:
    """Fill z ~ U(-1, 1), phi ~ U(0, pi) and, if given, the thresholds f, in
    that order and in place, from rng.random's doubles r. rng is one
    Generator or a tuple of one per array, each drawing its array's doubles.

    z = 2r - 1 and phi = pi*r are the IEEE operations of Generator.uniform
    (low + (high - low)*r), so they equal uniform(-1, 1) and uniform(0, pi)
    bit for bit. f = pearle_f(eta_z_so, kappa) for eta_z_so uniform on
    [0, kappa*pi]: u = eta_z_so/(kappa*pi) ~ U(0, 1) for every kappa, and
    f = -1 + 2/sqrt(1 + 3u).
    """
    rng_z, rng_phi, rng_f = rng if isinstance(rng, tuple) else (rng, rng, rng)
    rng_z.random(out=z)
    z *= 2.0
    z -= 1.0
    rng_phi.random(out=phi)
    phi *= np.pi
    if f is not None:
        rng_f.random(out=f)
        f *= 3.0
        f += 1.0
        np.sqrt(f, out=f)
        np.divide(2.0, f, out=f)
        f -= 1.0


def _project_b(z, cos_phi, cos_ab: float, sin_ab: float, tmp):
    """e.b for directions with e.a = z and azimuth phi, in place in cos_phi.

    With a at the pole, e.a = z ~ U(-1, 1) (Archimedes' theorem) and
    e.b = z*cos(eta_ab) + sqrt(1 - z^2)*sin(eta_ab)*cos(phi); the azimuth
    enters only through cos(phi), so phi ~ U(0, pi) suffices. tmp is
    scratch of the same size.
    """
    cos_phi *= sin_ab
    np.multiply(z, z, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.sqrt(tmp, out=tmp)
    cos_phi *= tmp
    np.multiply(z, cos_ab, out=tmp)
    cos_phi += tmp
    return cos_phi


def _outcomes(rng, a_up, b_up):
    """int8 (A, B) from the signs of e.a and e.b (True where >= 0) and one
    fair coin lam = +/-1 per state: A = lam*sign(e.a), B = -lam*sign(e.b),
    with sign(0) := +1 (a measure-zero tie-break)."""
    heads = rng.integers(0, 2, size=a_up.size).astype(bool)  # lam = +1
    A = np.equal(heads, a_up).view(np.int8)
    B = np.not_equal(heads, b_up).view(np.int8)
    for x in (A, B):  # {0, 1} -> {-1, +1}
        x += x
        x -= 1
    return A, B


def _screened_eb(z, phi, f, cos_ab: float, sin_ab: float, eb, tmp):
    """e.b of _project_b into eb, from a float32 cos of phi, redone with the
    float64 cos where a decision is within _SCREEN: the sign, |e.b| < _SCREEN,
    and, given thresholds f, the cut, ||e.b| - f| < _SCREEN.

    float32(phi) and its float32 cos are within about 1.5e-7 of cos(phi) on
    [0, pi), and e.b moves by that times |sin(eta_ab) sqrt(1 - z^2)| <= 1,
    so every sign and cut equals the one of the float64 e.b."""
    np.cos(phi, out=eb, dtype=np.float32)
    _project_b(z, eb, cos_ab, sin_ab, tmp)
    near = np.abs(eb, out=tmp) < _SCREEN
    if f is not None:
        tmp -= f
        near |= np.abs(tmp, out=tmp) < _SCREEN
    redo = np.flatnonzero(near)
    if redo.size:
        eb[redo] = _project_b(z[redo], np.cos(phi[redo]), cos_ab, sin_ab, np.empty(redo.size))
    return eb


def _one_draw(rng, n: int, cos_ab: float, sin_ab: float, mode: str):
    """Yield int8 (A, B) per chunk of CHUNK of the n emitted states in the
    flat or pearle-reject mode, on the stream of one draw of n: z of all n,
    then phi, then (pearle-reject) f, then n coins.

    Philox is counter-based, so each block of that stream is entered by a
    jump (rng.jumped) and read chunk by chunk: z from rng itself, phi n
    doubles on, f 2n doubles on, and the coins from the 32-bit draws after
    the last block. At the end rng is in the state the one draw leaves.
    With n <= CHUNK the one chunk draws in that order without a jump.
    """
    z, phi, eb, tmp = (np.empty(min(n, CHUNK)) for _ in range(4))
    f = None if mode == "flat" else np.empty(min(n, CHUNK))
    draws = coins = rng
    if n > CHUNK:
        draws = (rng, jumped(rng, n), None if f is None else jumped(rng, 2 * n))
        coins = jumped(rng, (2 if f is None else 3) * n)
    for lo in range(0, n, CHUNK):
        k = min(CHUNK, n - lo)
        z_c, f_c = z[:k], None if f is None else f[:k]
        _fill_draws(draws, z_c, phi[:k], f_c)
        e = _screened_eb(z_c, phi[:k], f_c, cos_ab, sin_ab, eb[:k], tmp[:k])
        A, B = _outcomes(coins, z_c >= 0.0, e >= 0.0)
        if f is not None:  # a wing detects where |e.n| >= f
            A *= (np.abs(z_c, out=tmp[:k]) >= f_c).view(np.int8)
            B *= (np.abs(e, out=tmp[:k]) >= f_c).view(np.int8)
        yield A, B
    if coins is not rng:
        rng.bit_generator.state = coins.bit_generator.state


def _s3_chunks(rng, n: int, cos_ab: float, sin_ab: float, max_batches: int):
    """Yield int8 (A, B, candidates, draws) per chunk of CHUNK candidates
    until n are admitted; every admitted state is detected at both wings.

    The a-wing cut |e.a| >= f runs first, and cos(phi) and e.b are computed
    only for the candidates that pass it. The draws fill buffers reused
    from chunk to chunk. draws = (z, phi, f, idx, keep) holds those buffers
    themselves, not copies, so it is valid only until the next chunk: the
    chunk's admitted states sit at positions idx[keep], in outcome order.
    """
    z, phi, f, tmp, z_a, f_a, phi_a, eb = (np.empty(CHUNK) for _ in range(8))
    got = drawn = 0
    budget = max_batches * max(1024, n)
    while got < n:
        size = min(CHUNK, budget - drawn)
        if size <= 0:
            raise RuntimeError(f"rejection sampling did not yield {n} admissible states "
                               f"within {max_batches} batches")
        _fill_draws(rng, z[:size], phi[:size], f[:size])
        idx = np.flatnonzero(np.abs(z[:size], out=tmp[:size]) >= f[:size])
        k = idx.size
        # idx is in range; mode="clip" lets take write to out without a buffer
        np.take(z, idx, out=z_a[:k], mode="clip")
        np.take(f, idx, out=f_a[:k], mode="clip")
        np.take(phi, idx, out=phi_a[:k], mode="clip")
        _screened_eb(z_a[:k], phi_a[:k], f_a[:k], cos_ab, sin_ab, eb[:k], tmp[:k])
        keep = np.flatnonzero(np.abs(eb[:k], out=tmp[:k]) >= f_a[:k])[:n - got]
        A, B = _outcomes(rng, z_a[keep] >= 0.0, eb[keep] >= 0.0)
        got += keep.size
        drawn += size
        yield A, B, size if got < n else int(idx[keep[-1]]) + 1, (z, phi, f, idx, keep)


def _outcome_chunks(a, b, n: int, rng, mode: str, max_batches: int = 1000):
    """Yield int8 (A, B, candidates, draws) chunk by chunk for one setting pair.

    s3 draws chunks of CHUNK candidates until n are admitted; candidates
    counts the draws a chunk used, up to its last admitted state in the
    final chunk, and draws exposes the chunk's admitted states (see
    _s3_chunks). flat and pearle-reject emit chunks of CHUNK states on the
    stream of one draw of n (see _one_draw), with candidates the chunk's
    size and draws None.
    """
    cos_ab = float(np.clip(a @ b, -1.0, 1.0))
    sin_ab = float(np.sqrt(1.0 - cos_ab * cos_ab))
    if mode == "s3":
        yield from _s3_chunks(rng, n, cos_ab, sin_ab, max_batches)
    else:
        for A, B in _one_draw(rng, n, cos_ab, sin_ab, mode):
            yield A, B, A.size, None


def run_pair(a, b, n: int, rng_or_seed, mode: str = "s3", kappa: int = 1,
             max_batches: int = 1000) -> EnsembleRun:
    """Simulate one setting pair and return outcome arrays.

    s3: n admitted states, all detected (A, B in {-1, +1}).
    pearle-reject: n emitted states, per-wing rejection (0 = undetected).
    flat: n states, no threshold.
    rng_or_seed: an integer seed (root substream) or a Philox Generator
    (TypeError for another bit generator), left in the state the draws
    reach.

    Outcomes depend on a state only through (e.a, e.b, f) and the coin, so
    only those are drawn; kappa changes no outcome. Every mode draws in
    chunks of CHUNK; in s3 mode at most max_batches * max(1024, n)
    candidates in all.
    """
    a, b, kappa, rng = _pair_setup(a, b, n, rng_or_seed, mode, kappa)
    A, B = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    got = n_admitted = n_candidates = 0
    for chunk_A, chunk_B, used, _ in _outcome_chunks(a, b, n, rng, mode, max_batches):
        A[got:got + chunk_A.size] = chunk_A
        B[got:got + chunk_B.size] = chunk_B
        got += chunk_A.size
        n_admitted += int(np.count_nonzero((chunk_A != 0) & (chunk_B != 0)))
        n_candidates += used
    return EnsembleRun(a=a, b=b, A=A, B=B, n_emitted=n, n_admitted=n_admitted, mode=mode,
                       kappa=kappa, n_candidates=n_candidates)


def outcome_counts(a, b, n: int, rng_or_seed, mode: str = "s3",
                   kappa: int = 1) -> np.ndarray:
    """The outcome-count table of run_pair(a, b, n, rng_or_seed, mode, kappa),
    summed chunk by chunk, so it holds O(CHUNK) memory for any n.

    Entry [i, j] counts the pairs with A = i - 1 and B = j - 1, over
    (A, B) in {-1, 0, +1}^2. Every estimate, table and fraction of a
    setting pair is a function of this table.
    """
    a, b, kappa, rng = _pair_setup(a, b, n, rng_or_seed, mode, kappa)
    counts = np.zeros((3, 3), dtype=np.int64)
    for A, B, _, _ in _outcome_chunks(a, b, n, rng, mode):
        counts += _count(A, B)
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

    The kernel gives z = e.a, phi, f and the outcomes. e_o = z a +
    sqrt(1 - z^2)(cos(phi) u1 + sign sin(phi) u2) in _frame(a, b), so e_o.b
    is the kernel's projection, and eta_z_so inverts pearle_f.
    substream(seed, 1) draws what no outcome depends on: s_o's azimuth, then
    the sign."""
    a, b, kappa, rng = _pair_setup(a, b, n, seed, "s3", kappa)
    chunks = []
    for A, B, _, (z, phi, f, idx, keep) in _outcome_chunks(a, b, n, rng, "s3", max_batches):
        rows = idx[keep]
        chunks.append((z[rows], phi[rows], f[rows], A, B))
    z, phi, f, A, B = (np.concatenate(c) for c in zip(*chunks))
    extra = substream(seed, 1)
    az = extra.uniform(0.0, 2.0 * np.pi, size=n)
    sign = 2 * extra.integers(0, 2, size=n) - 1
    r = np.sqrt(1.0 - z * z)
    basis = np.array([a, *_frame(a, b)])
    e_o = np.stack([z, r * np.cos(phi), sign * r * np.sin(phi)], axis=-1) @ basis
    eta = np.clip(kappa * np.pi * ((2.0 / (1.0 + f)) ** 2 - 1.0) / 3.0, 0.0, kappa * np.pi)
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
    A, B = (x.ravel().astype(np.int64, copy=False) for x in (A, B))
    return _table_from_counts(eta, _count(A, B))


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
    the sphere modes and the saw-tooth for flat.
    """
    est = _pair_estimate(a, b, n, rng_or_seed, mode, kappa)
    if est.n == 0:
        raise ValueError("no coincident detections; increase n")
    return est


def _pair_estimate(a, b, n: int, rng_or_seed, mode: str, kappa: int) -> CorrelationEstimate:
    """estimate_pair without its check: e_hat is nan when no pair was detected."""
    counts = outcome_counts(a, b, n, rng_or_seed, mode, kappa)
    return _estimate(counts, _analytic(_angle(a, b), mode))


def correlation_curve(mode: str, grid_deg, n_per_angle: int, seed: int,
                      kappa: int = 1, meta: dict | None = None) -> CorrelationCurve:
    """Correlation sweep over planar settings separated by the grid angles.

    Point i uses the (seed, i) substream, so the curve is reproducible for
    any parallel execution of its points.
    """
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; choose from {MODES}")
    grid_deg = np.asarray(grid_deg, dtype=float)
    points = [curve_point(mode, float(deg), n_per_angle, seed, i, kappa)
              for i, deg in enumerate(grid_deg)]
    base = {"model": mode, "n": str(n_per_angle), "seed": str(seed),
            "grid": format_grid(grid_deg), "kappa": str(kappa)}
    base.update(meta or {})
    return CorrelationCurve(points=tuple(points), meta=base)


def curve_point(mode: str, deg: float, n: int, seed: int, index: int,
                kappa: int = 1) -> CurvePoint:
    """One grid point of a correlation sweep, on the (seed, index) substream.

    g is the detected fraction of the emitted (s3: admitted) pairs.
    """
    counts = outcome_counts(planar(0.0), planar(deg), n,
                            substream(seed, index), mode, kappa)
    est = _estimate(counts, _analytic(np.radians(deg), mode))
    return CurvePoint(eta_deg=float(deg), e_hat=est.e_hat, e_analytic=est.e_analytic,
                      stderr=est.stderr, g=est.n / n, n=est.n)


def flat_mode_curve(n_per_angle: int, grid_deg, seed: int) -> CorrelationCurve:
    """Saw-tooth baseline sweep: f == 0, sign outcomes in flat space."""
    return correlation_curve("flat", grid_deg, n_per_angle, seed)
