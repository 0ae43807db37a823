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

from .algebra import (_angle, _require_choice, _require_in, _require_int, _require_unit,
                      _require_values, planar)
from .curves import CorrelationCurve, CurvePoint, format_grid, parse_grid
from .kernel import (MODES, SAMPLER_VERSION, _candidate_tables, _chunks, _kept, _outcomes,
                     _pair_setup, _setting, _threshold)
from .rng import substream
from .singlet import CorrelationEstimate, _count, _estimate

_DENOM_TOL = 1e-12


class NumericError(RuntimeError):
    """A reported quantity is undefined: a correlation with no coincidences."""


def _scaled_eta(eta, kappa: int):
    """3*eta/(kappa*pi) for eta in the mapping domain [0, kappa*pi]."""
    kappa = _require_int(kappa, "kappa", 1)
    eta = _require_in(eta, "eta", -1e-12, kappa * np.pi + 1e-12)
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
        _require_int(self.kappa, "kappa", 1)

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
        f = _require_in(f, "f", 0.0, 1.0)
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
    n_detected_pairs counts the pairs detected at both wings (n in s3
    mode).
    """

    A: np.ndarray
    B: np.ndarray
    n_candidates: int

    @property
    def n_detected_pairs(self) -> int:
        return int(np.sum((self.A != 0) & (self.B != 0)))


def admissible(e_o, f, *settings) -> np.ndarray:
    """Membership condition of the pre-selected ensemble: |n.e_o| >= f for
    every realized setting n. At f = 1 the admissibility cone collapses to
    e_o exactly (anti)parallel to each setting."""
    e_o = np.asarray(e_o, dtype=float)
    f = _require_in(f, "f", 0.0, 1.0)
    ok = np.ones(np.broadcast_shapes(e_o.shape[:-1], f.shape), dtype=bool)
    for n_vec in settings:
        n_vec = _require_unit(n_vec, "setting", 3)
        ok &= np.abs(e_o @ n_vec) >= f
    return ok


def ensemble_sample(n: int, seed: int, *, a, b, kappa: int = 1) -> list[InitialState]:
    """Pre-selected ensemble of n admissible states for settings (a, b).

    Admission is checked against the run's realized measurement context;
    every admitted state yields a definite +/-1 outcome at both wings, so
    downstream detection never discards (one-to-one correspondence between
    admitted and detected states). These are the states of
    pair_records(a, b, n, seed, kappa).
    """
    return _admitted_states(a, b, n, seed, kappa)[0]


def run_pair(a, b, n: int, rng_or_seed, mode: str = "s3") -> EnsembleRun:
    """Simulate one setting pair and return outcome arrays.

    s3: n admitted states, all detected (A, B in {-1, +1}).
    pearle-reject: n emitted states, per-wing rejection (0 = undetected).
    flat: n states, no threshold.
    rng_or_seed: an integer seed (root substream) or a Philox Generator
    (TypeError for another bit generator), left at its first unused chunk.

    Outcomes depend on a state only through (e.a, e.b, f) and the coin, so
    only those are drawn. Every mode draws in chunks of CHUNK (see _chunks);
    in s3 mode at most _MAX_BATCHES * max(1024, n) candidates in all.
    """
    settings = (_pair_setting(a, b),)
    rng = _pair_setup(n, rng_or_seed, mode)
    A, B = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    got = n_candidates = 0
    for _, masks, _, _ in _chunks(settings, n, rng, mode):
        _, chunk_A, chunk_B = _outcomes(*masks, mode)
        A[got:got + chunk_A.size], B[got:got + chunk_A.size] = chunk_A, chunk_B
        got += chunk_A.size
        n_candidates += masks[0].size
    return EnsembleRun(A=A, B=B, n_candidates=n_candidates)


def _pair_setting(a, b) -> tuple[float, float]:
    """The kernel's _setting of the unit settings a and b: their angle."""
    return _setting(_require_unit(a, "a", 3) @ _require_unit(b, "b", 3))


def candidate_counts(a, b, n: int, rng_or_seed, mode: str = "s3") -> np.ndarray:
    """The count table, laid out as outcome_counts, of every candidate that
    run_pair(a, b, n, rng_or_seed, mode) draws, built from the kernel's
    counts of its masks, summed chunk by chunk. It sums to n_candidates,
    and in s3 mode equals pearle-reject's table at n = n_candidates on
    the same stream."""
    return _candidate_tables((_pair_setting(a, b),), n, rng_or_seed, mode)[0]


def outcome_counts(a, b, n: int, rng_or_seed, mode: str = "s3") -> np.ndarray:
    """The outcome-count table of run_pair(a, b, n, rng_or_seed, mode), for
    every kappa, in O(CHUNK) memory for any n: entry [i, j] counts the pairs
    with A = i - 1 and B = j - 1. Every estimate, table and fraction of a
    setting pair is a function of it, the kernel's _kept candidate_counts."""
    return _kept(candidate_counts(a, b, n, rng_or_seed, mode), mode)


def _frame(a, b):
    """Unit (u1, u2) with u1 along b - (a.b)a and u2 = a x u1; when a is
    parallel to b, u1 is any unit vector orthogonal to a."""
    w = np.cross(a, b)  # along u2, |w| = sin(eta_ab)
    if np.linalg.norm(w) < 1e-12:  # no direction to trust: take any normal of a
        w = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
    u1 = np.cross(w, a)  # u1 = unit(w x a) is orthogonal to a even when w is not
    u1 /= np.linalg.norm(u1)
    return u1, np.cross(a, u1)


def _admitted_states(a, b, n: int, seed: int, kappa: int):
    """(states, A, B) of the n admitted states of run_pair(a, b, n, seed, "s3").

    The kernel gives z = e.a, phi, u and the outcomes. e_o = z a +
    sqrt(1 - z^2)(cos(phi) u1 + sign sin(phi) u2) in _frame(a, b), so e_o.b
    is the kernel's projection; eta_z_so = u*kappa*pi, and the threshold is
    its float64 f, the one the kernel's decisions equal.
    substream(seed, 1) draws what no outcome depends on: s_o's azimuth, then
    the sign."""
    kappa = _require_int(kappa, "kappa", 1)
    a, b = _require_unit(a, "a", 3), _require_unit(b, "b", 3)
    rng = _pair_setup(n, seed, "s3")
    chunks = []
    for _, masks, _, (z, phi, u) in _chunks((_pair_setting(a, b),), n, rng, "s3"):
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
    are the outcomes of run_pair(a, b, n, seed, "s3") for every kappa."""
    states, A, B = _admitted_states(a, b, n, seed, kappa)
    return [PairRecord(state=state, A=x, B=y)
            for state, x, y in zip(states, A.tolist(), B.tolist())]


def probabilities_from_outcomes(eta: float, A, B) -> ProbabilityTable:
    """Empirical probability table from outcome arrays (0 = no detection)."""
    _require_in(eta, "eta", 0.0, np.pi)
    A, B = (_require_values(x, "outcomes", (-1, 0, 1)) for x in (A, B))
    if A.ndim == 0 or A.size == 0 or A.shape != B.shape:
        raise ValueError("outcome arrays must be nonempty and congruent")
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
    the well-conditioned branch is used near the endpoints: for eta in
    [0, pi] at least one of the two is."""
    g_pm, g_pp = detection_fraction_branches(eta, table)
    return g_pp if np.isnan(g_pm) else g_pm


def detection_fraction_branches(eta: float, table: ProbabilityTable):
    """(g from +- branch, g from ++ branch); nan where ill-conditioned."""
    _require_in(eta, "eta", 0.0, np.pi)
    denom_pm = 0.5 * np.cos(eta / 2.0) ** 2
    denom_pp = 0.5 * np.sin(eta / 2.0) ** 2
    g_pm = table.p_pm / denom_pm if denom_pm >= _DENOM_TOL else float("nan")
    g_pp = table.p_pp / denom_pp if denom_pp >= _DENOM_TOL else float("nan")
    return g_pm, g_pp


def correlation_from_probabilities(table: ProbabilityTable) -> float:
    """E = (P++ + P-- - P+- - P-+) / (P++ + P-- + P+- + P-+); NumericError
    if the table has no coincident detections."""
    total = table.joint_sum()
    _coincident(total, np.degrees(table.eta))
    return (table.p_pp + table.p_mm - table.p_pm - table.p_mp) / total


def _analytic(eta: float, mode: str) -> float:
    """The analytic curve at eta: the saw-tooth for flat, -cos for the sphere modes."""
    return (-1.0 + 2.0 * eta / np.pi) if mode == "flat" else -np.cos(eta)


def estimate_pair(a, b, n: int, rng_or_seed, mode: str = "s3") -> CorrelationEstimate:
    """Monte Carlo correlation for one setting pair in the given mode.

    The estimate averages A*B over detected pairs; e_analytic is -cos for
    the sphere modes and the saw-tooth for flat. A pair with no coincident
    detections is a NumericError.
    """
    return _pair_estimate(a, b, mode, candidate_counts(a, b, n, rng_or_seed, mode))


def _coincident(n, eta_deg: float, index: int | None = None) -> None:
    """NumericError if the setting pair at eta_deg, pair index of a run if
    given, had no coincident detections: n, their count or share, is 0."""
    if not n > 0:
        pair = "the setting pair" if index is None else f"setting pair {index}"
        raise NumericError(f"no coincident detections in {pair} "
                           f"(eta = {eta_deg:g} deg); increase n")


def _pair_estimate(a, b, mode: str, counts, index: int | None = None) -> CorrelationEstimate:
    """The correlation estimate of setting pair (a, b)'s candidate table,
    pair index of a run if given; NumericError if no pair was detected."""
    eta = _angle(a, b)
    est = _estimate(counts, _analytic(eta, mode))
    _coincident(est.n, np.degrees(eta), index)
    return est


def _grid_settings(grid_deg):
    """(grid, settings) of a grid of setting angles in degrees: the grid
    read by parse_grid, a tuple as its points, and the kernel _setting of
    each angle, whose cosine is planar(0) @ planar(deg) bit for bit."""
    grid = parse_grid(list(grid_deg) if isinstance(grid_deg, tuple) else grid_deg)
    return grid, [_setting(np.cos(np.radians(deg))) for deg in grid]


def _curve(mode: str, grid, tables, meta: dict) -> CorrelationCurve:
    """The curve of the candidate table of each grid angle; NumericError naming
    the first point with no coincident detections."""
    points = [_point_from_counts(mode, float(deg), counts) for deg, counts in zip(grid, tables)]
    for i, point in enumerate(points):
        _coincident(point.n, point.eta_deg, i)
    return CorrelationCurve(points=tuple(points), meta=meta)


def correlation_curve(mode: str, grid_deg, n_per_angle: int, seed: int,
                      kappa: int = 1) -> CorrelationCurve:
    """Correlation sweep over planar settings separated by the angles of
    grid_deg, read by parse_grid with a tuple as its points.

    Every point reads substream (seed, 0), in one pass over its chunks:
    point i is curve_point(mode, grid[i], n_per_angle, seed, 0). The points
    share candidates, so they are positively correlated, and the curve is
    the same for any split of the grid over processes. kappa only enters
    the meta; a point with no coincident detections is a NumericError."""
    _require_choice(mode, "mode", MODES)
    kappa = _require_int(kappa, "kappa", 1)
    grid, settings = _grid_settings(grid_deg)
    tables = _candidate_tables(settings, n_per_angle, substream(seed, 0), mode)
    meta = {"model": mode, "n": str(n_per_angle), "seed": str(seed), "grid": format_grid(grid),
            "kappa": str(kappa), "sampler": str(SAMPLER_VERSION)}
    return _curve(mode, grid, tables, meta)


def curve_point(mode: str, deg: float, n: int, seed: int, index: int) -> CurvePoint:
    """One grid point of a correlation sweep, on the (seed, index) substream;
    e_hat is nan when no pair was detected. A grid reads index 0 at every
    point, so its point at deg is curve_point(mode, deg, n, seed, 0)."""
    _require_in(deg, "deg", 0.0, 180.0)
    counts = candidate_counts(planar(0.0), planar(deg), n, substream(seed, index), mode)
    return _point_from_counts(mode, deg, counts)


def _point_from_counts(mode: str, deg: float, counts) -> CurvePoint:
    """The curve point at deg of a candidate table. g is the detected
    fraction of its _kept pairs: the emitted pairs (s3: the admitted ones)."""
    est = _estimate(counts, _analytic(np.radians(deg), mode))
    return CurvePoint(eta_deg=float(deg), e_hat=est.e_hat, e_analytic=est.e_analytic,
                      stderr=est.stderr, g=est.n / int(_kept(counts, mode).sum()), n=est.n)


def flat_mode_curve(n_per_angle: int, grid_deg, seed: int) -> CorrelationCurve:
    """Saw-tooth baseline sweep: f == 0, sign outcomes in flat space."""
    return correlation_curve("flat", grid_deg, n_per_angle, seed)
