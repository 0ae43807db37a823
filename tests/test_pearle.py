import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from s3sim import pearle
from s3sim.algebra import X_AXIS, Y_AXIS, Z_AXIS
from s3sim.experiments import _probability_task
from s3sim.pearle import (CHUNK, MODES, InitialState, PearleMapping, admissible,
                          correlation_from_probabilities, curve_point, detection_fraction,
                          detection_fraction_branches, ensemble_sample, estimate_pair,
                          flat_mode_curve, outcome_counts, pair_records, pearle_f,
                          pearle_f_complement, probabilities, probabilities_from_outcomes,
                          run_pair)
from s3sim.pearle import (_SCREEN, _fill_draws, _outcomes, _project_b, _screened_eb,
                          _table_from_counts)
from s3sim.rng import substream


def planar(deg):
    rad = np.radians(deg)
    return np.array([np.cos(rad), np.sin(rad), 0.0])


# ---------------------------------------------------------------------------
# the threshold mapping

def test_f_endpoint_values():
    assert pearle_f(0.0) == 1.0
    assert abs(pearle_f(np.pi)) < 1e-15
    assert abs(pearle_f(np.pi / 3.0) - (-1.0 + 2.0 / np.sqrt(2.0))) < 1e-15


def test_f_complement_endpoint_values():
    assert abs(pearle_f_complement(0.0)) < 1e-15
    assert pearle_f_complement(np.pi) == 1.0
    # branches agree at the midpoint: both equal -1 + 2/sqrt(2.5)
    mid = np.pi / 2.0
    assert abs(pearle_f(mid) - pearle_f_complement(mid)) < 1e-15
    assert abs(pearle_f(mid) - (-1.0 + 2.0 / np.sqrt(2.5))) < 1e-15


def test_branch_symmetry_on_grid():
    for kappa in (1, 2, 3):
        eta = np.linspace(0.0, kappa * np.pi, 1000)
        lhs = pearle_f_complement(eta, kappa)
        rhs = pearle_f(kappa * np.pi - eta, kappa)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_f_strictly_decreasing_with_unit_range():
    eta = np.linspace(0.0, np.pi, 2000)
    f = pearle_f(eta)
    assert np.all(np.diff(f) < 0)
    assert f[0] == 1.0 and np.all(f >= 0.0) and np.all(f <= 1.0)


def test_f_domain_errors():
    with pytest.raises(ValueError):
        pearle_f(-0.1)
    with pytest.raises(ValueError):
        pearle_f(np.pi + 0.1)
    with pytest.raises(ValueError):
        pearle_f(0.5, kappa=0)
    pearle_f(1.5 * np.pi, kappa=2)  # larger winding widens the domain


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, np.pi), st.integers(1, 4))
def test_branch_symmetry_property(frac, kappa):
    eta = frac * kappa
    assert abs(pearle_f_complement(eta, kappa) - pearle_f(kappa * np.pi - eta, kappa)) < 1e-12


def test_mapping_radial_coordinate():
    m = PearleMapping(kappa=1)
    assert m.domain == (0.0, np.pi)
    assert m.radial_coordinate(0.0) == 0.0
    assert abs(m.radial_coordinate(np.pi) - 1.0) < 1e-12
    # threshold density integrates to one
    total, _ = integrate.quad(m.threshold_density, 0.0, 1.0)
    assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# pre-selected ensembles

def test_ensemble_states_are_admissible_and_definite():
    a, b = planar(0.0), planar(60.0)
    states = ensemble_sample(5_000, seed=51, a=a, b=b)
    assert len(states) == 5_000
    for state in states[:200]:
        assert isinstance(state, InitialState)
        assert abs(np.dot(state.e_o, a)) >= state.threshold
        assert abs(np.dot(state.e_o, b)) >= state.threshold
        assert abs(np.linalg.norm(state.s_o) - 1.0) < 1e-12
        assert abs(state.threshold - pearle_f(state.eta_z_so)) < 1e-12


def test_admitted_equals_detected_count_identity():
    a, b = planar(0.0), planar(100.0)
    records = pair_records(a, b, 3_000, seed=52)
    outcomes = [(r.A, r.B) for r in records]
    assert len(records) == 3_000
    assert all(A in (-1, 1) and B in (-1, 1) for A, B in outcomes)  # no nulls
    table = probabilities(np.radians(100.0), records)
    assert table.g == 1.0
    assert table.zero_event_sum() == 0.0


def test_threshold_one_admits_only_aligned_states():
    # at eta_z_so = 0 the threshold is f = 1: the admissibility cone collapses
    e_exact = X_AXIS.copy()
    assert admissible(e_exact, 1.0, X_AXIS)[()]
    tilted = np.array([np.cos(0.01), np.sin(0.01), 0.0])
    assert not admissible(tilted, 1.0, X_AXIS)[()]
    assert admissible(-e_exact, 1.0, X_AXIS)[()]


def test_ensemble_sampler_cap():
    with pytest.raises(RuntimeError):
        # settings 90 degrees apart and threshold pinned near 1 by a tiny
        # batch budget: cannot fill the request
        ensemble_sample(10**6, seed=53, a=planar(0.0), b=planar(90.0), max_batches=1)


@pytest.mark.parametrize("deg", [0.0, 90.0, 180.0])
def test_pair_records_match_run_pair(deg):
    # the records come from run_pair's own kernel, across a chunk boundary
    a, b, n, eta = planar(0.0), planar(deg), CHUNK + 1, np.radians(deg)
    records = pair_records(a, b, n, seed=74)
    run = run_pair(a, b, n, 74, "s3")
    assert np.array_equal([r.A for r in records], run.A)
    assert np.array_equal([r.B for r in records], run.B)
    expected = _table_from_counts(eta, outcome_counts(a, b, n, 74, "s3"))
    assert probabilities(eta, records).to_dict() == expected.to_dict()


@pytest.mark.parametrize("deg", [0.0, 90.0, 180.0])
def test_rebuilt_states_are_admissible_unit_and_symmetric_about_a(deg):
    # 0 and 180 degrees have a parallel to b, where the frame picks any normal
    a, b, n = planar(0.0), planar(deg), 10_000
    for kappa in (1, 3):
        states = ensemble_sample(n, seed=75, a=a, b=b, kappa=kappa)
        e_o = np.array([s.e_o for s in states])
        s_o = np.array([s.s_o for s in states])
        eta = np.array([s.eta_z_so for s in states])
        f = np.array([s.threshold for s in states])
        assert admissible(e_o, f, a, b).all()
        assert np.max(np.abs(np.linalg.norm(e_o, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(s_o, axis=1) - 1.0)) < 1e-12
        assert np.all((eta >= 0.0) & (eta <= kappa * np.pi))
        assert np.max(np.abs(pearle_f(eta, kappa) - f)) < 1e-12
        # e_o's azimuth about a covers the whole circle: a missing sign
        # bit would leave e_o.u2 >= 0, and u2 is Y or Z for a = X
        for normal in (Y_AXIS, Z_AXIS):
            proj = e_o @ normal
            assert abs(proj.mean()) <= 4.0 * proj.std() / np.sqrt(n)


# ---------------------------------------------------------------------------
# probability tables

def test_table_normalization_is_exact():
    run = run_pair(planar(0.0), planar(70.0), 50_000, 54, mode="pearle-reject")
    table = probabilities_from_outcomes(np.radians(70.0), run.A, run.B)
    total = table.joint_sum() + table.zero_event_sum()
    assert abs(total - 1.0) < 1e-12
    # Pearle count identity: p_00 = 1 + g - (wing1 + wing2 detection fractions)
    d1 = table.p_single_plus_1 + table.p_single_minus_1
    d2 = table.p_single_plus_2 + table.p_single_minus_2
    assert abs(table.p_00 - (1.0 + table.g - d1 - d2)) < 1e-12


def test_s3_tables_match_quantum_cells():
    for deg in (0.0, 45.0, 90.0, 150.0):
        rad = np.radians(deg)
        run = run_pair(planar(0.0), planar(deg), 100_000, 55, mode="s3")
        t = probabilities_from_outcomes(rad, run.A, run.B)
        se = 3.0 / np.sqrt(t.n)  # conservative cell-level tolerance
        assert t.p_00 == 0.0 and t.p_p0 == 0.0 and t.p_m0 == 0.0
        assert t.p_0p == 0.0 and t.p_0m == 0.0
        assert abs(t.p_single_plus_1 - 0.5) < se
        assert abs(t.p_single_minus_2 - 0.5) < se
        assert abs(t.p_pm - 0.5 * np.cos(rad / 2.0) ** 2) < se
        assert abs(t.p_mp - 0.5 * np.cos(rad / 2.0) ** 2) < se
        assert abs(t.p_pp - 0.5 * np.sin(rad / 2.0) ** 2) < se
        assert abs(t.p_mm - 0.5 * np.sin(rad / 2.0) ** 2) < se


def test_table_at_zero_degrees():
    run = run_pair(planar(0.0), planar(0.0), 50_000, 56, mode="s3")
    t = probabilities_from_outcomes(0.0, run.A, run.B)
    assert t.p_pp == 0.0 and t.p_mm == 0.0
    assert abs(t.p_pm - 0.5) < 0.01 and abs(t.p_mp - 0.5) < 0.01


def test_empty_record_stream_rejected():
    with pytest.raises(ValueError):
        probabilities(0.3, [])


# ---------------------------------------------------------------------------
# detection fraction

def test_detection_fraction_is_one_in_s3_mode():
    for deg in range(10, 180, 10):
        rad = np.radians(deg)
        run = run_pair(planar(0.0), planar(deg), 100_000, 57, mode="s3")
        t = probabilities_from_outcomes(rad, run.A, run.B)
        g = detection_fraction(rad, t)
        stderr = np.sqrt(t.p_pm * (1 - t.p_pm) / t.n) / (0.5 * np.cos(rad / 2) ** 2)
        assert abs(g - 1.0) <= 4.0 * stderr
        g_pm, g_pp = detection_fraction_branches(rad, t)
        # the branches are two estimates, each with its own sampling error
        se_pp = np.sqrt(t.p_pp * (1 - t.p_pp) / t.n) / (0.5 * np.sin(rad / 2) ** 2)
        assert abs(g_pm - g_pp) < 4.0 * np.hypot(stderr, se_pp)


def test_detection_fraction_uses_well_conditioned_branch():
    run = run_pair(planar(0.0), planar(180.0), 50_000, 58, mode="s3")
    t = probabilities_from_outcomes(np.pi, run.A, run.B)
    g = detection_fraction(np.pi, t)  # cos branch is singular at pi
    assert abs(g - 1.0) < 0.05


def test_detection_fraction_is_the_first_conditioned_branch():
    t = probabilities_from_outcomes(np.pi / 2, [1, -1, 1, 0], [-1, 1, 1, -1])
    assert detection_fraction(0.0, t) == detection_fraction_branches(0.0, t)[0]
    assert detection_fraction(np.pi / 2, t) == detection_fraction_branches(np.pi / 2, t)[0]
    assert detection_fraction(np.pi, t) == detection_fraction_branches(np.pi, t)[1]
    with pytest.raises(ValueError, match="ill-conditioned"):
        detection_fraction(float("nan"), t)


def test_rejection_mode_loses_pairs():
    # quadrature oracle for the coincidence fraction of the rejection reading
    def p_v_ge(fv, u, eta):
        c, s = np.cos(eta), np.sin(eta)
        denom = np.sqrt(max(1.0 - u * u, 0.0)) * s
        if denom <= 0.0:
            return 1.0 if (u * c - fv) >= 0 else 0.0
        return np.arccos(np.clip((fv - u * c) / denom, -1.0, 1.0)) / np.pi

    def both_detected(f, eta):
        def per_u(u):
            return p_v_ge(f, u, eta) + p_v_ge(f, -u, eta)
        lo, _ = integrate.quad(per_u, f, 1.0, limit=200)
        hi, _ = integrate.quad(lambda u: per_u(-u), f, 1.0, limit=200)
        return 0.5 * (lo + hi)

    eta = np.pi / 2.0
    g_oracle, _ = integrate.quad(
        lambda f: (8.0 / 3.0) * (1.0 + f) ** -3 * both_detected(f, eta), 0.0, 1.0,
        limit=200)
    run = run_pair(planar(0.0), planar(90.0), 200_000, 59, mode="pearle-reject")
    t = probabilities_from_outcomes(eta, run.A, run.B)
    assert t.g < 1.0
    assert abs(t.g - g_oracle) < 4.0 * np.sqrt(g_oracle * (1 - g_oracle) / t.n)
    # lone singles exist: the detection loophole in the original reading
    assert t.p_p0 + t.p_m0 + t.p_0p + t.p_0m > 0.0
    # singles run at g(0)/2 = 1/3
    assert abs(t.p_single_plus_1 - 1.0 / 3.0) < 0.01


def test_rejection_mode_correlation_still_minus_cosine():
    est = estimate_pair(planar(0.0), planar(120.0), 200_000, 60, mode="pearle-reject")
    assert abs(est.e_hat - est.e_analytic) < 4.0 * est.stderr


# ---------------------------------------------------------------------------
# correlations

def test_correlation_from_probabilities_landmarks():
    run0 = run_pair(planar(0.0), planar(0.0), 30_000, 61, mode="s3")
    t0 = probabilities_from_outcomes(0.0, run0.A, run0.B)
    assert correlation_from_probabilities(t0) == -1.0

    run90 = run_pair(planar(0.0), planar(90.0), 100_000, 62, mode="s3")
    t90 = probabilities_from_outcomes(np.pi / 2, run90.A, run90.B)
    assert abs(correlation_from_probabilities(t90)) < 3.0 / np.sqrt(t90.n)

    run120 = run_pair(planar(0.0), planar(120.0), 1_000_000, 63, mode="s3")
    t120 = probabilities_from_outcomes(2 * np.pi / 3, run120.A, run120.B)
    assert abs(correlation_from_probabilities(t120) - 0.5) < 3.0 / np.sqrt(t120.n)


def test_s3_estimates_match_minus_cosine_on_grid():
    for i, deg in enumerate(range(0, 181, 15)):
        est = estimate_pair(planar(0.0), planar(deg), 100_000, substream(64, i), mode="s3")
        tol = 4.0 * est.stderr if est.stderr > 0 else 1e-12
        assert abs(est.e_hat - (-np.cos(np.radians(deg)))) <= tol


def test_higher_winding_reparameterizes_the_same_threshold_law():
    # kappa rescales the state angle but leaves the threshold distribution,
    # and with it the correlation, unchanged
    for i, deg in enumerate((45.0, 120.0)):
        est = estimate_pair(planar(0.0), planar(deg), 100_000, substream(67, i),
                            mode="s3", kappa=2)
        assert abs(est.e_hat - (-np.cos(np.radians(deg)))) <= 4.0 * est.stderr
    states = ensemble_sample(500, seed=68, a=planar(0.0), b=planar(45.0), kappa=3)
    assert all(0.0 <= s.eta_z_so <= 3 * np.pi for s in states)


def test_flat_mode_is_sawtooth():
    curve = flat_mode_curve(100_000, list(range(0, 181, 15)), seed=65)
    for p in curve.points:
        expected = -1.0 + 2.0 * np.radians(p.eta_deg) / np.pi
        tol = 4.0 * p.stderr if p.stderr > 0 else 1e-12
        assert abs(p.e_hat - expected) <= tol
        assert p.g == 1.0


def test_flat_mode_landmarks():
    curve = flat_mode_curve(200_000, [0.0, 45.0, 90.0], seed=66)
    by_deg = {p.eta_deg: p for p in curve.points}
    assert by_deg[0.0].e_hat == -1.0
    assert abs(by_deg[45.0].e_hat - (-0.5)) <= 4.0 * by_deg[45.0].stderr
    assert abs(by_deg[90.0].e_hat) <= 4.0 * by_deg[90.0].stderr


# ensemble sizes around the s3 chunk boundaries
CHUNK_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


@pytest.mark.parametrize("n", CHUNK_SIZES)
def test_s3_returns_exactly_n_definite_outcomes(n):
    run = run_pair(planar(0.0), planar(90.0), n, 69, mode="s3")
    assert run.A.shape == run.B.shape == (n,)
    assert set(np.unique(run.A)) <= {-1, 1} and set(np.unique(run.B)) <= {-1, 1}
    assert run.n_admitted == run.n_detected_pairs == n
    assert run.n_candidates >= n


def _reference_table(eta, A, B):
    """Probability cells from one boolean mask per cell (0 = no detection)."""
    frac = lambda mask: float(np.sum(mask) / A.size)
    return {
        "eta_deg": float(np.degrees(eta)), "n": A.size,
        "p_pp": frac((A == 1) & (B == 1)), "p_mm": frac((A == -1) & (B == -1)),
        "p_pm": frac((A == 1) & (B == -1)), "p_mp": frac((A == -1) & (B == 1)),
        "p_single_plus_1": frac(A == 1), "p_single_minus_1": frac(A == -1),
        "p_single_plus_2": frac(B == 1), "p_single_minus_2": frac(B == -1),
        "p_00": frac((A == 0) & (B == 0)),
        "p_p0": frac((A == 1) & (B == 0)), "p_m0": frac((A == -1) & (B == 0)),
        "p_0p": frac((A == 0) & (B == 1)), "p_0m": frac((A == 0) & (B == -1)),
        "g": frac((A != 0) & (B != 0)),
    }


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("deg", [0.0, 90.0, 180.0])
@pytest.mark.parametrize("mode", MODES)
def test_count_table_reductions_match_outcome_arrays(mode, deg, n):
    seed, index = 73, 2
    run = run_pair(planar(0.0), planar(deg), n, substream(seed, index), mode)
    A, B = run.A, run.B
    expected = [[int(np.sum((A == i) & (B == j))) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    counts = outcome_counts(planar(0.0), planar(deg), n, substream(seed, index), mode)
    assert counts.tolist() == expected

    # the mean, stderr and g of A*B over detected pairs, from the arrays
    both = (A != 0) & (B != 0)
    prod = (A[both] * B[both]).astype(float)
    e_hat = float(prod.mean()) if prod.size else float("nan")
    stderr = float(prod.std(ddof=1) / np.sqrt(prod.size)) if prod.size > 1 else 0.0
    point = curve_point(mode, deg, n, seed, index)
    assert point.n == prod.size and _same(point.e_hat, e_hat)
    assert point.stderr == pytest.approx(stderr, rel=1e-15, abs=0.0)
    assert point.g == np.count_nonzero(both) / n
    if prod.size == 0:
        with pytest.raises(ValueError):
            estimate_pair(planar(0.0), planar(deg), n, substream(seed, index), mode)
    else:
        est = estimate_pair(planar(0.0), planar(deg), n, substream(seed, index), mode)
        assert (est.n, est.e_hat, est.stderr) == (point.n, point.e_hat, point.stderr)

    eta = np.radians(deg)
    reference = _reference_table(eta, A, B)
    assert probabilities_from_outcomes(eta, A, B).to_dict() == reference
    assert _probability_task((mode, deg, n, seed, index, 1)) == reference


# run_pair's outcome-count table, n_candidates and n_admitted on substream
# (2022, 5), for a at 0 degrees and b at eta: a stream pin. Any change to the
# draws, their order or the outcome rule changes some of these numbers.
PINNED_RUNS = {
    ("s3", 0, 1): ([[0, 0, 1], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 0, 16385): ([[0, 0, 8159], [0, 0, 0], [8226, 0, 0]], 24528, 16385),
    ("s3", 0, 49157): ([[0, 0, 24447], [0, 0, 0], [24710, 0, 0]], 74089, 49157),
    ("s3", 45, 1): ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 45, 16385): ([[1245, 0, 6888], [0, 0, 0], [7047, 0, 1205]], 31294, 16385),
    ("s3", 45, 49157): ([[3616, 0, 20772], [0, 0, 0], [21099, 0, 3670]], 94380, 49157),
    ("s3", 90, 1): ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 90, 16385): ([[4125, 0, 3992], [0, 0, 0], [4209, 0, 4059]], 33830, 16385),
    ("s3", 90, 49157): ([[12332, 0, 12166], [0, 0, 0], [12270, 0, 12389]], 101810, 49157),
    ("s3", 180, 1): ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 180, 16385): ([[8159, 0, 0], [0, 0, 0], [0, 0, 8226]], 24528, 16385),
    ("s3", 180, 49157): ([[24447, 0, 0], [0, 0, 0], [0, 0, 24710]], 74089, 49157),
    ("pearle-reject", 0, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("pearle-reject", 0, 16385): ([[0, 0, 5491], [0, 5417, 0], [5477, 0, 0]], 16385, 10968),
    ("pearle-reject", 0, 49157): ([[0, 0, 16216], [0, 16504, 0], [16437, 0, 0]], 49157, 32653),
    ("pearle-reject", 45, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("pearle-reject", 45, 16385): ([[604, 1202, 3685], [1161, 3101, 1155], [3687, 1161, 629]], 16385, 8605),
    ("pearle-reject", 45, 49157): ([[1933, 3464, 10819], [3505, 9404, 3595], [11035, 3541, 1861]], 49157, 25648),
    ("pearle-reject", 90, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("pearle-reject", 90, 16385): ([[2015, 1508, 1968], [1489, 2443, 1485], [2007, 1520, 1950]], 16385, 7940),
    ("pearle-reject", 90, 49157): ([[5938, 4382, 5896], [4519, 7441, 4544], [5951, 4634, 5852]], 49157, 23637),
    ("pearle-reject", 180, 1): ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 1),
    ("pearle-reject", 180, 16385): ([[5491, 0, 0], [0, 5417, 0], [0, 0, 5477]], 16385, 10968),
    ("pearle-reject", 180, 49157): ([[16216, 0, 0], [0, 16504, 0], [0, 0, 16437]], 49157, 32653),
    ("flat", 0, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 0, 16385): ([[0, 0, 8131], [0, 0, 0], [8254, 0, 0]], 16385, 16385),
    ("flat", 0, 49157): ([[0, 0, 24592], [0, 0, 0], [24565, 0, 0]], 49157, 49157),
    ("flat", 45, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 45, 16385): ([[2037, 0, 6094], [0, 0, 0], [6257, 0, 1997]], 16385, 16385),
    ("flat", 45, 49157): ([[6096, 0, 18496], [0, 0, 0], [18389, 0, 6176]], 49157, 49157),
    ("flat", 90, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 90, 16385): ([[4044, 0, 4087], [0, 0, 0], [4186, 0, 4068]], 16385, 16385),
    ("flat", 90, 49157): ([[12281, 0, 12311], [0, 0, 0], [12341, 0, 12224]], 49157, 49157),
    ("flat", 180, 1): ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 1),
    ("flat", 180, 16385): ([[8131, 0, 0], [0, 0, 0], [0, 0, 8254]], 16385, 16385),
    ("flat", 180, 49157): ([[24592, 0, 0], [0, 0, 0], [0, 0, 24565]], 49157, 49157),
}


@pytest.mark.parametrize("mode, deg, n", sorted(PINNED_RUNS))
def test_run_pair_stream_is_pinned(mode, deg, n):
    table, n_candidates, n_admitted = PINNED_RUNS[mode, deg, n]
    run = run_pair(planar(0.0), planar(deg), n, substream(2022, 5), mode)
    assert run.A.dtype == run.B.dtype == np.int64
    counts = [[int(np.sum((run.A == i) & (run.B == j))) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    assert (counts, run.n_candidates, run.n_admitted) == (table, n_candidates, n_admitted)


def test_fill_draws_match_generator_uniform():
    size = 1023  # not a multiple of the SIMD width
    z, phi, f = np.empty(size), np.empty(size), np.empty(size)
    _fill_draws(substream(29, 3), z, phi, f)
    ref = substream(29, 3)
    assert np.array_equal(z, ref.uniform(-1.0, 1.0, size))
    assert np.array_equal(phi, ref.uniform(0.0, np.pi, size))
    assert np.array_equal(f, -1.0 + 2.0 / np.sqrt(1.0 + 3.0 * ref.random(size)))
    # without thresholds only z and phi are drawn
    g, ref = substream(29, 4), substream(29, 4)
    _fill_draws(g, z, phi)
    ref.random(2 * size)
    assert g.random() == ref.random()


@pytest.mark.parametrize("mode", ["pearle-reject", "flat"])
def test_one_draw_memory_is_bounded(mode):
    tracemalloc.start()
    try:
        estimate_pair(planar(0.0), planar(90.0), 1_000_000, substream(23, 0), mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("mode", ["pearle-reject", "flat"])
def test_one_draw_memory_is_bounded_by_the_chunk(mode):
    tracemalloc.start()
    try:
        estimate_pair(planar(0.0), planar(90.0), 1_000_000, substream(23, 0), mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_estimate_pair_memory_is_bounded_by_the_chunk():
    tracemalloc.start()
    try:
        estimate_pair(planar(0.0), planar(90.0), 1_000_000, substream(23, 0), "s3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("mode, limit_mib", [("pearle-reject", 30), ("flat", 20)])
def test_one_draw_scratch_is_chunk_sized(mode, limit_mib):
    # the draws, e.b and its scratch are all CHUNK-sized
    tracemalloc.start()
    try:
        estimate_pair(planar(0.0), planar(90.0), 1_000_000, substream(23, 0), mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


# ---------------------------------------------------------------------------
# the float32 screen of e.b

def _eb64(z, phi, eta):
    """The float64 e.b: float64 cos, then _project_b."""
    return _project_b(z, np.cos(phi), np.cos(eta), np.sin(eta), np.empty(z.size))


def _screened(z, phi, f, eta):
    return _screened_eb(z, phi, f, np.cos(eta), np.sin(eta), np.empty(z.size), np.empty(z.size))


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_screen_error_bound_holds(monkeypatch, deg):
    # with an empty band nothing is redone, so this is the float32 e.b itself;
    # a float32 cos worse than assumed fails here, before any outcome drifts
    n, eta = 1_000_000, np.radians(deg)
    rng = substream(76, int(deg))
    z, phi = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, np.pi, n)
    monkeypatch.setattr(pearle, "_SCREEN", -1.0)
    gap = np.max(np.abs(_screened(z, phi, None, eta) - _eb64(z, phi, eta)))
    assert 0.0 < gap < _SCREEN / 4


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_screen_redoes_decisions_at_the_boundaries(monkeypatch, deg):
    # (z, phi, f) whose float64 e.b lies within 1e-9 of 0, +f and -f
    n, eta = 3_000, np.radians(deg)
    rng = substream(78, int(deg))
    f = rng.uniform(0.0, 1.0, n)
    target = np.concatenate([np.zeros(n // 3), f[n // 3:2 * n // 3], -f[2 * n // 3:]])
    # with z = cos(theta), e.b spans [cos(theta + eta), cos(theta - eta)]; it
    # holds cos(alpha) for theta between |alpha - eta| and min(alpha + eta,
    # 2 pi - alpha - eta, pi)
    alpha = np.arccos(target)
    lo, hi = np.abs(alpha - eta), np.minimum(np.minimum(alpha + eta, 2 * np.pi - alpha - eta), np.pi)
    z = np.cos(lo + (hi - lo) * rng.uniform(0.05, 0.95, n))
    target += rng.uniform(-1e-9, 1e-9, n)
    cos_phi = (target - z * np.cos(eta)) / (np.sqrt(1.0 - z * z) * np.sin(eta))
    phi = np.arccos(np.clip(cos_phi, -1.0, 1.0))
    ref = _eb64(z, phi, eta)
    assert np.max(np.abs(ref - target)) < 1e-8
    eb = _screened(z, phi, f, eta)
    assert np.array_equal(eb >= 0.0, ref >= 0.0)
    assert np.array_equal(np.abs(eb) >= f, np.abs(ref) >= f)
    # every entry is in the band, so every one was redone in float64
    assert np.array_equal(eb, ref)
    monkeypatch.setattr(pearle, "_SCREEN", -1.0)
    assert not np.array_equal(_screened(z, phi, f, eta), ref)


def _float64_reference(deg, n, rng_or_seed, mode):
    """(A, B, n_candidates, n_admitted) of run_pair with a float64 cos for
    every candidate: cos -> _project_b -> cuts -> _outcomes. The flat and
    pearle-reject modes draw all n states at once, in stream order."""
    cos_ab = float(np.clip(planar(0.0) @ planar(deg), -1.0, 1.0))
    sin_ab = float(np.sqrt(1.0 - cos_ab * cos_ab))
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    if mode != "s3":
        z, phi, f = np.empty(n), np.empty(n), np.empty(n)
        _fill_draws(rng, z, phi, None if mode == "flat" else f)
        eb = _project_b(z, np.cos(phi), cos_ab, sin_ab, np.empty(n))
        A, B = _outcomes(rng, z >= 0.0, eb >= 0.0)
        if mode == "pearle-reject":
            A, B = A * (np.abs(z) >= f), B * (np.abs(eb) >= f)
        return A, B, n, int(np.count_nonzero((A != 0) & (B != 0)))
    As, Bs, got, used = [], [], 0, 0
    while got < n:
        z, phi, f = np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK)
        _fill_draws(rng, z, phi, f)
        idx = np.flatnonzero(np.abs(z) >= f)
        eb = _project_b(z[idx], np.cos(phi[idx]), cos_ab, sin_ab, np.empty(idx.size))
        keep = np.flatnonzero(np.abs(eb) >= f[idx])[:n - got]
        A, B = _outcomes(rng, z[idx][keep] >= 0.0, eb[keep] >= 0.0)
        As.append(A)
        Bs.append(B)
        got += keep.size
        used += CHUNK if got < n else int(idx[keep[-1]]) + 1
    return np.concatenate(As), np.concatenate(Bs), used, n


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deg", [0.0, 1e-3, 90.0, 179.999, 180.0])
def test_run_pair_equals_the_float64_reference(mode, deg):
    n, seed = 3 * CHUNK + 5, 79
    run = run_pair(planar(0.0), planar(deg), n, seed, mode)
    A, B, n_candidates, n_admitted = _float64_reference(deg, n, seed, mode)
    assert np.array_equal(run.A, A) and np.array_equal(run.B, B)
    assert (run.n_candidates, run.n_admitted) == (n_candidates, n_admitted)


def _mid_word_generator(seed, words):
    """substream(seed) after `words` doubles and one coin: a partly used
    4-word Philox buffer and a pending 32-bit half."""
    rng = substream(seed)
    rng.random(words)
    rng.integers(0, 2, size=1)
    state = rng.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"]) == (words + 1, 1)
    return rng


@pytest.mark.parametrize("mode", ["pearle-reject", "flat"])
@pytest.mark.parametrize("words", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_one_draw_jumps_are_exact_from_any_philox_state(mode, words, n):
    # the chunks enter the one-draw stream by counter jumps; outcomes and the
    # generator left behind are those of drawing all n states in order
    rng, ref = _mid_word_generator(82, words), _mid_word_generator(82, words)
    run = run_pair(planar(0.0), planar(60.0), n, rng, mode)
    A, B, _, _ = _float64_reference(60.0, n, ref, mode)
    assert np.array_equal(run.A, A) and np.array_equal(run.B, B)
    assert rng.random() == ref.random()
    assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))


@pytest.mark.parametrize("mode", MODES)
def test_run_pair_requires_a_philox_generator(mode):
    with pytest.raises(TypeError):
        run_pair(planar(0.0), planar(60.0), 10, np.random.Generator(np.random.PCG64(83)), mode)


def test_probabilities_from_outcomes_rejects_other_values():
    with pytest.raises(ValueError):
        probabilities_from_outcomes(0.0, [2, 1], [-4, 1])
    with pytest.raises(ValueError):
        probabilities_from_outcomes(0.0, [0.5, 1.0], [1.0, 1.0])


def test_s3_candidate_budget_runs_out():
    # one batch allows max(1024, n) candidates; about half are admitted at 90 degrees
    with pytest.raises(RuntimeError):
        run_pair(planar(0.0), planar(90.0), 10_000, 70, mode="s3", max_batches=1)


@pytest.mark.parametrize("mode", MODES)
def test_kappa_changes_no_outcome(mode):
    one = run_pair(planar(0.0), planar(45.0), 20_000, 71, mode=mode, kappa=1)
    three = run_pair(planar(0.0), planar(45.0), 20_000, 71, mode=mode, kappa=3)
    assert np.array_equal(one.A, three.A) and np.array_equal(one.B, three.B)


def test_s3_acceptance_matches_closed_form():
    # at eta = 0 and pi a state is admitted iff f <= |e.a|, with |e.a| ~ U(0, 1):
    # P(admit) = int_0^1 (4/3)(1 - (1+m)^-2) dm = 2/3
    p = 2.0 / 3.0
    for i, deg in enumerate((0.0, 180.0)):
        run = run_pair(planar(0.0), planar(deg), 100_000, substream(72, i), mode="s3")
        acceptance = run.A.size / run.n_candidates
        assert abs(acceptance - p) <= 4.0 * np.sqrt(p * (1 - p) / run.n_candidates)
    for mode in ("pearle-reject", "flat"):
        assert run_pair(planar(0.0), planar(90.0), 1_000, 72, mode=mode).n_candidates == 1_000


def test_mode_validation():
    with pytest.raises(ValueError):
        run_pair(X_AXIS, Y_AXIS, 100, 1, mode="spherical-cow")
    with pytest.raises(ValueError):
        run_pair(X_AXIS, Y_AXIS, 0, 1)
