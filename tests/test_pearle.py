import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from s3sim import experiments, kernel, pearle
from s3sim.algebra import X_AXIS, Y_AXIS, Z_AXIS
from s3sim.bounds import canonical_quad
from s3sim.experiments import _pair_counts
from s3sim.kernel import (CHUNK, MODES, _SCREEN, _decide, _fill_draws, _outcomes, _project,
                          _setting, _setting_free, _sums, _table, _wing)
from s3sim.kernel import _position as position
from s3sim.pearle import (InitialState, NumericError, PearleMapping, admissible,
                          candidate_counts, correlation_curve, correlation_from_probabilities,
                          curve_point, detection_fraction, detection_fraction_branches,
                          ensemble_sample, estimate_pair, flat_mode_curve, outcome_counts,
                          pair_records, pearle_f, pearle_f_complement, probabilities,
                          probabilities_from_outcomes, run_pair)
from s3sim.pearle import _table_from_counts
from s3sim.rng import substream
from test_artifacts import DISPATCH_LEVELS


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


def test_ensemble_sampler_cap(monkeypatch):
    monkeypatch.setattr(kernel, "_MAX_BATCHES", 1)
    with pytest.raises(RuntimeError):
        # settings 90 degrees apart and threshold pinned near 1 by a tiny
        # batch budget: cannot fill the request
        ensemble_sample(10**6, seed=53, a=planar(0.0), b=planar(90.0))


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


@pytest.mark.parametrize("deg", [0.0, 45.0, 90.0, 135.0, 180.0])
def test_record_states_agree_with_their_outcomes(deg):
    # A = lam*sign(e.a) and B = -lam*sign(e.b), so A*B = -sign(e.a)*sign(e.b)
    # with sign(0) = +1: each state must sit beside its own outcomes, across
    # a chunk boundary
    a, b = planar(0.0), planar(deg)
    records = pair_records(a, b, CHUNK + 1, seed=87)
    e_o = np.array([r.state.e_o for r in records])
    sign_a, sign_b = (np.where(e_o @ n_vec >= 0.0, 1, -1) for n_vec in (a, b))
    AB = np.array([r.A * r.B for r in records])
    assert np.array_equal(AB, -sign_a * sign_b)


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
    with pytest.raises(ValueError, match="^eta must"):
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
                            mode="s3")
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
    assert run.n_detected_pairs == n
    assert run.n_candidates >= n


def _cell_counts(A, B):
    """The count table of outcome arrays, one cell at a time: entry [i, j]
    counts the pairs with A = i - 1 and B = j - 1."""
    return np.array([[np.sum((A == i) & (B == j)) for j in (-1, 0, 1)] for i in (-1, 0, 1)])


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
    counts = outcome_counts(planar(0.0), planar(deg), n, substream(seed, index), mode)
    assert counts.tolist() == _cell_counts(A, B).tolist()

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
        with pytest.raises(NumericError):
            estimate_pair(planar(0.0), planar(deg), n, substream(seed, index), mode)
    else:
        est = estimate_pair(planar(0.0), planar(deg), n, substream(seed, index), mode)
        assert (est.n, est.e_hat, est.stderr) == (point.n, point.e_hat, point.stderr)

    eta = np.radians(deg)
    reference = _reference_table(eta, A, B)
    assert probabilities_from_outcomes(eta, A, B).to_dict() == reference
    # the pool task returns the candidate table, s3's non-admitted cells
    # included, and the parent reads the kept pairs through kernel._kept
    task = ((_setting(planar(0.0) @ planar(deg)),), n, seed, index, mode)
    pooled = _pair_counts(task)[0]
    candidates = candidate_counts(planar(0.0), planar(deg), n, substream(seed, index), mode)
    assert np.array_equal(pooled, candidates)
    assert _table_from_counts(eta, kernel._kept(pooled, mode)).to_dict() == reference


def test_correlation_curve_names_a_pair_without_coincidences():
    # the API states the CLI's rule: one emitted pair at 60 degrees is
    # undetected, so that point's correlation is undefined. Every point of
    # a grid reads substream (seed, 0), whose first candidate at seed 0 is
    # detected at both wings at 0 degrees and not at 60
    with pytest.raises(NumericError, match=r"setting pair 1 \(eta = 60 deg\)"):
        correlation_curve("pearle-reject", [0.0, 60.0], 1, 0)
    assert experiments.NumericError is NumericError
    assert np.isnan(curve_point("pearle-reject", 90.0, 1, 0, 1).e_hat)


@pytest.mark.parametrize("call, pair", [
    (lambda: estimate_pair(planar(0.0), planar(90.0), 1, 1, "pearle-reject"),
     r"the setting pair \(eta = 90 deg\)"),
    (lambda: experiments.chsh_monte_carlo(canonical_quad(), 1, 1, "pearle-reject"),
     r"setting pair 3 \(eta = 135 deg\)"),
    (lambda: correlation_from_probabilities(
        _table_from_counts(np.radians(90.0), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))),
     r"the setting pair \(eta = 90 deg\)"),
])
def test_no_coincidences_is_one_numeric_error_naming_the_angle(call, pair):
    # one emitted pair in rejection mode, or a table of one undetected pair;
    # correlation_curve's message is checked above
    with pytest.raises(NumericError, match=f"^no coincident detections in {pair}; increase n$"):
        call()


# run_pair's outcome-count table, n_candidates and n_admitted on substream
# (2022, 5), for a at 0 degrees and b at eta: a pin of sampler version 2,
# whose stream of a single pair version 3 keeps (pearle.SAMPLER_VERSION).
# Any change to the draws, their order or the outcome rule changes some of
# these numbers.
PINNED_RUNS = {
    ("s3", 0, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("s3", 0, 16385): ([[0, 0, 8214], [0, 0, 0], [8171, 0, 0]], 24685, 16385),
    ("s3", 0, 49157): ([[0, 0, 24592], [0, 0, 0], [24565, 0, 0]], 73892, 49157),
    ("s3", 45, 1): ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 45, 16385): ([[1254, 0, 6921], [0, 0, 0], [7049, 0, 1161]], 31458, 16385),
    ("s3", 45, 49157): ([[3609, 0, 21044], [0, 0, 0], [20946, 0, 3558]], 94067, 49157),
    ("s3", 90, 1): ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 1),
    ("s3", 90, 16385): ([[4118, 0, 4073], [0, 0, 0], [4067, 0, 4127]], 33899, 16385),
    ("s3", 90, 49157): ([[12245, 0, 12372], [0, 0, 0], [12178, 0, 12362]], 101493, 49157),
    ("s3", 180, 1): ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 1),
    ("s3", 180, 16385): ([[8214, 0, 0], [0, 0, 0], [0, 0, 8171]], 24685, 16385),
    ("s3", 180, 49157): ([[24592, 0, 0], [0, 0, 0], [0, 0, 24565]], 73892, 49157),
    ("pearle-reject", 0, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("pearle-reject", 0, 16385): ([[0, 0, 5425], [0, 5525, 0], [5435, 0, 0]], 16385, 10860),
    ("pearle-reject", 0, 49157): ([[0, 0, 16302], [0, 16498, 0], [16357, 0, 0]], 49157, 32659),
    ("pearle-reject", 45, 1): ([[0, 0, 0], [0, 0, 0], [0, 1, 0]], 1, 0),
    ("pearle-reject", 45, 16385): ([[654, 1146, 3625], [1220, 3132, 1173], [3659, 1176, 600]], 16385, 8538),
    ("pearle-reject", 45, 49157): ([[1927, 3444, 10931], [3519, 9453, 3526], [10977, 3546, 1834]], 49157, 25669),
    ("pearle-reject", 90, 1): ([[0, 0, 0], [0, 0, 0], [0, 1, 0]], 1, 0),
    ("pearle-reject", 90, 16385): ([[2029, 1451, 1945], [1572, 2447, 1506], [1941, 1527, 1967]], 16385, 7882),
    ("pearle-reject", 90, 49157): ([[6005, 4360, 5937], [4559, 7417, 4522], [5934, 4456, 5967]], 49157, 23843),
    ("pearle-reject", 180, 1): ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 1),
    ("pearle-reject", 180, 16385): ([[5425, 0, 0], [0, 5525, 0], [0, 0, 5435]], 16385, 10860),
    ("pearle-reject", 180, 49157): ([[16302, 0, 0], [0, 16498, 0], [0, 0, 16357]], 49157, 32659),
    ("flat", 0, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 0, 16385): ([[0, 0, 8080], [0, 0, 0], [8305, 0, 0]], 16385, 16385),
    ("flat", 0, 49157): ([[0, 0, 24518], [0, 0, 0], [24639, 0, 0]], 49157, 49157),
    ("flat", 45, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 45, 16385): ([[2069, 0, 6011], [0, 0, 0], [6235, 0, 2070]], 16385, 16385),
    ("flat", 45, 49157): ([[6205, 0, 18313], [0, 0, 0], [18469, 0, 6170]], 49157, 49157),
    ("flat", 90, 1): ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], 1, 1),
    ("flat", 90, 16385): ([[4061, 0, 4019], [0, 0, 0], [4153, 0, 4152]], 16385, 16385),
    ("flat", 90, 49157): ([[12310, 0, 12208], [0, 0, 0], [12276, 0, 12363]], 49157, 49157),
    ("flat", 180, 1): ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1, 1),
    ("flat", 180, 16385): ([[8080, 0, 0], [0, 0, 0], [0, 0, 8305]], 16385, 16385),
    ("flat", 180, 49157): ([[24518, 0, 0], [0, 0, 0], [0, 0, 24639]], 49157, 49157),
}


@pytest.mark.parametrize("mode, deg, n", sorted(PINNED_RUNS))
def test_run_pair_stream_is_pinned(mode, deg, n):
    assert pearle.SAMPLER_VERSION == 3  # a new pair stream bumps the version and these pins
    table, n_candidates, n_admitted = PINNED_RUNS[mode, deg, n]
    run = run_pair(planar(0.0), planar(deg), n, substream(2022, 5), mode)
    assert run.A.dtype == run.B.dtype == np.int64
    counts = [[int(np.sum((run.A == i) & (run.B == j))) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    assert (counts, run.n_candidates, run.n_detected_pairs) == (table, n_candidates, n_admitted)


# counter steps from one float32 array of a chunk's block to the next: CHUNK
# 32-bit draws fill CHUNK/2 64-bit words, and Philox makes 4 words per step
STEPS = CHUNK // 8


def _block(key, counter):
    """A plain Generator whose next draw starts the block of counter + 1."""
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_fill_draws_match_generator_uniform():
    # a chunk's block: CHUNK float32 draws each for z, phi and u from fixed
    # counter offsets, then one coin bit per candidate from raw 64-bit words
    rng = substream(29, 3)
    key, start = position(rng)
    for size in (1023, CHUNK):  # a truncated chunk (not a multiple of the SIMD width), a full one
        z, phi, u = (np.empty(size, dtype=np.float32) for _ in range(3))
        heads = _fill_draws(rng, key, start, z, phi, u)
        r = [_block(key, start + i * STEPS).random(size, dtype=np.float32) for i in range(3)]
        assert np.array_equal(z, 2.0 * r[0] - 1.0) and z.dtype == np.float32
        assert np.array_equal(phi, r[1] * np.float32(np.pi))
        assert np.array_equal(u, r[2])
        words = _block(key, start + 3 * STEPS).bit_generator.random_raw(-(-size // 64))
        coins = [(int(words[i // 64]) >> (i % 64)) & 1 == 1 for i in range(size)]
        assert heads.tolist() == coins
        # without thresholds (flat) u is skipped and the rest is unchanged
        z2, phi2 = np.empty_like(z), np.empty_like(phi)
        assert np.array_equal(_fill_draws(rng, key, start, z2, phi2), heads)
        assert np.array_equal(z2, z) and np.array_equal(phi2, phi)


@pytest.mark.parametrize("k", [1, 8, 9, 64, 65, CHUNK - 1, CHUNK])
def test_fill_draws_are_generator_floats_from_a_mid_counter_start(k):
    # the raw-word fill equals Generator.random(dtype=float32) bit for bit,
    # for sizes that end inside a word, a counter step and the chunk, from
    # a start whose array offsets carry into the counter's second word
    key, base = position(substream(2031, 4))
    start = base + (1 << 64) - 3 * STEPS // 2
    r = [_block(key, start + i * STEPS).random(k, dtype=np.float32) for i in range(3)]
    rng = substream(2031, 4)
    z, phi, u = (np.empty(k, dtype=np.float32) for _ in range(3))
    heads = _fill_draws(rng, key, start, z, phi, u)
    assert z.dtype == phi.dtype == u.dtype == np.float32
    assert np.array_equal(z, 2.0 * r[0] - 1.0)
    assert np.array_equal(phi, r[1] * np.float32(np.pi))
    assert np.array_equal(u, r[2])
    z2, phi2 = np.empty_like(z), np.empty_like(phi)
    assert np.array_equal(_fill_draws(rng, key, start, z2, phi2), heads)
    assert np.array_equal(z2, z) and np.array_equal(phi2, phi)


@pytest.mark.parametrize("mode", ["pearle-reject", "flat"])
def test_one_draw_memory_is_bounded_by_the_chunk(mode):
    # the draws, e.b and its scratch are all CHUNK-sized
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


# ---------------------------------------------------------------------------
# the float32 screen of e.b and f

def _drawn(rng, n):
    """n float32 (z, phi, u) made as a chunk makes them."""
    z, phi, u = (rng.random(n, dtype=np.float32) for _ in range(3))
    return 2.0 * z - 1.0, phi * np.float32(np.pi), u


def _eb64(z, phi, eta):
    """The float64 e.b of drawn values, written out independently of the
    kernel's _setting_free and _project."""
    z, phi = z.astype(np.float64), phi.astype(np.float64)
    return np.cos(phi) * np.sin(eta) * np.sqrt(1.0 - z * z) + z * np.cos(eta)


def _f64(u):
    return -1.0 + 2.0 / np.sqrt(1.0 + 3.0 * u.astype(np.float64))


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_screen_error_bound_holds(deg):
    # the float32 e.b and f the kernel decides on, against float64 on the
    # same drawn values; a float32 cos or sqrt worse than assumed fails
    # here, before any outcome drifts
    n, eta = 1_000_000, np.radians(deg)
    z, phi, u = _drawn(substream(76, int(deg)), n)
    w, f, eb, tmp = (np.empty(n, dtype=np.float32) for _ in range(4))
    _setting_free(z, phi, u, w, f, tmp)
    _project(z, w, float(np.cos(eta)), float(np.sin(eta)), eb, tmp)
    gap_eb = np.max(np.abs(eb - _eb64(z, phi, eta)))
    gap_f = np.max(np.abs(f - _f64(u)))
    assert eb.dtype == np.float32
    assert 0.0 < gap_eb and 0.0 < gap_f and gap_eb + gap_f < _SCREEN / 4


def _step(z, phi, u, heads, eta):
    """The (masks, sums) of the kernel's chunk step at one setting."""
    scratch = [np.empty(z.size, dtype=np.float32) for _ in range(4)]
    setting = (float(np.cos(eta)), float(np.sin(eta)))
    ((_, masks, sums),) = _decide(z, phi, u, heads, [(0, setting)], scratch)
    return masks, sums


def _decided(z, phi, u, heads, eta):
    """The int8 (A, B) the kernel decides for drawn values."""
    return _outcomes(*_step(z, phi, u, heads, eta)[0])[1:]


def _boundary_draws(rng, n, eta):
    """n drawn (z, phi, u) whose float64 e.b lies near 0, +f and -f, or with
    |z| near f, so every decision is in the band and redone in float64:
    (z, phi, u, heads), and the float64 (A, B) of flat and of pearle-reject."""
    u = rng.random(n, dtype=np.float32)
    f = _f64(u)
    q = n // 4
    target = np.concatenate([np.zeros(q), f[q:2 * q], -f[2 * q:3 * q], np.zeros(n - 3 * q)])
    # with z = cos(theta), e.b spans [cos(theta + eta), cos(theta - eta)]; it
    # holds cos(alpha) for theta between |alpha - eta| and min(alpha + eta,
    # 2 pi - alpha - eta, pi)
    alpha = np.arccos(target)
    lo, hi = np.abs(alpha - eta), np.minimum(np.minimum(alpha + eta, 2 * np.pi - alpha - eta), np.pi)
    z = np.cos(lo + (hi - lo) * rng.uniform(0.05, 0.95, n)).astype(np.float32)
    # the last quarter puts |z| at f, in float32
    z[3 * q:] = (f[3 * q:] * rng.choice([-1.0, 1.0], n - 3 * q)).astype(np.float32)
    z64 = z.astype(np.float64)
    cos_phi = (target - z64 * np.cos(eta)) / (np.sqrt(1.0 - z64 * z64) * np.sin(eta))
    phi = np.arccos(np.clip(cos_phi, -1.0, 1.0)).astype(np.float32)
    eb = _eb64(z, phi, eta)
    margin = np.minimum(np.minimum(np.abs(eb), np.abs(np.abs(eb) - f)), np.abs(np.abs(z64) - f))
    assert np.max(margin) < _SCREEN / 4
    heads = rng.random(n) < 0.5
    lam = np.where(heads, 1, -1)
    flat = lam * np.where(z >= 0, 1, -1), -lam * np.where(eb >= 0, 1, -1)
    return (z, phi, u, heads), flat, (flat[0] * (np.abs(z64) >= f), flat[1] * (np.abs(eb) >= f))


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_screen_redoes_decisions_at_the_boundaries(monkeypatch, deg):
    # every decision is in the band and redone in float64
    eta = np.radians(deg)
    (z, phi, u, heads), _, expected = _boundary_draws(substream(78, int(deg)), 4_000, eta)
    A, B = _decided(z, phi, u, heads, eta)
    assert np.array_equal(A, expected[0]) and np.array_equal(B, expected[1])
    # without the band some float32 sign or cut differs from float64
    monkeypatch.setattr(kernel, "_SCREEN", -1.0)
    A, B = _decided(z, phi, u, heads, eta)
    assert not (np.array_equal(A, expected[0]) and np.array_equal(B, expected[1]))


BOUNDARY_DEGREES = [1.0, 45.0, 90.0, 135.0]

# prints the dispatch targets numpy enabled, then how many outcomes that
# the kernel's chunk step _decide (_wing at a, then at b) decides on the
# saved boundary draws differ from float64: with the kernel's band, and
# with none (_SCREEN = -1)
_MASK_CHILD = """
import json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([x for x in __cpu_dispatch__ if __cpu_features__.get(x)]), flush=True)
from s3sim import kernel
cases, degrees = np.load(sys.argv[1]), json.loads(sys.argv[2])
mismatches = []
for screen in (kernel._SCREEN, -1.0):
    kernel._SCREEN, bad = screen, 0
    for i, deg in enumerate(degrees):
        z, phi, u, heads = (cases[f"{x}{i}"] for x in ("z", "phi", "u", "heads"))
        cos_ab, sin_ab = float(np.cos(np.radians(deg))), float(np.sin(np.radians(deg)))
        scratch = [np.empty(z.size, dtype=np.float32) for _ in range(4)]
        for mode, wing_u in (("reject", u), ("flat", None)):
            ((_, masks, _),) = kernel._decide(z, phi, wing_u, heads, [(0, (cos_ab, sin_ab))],
                                              scratch)
            _, A, B = kernel._outcomes(*masks)
            bad += int(np.count_nonzero(A != cases[f"{mode}_A{i}"]))
            bad += int(np.count_nonzero(B != cases[f"{mode}_B{i}"]))
    mismatches.append(bad)
print(json.dumps(mismatches))
"""


@pytest.mark.parametrize("level", ["native", *sorted(DISPATCH_LEVELS)])
def test_boundary_decisions_equal_float64_at_every_dispatch_level(cli_env, tmp_path, level):
    # the mask-level check of the redo band at each numpy dispatch level the
    # byte test sets: on draws whose every decision lies in the band, the
    # decisions equal float64, and without the band some do not
    cases = {}
    for i, deg in enumerate(BOUNDARY_DEGREES):
        draws, flat, reject = _boundary_draws(substream(78, int(deg)), 4_000, np.radians(deg))
        cases.update({f"{x}{i}": v for x, v in zip(("z", "phi", "u", "heads"), draws)})
        cases.update({f"flat_A{i}": flat[0], f"flat_B{i}": flat[1],
                      f"reject_A{i}": reject[0], f"reject_B{i}": reject[1]})
    np.savez(tmp_path / "draws.npz", **cases)
    env = {k: v for k, v in cli_env.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    disabled = DISPATCH_LEVELS.get(level)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    res = subprocess.run([sys.executable, "-c", _MASK_CHILD, str(tmp_path / "draws.npz"),
                          json.dumps(BOUNDARY_DEGREES)],
                         capture_output=True, text=True, env=env, timeout=120)
    lines = res.stdout.splitlines()
    if disabled and not lines:
        pytest.skip(f"numpy did not start with {disabled} disabled: {res.stderr.strip()}")
    assert res.returncode == 0, res.stderr
    targets = json.loads(lines[0])
    if disabled and set(disabled.split()) & set(targets):
        pytest.skip(f"numpy kept {sorted(set(disabled.split()) & set(targets))} enabled")
    banded, unbanded = json.loads(lines[1])
    assert banded == 0, targets
    assert unbanded > 0, targets


def test_the_pole_is_an_ordinary_setting():
    # projected to the pole, (cos, sin) = (1, 0), e.n is z bit for bit, so
    # _wing decides wing a as it decides any setting: the same masks as on
    # z itself, and with np.not_equal the opposite sign and the same cut
    rng = substream(4242, 0)
    key, base = position(rng)
    z, phi, u, w, f, e, tmp = (np.empty(CHUNK, dtype=np.float32) for _ in range(7))
    for c in range(50):
        heads = _fill_draws(rng, key, base + (c << 64), z, phi, u)
        _setting_free(z, phi, u, w, f, tmp)
        _project(z, w, 1.0, 0.0, e, tmp)
        assert np.array_equal(e.view(np.uint32), z.view(np.uint32))
        for wing_u in (u, None):
            plus, det = _wing(z, phi, wing_u, heads, f, z, 1.0, 0.0, np.equal, tmp)
            at_pole = _wing(z, phi, wing_u, heads, f, e, 1.0, 0.0, np.equal, tmp)
            assert np.array_equal(at_pole[0], plus) and np.array_equal(at_pole[1], det)
            minus, det_b = _wing(z, phi, wing_u, heads, f, e, 1.0, 0.0, np.not_equal, tmp)
            assert np.array_equal(minus, ~plus) and np.array_equal(det_b, det)


def _mask_table(z, phi, u, heads, eta):
    return _table(*_step(z, phi, u, heads, eta)[1])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deg", [45.0, 180.0])
@pytest.mark.parametrize("k", [1, 63, CHUNK])
def test_mask_table_counts_the_decided_outcomes(mode, deg, k):
    # the count path's table of a chunk's masks equals the cell-by-cell
    # count of the int8 outcomes decided from the same draws
    rng = substream(9401, k)
    key, start = position(rng)
    z, phi, u = (np.empty(k, dtype=np.float32) for _ in range(3))
    u = None if mode == "flat" else u
    heads = _fill_draws(rng, key, start, z, phi, u)
    eta = np.radians(deg)
    table = _mask_table(z, phi, u, heads, eta)
    assert table.dtype == np.int64 and table.sum() == k
    assert np.array_equal(table, _cell_counts(*_decided(z, phi, u, heads, eta)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 63, CHUNK])
def test_step_sums_count_its_masks(mode, k):
    # the step counts wing a once and each setting's wing b apart; the sums
    # it yields equal a recount of the masks it yields, setting by setting
    rng = substream(9402, k)
    key, start = position(rng)
    z, phi, u = (np.empty(k, dtype=np.float32) for _ in range(3))
    u = None if mode == "flat" else u
    heads = _fill_draws(rng, key, start, z, phi, u)
    scratch = [np.empty(k, dtype=np.float32) for _ in range(4)]
    settings = [(j, _setting(np.cos(np.radians(deg)))) for j, deg in enumerate((0.0, 70.0, 180.0))]
    seen = []
    for j, masks, sums in _decide(z, phi, u, heads, settings, scratch):
        assert tuple(sums) == _sums(*masks)
        assert all(x.size == k for x in masks)
        seen.append(j)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_mask_table_counts_the_redone_decisions(deg):
    # drawn values whose every decision lies in the float64 redo band: the
    # table counts the redone decisions, equal to the float64 outcomes' table
    eta = np.radians(deg)
    (z, phi, u, heads), flat, reject = _boundary_draws(substream(9402, int(deg)), 4_000, eta)
    assert np.array_equal(_mask_table(z, phi, u, heads, eta), _cell_counts(*reject))
    # flat: the same signs with every wing detecting
    assert np.array_equal(_mask_table(z, phi, None, heads, eta), _cell_counts(*flat))


def _sign_band_draws(rng, n, eta):
    """(z, phi, u) on the grids of drawn values, with f < _SCREEN / 2 and
    float64 e.a = z and e.b in (f, _SCREEN) or (-_SCREEN, -f): each wing
    detects with its sign in the band |e| < _SCREEN. Half are built with
    f < 1e-7 and |e.b| - f < 2e-7, where a float32 sign or cut can flip.
    Returns (z, phi, u, heads) and the float64 (A, B) of n draws or more."""
    m = 2**24 - rng.integers(1, 80, 3 * n)  # u = m * 2**-24 near 1, f < 1.8e-6
    m[:3 * n // 2] = 2**24 - rng.integers(1, 4, 3 * n // 2)
    u = (m * 2.0**-24).astype(np.float32)
    f = _f64(u)
    # z = i * 2**-23 of a draw, in [1.9e-6, 3.9e-6]
    z = (rng.choice([-1, 1], 3 * n) * rng.integers(16, 34, 3 * n) * 2.0**-23).astype(np.float32)
    gap = rng.uniform(0.05, 0.95, 3 * n) * np.where(m > 2**24 - 4, 2e-7, _SCREEN - f)
    target = rng.choice([-1.0, 1.0], 3 * n) * (f + gap)
    z64 = z.astype(np.float64)
    cos_phi = (target - z64 * np.cos(eta)) / (np.sqrt(1.0 - z64 * z64) * np.sin(eta))
    scale = np.float32(np.pi * 2.0**-24)  # phi = m * scale in float32
    phi = np.round(np.arccos(cos_phi) / float(scale)).astype(np.float32) * scale
    eb = _eb64(z, phi, eta)
    keep = (f < np.abs(eb)) & (np.abs(eb) < _SCREEN) & (f < np.abs(z64))
    assert np.count_nonzero(keep[:3 * n // 2]) >= n // 2 and np.count_nonzero(keep) >= n
    z, phi, u, eb = z[keep], phi[keep], u[keep], eb[keep]
    heads = rng.random(z.size) < 0.5
    lam = np.where(heads, 1, -1)
    return (z, phi, u, heads), (lam * np.where(z >= 0, 1, -1), -lam * np.where(eb >= 0, 1, -1))


@pytest.mark.parametrize("deg", [1.0, 45.0, 90.0, 135.0])
def test_signs_in_the_band_equal_float64_where_the_wings_detect(monkeypatch, deg):
    # a cut admits e with f <= |e| < _SCREEN only for u near 1; there the
    # sign decides the outcome and lies within _SCREEN of flipping
    eta = np.radians(deg)
    (z, phi, u, heads), expected = _sign_band_draws(substream(79, int(deg)), 2_000, eta)
    A, B = _decided(z, phi, u, heads, eta)
    assert np.array_equal(A, expected[0]) and np.array_equal(B, expected[1])
    # the grid pass, with b at 0, eta and 180 degrees (e.b = z, e.b, -z),
    # on chunks filled with these draws over and over
    def fill(rng, key, start, z_k, phi_k, u_k=None):
        for x, draws in ((z_k, z), (phi_k, phi), (u_k, u)):
            if x is not None:
                x[...] = np.resize(draws, x.size)
        return np.resize(heads, z_k.size)

    monkeypatch.setattr(kernel, "_fill_draws", fill)
    A = np.resize(expected[0], CHUNK)
    B = {0.0: -A, deg: np.resize(expected[1], CHUNK), 180.0: A}
    for mode, n in (("pearle-reject", CHUNK), ("s3", CHUNK - 7), ("flat", CHUNK)):
        tables = kernel._candidate_tables([_setting(planar(0.0) @ planar(x)) for x in B], n, 79,
                                          mode)
        for (x, B_x), table in zip(B.items(), tables):
            assert np.array_equal(table, _cell_counts(A[:n], B_x[:n])), (mode, x)
    # without the band some float32 sign or cut differs from float64
    monkeypatch.setattr(kernel, "_SCREEN", -1.0)
    A, B = _decided(z, phi, u, heads, eta)
    assert not (np.array_equal(A, expected[0]) and np.array_equal(B, expected[1]))


def _float64_reference(deg, n, rng_or_seed, mode):
    """(A, B, n_candidates, n_admitted) of run_pair, read from the chunk
    blocks with plain Generator draws and decided in float64.

    Chunk c is the block of the generator's key at its counter plus
    c * 2**64: z, phi and u from float32 random draws STEPS counter steps
    apart, the coins from raw words after them. Every candidate's e.b and f
    are float64 evaluations of the drawn float32 values. flat and
    pearle-reject read the first n candidates; s3 reads whole chunks and
    keeps the candidates detected at both wings, up to the n-th."""
    eta = np.radians(deg)
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else substream(rng_or_seed)
    key, base = position(rng)
    As, Bs, got, used, chunk = [], [], 0, 0, 0
    while got < n:
        k = CHUNK if mode == "s3" else min(CHUNK, n - got)
        start = base + (chunk << 64)
        z, phi, u = (_block(key, start + i * STEPS).random(k, dtype=np.float32) for i in range(3))
        z, phi = 2.0 * z - 1.0, phi * np.float32(np.pi)
        words = _block(key, start + 3 * STEPS).bit_generator.random_raw(-(-k // 64))
        heads = np.array([(int(words[i // 64]) >> (i % 64)) & 1 for i in range(k)]) == 1
        lam = np.where(heads, 1, -1)
        eb = _eb64(z, phi, eta)
        A, B = lam * np.where(z >= 0, 1, -1), -lam * np.where(eb >= 0, 1, -1)
        if mode != "flat":
            f = _f64(u)
            A, B = A * (np.abs(z.astype(np.float64)) >= f), B * (np.abs(eb) >= f)
        rows = np.arange(k)
        if mode == "s3":
            rows = np.flatnonzero((A != 0) & (B != 0))[:n - got]
        As.append(A[rows])
        Bs.append(B[rows])
        got += rows.size
        used += k if got < n else int(rows[-1]) + 1
        chunk += 1
    A, B = np.concatenate(As), np.concatenate(Bs)
    return A, B, used, int(np.count_nonzero((A != 0) & (B != 0)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deg", [0.0, 1e-3, 90.0, 179.999, 180.0])
def test_run_pair_equals_the_float64_reference(mode, deg):
    n, seed = 3 * CHUNK + 5, 79
    run = run_pair(planar(0.0), planar(deg), n, seed, mode)
    A, B, n_candidates, n_admitted = _float64_reference(deg, n, seed, mode)
    assert np.array_equal(run.A, A) and np.array_equal(run.B, B)
    assert (run.n_candidates, run.n_detected_pairs) == (n_candidates, n_admitted)


def _mid_word_generator(seed, words):
    """substream(seed) after `words` doubles and one coin: a partly used
    4-word Philox buffer and a pending 32-bit half."""
    rng = substream(seed)
    rng.random(words)
    rng.integers(0, 2, size=1)
    state = rng.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"]) == (words + 1, 1)
    return rng


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("words", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_one_draw_jumps_are_exact_from_any_philox_state(mode, words, n):
    # chunk keys: chunk c reads the block at the generator's counter plus
    # c * 2**64, whatever its buffer holds, and the generator is left at its
    # first unused chunk, so a second call on it starts at a new chunk
    rng, ref = _mid_word_generator(82, words), _mid_word_generator(82, words)
    key, base = position(ref)
    run = run_pair(planar(0.0), planar(60.0), n, rng, mode)
    A, B, n_candidates, _ = _float64_reference(60.0, n, ref, mode)
    assert np.array_equal(run.A, A) and np.array_equal(run.B, B)
    chunks = -(-n_candidates // CHUNK)
    left_key, left = position(rng)
    state = rng.bit_generator.state
    assert np.array_equal(left_key, key) and left == base + (chunks << 64)
    assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
    again = run_pair(planar(0.0), planar(60.0), 5, rng, mode)
    there = run_pair(planar(0.0), planar(60.0), 5, _block(key, base + (chunks << 64)), mode)
    assert np.array_equal(again.A, there.A) and np.array_equal(again.B, there.B)
    assert position(rng)[1] == base + ((chunks + 1) << 64)


# ---------------------------------------------------------------------------
# one candidate kernel: exact relations between the modes

def test_s3_outcomes_are_the_both_detected_pearle_reject_outcomes():
    a, b, seed = planar(0.0), planar(70.0), 84
    s3 = run_pair(a, b, 3 * CHUNK + 5, seed, "s3")
    reject = run_pair(a, b, s3.n_candidates, seed, "pearle-reject")
    both = (reject.A != 0) & (reject.B != 0)
    assert np.array_equal(s3.A, reject.A[both]) and np.array_equal(s3.B, reject.B[both])
    assert both[-1]  # the last candidate drawn is the n-th admitted
    # so s3's table is the corner cells of pearle-reject's
    table = outcome_counts(a, b, s3.n_candidates, seed, "pearle-reject")
    table[1, :] = table[:, 1] = 0
    assert np.array_equal(outcome_counts(a, b, 3 * CHUNK + 5, seed, "s3"), table)


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("deg", [0.0, 45.0, 90.0, 180.0])
@pytest.mark.parametrize("mode", MODES)
def test_candidate_counts_cover_every_candidate_drawn(mode, deg, n):
    a, b = planar(0.0), planar(deg)
    table = candidate_counts(a, b, n, substream(9403, int(deg)), mode)
    run = run_pair(a, b, n, substream(9403, int(deg)), mode)
    assert table.dtype == np.int64 and table.sum() == run.n_candidates
    counts = outcome_counts(a, b, n, substream(9403, int(deg)), mode)
    if mode != "s3":
        assert np.array_equal(table, counts)
    else:
        # s3's candidates are pearle-reject's first n_candidates; its
        # outcome table is the corners, where both wings detect
        reject = outcome_counts(a, b, run.n_candidates, substream(9403, int(deg)), "pearle-reject")
        assert np.array_equal(table, reject)
        corners = table.copy()
        corners[1, :] = corners[:, 1] = 0
        assert np.array_equal(corners, counts)


def test_flat_outcomes_are_the_pearle_reject_signs():
    # the same candidates and coins, with every wing detecting
    a, b, n, seed = planar(0.0), planar(70.0), 3 * CHUNK + 5, 85
    flat = run_pair(a, b, n, seed, "flat")
    reject = run_pair(a, b, n, seed, "pearle-reject")
    assert np.all(flat.A != 0) and np.all(flat.B != 0)
    for x, y in ((flat.A, reject.A), (flat.B, reject.B)):
        detected = y != 0
        assert np.array_equal(x[detected], y[detected]) and not detected.all()


@pytest.mark.parametrize("mode", ["pearle-reject", "flat"])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_first_outcomes_do_not_depend_on_n(mode, n):
    # a chunk truncated to k candidates reads the first k of each array
    a, b, seed = planar(0.0), planar(70.0), 86
    short, longer = (run_pair(a, b, m, seed, mode) for m in (n, n + 1))
    assert np.array_equal(short.A, longer.A[:n]) and np.array_equal(short.B, longer.B[:n])


# ---------------------------------------------------------------------------
# one stream per grid: every point reads the chunks of substream (seed, 0)

GRID_ANGLES = [0.0, 1e-3, 5.0, 45.0, 90.0, 135.0, 179.999, 180.0]


def _grid_task(grid, n, seed, mode):
    """The pool task of a grid share: a at 0 and b at each angle."""
    return tuple(_setting(planar(0.0) @ planar(deg)) for deg in grid), n, seed, 0, mode


@pytest.mark.parametrize("n", [1, 7, 5000, CHUNK - 1, CHUNK + 3, 100_000])
@pytest.mark.parametrize("mode", MODES)
def test_grid_tables_are_the_pair_tables_on_the_grid_stream(mode, n):
    # one pass over a grid gives each point the candidate table of its
    # setting pair run alone on substream (seed, 0), the per-pair stream
    # pinned above, and its kept pairs are that pair's outcome table
    tables = _pair_counts(_grid_task(GRID_ANGLES, n, 23, mode))
    assert len(tables) == len(GRID_ANGLES)
    for deg, counts in zip(GRID_ANGLES, tables):
        pair = candidate_counts(planar(0.0), planar(deg), n, substream(23, 0), mode)
        assert np.array_equal(counts, pair), deg
        pair = outcome_counts(planar(0.0), planar(deg), n, substream(23, 0), mode)
        assert np.array_equal(kernel._kept(counts, mode), pair), deg


def _count_fills(monkeypatch) -> list:
    """Spy on the kernel's chunk fill; the list grows by one per call."""
    calls, fill = [], kernel._fill_draws
    monkeypatch.setattr(kernel, "_fill_draws", lambda *args: calls.append(1) or fill(*args))
    return calls


def test_a_grid_reads_each_block_once(monkeypatch):
    # a serial 37-point grid fills each chunk of its stream once for all of
    # its points, not once per point
    slowest = max(run_pair(planar(0.0), planar(deg), 20_000, substream(41, 0), "s3").n_candidates
                  for deg in range(0, 181, 5))
    calls = _count_fills(monkeypatch)
    experiments.run_probabilities(experiments.ExperimentConfig(
        "probabilities", seed=41, model="pearle-reject", n_per_point=100_000, grid="0:180:5"))
    assert len(calls) == -(-100_000 // CHUNK) == 7
    # s3: as many fills as its slowest point needs chunks
    calls.clear()
    correlation_curve("s3", list(range(0, 181, 5)), 20_000, 41)
    assert len(calls) == -(-slowest // CHUNK)


def test_a_bad_api_grid_samples_nothing(monkeypatch):
    # a decreasing grid fails parse_grid before the kernel draws a chunk,
    # not in CorrelationCurve once every point is sampled
    calls = _count_fills(monkeypatch)
    with pytest.raises(ValueError, match="^grid must be strictly increasing"):
        correlation_curve("s3", [90.0, 0.0], 1000, 1)
    assert len(calls) == 0


@pytest.mark.parametrize("mode", MODES)
def test_shares_of_a_grid_do_not_change_a_table(mode):
    # every contiguous split of a grid into 1 to 7 shares, one task each,
    # gives the one-pass tables
    grid, n, seed = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0], CHUNK + 3, 97
    whole = _pair_counts(_grid_task(grid, n, seed, mode))
    for cuts in range(2 ** (len(grid) - 1)):
        ends = [0, *(i for i in range(1, len(grid)) if cuts >> (i - 1) & 1), len(grid)]
        split = [counts for lo, hi in zip(ends, ends[1:])
                 for counts in _pair_counts(_grid_task(grid[lo:hi], n, seed, mode))]
        assert len(split) == len(whole)
        assert all(np.array_equal(x, y) for x, y in zip(split, whole)), ends
    # the API curve is the CLI's
    config = experiments.ExperimentConfig("curve", seed=seed, model=mode, n_per_point=n,
                                          grid=grid)
    assert correlation_curve(mode, grid, n, seed).points == experiments.run_curve(config).points


@pytest.mark.parametrize("mode", MODES)
def test_curve_and_chsh_share_the_pair_at_45_degrees(mode):
    # chsh pair i runs as its angle on substream (seed, i): (90, -45) as
    # 135 degrees. Pair 0, (0, 45), is a curve's 45-degree point on (seed, 0)
    quad, n, seed = canonical_quad(), 5000, 98
    assert np.array_equal(quad.a, planar(0.0)) and np.array_equal(quad.b, planar(45.0))
    chsh_tables = experiments._pair_tables(quad.pairs(), n, seed, mode, 1)
    for pair, eta in enumerate([45.0, 45.0, 45.0, 135.0]):
        candidates = candidate_counts(planar(0.0), planar(eta), n, substream(seed, pair), mode)
        assert np.array_equal(chsh_tables[pair], candidates), pair
        pair_table = outcome_counts(planar(0.0), planar(eta), n, substream(seed, pair), mode)
        assert np.array_equal(kernel._kept(chsh_tables[pair], mode), pair_table), pair
    curve_table = _pair_counts(_grid_task([0.0, 45.0, 90.0], n, seed, mode))[1]
    assert np.array_equal(chsh_tables[0], curve_table)


@pytest.mark.parametrize("mode", MODES)
def test_run_pair_requires_a_philox_generator(mode):
    with pytest.raises(TypeError):
        run_pair(planar(0.0), planar(60.0), 10, np.random.Generator(np.random.PCG64(83)), mode)


def test_probabilities_from_outcomes_rejects_other_values():
    with pytest.raises(ValueError):
        probabilities_from_outcomes(0.0, [2, 1], [-4, 1])
    with pytest.raises(ValueError):
        probabilities_from_outcomes(0.0, [0.5, 1.0], [1.0, 1.0])


def test_s3_candidate_budget_runs_out(monkeypatch):
    # one batch allows max(1024, n) candidates; about half are admitted at 90 degrees
    monkeypatch.setattr(kernel, "_MAX_BATCHES", 1)
    with pytest.raises(RuntimeError):
        run_pair(planar(0.0), planar(90.0), 10_000, 70, mode="s3")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("call", [run_pair, outcome_counts, estimate_pair])
def test_nan_setting_is_not_unit_norm(call, mode):
    # a nan norm fails the unit check like any other: no run starts on it
    nan = np.array([np.nan, 0.0, 0.0])
    for a, b in ((nan, planar(90.0)), (planar(0.0), nan)):
        with pytest.raises(ValueError, match="not unit norm"):
            call(a, b, 1000, 1, mode)


@pytest.mark.parametrize("mode", MODES)
def test_kappa_changes_no_outcome(mode):
    one, three = (correlation_curve(mode, [0.0, 45.0, 135.0], 20_000, 71, kappa=kappa)
                  for kappa in (1, 3))
    assert one.points == three.points


def test_kappa_changes_no_pair_record():
    one, three = (pair_records(planar(0.0), planar(45.0), 20_000, 71, kappa=kappa)
                  for kappa in (1, 3))
    assert [(r.A, r.B) for r in one] == [(r.A, r.B) for r in three]


@pytest.mark.parametrize("kappa", [True, np.True_])
@pytest.mark.parametrize("call", [
    lambda kappa: PearleMapping(kappa=kappa),
    lambda kappa: pearle_f(0.5, kappa=kappa),
    lambda kappa: pair_records(planar(0.0), planar(45.0), 10, 1, kappa=kappa),
    lambda kappa: correlation_curve("s3", [0.0], 10, 1, kappa=kappa),
])
def test_kappa_rejects_a_bool(call, kappa):
    # a bool is an int to Python, but no winding index
    with pytest.raises(ValueError, match="kappa"):
        call(kappa)


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
