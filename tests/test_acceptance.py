"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Exact
claims are asserted at machine precision, enumerations at integer equality,
Monte Carlo claims at their stated multiple of the standard error, all on
frozen seeds.
"""
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from s3sim.algebra import (X_AXIS, Bivector, composite_angle,
                           composite_axis_numerator, geodesic_sweep, normalize,
                           quat_from_half_angle, quat_mul, quat_norm, rotate_bivector,
                           spinorial_sign)
from s3sim.bounds import (TSIRELSON, canonical_quad, chsh, cosine_correlation,
                          enumerate_four_average_bound, enumerate_single_average_bound)
from s3sim.curves import read_curve_csv
from s3sim.experiments import ExperimentConfig, chsh_monte_carlo, run_curve
from s3sim.pearle import (detection_fraction_branches, probabilities_from_outcomes,
                          run_pair)
from s3sim.rng import substream
from s3sim.singlet import correlation, simulate_outcomes


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def planar(deg):
    rad = np.radians(deg)
    return np.array([np.cos(rad), np.sin(rad), 0.0])


def test_criterion_01_singlet_curve():
    # (a) limit-product estimator: exact -cos on a 1-degree grid
    worst_exact = 0.0
    for i, deg in enumerate(range(0, 181)):
        rad = np.radians(deg)
        est = correlation(X_AXIS, planar(deg), n=1000, seed=1000 + i)
        worst_exact = max(worst_exact, abs(est.e_hat - (-np.cos(rad))))
    exact_ok = worst_exact < 1e-15

    # (b) stochastic bridge estimator: 5-degree grid, n = 1e5 per point,
    #     within 4 standard errors; timed against the 10 s budget
    t0 = time.perf_counter()
    curve = run_curve(ExperimentConfig(experiment="curve", seed=11, model="s3",
                                       n_per_point=100_000, grid=(0.0, 180.0, 5.0)))
    elapsed = time.perf_counter() - t0
    worst_z = 0.0
    for p in curve.points:
        tol = 4.0 * p.stderr if p.stderr > 0 else 1e-12
        if abs(p.e_hat - p.e_analytic) > tol:
            report(1, False, f"bridge point {p.eta_deg} deg off by "
                             f"{abs(p.e_hat - p.e_analytic):.2e} > {tol:.2e}")
        if p.stderr > 0:
            worst_z = max(worst_z, abs(p.e_hat - p.e_analytic) / p.stderr)
    report(1, exact_ok and elapsed < 10.0,
           f"singlet curve: limit-product exact to {worst_exact:.1e}; bridge max "
           f"|z| = {worst_z:.2f} over 37 points; grid at n=1e5 in {elapsed:.2f} s")


def test_criterion_02_tsirelson_saturation():
    analytic = chsh(cosine_correlation, canonical_quad())
    analytic_ok = abs(abs(analytic.s) - TSIRELSON) < 1e-9
    mc = chsh_monte_carlo(canonical_quad(), 1_000_000, seed=22, mode="s3")
    mc_ok = abs(abs(mc.s) - TSIRELSON) <= 4.0 * mc.s_stderr
    report(2, analytic_ok and mc_ok,
           f"Tsirelson saturation: analytic |S| = {abs(analytic.s):.12f} "
           f"(target {TSIRELSON:.12f}); Monte Carlo |S| = {abs(mc.s):.4f} "
           f"+/- {mc.s_stderr:.4f} at n=1e6 per pair")


def test_criterion_03_detection_fraction():
    worst_ratio_z = 0.0
    for i, deg in enumerate(range(0, 181, 5)):
        rad = np.radians(deg)
        run = run_pair(planar(0.0), planar(deg), 100_000, substream(33, i), mode="s3")
        count_ok = (run.n_detected_pairs == 100_000)
        if not count_ok:
            report(3, False, f"count equality broken at {deg} deg")
        t = probabilities_from_outcomes(rad, run.A, run.B)
        g_pm, g_pp = detection_fraction_branches(rad, t)
        # the better-conditioned branch carries the estimate
        if 0.5 * np.cos(rad / 2) ** 2 >= 0.5 * np.sin(rad / 2) ** 2:
            g, denom, p = g_pm, 0.5 * np.cos(rad / 2) ** 2, t.p_pm
        else:
            g, denom, p = g_pp, 0.5 * np.sin(rad / 2) ** 2, t.p_pp
        se = np.sqrt(max(p * (1 - p), 1e-12) / t.n) / denom
        z = abs(g - 1.0) / se
        worst_ratio_z = max(worst_ratio_z, z)
        if abs(g - 1.0) > 4.0 * se:
            report(3, False, f"ratio estimator at {deg} deg: g = {g:.4f}, z = {z:.2f}")
    report(3, True, "detection fraction: admitted == detected pairs (exact count "
                    f"equality) at all 37 angles; ratio estimators max |z| = {worst_ratio_z:.2f}")


def test_criterion_04_probability_block():
    worst = 0.0
    for i, deg in enumerate((0.0, 30.0, 45.0, 90.0, 135.0, 180.0)):
        rad = np.radians(deg)
        run = run_pair(planar(0.0), planar(deg), 100_000, substream(44, i), mode="s3")
        t = probabilities_from_outcomes(rad, run.A, run.B)
        zeros_ok = (t.p_00 == 0.0 and t.p_p0 == 0.0 and t.p_m0 == 0.0
                    and t.p_0p == 0.0 and t.p_0m == 0.0)
        if not zeros_ok:
            report(4, False, f"zero-event probabilities nonzero at {deg} deg")
        cells = {
            t.p_single_plus_1: 0.5, t.p_single_minus_1: 0.5,
            t.p_single_plus_2: 0.5, t.p_single_minus_2: 0.5,
            t.p_pm: 0.5 * np.cos(rad / 2) ** 2, t.p_mp: 0.5 * np.cos(rad / 2) ** 2,
            t.p_pp: 0.5 * np.sin(rad / 2) ** 2, t.p_mm: 0.5 * np.sin(rad / 2) ** 2,
        }
        for observed, target in cells.items():
            se = np.sqrt(target * (1 - target) / t.n)
            tol = 4.0 * se if se > 0 else 1e-12
            if abs(observed - target) > tol:
                report(4, False, f"cell off at {deg} deg: {observed:.5f} vs {target:.5f}")
            if se > 0:
                worst = max(worst, abs(observed - target) / se)
    report(4, True, "probability block: zero-event cells exactly 0; singles and "
                    f"joints match quantum values, max |z| = {worst:.2f} at n=1e5")


def test_criterion_05_flat_baseline():
    curve = run_curve(ExperimentConfig(experiment="curve", seed=55, model="flat",
                                       n_per_point=100_000, grid=(0.0, 180.0, 5.0)))
    worst_z = 0.0
    for p in curve.points:
        expected = -1.0 + 2.0 * np.radians(p.eta_deg) / np.pi
        tol = 4.0 * p.stderr if p.stderr > 0 else 1e-12
        if abs(p.e_hat - expected) > tol:
            report(5, False, f"saw-tooth off at {p.eta_deg} deg")
        if p.stderr > 0:
            worst_z = max(worst_z, abs(p.e_hat - expected) / p.stderr)
    mc = chsh_monte_carlo(canonical_quad(), 100_000, seed=56, mode="flat")
    s_ok = abs(mc.s) <= 2.0 + 4.0 * mc.s_stderr
    report(5, s_ok, f"flat baseline: saw-tooth max |z| = {worst_z:.2f}; "
                    f"|S| = {abs(mc.s):.4f} <= 2 + 4*{mc.s_stderr:.4f}")


def test_criterion_06_bound_arithmetic():
    t0 = time.perf_counter()
    single = enumerate_single_average_bound()
    four = enumerate_four_average_bound()
    ms = (time.perf_counter() - t0) * 1000.0
    ok = (single.max_value == 2 and single.min_value == -2
          and four.max_value == 4 and four.min_value == -4)
    report(6, ok and ms < 1000.0,
           f"bound arithmetic: single-average extrema ({single.min_value}, "
           f"{single.max_value}), four-average extrema ({four.min_value}, "
           f"{four.max_value}), enumerated in {ms:.1f} ms")


def test_criterion_07_algebra_suite():
    rng = np.random.default_rng(77)
    q1 = rng.standard_normal((10_000, 4))
    q1 /= np.linalg.norm(q1, axis=1, keepdims=True)
    q2 = rng.standard_normal((10_000, 4))
    q2 /= np.linalg.norm(q2, axis=1, keepdims=True)
    closure = float(np.max(np.abs(quat_norm(quat_mul(q1, q2)) - 1.0)))

    vecs = rng.standard_normal((4, 10_000, 3))
    a, s1, s2, b = (v / np.linalg.norm(v, axis=-1, keepdims=True) for v in vecs)
    eta1 = np.arccos(np.clip(np.sum(a * s1, axis=1), -1, 1))
    eta2 = np.arccos(np.clip(np.sum(s2 * b, axis=1), -1, 1))
    direct = quat_mul(quat_from_half_angle(normalize(np.cross(a, s1)), eta1),
                      quat_from_half_angle(normalize(np.cross(s2, b)), eta2))
    composite = np.concatenate([np.cos(composite_angle(a, s1, s2, b))[:, None],
                                composite_axis_numerator(a, s1, s2, b)], axis=1)
    factorization = float(np.max(np.abs(composite - direct)))

    q = quat_from_half_angle(normalize(rng.standard_normal(3)), 0.83)
    sign_ok = (np.array_equal(spinorial_sign(q, 1), -q)
               and np.array_equal(spinorial_sign(q, 2), q))

    J = Bivector(axis=normalize(rng.standard_normal(3)))
    plus, minus = rotate_bivector(q, J), rotate_bivector(-q, J)
    antipode_ok = np.array_equal(plus.axis, minus.axis)

    av, bv, t1, t2 = (normalize(rng.standard_normal(3)) for _ in range(4))
    eps = np.logspace(-1, -5, 9)
    norms = [np.linalg.norm(composite_axis_numerator(
        av, normalize(av + e * t1), normalize(bv + e * t2), bv)) for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(norms), 1)[0])

    ok = (closure < 1e-10 and factorization < 1e-10 and sign_ok and antipode_ok
          and abs(slope - 1.0) < 0.1)
    report(7, ok, f"algebra suite: closure {closure:.1e}, factorization "
                  f"{factorization:.1e} over 1e4 draws; spinorial sign exact; "
                  f"antipode invariance exact; axis-limit slope {slope:.3f}")


def test_criterion_08_geodesic_shape():
    points = geodesic_sweep(180)
    d2 = np.array([p.d_su2 for p in points])
    d3 = np.array([p.d_so3 for p in points])
    min_form = float(np.max(np.abs(d3 - np.minimum(d2, np.pi - d2))))
    monotone = bool(np.all(np.diff(d2) > 0)) and abs(d2[-1] - np.pi) < 1e-12
    shape = d3[90] == np.max(d3) and d3[-1] < 1e-12 and abs(d3[90] - np.pi / 2) < 1e-12
    report(8, min_form < 1e-12 and monotone and shape,
           f"geodesic shape: |d_so3 - min(d_su2, pi - d_su2)| <= {min_form:.1e} on "
           f"1-degree sweep; d_su2 monotone to pi; projective arc peaks at 90 deg")


def test_criterion_09_marginals_and_no_signalling():
    n = 100_000
    worst = 0.0
    counts = []
    for j, deg in enumerate((0.0, 45.0, 90.0, 135.0)):
        ens = simulate_outcomes(X_AXIS, planar(deg), n, seed=99 + j)
        worst = max(worst, abs(ens.A.mean()), abs(ens.B.mean()))
        counts.append([int(np.sum(ens.A == 1)), int(np.sum(ens.A == -1))])
    bound = 4.0 / np.sqrt(n)
    _, p_value, _, _ = stats.chi2_contingency(np.array(counts))
    report(9, worst <= bound and p_value > 0.01,
           f"marginals/no-signalling: max |mean| = {worst:.5f} <= {bound:.5f}; "
           f"A-distribution vs b chi-square p = {p_value:.3f} > 0.01 at n=1e5")


def test_criterion_10_reproducibility(tmp_path, cli_env):
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        cmd = [sys.executable, "-m", "s3sim", "curve", "--n", "2000", "--seed", "1234",
               "--grid", "0:180:15", "--workers", str(workers), "--out", str(out)]
        res = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
        if res.returncode != 0:
            report(10, False, f"CLI failed with workers={workers}: {res.stderr}")
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    curve = read_curve_csv(tmp_path / "w1.csv")
    report(10, identical and len(curve.points) == 13,
           "reproducibility: byte-identical CSV across 1, 4, and 8 workers "
           f"({len(outputs[0])} bytes)")
