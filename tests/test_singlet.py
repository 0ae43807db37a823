import io

import numpy as np
import pytest
from scipy import stats

from s3sim.algebra import X_AXIS, Y_AXIS, planar, quat_norm
from s3sim.curves import read_rows_csv
from s3sim.singlet import (HiddenVariable, WINDING_RULES, correlation,
                           draw_hidden_variable, joint_limit_value, measure_alice,
                           measure_bob, records_to_csv, sign_product_diagnostic,
                           simulate_outcomes, simulate_runs)
from s3sim.rng import substream


def hv(lam=1, s=Y_AXIS, conservation=True):
    return HiddenVariable(lam=lam, s1=s, s2=s, conservation=conservation)


# ---------------------------------------------------------------------------
# measurement functions

def test_alice_limit_outcomes():
    q, A = measure_alice(X_AXIS, hv(lam=1))
    assert np.array_equal(q, [1.0, 0, 0, 0]) and A == 1
    q, A = measure_alice(X_AXIS, hv(lam=-1))
    assert np.array_equal(q, [-1.0, 0, 0, 0]) and A == -1


def test_bob_limit_outcomes():
    q, B = measure_bob(X_AXIS, hv(lam=1))
    assert np.array_equal(q, [-1.0, 0, 0, 0]) and B == -1
    q, B = measure_bob(X_AXIS, hv(lam=-1))
    assert np.array_equal(q, [1.0, 0, 0, 0]) and B == 1


def test_prelimit_quaternions_are_unit_with_correct_axes():
    eta = 0.4
    q, _ = measure_alice(X_AXIS, hv(lam=1, s=Y_AXIS), eta=eta)
    # rotation axis (a x s1) = z for a = x, s1 = y
    assert abs(quat_norm(q) - 1.0) < 1e-12
    assert np.allclose(q, [np.cos(eta), 0, 0, np.sin(eta)])
    q, _ = measure_bob(X_AXIS, hv(lam=1, s=Y_AXIS), eta=eta)
    # r2 = (s2 x b) = -z for s2 = y, b = x; overall sign -lam
    assert np.allclose(q, [-np.cos(eta), 0, 0, np.sin(eta)])


def test_windings_flip_outcome_signs():
    _, A0 = measure_alice(X_AXIS, hv(lam=1), kappa=0)
    _, A1 = measure_alice(X_AXIS, hv(lam=1), kappa=1)
    _, A2 = measure_alice(X_AXIS, hv(lam=1), kappa=2)
    assert (A0, A1, A2) == (1, -1, 1)
    _, B1 = measure_bob(X_AXIS, hv(lam=1), kappa=1)
    assert B1 == 1


def test_parallel_axis_error_only_before_limit():
    bad = hv(s=X_AXIS)
    with pytest.raises(ValueError):
        measure_alice(X_AXIS, bad, eta=0.3)
    q, A = measure_alice(X_AXIS, bad, eta=0.0)  # at the limit no axis is needed
    assert A == 1 and np.array_equal(q, [1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        measure_bob(X_AXIS, bad, eta=0.3)


def test_hidden_variable_validation():
    with pytest.raises(ValueError):
        HiddenVariable(lam=0, s1=X_AXIS, s2=X_AXIS)
    with pytest.raises(ValueError):
        HiddenVariable(lam=1, s1=X_AXIS, s2=Y_AXIS, conservation=True)
    ok = HiddenVariable(lam=1, s1=X_AXIS, s2=Y_AXIS, conservation=False)
    assert not ok.conservation


def test_hidden_variable_rejects_a_nan_axis():
    nan = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="not unit norm"):
        HiddenVariable(lam=1, s1=nan, s2=nan)
    with pytest.raises(ValueError, match="not unit norm"):
        HiddenVariable(lam=1, s1=X_AXIS, s2=nan, conservation=False)


def test_marginals_are_fair():
    n = 1_000_000
    ens = simulate_outcomes(X_AXIS, Y_AXIS, n, seed=101)
    assert abs(ens.A.mean()) <= 4 / np.sqrt(n)
    assert abs(ens.B.mean()) <= 4 / np.sqrt(n)


# ---------------------------------------------------------------------------
# joint values

def test_joint_limit_dichotomy():
    assert joint_limit_value(X_AXIS, X_AXIS, hv()) == -1.0
    assert joint_limit_value(X_AXIS, Y_AXIS, hv()) == 0.0
    v = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0])
    assert abs(joint_limit_value(X_AXIS, v, hv()) - (-0.5)) < 1e-15
    no_cons = HiddenVariable(lam=1, s1=X_AXIS, s2=Y_AXIS, conservation=False)
    assert joint_limit_value(X_AXIS, v, no_cons) == -1.0
    assert joint_limit_value(X_AXIS, X_AXIS, no_cons) == -1.0


def test_conservation_dichotomy_over_random_settings():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        on = HiddenVariable(lam=1, s1=s, s2=s, conservation=True)
        off = HiddenVariable(lam=1, s1=s, s2=np.roll(s, 1), conservation=False)
        assert joint_limit_value(a, b, on) == -np.dot(a, b)
        assert joint_limit_value(a, b, off) == -1.0


def test_correlation_exact_on_one_degree_grid():
    for i, deg in enumerate(range(0, 181, 1)):
        rad = np.radians(deg)
        b = np.array([np.cos(rad), np.sin(rad), 0.0])
        est = correlation(X_AXIS, b, n=2000, seed=7 + i)
        assert abs(est.e_hat - (-np.cos(rad))) < 1e-15
        assert abs(est.e_hat - est.e_analytic) < 1e-15
        assert est.stderr < 1e-15  # degenerate ensemble: spread is fp noise only


def test_correlation_landmark_angles():
    assert correlation(X_AXIS, X_AXIS, 10_000, seed=1).e_hat == -1.0
    b = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0])
    assert abs(correlation(X_AXIS, b, 10_000, seed=2).e_hat - (-0.5)) < 1e-15
    assert correlation(X_AXIS, -X_AXIS, 10_000, seed=3).e_hat == 1.0


def test_correlation_without_conservation_is_flat_minus_one():
    est = correlation(X_AXIS, Y_AXIS, 5_000, seed=9, conservation=False)
    assert est.e_hat == -1.0


def test_correlation_requires_runs():
    with pytest.raises(ValueError):
        correlation(X_AXIS, Y_AXIS, 0, seed=1)


def test_no_signalling_chi_square():
    # distribution of A must not depend on b
    n = 100_000
    counts = []
    for j, deg in enumerate((0.0, 45.0, 90.0, 135.0)):
        rad = np.radians(deg)
        b = np.array([np.cos(rad), np.sin(rad), 0.0])
        A = simulate_outcomes(X_AXIS, b, n, seed=33 + j).A
        counts.append([int(np.sum(A == 1)), int(np.sum(A == -1))])
    _, p, _, _ = stats.chi2_contingency(np.array(counts))
    assert p > 0.01


# ---------------------------------------------------------------------------
# records

def test_simulate_runs_records():
    records = simulate_runs(X_AXIS, Y_AXIS, 200, seed=11)
    assert len(records) == 200
    for r in records:
        assert r.A in (-1, 1) and r.B in (-1, 1)
        assert r.A == r.hv.lam and r.B == -r.hv.lam
        assert r.joint_limit == joint_limit_value(r.a, r.b, r.hv)
        assert np.array_equal(r.hv.s1, r.hv.s2)


def test_records_csv_round_trip(tmp_path):
    records = simulate_runs(X_AXIS, Y_AXIS, 50, seed=12)
    path = tmp_path / "runs.csv"
    with open(path, "w", newline="") as fh:
        records_to_csv(records, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a_theta,b_theta,lambda,A,B,joint_limit"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 90.0
    assert int(first[2]) in (-1, 1)
    assert float(first[5]) == records[0].joint_limit


def test_records_csv_is_the_artifact_format(tmp_path):
    records = simulate_runs(X_AXIS, planar(30.0), 40, seed=31, winding_rule="angle-threshold")
    buf = io.StringIO()
    records_to_csv(records, buf)
    assert "\r" not in buf.getvalue()
    path = tmp_path / "runs.csv"
    path.write_text(buf.getvalue())
    meta, rows = read_rows_csv(path)
    assert meta == {} and len(rows) == len(records)
    columns = ("a_theta", "b_theta", "lambda", "A", "B", "joint_limit")
    for r, row in zip(records, rows):
        azimuths = [np.degrees(np.arctan2(v[1], v[0])) for v in (r.a, r.b)]
        fields_ = (*azimuths, r.hv.lam, r.A, r.B, r.joint_limit)
        assert [float(row[c]) for c in columns] == [float(format(x, ".9g")) for x in fields_]


# ---------------------------------------------------------------------------
# sign-product diagnostic

def test_zero_winding_collapses_to_constant_anticorrelation():
    d = sign_product_diagnostic(X_AXIS, Y_AXIS, 20_000, seed=21, winding_rule="zero")
    assert d.estimate.e_hat == -1.0
    assert d.counts["++"] == 0 and d.counts["--"] == 0
    assert d.counts["+-"] + d.counts["-+"] == 20_000


def test_equal_settings_restrict_outcome_pairs_for_every_rule():
    for rule in WINDING_RULES:
        d = sign_product_diagnostic(X_AXIS, X_AXIS, 20_000, seed=22, winding_rule=rule)
        assert d.counts["++"] == 0 and d.counts["--"] == 0
        assert d.estimate.e_hat == -1.0


def test_angle_threshold_rule_shows_all_four_pairs():
    d = sign_product_diagnostic(X_AXIS, Y_AXIS, 50_000, seed=23,
                                winding_rule="angle-threshold")
    assert min(d.counts.values()) > 0
    assert sum(d.counts.values()) == 50_000
    assert -1.0 < d.estimate.e_hat < 1.0


def test_random_parity_randomizes_individual_signs_only():
    d = sign_product_diagnostic(X_AXIS, Y_AXIS, 20_000, seed=24,
                                winding_rule="random-parity")
    assert d.estimate.e_hat == -1.0
    # both anti-correlated cells populated: the shared coin flips A and B together
    assert d.counts["+-"] > 0 and d.counts["-+"] > 0


@pytest.mark.parametrize("rule", WINDING_RULES)
@pytest.mark.parametrize("deg", [0.0, 60.0, 120.0])
def test_sign_product_diagnostic_matches_the_array_reduction(rule, deg):
    n, seed = 30_000, 29
    d = sign_product_diagnostic(X_AXIS, planar(deg), n, seed, winding_rule=rule)
    ens = simulate_outcomes(X_AXIS, planar(deg), n, seed, winding_rule=rule)
    A, B = ens.A, ens.B
    prod = (A * B).astype(float)
    assert d.estimate.e_hat == float(prod.mean())
    assert d.estimate.n == n
    assert d.counts == {"++": int(np.sum((A == 1) & (B == 1))),
                        "+-": int(np.sum((A == 1) & (B == -1))),
                        "-+": int(np.sum((A == -1) & (B == 1))),
                        "--": int(np.sum((A == -1) & (B == -1)))}
    assert d.estimate.stderr == pytest.approx(prod.std(ddof=1) / np.sqrt(n), rel=1e-15, abs=0.0)


def test_unknown_winding_rule_rejected():
    with pytest.raises(ValueError):
        sign_product_diagnostic(X_AXIS, Y_AXIS, 10, seed=1, winding_rule="bogus")


def test_draw_hidden_variable_statistics():
    rng = substream(404)
    lams = [draw_hidden_variable(rng).lam for _ in range(4000)]
    assert abs(np.mean(lams)) < 4 / np.sqrt(4000)
    hv2 = draw_hidden_variable(rng, conservation=False)
    assert not np.array_equal(hv2.s1, hv2.s2)
