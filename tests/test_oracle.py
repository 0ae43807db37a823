"""The deterministic oracle and the Monte Carlo count tables checked against it."""
import numpy as np
import pytest
from scipy import stats

from s3sim.oracle import acceptance, expected_table
from s3sim.pearle import MODES, estimate_pair, outcome_counts, run_pair
from s3sim.rng import substream


def planar(deg):
    rad = np.radians(deg)
    return np.array([np.cos(rad), np.sin(rad), 0.0])


# s3's admission rate, pearle-reject's coincidence fraction g(eta)
ACCEPTANCE = {0: 0.666666666667, 30: 0.556479171342, 45: 0.523435870208,
              60: 0.501341222954, 90: 0.484506970177}


@pytest.mark.parametrize("deg", sorted(ACCEPTANCE))
def test_acceptance_values(deg):
    assert abs(acceptance(np.radians(deg)) - ACCEPTANCE[deg]) <= 1e-10
    # symmetric about 90 degrees
    assert abs(acceptance(np.radians(180 - deg)) - ACCEPTANCE[deg]) <= 1e-10


@pytest.mark.parametrize("deg", [0, 15, 30, 45, 60, 90, 120, 135, 150, 180])
def test_expected_tables(deg):
    eta = np.radians(deg)
    for mode in MODES:
        table = expected_table(eta, mode)
        assert table.shape == (3, 3) and np.all(table >= -1e-15)
        assert abs(table.sum() - 1.0) <= 1e-12
        same, diff = table[0, 2] + table[2, 0], table[0, 0] + table[2, 2]
        e = (diff - same) / (diff + same)
        expected = (-1.0 + 2.0 * eta / np.pi) if mode == "flat" else -np.cos(eta)
        assert abs(e - expected) <= 1e-12
    reject = expected_table(eta, "pearle-reject")
    # each wing detects with probability E F(|e.n|) = 2/3 at every angle
    assert abs(1.0 - reject[1, :].sum() - 2.0 / 3.0) <= 1e-12
    assert abs(1.0 - reject[:, 1].sum() - 2.0 / 3.0) <= 1e-12
    # s3's table is pearle-reject's both-detected part, renormalised by g
    g = acceptance(eta)
    corners = reject.copy()
    corners[1, :] = corners[:, 1] = 0.0
    assert abs(corners.sum() - g) <= 1e-12
    assert np.max(np.abs(expected_table(eta, "s3") - corners / g)) <= 1e-12


def test_expected_table_rejects_unknown_mode():
    with pytest.raises(ValueError):
        expected_table(0.5, "spherical-cow")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deg", [0, 45, 90, 135])
def test_count_table_g_test(mode, deg):
    # G-test of the count table against the oracle multinomial; cells the
    # oracle rules out must be empty
    n, eta = 1_000_000, np.radians(deg)
    seed = 880 + MODES.index(mode)
    counts = outcome_counts(planar(0.0), planar(deg), n, substream(seed, deg), mode)
    assert counts.sum() == n
    expected = n * expected_table(eta, mode)
    possible = expected > 1e-9
    assert np.all(counts[~possible] == 0)
    observed = counts[possible]
    nonzero = observed > 0
    g = 2.0 * np.sum(observed[nonzero] * np.log(observed[nonzero] / expected[possible][nonzero]))
    assert stats.chi2.sf(g, possible.sum() - 1) > 1e-4


@pytest.mark.parametrize("deg", [0, 45, 90, 135])
def test_s3_candidates_match_the_acceptance(deg):
    # candidates for n admitted: negative binomial, mean n/p, variance n(1-p)/p^2
    n, p = 1_000_000, acceptance(np.radians(deg))
    run = run_pair(planar(0.0), planar(deg), n, substream(890, deg), "s3")
    assert abs(run.n_candidates - n / p) <= 4.0 * np.sqrt(n * (1.0 - p)) / p


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deg", [45, 120])
def test_stderr_is_calibrated_across_seeds(mode, deg):
    # z = (e_hat - E)/stderr over 200 substreams must look N(0, 1): a biased
    # e_hat or an over- or under-confident stderr fails the KS test, which
    # no single-seed 4-sigma check can see. sum(z^2) ~ chi2(200) is the
    # sharper check of the stderr's scale: a stderr off by 1.3x fails it
    eta = np.radians(deg)
    table = expected_table(eta, mode)
    same, diff = table[0, 2] + table[2, 0], table[0, 0] + table[2, 2]
    e_oracle = (diff - same) / (diff + same)
    seed = 940 + MODES.index(mode)
    z = []
    for i in range(200):
        est = estimate_pair(planar(0.0), planar(deg), 2000, substream(seed, deg, i), mode)
        z.append((est.e_hat - e_oracle) / est.stderr)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    chi2 = stats.chi2(len(z))
    sum_sq = float(np.sum(np.square(z)))
    assert 2.0 * min(chi2.cdf(sum_sq), chi2.sf(sum_sq)) > 1e-3
