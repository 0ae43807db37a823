import itertools
from dataclasses import replace

import numpy as np
import pytest

from s3sim.bounds import (BinaryAssignment, SettingsQuad, TSIRELSON, boole_check,
                          bound_report, canonical_quad, chsh, classify_regime,
                          cosine_correlation, enumerate_four_average_bound,
                          enumerate_single_average_bound, sawtooth_correlation,
                          single_average_value)
from s3sim.singlet import CorrelationEstimate


def test_single_average_enumeration_is_exactly_two():
    bound = enumerate_single_average_bound()
    assert bound.max_value == 2
    assert bound.min_value == -2
    assert bound.n_assignments == 16
    assert single_average_value(BinaryAssignment(*bound.max_witness)) == 2
    assert single_average_value(BinaryAssignment(*bound.min_witness)) == -2


def test_four_average_enumeration_is_exactly_four():
    bound = enumerate_four_average_bound()
    assert bound.max_value == 4
    assert bound.min_value == -4
    assert bound.n_assignments == 256
    a1, b1, a2, b2, a3, b3, a4, b4 = bound.max_witness
    assert a1 * b1 + a2 * b2 + a3 * b3 - a4 * b4 == 4


def test_enumeration_witnesses_are_pinned():
    # the bounds artifact prints these: the first row, in itertools.product
    # order, that reaches each extremum
    single = enumerate_single_average_bound()
    assert (single.max_witness, single.min_witness, single.n_assignments) == \
        ((-1, -1, -1, -1), (-1, -1, 1, -1), 16)
    four = enumerate_four_average_bound()
    assert (four.max_witness, four.min_witness, four.n_assignments) == \
        ((-1, -1, -1, -1, -1, -1, -1, 1), (-1, 1, -1, 1, -1, 1, -1, -1), 256)


def test_specific_assignment_values():
    assert single_average_value(BinaryAssignment(1, 1, 1, 1)) == 2
    assert single_average_value(BinaryAssignment(1, 1, 1, -1)) == 2
    # exactly one bracket survives for any deterministic row: values are +/-2
    values = {single_average_value(BinaryAssignment(*bits))
              for bits in itertools.product((-1, 1), repeat=4)}
    assert values == {-2, 2}
    # all products +1 in the four-context form: the minus sign costs one term
    assert 1 * 1 + 1 * 1 + 1 * 1 - 1 * 1 == 2


def test_binary_assignment_validation():
    with pytest.raises(ValueError):
        BinaryAssignment(0, 1, 1, 1)


def test_bound_report_combines_both_protocols():
    report = bound_report()
    assert (report.expr_single_max, report.expr_single_min) == (2, -2)
    assert (report.expr_four_max, report.expr_four_min) == (4, -4)
    assert set(report.witnesses) == {"single_max", "single_min", "four_max", "four_min"}
    d = report.to_dict()
    assert d["expr_single_max"] == 2 and d["expr_four_max"] == 4


# ---------------------------------------------------------------------------
# row-wise consistency

def test_boole_check_random_rows_never_violate():
    rng = np.random.default_rng(71)
    rows = rng.choice([-1, 1], size=(100_000, 4))
    report = boole_check(rows)
    assert report.violations == 0
    assert -2.0 <= report.row_min <= report.row_max <= 2.0
    assert abs(report.mean) <= 2.0


def test_boole_check_witness_rows_reach_two_exactly():
    witness = enumerate_single_average_bound().max_witness
    rows = np.tile(witness, (500, 1))
    report = boole_check(rows)
    assert report.mean == 2.0 and report.violations == 0


def test_four_context_protocol_reaches_four():
    # rows drawn from four independent contexts: each contributes only its
    # own product, so the empirical mean of E1 + E2 + E3 - E4 can reach 4
    n = 1000
    e1 = np.full(n, 1.0)   # A=+1, B=+1 in context 1
    e2 = np.full(n, 1.0)
    e3 = np.full(n, 1.0)
    e4 = np.full(n, -1.0)  # A=+1, B=-1 in context 4
    total = e1.mean() + e2.mean() + e3.mean() - e4.mean()
    assert total == 4.0


def test_boole_check_rejects_malformed_rows():
    with pytest.raises(ValueError):
        boole_check(np.array([[1, 1, 1, 0]]))
    with pytest.raises(ValueError):
        boole_check(np.empty((0, 4)))
    with pytest.raises(ValueError):
        boole_check(np.array([[1, 1, 1]]))


# ---------------------------------------------------------------------------
# CHSH

def test_analytic_cosine_saturates_tsirelson_at_canonical_quad():
    result = chsh(cosine_correlation, canonical_quad())
    assert abs(abs(result.s) - TSIRELSON) < 1e-9
    assert result.regime == "quantum (<= 2*sqrt(2))"


def test_sawtooth_stays_at_classical_bound():
    result = chsh(sawtooth_correlation, canonical_quad())
    assert abs(abs(result.s) - 2.0) < 1e-9
    assert result.regime == "classical (<= 2)"


def test_degenerate_quad_collapses():
    quad = SettingsQuad.from_planar_degrees(0.0, 0.0, 40.0, 40.0)
    result = chsh(cosine_correlation, quad)
    assert abs(result.s - 2.0 * cosine_correlation(quad.a, quad.b)) < 1e-12
    assert abs(result.s) <= 2.0


def test_quad_rejects_a_nan_setting():
    for name in ("a", "a_prime", "b", "b_prime"):
        with pytest.raises(ValueError, match="not unit norm"):
            replace(canonical_quad(), **{name: np.array([np.nan, 0.0, 0.0])})


def test_chsh_accepts_estimator_outputs():
    def fake(x, y):
        return CorrelationEstimate(e_hat=-0.5, stderr=0.01, n=100, e_analytic=-0.5)
    result = chsh(fake, canonical_quad())
    assert abs(result.s - (-1.0)) < 1e-12
    assert abs(result.s_stderr - 0.02) < 1e-12


def test_one_degree_family_never_exceeds_tsirelson():
    # one-parameter planar family through the canonical quad
    worst = 0.0
    for deg in range(0, 181):
        quad = SettingsQuad.from_planar_degrees(0.0, 2.0 * deg, float(deg), -float(deg))
        s = abs(chsh(cosine_correlation, quad).s)
        worst = max(worst, s)
        assert s <= TSIRELSON + 1e-9
    assert abs(worst - TSIRELSON) < 1e-9  # the family does reach the bound


def test_planar_lattice_never_exceeds_tsirelson():
    degs = np.arange(0.0, 180.1, 5.0)
    rads = np.radians(degs)
    # E matrix over all planar pairs, then S over the full lattice of quads
    E = -np.cos(rads[:, None] - rads[None, :])
    S = (E[:, None, :, None] + E[:, None, None, :]
         + E[None, :, :, None] - E[None, :, None, :])
    assert np.max(np.abs(S)) <= TSIRELSON + 1e-9
    assert abs(np.max(np.abs(S)) - TSIRELSON) < 1e-9


def test_regime_boundaries():
    assert classify_regime(1.99) == "classical (<= 2)"
    assert classify_regime(2.0) == "classical (<= 2)"
    assert classify_regime(2.5) == "quantum (<= 2*sqrt(2))"
    assert classify_regime(TSIRELSON) == "quantum (<= 2*sqrt(2))"
    assert classify_regime(2.9) == "superquantum (> 2*sqrt(2))"
