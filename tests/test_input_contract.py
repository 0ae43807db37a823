"""The input contract of the public API: a NaN, an infinity, a value out of
its domain, or a bool or float where an integer is meant raises a
ValueError that names the parameter, never a plausible-looking result.
Every such check goes through the three helpers in s3sim.algebra."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sim.algebra import (IDENTITY, X_AXIS, Y_AXIS, Z_AXIS, Bivector, _require_choice,
                           _require_in, _require_int, _safe_arccos, composite_axis,
                           geodesic_sweep, planar, quat_from_axis_angle, quat_from_half_angle,
                           spinorial_sign)
from s3sim.bounds import boole_check, canonical_quad, chsh_from_estimates
from s3sim.curves import parse_grid
from s3sim.experiments import ExperimentConfig, chsh_monte_carlo
from s3sim.oracle import acceptance, expected_table
from s3sim.pearle import (PearleMapping, admissible, correlation_curve, curve_point,
                          detection_fraction, detection_fraction_branches, pearle_f,
                          pearle_f_complement, probabilities_from_outcomes, run_pair)
from s3sim.singlet import (HiddenVariable, measure_alice, measure_bob, sign_product_diagnostic,
                           simulate_outcomes, simulate_runs)

nan, inf = float("nan"), float("inf")
HV = HiddenVariable(lam=1, s1=Y_AXIS, s2=Y_AXIS)
TABLE = probabilities_from_outcomes(np.pi / 2, [1, -1, 1, 0], [-1, 1, 1, -1])

# (call, the parameter its error must name)
PROBES = {
    "pearle_f(nan)": (lambda: pearle_f(nan), "eta"),
    "pearle_f_complement(nan)": (lambda: pearle_f_complement(nan), "eta"),
    "radial_coordinate(nan)": (lambda: PearleMapping().radial_coordinate(nan), "eta"),
    "threshold_density(nan)": (lambda: PearleMapping.threshold_density(nan), "f"),
    "threshold_density(-1)": (lambda: PearleMapping.threshold_density(-1.0), "f"),
    "quat_from_axis_angle(Z, nan)": (lambda: quat_from_axis_angle(Z_AXIS, nan), "psi"),
    "quat_from_half_angle(Z, nan)": (lambda: quat_from_half_angle(Z_AXIS, nan), "eta"),
    "_safe_arccos(nan)": (lambda: _safe_arccos(nan), "arccos argument"),
    "spinorial_sign(q, nan)": (lambda: spinorial_sign(IDENTITY, nan), "kappa"),
    "spinorial_sign(q, 1.5)": (lambda: spinorial_sign(IDENTITY, 1.5), "kappa"),
    "chsh_from_estimates([nan] * 4)": (lambda: chsh_from_estimates([nan] * 4), "abs_s"),
    # three estimates raised IndexError; five gave S from the first four and
    # an s_stderr that counted the fifth
    **{f"chsh_from_estimates([0.5] * {k})": (lambda k=k: chsh_from_estimates([0.5] * k),
                                              "estimates") for k in (3, 5)},
    # np.isin reads True as 1, and numpy's bool subtract then raised TypeError
    "boole_check([[True] * 4])": (lambda: boole_check([[True] * 4]), "row entries"),
    "measure_alice(eta=nan)": (lambda: measure_alice(X_AXIS, HV, nan), "eta"),
    "measure_alice(kappa=nan)": (lambda: measure_alice(X_AXIS, HV, kappa=nan), "kappa"),
    "measure_bob(eta=inf)": (lambda: measure_bob(X_AXIS, HV, inf), "eta"),
    "Bivector(magnitude=nan)": (lambda: Bivector(axis=Z_AXIS, magnitude=nan), "magnitude"),
    "geodesic_sweep(2.5)": (lambda: geodesic_sweep(2.5), "steps"),
    "run_pair(n=2.5)": (lambda: run_pair(X_AXIS, Y_AXIS, 2.5, 1), "n"),
    "simulate_outcomes(n=True)": (lambda: simulate_outcomes(X_AXIS, Y_AXIS, True, 1), "n"),
    "composite_axis(eta_uv=nan)": (lambda: composite_axis(X_AXIS, Y_AXIS, Y_AXIS, Z_AXIS, nan),
                                   "eta_uv"),
    "probabilities_from_outcomes(nan)": (lambda: probabilities_from_outcomes(nan, [1], [1]),
                                         "eta"),
    # int(1.5) would silently run seed 1
    "run_pair(seed=1.5)": (lambda: run_pair(X_AXIS, Y_AXIS, 10, 1.5), "seed"),
    # the oracle is the tests' reference: nan gave a nan table, 7 negative cells
    "expected_table(nan)": (lambda: expected_table(nan, "flat"), "eta"),
    "expected_table(7.0)": (lambda: expected_table(7.0, "flat"), "eta"),
    "acceptance(nan)": (lambda: acceptance(nan), "eta"),
    # 0 divided by zero and -1 failed to unpack; 2.5 and True ran
    **{f"chsh_monte_carlo(workers={w!r})":
       (lambda w=w: chsh_monte_carlo(canonical_quad(), 100, 1, "flat", workers=w), "workers")
       for w in (0, -1, 2.5, True)},
    # settings 160 degrees apart reported against the analytic value at 200
    "correlation_curve([200])": (lambda: correlation_curve("flat", [200.0], 2000, 1), "grid"),
    # an empty grid gave a curve with no points; a scalar or nested grid
    # raised numpy's TypeError
    "correlation_curve([])": (lambda: correlation_curve("flat", [], 100, 1), "grid"),
    "correlation_curve(45.0)": (lambda: correlation_curve("flat", 45.0, 100, 1), "grid"),
    "correlation_curve([[10, 20]])": (lambda: correlation_curve("flat", [[10, 20]], 100, 1),
                                      "grid"),
    # parse_grid is the one grid check, for the API, a config and the CLI
    # text alike: a nested config grid passed validated() and a scalar one
    # raised TypeError, and these messages named no parameter
    "ExperimentConfig(grid=[[0, 90]])":
        (lambda: ExperimentConfig("geodesic", seed=1, grid=[[0, 90]]).validated(), "grid"),
    "ExperimentConfig(grid=45.0)":
        (lambda: ExperimentConfig("curve", seed=1, grid=45.0).validated(), "grid"),
    "parse_grid('a,b')": (lambda: parse_grid("a,b"), "grid"),
    "parse_grid('')": (lambda: parse_grid(""), "grid"),
    "parse_grid('0:90')": (lambda: parse_grid("0:90"), "grid"),
    "parse_grid('0,nan')": (lambda: parse_grid("0,nan"), "grid"),
    "parse_grid([[0, 90], [1]])": (lambda: parse_grid([[0, 90], [1]]), "grid"),
    "curve_point(200)": (lambda: curve_point("flat", 200.0, 2000, 1, 0), "deg"),
    "curve_point(-30)": (lambda: curve_point("flat", -30.0, 2000, 1, 0), "deg"),
    # eta outside [0, pi] gave a plausible fraction (0.456 at 7, 0.519 at -1)
    # and nan gave (nan, nan); f outside [0, 1] or nan admitted no state
    "detection_fraction(7.0)": (lambda: detection_fraction(7.0, TABLE), "eta"),
    "detection_fraction(-1.0)": (lambda: detection_fraction(-1.0, TABLE), "eta"),
    "detection_fraction_branches(nan)": (lambda: detection_fraction_branches(nan, TABLE),
                                         "eta"),
    "admissible(f=2.0)": (lambda: admissible(Z_AXIS, 2.0, X_AXIS), "f"),
    "admissible(f=nan)": (lambda: admissible(Z_AXIS, nan, X_AXIS), "f"),
    # a nan angle gave the vector [nan, nan, 0]
    "planar(nan)": (lambda: planar(nan), "deg"),
    "planar(inf)": (lambda: planar(inf), "deg"),
    # an empty out wrote the default <experiment>.<format>
    "ExperimentConfig(out='')":
        (lambda: ExperimentConfig("geodesic", seed=1, out="").validated(), "out"),
    # int(1.5) and int(True) ran the index-1 point; -1 and nan raised
    # numpy's messages, which named no parameter
    **{f"curve_point(index={i!r})": (lambda i=i: curve_point("s3", 45.0, 1000, 1, i), "index")
       for i in (1.5, True, -1, nan)},
    # an unknown rule drew n coins and n sphere points, then raised a
    # message that named no parameter
    **{f"{fn.__name__}(winding_rule='bad')":
       (lambda fn=fn: fn(X_AXIS, Y_AXIS, 10, 1, winding_rule="bad"), "winding_rule")
       for fn in (simulate_outcomes, simulate_runs, sign_product_diagnostic)},
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_input_raises_naming_the_parameter(probe):
    call, name = PROBES[probe]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(FINITE, FINITE)
def test_require_in_takes_the_closed_interval_and_nothing_else(x, y):
    lo, hi = min(x, y), max(x, y)
    for inside in (lo, hi, [lo, hi]):
        assert np.array_equal(_require_in(inside, "x", lo, hi), inside)
    for outside in (math.nextafter(lo, -inf), math.nextafter(hi, inf), nan, inf, -inf, [lo, nan]):
        with pytest.raises(ValueError, match="^x must be finite"):
            _require_in(outside, "x", lo, hi)
    # finiteness is part of the rule whatever the bounds
    for outside in (nan, inf, -inf):
        with pytest.raises(ValueError, match="^x must be finite"):
            _require_in(outside, "x")


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.integers(0, 2**10))
def test_require_int_takes_integers_in_range_only(lo, width):
    hi = lo + width
    for inside in (lo, hi):
        assert _require_int(inside, "k", lo, hi) == inside
    if -2**63 <= lo < 2**63:
        assert _require_int(np.int64(lo), "k", lo, hi) == lo
    assert _require_int(hi + 2**80, "k", lo) == hi + 2**80  # no upper bound by default
    for outside in (lo - 1, hi + 1, float(lo), True, False, nan, inf, -inf):
        with pytest.raises(ValueError, match="^k must be an integer"):
            _require_int(outside, "k", lo, hi)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=5), min_size=1, max_size=5, unique=True), st.text(max_size=5))
def test_require_choice_takes_members_only(choices, other):
    choices = tuple(choices)
    for choice in choices:
        _require_choice(choice, "mode", choices)
    for outside in ([] if other in choices else [other]) + [nan, inf, -inf, None]:
        with pytest.raises(ValueError, match="^mode must be one of"):
            _require_choice(outside, "mode", choices)


def test_require_choice_of_a_sign():
    for sign in (-1, 1):
        _require_choice(sign, "lam", (-1, 1))
    for outside in (0, 2, -2, nan, inf, -inf):
        with pytest.raises(ValueError, match="^lam must be one of"):
            _require_choice(outside, "lam", (-1, 1))
