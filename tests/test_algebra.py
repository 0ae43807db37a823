import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from s3sim.algebra import (Bivector, IDENTITY, SingularAxisError, X_AXIS, Y_AXIS, Z_AXIS,
                           _safe_arccos, composite_angle, composite_axis,
                           composite_axis_numerator, detector_bivector, dist_so3,
                           dist_su2, geodesic_sweep, normalize, quat_conj,
                           quat_from_axis_angle, quat_from_half_angle, quat_mul,
                           quat_norm, quat_renormalize, rotate_bivector,
                           rotation_matrix, spin_bivector, spinorial_sign)


def random_units(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# construction

def test_axis_angle_identity():
    assert np.array_equal(quat_from_axis_angle(Z_AXIS, 0.0), IDENTITY)
    assert np.array_equal(quat_from_axis_angle(X_AXIS, 0.0), IDENTITY)


def test_axis_angle_two_pi_is_minus_identity():
    q = quat_from_axis_angle(Z_AXIS, 2.0 * np.pi)
    assert q[0] == -1.0
    assert np.all(np.abs(q[1:]) < 1e-12)


def test_axis_angle_approaches_identity_below_four_pi():
    eps = 1e-8
    q = quat_from_axis_angle(Z_AXIS, 4.0 * np.pi - eps)
    assert np.allclose(q, IDENTITY, atol=1e-7)


def test_axis_angle_range_errors():
    with pytest.raises(ValueError):
        quat_from_axis_angle(Z_AXIS, 4.0 * np.pi)
    with pytest.raises(ValueError):
        quat_from_axis_angle(Z_AXIS, -0.1)


def test_axis_angle_rejects_non_unit_axis():
    with pytest.raises(ValueError):
        quat_from_axis_angle([1.0, 1.0, 0.0], 1.0)


def test_nan_component_is_not_unit_norm():
    for q in ([np.nan, 0.0, 0.0, 0.0], [1.0, 0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="not unit norm"):
            quat_mul(q, IDENTITY)
        with pytest.raises(ValueError, match="not unit norm"):
            quat_mul(IDENTITY, q)


def test_spinorial_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = normalize(rng.standard_normal(3))
        psi = rng.uniform(0.0, 2.0 * np.pi)
        plus = quat_from_axis_angle(axis, psi + 2.0 * np.pi)
        assert np.allclose(plus, -quat_from_axis_angle(axis, psi), atol=1e-12)


# ---------------------------------------------------------------------------
# products

def test_mul_identity_and_inverse():
    rng = np.random.default_rng(1)
    q = random_quats(rng, 1)[0]
    assert np.allclose(quat_mul(IDENTITY, q), q)
    assert np.allclose(quat_mul(q, quat_conj(q)), IDENTITY, atol=1e-12)


def test_mul_coaxial_adds_half_angles():
    e1, e2 = 0.3, 1.1
    prod = quat_mul(quat_from_half_angle(X_AXIS, e1), quat_from_half_angle(X_AXIS, e2))
    expected = quat_from_half_angle(X_AXIS, e1 + e2)
    assert np.allclose(prod, expected, atol=1e-12)


def test_mul_noncommutative():
    p = quat_from_half_angle(X_AXIS, 0.4)
    q = quat_from_half_angle(Y_AXIS, 0.9)
    assert not np.allclose(quat_mul(p, q), quat_mul(q, p))


def test_closure_hundred_thousand_random_pairs():
    rng = np.random.default_rng(7)
    p = random_quats(rng, 100_000)
    q = random_quats(rng, 100_000)
    norms = quat_norm(quat_mul(p, q))
    assert np.max(np.abs(norms - 1.0)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8))
def test_closure_property(raw):
    v = np.asarray(raw).reshape(2, 4)
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-3):
        return
    p, q = v / norms[:, None]
    assert abs(quat_norm(quat_mul(p, q)) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# composite rotation (product of the two detection quaternions)

def test_composite_angle_reduces_to_setting_angle_for_equal_spins():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, s = random_units(rng, 3)
        eta_uv = composite_angle(a, s, s, b)
        eta_ab = np.arccos(np.clip(a @ b, -1, 1))
        assert abs(eta_uv - eta_ab) < 1e-9


def test_composite_angle_at_detection_limit():
    # s1 = a and s2 = b: both factor angles vanish, composite angle too
    rng = np.random.default_rng(12)
    a, b = random_units(rng, 2)
    assert composite_angle(a, a, b, b) < 1e-7
    assert composite_angle(X_AXIS, X_AXIS, X_AXIS, X_AXIS) == 0.0


def test_composite_angle_rejects_far_out_arguments():
    # a fabricated non-unit input sneaks the argument far outside [-1, 1]
    with pytest.raises(ValueError):
        composite_angle([2.0, 0, 0], X_AXIS, X_AXIS, X_AXIS)


def test_arccos_clamp_window():
    # noise within 1e-9 outside [-1, 1] is clamped; farther excursions raise
    assert _safe_arccos(1.0 + 1e-10) == 0.0
    assert abs(_safe_arccos(-1.0 - 1e-10) - np.pi) < 1e-15
    with pytest.raises(ValueError):
        _safe_arccos(1.0 + 1e-8)
    with pytest.raises(ValueError):
        _safe_arccos(-1.1)


def test_factorization_identity_ten_thousand_draws():
    rng = np.random.default_rng(13)
    a, s1, s2, b = (random_units(rng, 10_000) for _ in range(4))
    eta1 = np.arccos(np.clip(np.sum(a * s1, axis=1), -1, 1))
    eta2 = np.arccos(np.clip(np.sum(s2 * b, axis=1), -1, 1))
    r1 = normalize(np.cross(a, s1))
    r2 = normalize(np.cross(s2, b))
    direct = quat_mul(quat_from_half_angle(r1, eta1), quat_from_half_angle(r2, eta2))
    eta_uv = composite_angle(a, s1, s2, b)
    num = composite_axis_numerator(a, s1, s2, b)
    composite = np.concatenate([np.cos(eta_uv)[:, None], num], axis=1)
    assert np.max(np.abs(composite - direct)) < 1e-10


def test_composite_axis_matches_direct_product():
    rng = np.random.default_rng(14)
    a, s1, s2, b = (random_units(rng, 4))
    eta_uv = float(composite_angle(a, s1, s2, b))
    r0 = composite_axis(a, s1, s2, b, eta_uv)
    direct = quat_mul(
        quat_from_half_angle(normalize(np.cross(a, s1)),
                             np.arccos(np.clip(a @ s1, -1, 1))),
        quat_from_half_angle(normalize(np.cross(s2, b)),
                             np.arccos(np.clip(s2 @ b, -1, 1))))
    assert np.allclose(quat_from_half_angle(normalize(r0), eta_uv), direct, atol=1e-10)


def test_composite_axis_zero_at_exact_alignment():
    rng = np.random.default_rng(15)
    a, b = random_units(rng, 2)
    assert np.array_equal(composite_axis_numerator(a, a, b, b), np.zeros(3))
    assert np.array_equal(composite_axis(a, a, b, b, 0.0), np.zeros(3))


def test_composite_axis_singular_error_carries_numerator():
    a, b = X_AXIS, Y_AXIS
    s1 = normalize(a + 1e-13 * Z_AXIS)
    s2 = normalize(b + 1e-13 * Z_AXIS)
    eta_uv = float(composite_angle(a, s1, s2, b))
    with pytest.raises(SingularAxisError) as excinfo:
        composite_axis(a, s1, s2, b, eta_uv)
    assert excinfo.value.numerator.shape == (3,)
    assert 0.0 < np.linalg.norm(excinfo.value.numerator) < 1e-11


def test_axis_limit_numerator_decays_linearly():
    rng = np.random.default_rng(16)
    a, b, t1, t2 = random_units(rng, 4)
    eps = np.logspace(-1, -5, 9)
    norms = []
    for e in eps:
        s1 = normalize(a + e * t1)
        s2 = normalize(b + e * t2)
        norms.append(np.linalg.norm(composite_axis_numerator(a, s1, s2, b)))
    slope = np.polyfit(np.log(eps), np.log(norms), 1)[0]
    assert abs(slope - 1.0) < 0.1


# ---------------------------------------------------------------------------
# spinorial sign and double cover

def test_spinorial_sign_values():
    q = quat_from_half_angle(Y_AXIS, 0.77)
    assert np.array_equal(spinorial_sign(q, 0), q)
    assert np.array_equal(spinorial_sign(q, 1), -q)
    assert np.array_equal(spinorial_sign(q, 2), q)
    assert np.array_equal(spinorial_sign(q, 3), -q)
    with pytest.raises(ValueError):
        spinorial_sign(q, -1)


def test_spinorial_sign_realizes_half_angle_shift():
    q = quat_from_half_angle(Y_AXIS, 0.51)
    shifted = quat_from_half_angle(Y_AXIS, 0.51 + np.pi)
    assert np.allclose(shifted, spinorial_sign(q, 1), atol=1e-12)


def test_spin_detector_bivector_relation():
    # L(n, lam) = lam * D(n) holds by construction of the orientation field
    rng = np.random.default_rng(29)
    n = normalize(rng.standard_normal(3))
    for lam in (-1, 1):
        L = spin_bivector(n, lam)
        D = detector_bivector(n)
        assert np.array_equal(L.coefficients, lam * D.coefficients)
        assert L.orientation == lam and D.orientation == 1
    with pytest.raises(ValueError):
        spin_bivector(n, 0)
    with pytest.raises(ValueError):
        Bivector(axis=n, magnitude=-1.0)


def test_quat_renormalize_preserves_sign():
    q = np.array([-0.5, 0.5, 0.5, 0.5]) * (1.0 + 3e-9)
    out = quat_renormalize(q)
    assert abs(quat_norm(out) - 1.0) < 1e-15
    assert out[0] < 0  # the spinorial w-sign is never canonicalized away


def test_rotate_bivector_identity_and_antipode():
    rng = np.random.default_rng(17)
    q = random_quats(rng, 1)[0]
    J = Bivector(axis=normalize(rng.standard_normal(3)), magnitude=2.5, orientation=-1)
    assert np.allclose(rotate_bivector(IDENTITY, J).axis, J.axis)
    plus = rotate_bivector(q, J)
    minus = rotate_bivector(-q, J)
    assert np.array_equal(plus.axis, minus.axis)
    assert plus.magnitude == minus.magnitude == J.magnitude
    assert plus.orientation == minus.orientation == J.orientation


def test_rotate_bivector_pi_about_z_flips_x():
    q = quat_from_axis_angle(Z_AXIS, np.pi)
    out = rotate_bivector(q, Bivector(axis=X_AXIS))
    assert np.allclose(out.axis, -X_AXIS, atol=1e-12)


def test_rotation_matrix_against_scipy_oracle():
    rng = np.random.default_rng(18)
    for _ in range(50):
        q = random_quats(rng, 1)[0]
        w, x, y, z = q
        # conjugation with the stored bivector components acts as the
        # transposed Hamilton rotation
        oracle = Rotation.from_quat([x, y, z, w]).as_matrix().T
        assert np.allclose(rotation_matrix(q), oracle, atol=1e-12)
        J = Bivector(axis=normalize(rng.standard_normal(3)))
        assert np.allclose(rotate_bivector(q, J).axis, oracle @ J.axis, atol=1e-12)


# ---------------------------------------------------------------------------
# geodesics

def arc4(p, q):
    # independent great-circle oracle: robust two-argument arctangent form
    p, q = np.asarray(p, float), np.asarray(q, float)
    return 2.0 * np.arctan2(np.linalg.norm(p - q, axis=-1), np.linalg.norm(p + q, axis=-1))


def test_dist_su2_basics():
    rng = np.random.default_rng(19)
    q = random_quats(rng, 1)[0]
    assert dist_su2(q, q) < 1e-7
    assert abs(dist_su2(q, -q) - np.pi) < 1e-7
    assert dist_su2(IDENTITY, IDENTITY) == 0.0


def test_dist_su2_matches_embedding_oracle():
    rng = np.random.default_rng(20)
    p = random_quats(rng, 500)
    q = random_quats(rng, 500)
    assert np.max(np.abs(dist_su2(p, q) - arc4(p, q))) < 1e-7


def test_dist_so3_identifies_antipodes():
    rng = np.random.default_rng(21)
    q = random_quats(rng, 1)[0]
    assert dist_so3(q, -q) < 1e-7
    assert dist_so3(q, q) < 1e-7
    assert dist_so3(IDENTITY, -IDENTITY) == 0.0


def test_dist_so3_sign_flip_invariance():
    rng = np.random.default_rng(22)
    p = random_quats(rng, 200)
    q = random_quats(rng, 200)
    base = dist_so3(p, q)
    assert np.array_equal(base, dist_so3(-p, q))
    assert np.array_equal(base, dist_so3(p, -q))
    assert np.array_equal(base, dist_so3(-p, -q))
    # dist_su2 is not invariant: antipodal image lands on the far hemisphere
    changed = np.abs(dist_su2(p, q) - dist_su2(p, -q)) > 1e-6
    assert np.mean(changed) > 0.99


def test_dist_so3_is_min_over_sign_orbit():
    rng = np.random.default_rng(23)
    p = random_quats(rng, 200)
    q = random_quats(rng, 200)
    orbit = np.minimum.reduce([dist_su2(sp * p, sq * q)
                               for sp in (1, -1) for sq in (1, -1)])
    assert np.allclose(dist_so3(p, q), orbit, atol=1e-12)
    assert np.all(dist_so3(p, q) <= np.pi / 2 + 1e-12)


def test_geodesic_sweep_shape():
    points = geodesic_sweep(180)
    assert len(points) == 181
    d2 = np.array([p.d_su2 for p in points])
    d3 = np.array([p.d_so3 for p in points])
    half = np.array([p.half_angle for p in points])
    assert np.all(np.diff(d2) > 0)  # monotone lift up to pi
    assert abs(d2[-1] - np.pi) < 1e-12
    assert np.max(np.abs(d3 - np.minimum(d2, np.pi - d2))) < 1e-12
    # projective distance peaks at half angle pi/2, then descends to zero
    assert abs(d3[90] - np.pi / 2) < 1e-12
    assert d3[-1] < 1e-12
    assert np.max(np.abs(d2 - half)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=8, max_size=8))
def test_dist_so3_never_exceeds_su2(raw):
    v = np.asarray(raw).reshape(2, 4)
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-3):
        return
    p, q = v / norms[:, None]
    assert dist_so3(p, q) <= dist_su2(p, q) + 1e-12
