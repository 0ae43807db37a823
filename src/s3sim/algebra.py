"""Unit-quaternion and bivector algebra over 3D space.

Quaternions are stored scalar-first as ``[w, x, y, z]`` where ``(x, y, z)``
are the bivector coefficients of ``q = cos(psi/2) + (I.r) sin(psi/2)``.
The pseudoscalar I is never materialized: the even subalgebra of Cl(3,0)
is carried entirely by these four numbers. All functions broadcast over
leading axes unless noted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for accepting an input vector/quaternion as unit-norm.
UNIT_TOL = 1e-9
# arccos arguments within this window outside [-1, 1] are clamped; farther
# excursions indicate a real input error and raise.
ARC_CLAMP = 1e-9

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


class SingularAxisError(ValueError):
    """Composite rotation axis is undefined: sin(eta_uv) vanished while the
    numerator did not. Carries the unnormalized numerator."""

    def __init__(self, message: str, numerator: np.ndarray):
        super().__init__(message)
        self.numerator = numerator


def normalize(v) -> np.ndarray:
    """Return v scaled to unit length; raises on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < 1e-15):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _require_unit(v, name: str, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != dim:
        raise ValueError(f"{name} must have {dim} components, got shape {v.shape}")
    gap = np.abs(np.linalg.norm(v, axis=-1) - 1.0)
    if not np.all(gap <= UNIT_TOL):  # a nan norm fails too
        raise ValueError(f"{name} is not unit norm (|n-1| up to {np.max(gap):.3e})")
    return v


def _require_in(x, name: str, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
    """x as a float array; ValueError unless every entry is finite and
    within [lo, hi]. NaN fails the test, and so does +-inf for any bounds."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (lo <= x) & (x <= hi)):
        raise ValueError(f"{name} must be finite and within [{lo:.10g}, {hi:.10g}]")
    return x


def _require_int(x, name: str, lo: int, hi: float = np.inf) -> int:
    """x as an int; ValueError unless it is a Python or numpy integer, not
    a bool, within [lo, hi]."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not lo <= int(x) <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")
    return int(x)


def _require_choice(x, name: str, choices: tuple) -> None:
    """ValueError unless x is one of choices and not a bool: True in (-1, 1)."""
    if isinstance(x, (bool, np.bool_)) or x not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {x!r}")


def _require_values(x, name: str, values: tuple) -> np.ndarray:
    """x as an array; ValueError unless every entry is one of values and no
    bool: np.isin reads True as 1, and np.asarray makes a list that mixes
    bools with integers an integer array, so a list or an object array is
    read entry by entry."""
    data = np.asarray(x)
    mixed = (data.dtype == object or not isinstance(x, np.ndarray)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat)
    if data.dtype == bool or mixed or not np.all(np.isin(data, values)):
        raise ValueError(f"{name} must each be one of {values}, and not a bool")
    return data


def planar(deg: float) -> np.ndarray:
    """Unit vector in the x-y plane at `deg` degrees from the x axis."""
    rad = np.radians(_require_in(deg, "deg"))
    return np.array([np.cos(rad), np.sin(rad), 0.0])


def _safe_arccos(x, what: str = "arccos argument"):
    x = _require_in(x, what, -1.0 - ARC_CLAMP, 1.0 + ARC_CLAMP)
    return np.arccos(np.clip(x, -1.0, 1.0))


def _angle(x, y) -> float:
    """Angle between unit settings x and y, with x.y clamped into [-1, 1]."""
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


def quat_from_axis_angle(axis, psi) -> np.ndarray:
    """Point of S^3 for a rotation by psi about a unit axis, psi in [0, 4*pi).

    Returns cos(psi/2) + (I.axis) sin(psi/2). The full 4*pi period is the
    spinorial domain: psi and psi + 2*pi map to antipodal quaternions.
    """
    psi = _require_in(psi, "psi", 0.0, np.nextafter(4.0 * np.pi, 0.0))  # [0, 4*pi)
    return quat_from_half_angle(axis, psi / 2.0)


def quat_from_half_angle(axis, eta) -> np.ndarray:
    """q(eta, r) = cos(eta) + (I.r) sin(eta); eta is half the rotation angle."""
    axis = _require_unit(axis, "axis", 3)
    eta = _require_in(eta, "eta")
    lead = np.broadcast_shapes(eta.shape, axis.shape[:-1])
    w = np.broadcast_to(np.cos(eta), lead)[..., np.newaxis]
    v = np.broadcast_to(np.sin(eta)[..., np.newaxis] * axis, lead + (3,))
    return np.concatenate([w, v], axis=-1)


def quat_mul(p, q) -> np.ndarray:
    """Product of two unit quaternions (closed on S^3).

    The bivector coefficients compose with a -v1 x v2 cross term, as the
    even-subalgebra basis requires; this is what makes the composite
    half-angle/axis formulas below hold componentwise for quat_mul(p, q)
    in that operand order.
    """
    p = _require_unit(p, "p", 4)
    q = _require_unit(q, "q", 4)
    w1, v1 = p[..., :1], p[..., 1:]
    w2, v2 = q[..., :1], q[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1, keepdims=True)
    v = w1 * v2 + w2 * v1 - np.cross(v1, v2)
    return np.concatenate([w, v], axis=-1)


def quat_conj(q) -> np.ndarray:
    """Reverse (conjugate): flips the bivector part."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_norm(q):
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def quat_renormalize(q) -> np.ndarray:
    """Rescale to unit norm, preserving the sign of w.

    The w-sign is spinorial information; this never canonicalizes to
    w >= 0.
    """
    q = np.asarray(q, dtype=float)
    return q / quat_norm(q)[..., np.newaxis]


def vector_part(q) -> np.ndarray:
    return np.asarray(q, dtype=float)[..., 1:]


def spinorial_sign(q, kappa: int) -> np.ndarray:
    """Apply the sign change q(eta + kappa*pi, r) = (-1)**kappa q(eta, r)."""
    kappa = _require_int(kappa, "kappa", 0)
    q = np.asarray(q, dtype=float)
    return q if kappa % 2 == 0 else -q


def composite_angle(a, s1, s2, b):
    """Half rotation angle eta_uv of the product of the two detection
    quaternions, from the four unit vectors alone:

        eta_uv = arccos{(a.s1)(s2.b) - (a.s2)(s1.b) + (a.b)(s1.s2)}

    For s1 = s2 this reduces to the angle between a and b for any s.
    """
    a = _require_unit(a, "a", 3)
    s1 = _require_unit(s1, "s1", 3)
    s2 = _require_unit(s2, "s2", 3)
    b = _require_unit(b, "b", 3)
    dot = lambda u, v: np.sum(u * v, axis=-1)
    arg = dot(a, s1) * dot(s2, b) - dot(a, s2) * dot(s1, b) + dot(a, b) * dot(s1, s2)
    return _safe_arccos(arg, "composite-angle argument")


def composite_axis_numerator(a, s1, s2, b) -> np.ndarray:
    """Unnormalized rotation-axis numerator of the composite quaternion.

    Its norm equals |sin(eta_uv)|, so it vanishes linearly as s1 -> a and
    s2 -> b: the testable statement of the axis-limit claim.
    """
    a = _require_unit(a, "a", 3)
    s1 = _require_unit(s1, "s1", 3)
    s2 = _require_unit(s2, "s2", 3)
    b = _require_unit(b, "b", 3)
    dot = lambda u, v: np.sum(u * v, axis=-1)[..., np.newaxis]
    axs1 = np.cross(a, s1)
    s2xb = np.cross(s2, b)
    return dot(a, s1) * s2xb + dot(s2, b) * axs1 - np.cross(axs1, s2xb)


def composite_axis(a, s1, s2, b, eta_uv: float) -> np.ndarray:
    """Rotation axis r0 = numerator / sin(eta_uv) of the composite quaternion.

    Single-sample only. Returns the zero vector when the numerator vanishes
    identically (exactly aligned limit); raises SingularAxisError when
    sin(eta_uv) is below 1e-12 with a nonzero numerator.
    """
    eta_uv = float(_require_in(eta_uv, "eta_uv", 0.0, np.pi))
    num = composite_axis_numerator(a, s1, s2, b)
    if num.ndim != 1:
        raise ValueError("composite_axis takes single vectors; use composite_axis_numerator for batches")
    if np.all(num == 0.0):
        return np.zeros(3)
    s = np.sin(eta_uv)
    if abs(s) < 1e-12:
        raise SingularAxisError("sin(eta_uv) below 1e-12: axis undefined", numerator=num)
    return num / s


@dataclass(frozen=True)
class Bivector:
    """Oriented rotation plane: orientation * magnitude * (I.axis)."""

    axis: np.ndarray
    magnitude: float = 1.0
    orientation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "axis", _require_unit(self.axis, "axis", 3))
        _require_in(self.magnitude, "magnitude", 0.0)
        _require_choice(self.orientation, "orientation", (-1, 1))

    @property
    def coefficients(self) -> np.ndarray:
        return self.orientation * self.magnitude * self.axis


def spin_bivector(n, lam: int) -> Bivector:
    """Spin bivector L(n, lam) = lam * D(n): orientation lam relative to the
    detector bivector about the same axis."""
    _require_choice(lam, "lam", (-1, 1))
    return Bivector(axis=np.asarray(n, dtype=float), magnitude=1.0, orientation=lam)


def detector_bivector(n) -> Bivector:
    return Bivector(axis=np.asarray(n, dtype=float), magnitude=1.0, orientation=1)


def rotate_bivector(q, J: Bivector) -> Bivector:
    """Conjugation q J q-dagger; exactly invariant under q -> -q.

    A quaternion and its antipode implement one and the same rotation, so
    only the SO(3) content of q acts here.
    """
    q = _require_unit(q, "q", 4)
    x = np.concatenate([[0.0], J.axis])
    out = quat_mul(quat_mul(q, x), quat_conj(q))
    axis = vector_part(out)
    return Bivector(axis=axis / np.linalg.norm(axis), magnitude=J.magnitude,
                    orientation=J.orientation)


def rotation_matrix(q) -> np.ndarray:
    """3x3 matrix equivalent of rotate_bivector's conjugation.

    With q = quat_from_axis_angle(r, psi) this is the rotation by -psi
    about r (the sandwich convention that pairs with quat_mul above).
    """
    q = _require_unit(q, "q", 4)
    w, x, y, z = (float(c) for c in q)
    V = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) - 2.0 * w * V + 2.0 * (V @ V)


def dist_su2(p, q):
    """Geodesic distance on S^3: arccos of the scalar part of p q-dagger.

    Equals the great-circle arc length of the 4D embedding; range [0, pi];
    antipodes are maximally distant.
    """
    p = _require_unit(p, "p", 4)
    q = _require_unit(q, "q", 4)
    return _safe_arccos(np.sum(p * q, axis=-1), "geodesic cosine")


def dist_so3(p, q):
    """Geodesic distance on RP^3 = S^3 with antipodes identified.

    min(dist_su2(p, q), dist_su2(p, -q)); range [0, pi/2]. Invariant under
    independent sign flips of either argument, unlike dist_su2.
    """
    return np.minimum(dist_su2(p, q), dist_su2(p, -np.asarray(q, dtype=float)))


@dataclass(frozen=True)
class GeodesicPoint:
    half_angle: float
    d_su2: float
    d_so3: float


def geodesic_sweep(steps: int = 180) -> list[GeodesicPoint]:
    """Distances from the identity to q(half_angle, z) for half angles on
    [0, pi]; they depend on the half angle alone, so any axis gives these.

    The S^3 distance grows monotonically to pi while the RP^3 distance wraps
    at pi/2 -- the measurable signature of the spinorial double cover. Both
    the half-angle and the rotation angle psi = 2*half_angle parameterize
    the sweep; points carry the half angle.
    """
    steps = _require_int(steps, "steps", 1)
    half = np.linspace(0.0, np.pi, steps + 1)
    qs = quat_from_half_angle(Z_AXIS, half)
    d2 = dist_su2(np.broadcast_to(IDENTITY, qs.shape), qs)
    d3 = dist_so3(np.broadcast_to(IDENTITY, qs.shape), qs)
    return [GeodesicPoint(float(h), float(a), float(b)) for h, a, b in zip(half, d2, d3)]
