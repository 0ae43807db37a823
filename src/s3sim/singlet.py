"""Event-by-event singlet measurements on the 3-sphere.

Alice's and Bob's results are the limiting scalar points of two separate
detection quaternions, each a function of one setting and the shared hidden
variable only (factorizable by construction). The joint value of a run is
the limiting scalar of the product quaternion: -a.b when the source
conserves zero spin (s1 = s2), -1 otherwise. Outcomes are evaluated AT the
limit; the pre-limit quaternion is exposed at a caller-chosen angle for the
axis-limit diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _angle, _require_unit
from .curves import csv_text
from .rng import fair_coin, substream, uniform_sphere

WINDING_RULES = ("zero", "random-parity", "angle-threshold")


@dataclass(frozen=True)
class HiddenVariable:
    """Per-run common cause: a fair coin lam and the spin axes s1, s2."""

    lam: int
    s1: np.ndarray
    s2: np.ndarray
    conservation: bool = True

    def __post_init__(self):
        if self.lam not in (-1, 1):
            raise ValueError("lam must be -1 or +1")
        object.__setattr__(self, "s1", _require_unit(self.s1, "s1", 3))
        object.__setattr__(self, "s2", _require_unit(self.s2, "s2", 3))
        if self.conservation and not np.array_equal(self.s1, self.s2):
            raise ValueError("conservation of zero spin requires s1 == s2 exactly")


@dataclass(frozen=True)
class RunRecord:
    a: np.ndarray
    b: np.ndarray
    hv: HiddenVariable
    A: int
    B: int
    joint_limit: float
    kappa_a: int = 0
    kappa_b: int = 0


@dataclass(frozen=True)
class CorrelationEstimate:
    e_hat: float
    stderr: float
    n: int
    e_analytic: float


def _count(A, B) -> np.ndarray:
    """3x3 int64 table: entry [i, j] counts the pairs with A = i - 1, B = j - 1.

    A and B are int64 outcome arrays; the cell index 3A + B + 4 stays in
    their dtype. pearle counts its chunks from the kernel's masks instead."""
    cell = A * 3
    cell += B
    cell += 4
    return np.bincount(cell, minlength=9).reshape(3, 3)


def _estimate(counts, e_analytic: float) -> CorrelationEstimate:
    """Mean of A*B over the detected pairs of a count table and its standard
    error, beside the analytic value. N = same + diff pairs with product +1
    and -1: e_hat = (same - diff)/N, and the sample variance N(1 - e^2)/(N - 1)
    is 4*same*diff/(N(N - 1)), so stderr = 2*sqrt(same*diff/(N - 1))/N.
    e_hat is nan when no pair was detected."""
    same = int(counts[0, 0] + counts[2, 2])
    diff = int(counts[0, 2] + counts[2, 0])
    n = same + diff
    return CorrelationEstimate(
        e_hat=(same - diff) / n if n else float("nan"),
        stderr=2.0 * math.sqrt(same * diff / (n - 1)) / n if n > 1 else 0.0,
        n=n, e_analytic=float(e_analytic))


@dataclass(frozen=True)
class SignProductDiagnostic:
    """Average of A*B under an explicit winding rule, with the empirical
    frequency of each outcome pair."""

    estimate: CorrelationEstimate
    counts: dict
    winding_rule: str


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Vectorized view of n runs at fixed settings."""

    lam: np.ndarray
    A: np.ndarray
    B: np.ndarray
    joint: np.ndarray
    kappa_a: np.ndarray
    kappa_b: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def draw_hidden_variable(rng: np.random.Generator, conservation: bool = True) -> HiddenVariable:
    """One hidden variable: fair-coin lam, spin axis uniform on the sphere
    (both axes alias under conservation, independent otherwise)."""
    lam = int(fair_coin(rng))
    s1 = uniform_sphere(rng)
    s2 = s1 if conservation else uniform_sphere(rng)
    return HiddenVariable(lam=lam, s1=s1, s2=s2, conservation=conservation)


def measure_alice(a, hv: HiddenVariable, eta: float = 0.0, kappa: int = 0):
    """Alice's detection quaternion at detector-spin angle eta and her
    limiting scalar outcome.

    Returns (+lam * [cos(eta) + (I.r1) sin(eta)], A) with
    r1 = (a x s1)/|a x s1| and A = +lam * (-1)**kappa. At eta = 0 the
    quaternion is the scalar +/-1 itself.
    """
    return _wing(hv.lam, np.cross(_require_unit(a, "a", 3), hv.s1), eta, kappa,
                 "a parallel to s1")


def measure_bob(b, hv: HiddenVariable, eta: float = 0.0, kappa: int = 0):
    """Bob's detection quaternion and limiting scalar outcome.

    Returns (-lam * [cos(eta) + (I.r2) sin(eta)], B) with
    r2 = (s2 x b)/|s2 x b| and B = -lam * (-1)**kappa.
    """
    return _wing(-hv.lam, np.cross(hv.s2, _require_unit(b, "b", 3)), eta, kappa,
                 "b parallel to s2")


def _wing(sign: int, axis, eta: float, kappa: int, parallel: str):
    """(sign * [cos(eta) + (I.r) sin(eta)], sign * (-1)**kappa) with
    r = axis/|axis|; at eta = 0 the quaternion is the scalar sign itself,
    and `parallel` names the degenerate settings of a zero axis."""
    if eta < 0:
        raise ValueError("detector-spin angle eta must be >= 0")
    if kappa < 0:
        raise ValueError("winding count kappa must be >= 0")
    if eta == 0.0:
        q = sign * np.array([1.0, 0.0, 0.0, 0.0])
    else:
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise ValueError(f"rotation axis undefined: {parallel} with eta > 0")
        q = sign * np.concatenate([[np.cos(eta)], np.sin(eta) * axis / norm])
    return q, sign * (-1) ** kappa


def joint_limit_value(a, b, hv: HiddenVariable) -> float:
    """Limiting scalar of the product quaternion for one run.

    -a.b when the spin axes coincide (conserved source), -1 otherwise;
    the scalar part of -q(eta_ab, r0) once the composite axis has shrunk
    to zero during joint detection.
    """
    a = _require_unit(a, "a", 3)
    b = _require_unit(b, "b", 3)
    if hv.conservation:
        return float(-np.dot(a, b))
    return -1.0


def _planar_azimuth_deg(v) -> float:
    return float(np.degrees(np.arctan2(v[1], v[0])))


def _windings(rule: str, rng: np.random.Generator, a, b, s: np.ndarray):
    """Per-run winding counts for both wings. Each count depends only on
    that wing's setting and the hidden variable, so equal settings always
    get equal windings."""
    n = s.shape[0]
    if rule == "zero":
        k = np.zeros(n, dtype=int)
        return k, k
    if rule == "random-parity":
        k = rng.integers(0, 2, size=n)
        return k, k
    if rule == "angle-threshold":
        chi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        eta_a = np.arccos(np.clip(s @ a, -1.0, 1.0))
        eta_b = np.arccos(np.clip(s @ b, -1.0, 1.0))
        ka = np.floor((chi + 2.0 * eta_a) / np.pi).astype(int) % 4
        kb = np.floor((chi + 2.0 * eta_b) / np.pi).astype(int) % 4
        return ka, kb
    raise ValueError(f"unknown winding rule {rule!r}; choose from {WINDING_RULES}")


def simulate_outcomes(a, b, n: int, seed: int, conservation: bool = True,
                      winding_rule: str = "zero") -> OutcomeEnsemble:
    """Draw n runs at fixed settings and evaluate all outcomes at the limit."""
    a = _require_unit(a, "a", 3)
    b = _require_unit(b, "b", 3)
    if n < 1:
        raise ValueError("ensemble size n must be >= 1")
    rng = substream(seed)
    lam = fair_coin(rng, n)
    s1 = uniform_sphere(rng, n)
    s2 = s1 if conservation else uniform_sphere(rng, n)
    ka, kb = _windings(winding_rule, rng, a, b, s1)
    return OutcomeEnsemble(
        lam=lam, A=lam * (-1) ** ka, B=-lam * (-1) ** kb,
        joint=np.full(n, -float(np.dot(a, b)) if conservation else -1.0),
        kappa_a=ka, kappa_b=kb, s1=s1, s2=s2)


def simulate_runs(a, b, n: int, seed: int, conservation: bool = True,
                  winding_rule: str = "zero") -> list[RunRecord]:
    """RunRecord stream for the same draws as simulate_outcomes."""
    ens = simulate_outcomes(a, b, n, seed, conservation, winding_rule)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = []
    for i in range(n):
        hv = HiddenVariable(lam=int(ens.lam[i]), s1=ens.s1[i],
                            s2=ens.s1[i] if conservation else ens.s2[i],
                            conservation=conservation)
        out.append(RunRecord(a=a, b=b, hv=hv, A=int(ens.A[i]), B=int(ens.B[i]),
                             joint_limit=float(ens.joint[i]),
                             kappa_a=int(ens.kappa_a[i]), kappa_b=int(ens.kappa_b[i])))
    return out


def records_to_csv(records, fileobj) -> None:
    """Dump a RunRecord stream in the artifact CSV format, without metadata:
    a_theta, b_theta (planar azimuths, degrees), lambda, A, B, joint_limit."""
    columns = ("a_theta", "b_theta", "lambda", "A", "B", "joint_limit")
    fileobj.write(csv_text({}, columns, (
        dict(zip(columns, (_planar_azimuth_deg(r.a), _planar_azimuth_deg(r.b),
                           r.hv.lam, r.A, r.B, r.joint_limit)))
        for r in records)))


def correlation(a, b, n: int, seed: int, conservation: bool = True) -> CorrelationEstimate:
    """Ensemble average of the per-run joint limit values.

    Under conservation every run contributes -a.b, so the estimate equals
    -cos(eta_ab) to machine precision and the sample spread is floating-point
    noise only; without conservation every run contributes -1.
    """
    values = simulate_outcomes(a, b, n, seed, conservation).joint
    e_hat = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CorrelationEstimate(e_hat=e_hat, stderr=stderr, n=n,
                               e_analytic=float(-np.cos(_angle(a, b))))


def sign_product_diagnostic(a, b, n: int, seed: int,
                            winding_rule: str = "zero") -> SignProductDiagnostic:
    """Average of A*B under a winding rule, with outcome-pair frequencies.

    Exploratory: no winding rule is 'the' model. The normative expectation
    comes from correlation(), i.e. the limit of the product quaternion; this
    diagnostic shows how per-wing sign fluctuations distribute the four
    outcome pairs while equal settings stay perfectly anti-correlated.
    """
    ens = simulate_outcomes(a, b, n, seed, True, winding_rule)
    table = _count(ens.A, ens.B)
    counts = {"++": int(table[2, 2]), "+-": int(table[2, 0]),
              "-+": int(table[0, 2]), "--": int(table[0, 0])}
    est = _estimate(table, -np.cos(_angle(a, b)))
    return SignProductDiagnostic(estimate=est, counts=counts, winding_rule=winding_rule)
