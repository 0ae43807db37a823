"""Exact arithmetic on CHSH-type expressions.

Two inequivalent protocols are enumerated side by side: the single-dataset
expression A_a(B_b + B_bp) + A_ap(B_b - B_bp), whose absolute bound is 2
for any row of four simultaneous binary values, and the four-independent-
averages form E1 + E2 + E3 - E4, whose bound is 4 because each term comes
from its own experimental context. Both extrema are found by exhaustive
enumeration, never assumed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (_require_choice, _require_in, _require_unit, _require_values, _safe_arccos,
                      planar)
from .singlet import CorrelationEstimate

TSIRELSON = 2.0 * np.sqrt(2.0)

# Canonical planar quad saturating the quantum bound for E = -cos under the
# fixed sign convention S = E(a,b) + E(a,b') + E(a',b) - E(a',b').
CANONICAL_QUAD_DEGREES = (0.0, 90.0, 45.0, -45.0)


@dataclass(frozen=True)
class SettingsQuad:
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _require_unit(getattr(self, name), name, 3))

    @classmethod
    def from_planar_degrees(cls, a: float, a_prime: float, b: float, b_prime: float):
        return cls(planar(a), planar(a_prime), planar(b), planar(b_prime))

    def pairs(self) -> tuple:
        """The setting pairs of S = E(a,b) + E(a,b') + E(a',b) - E(a',b'), in order."""
        return ((self.a, self.b), (self.a, self.b_prime),
                (self.a_prime, self.b), (self.a_prime, self.b_prime))


def canonical_quad() -> SettingsQuad:
    return SettingsQuad.from_planar_degrees(*CANONICAL_QUAD_DEGREES)


@dataclass(frozen=True)
class BinaryAssignment:
    """One deterministic +/-1 value per setting."""

    A_a: int
    A_ap: int
    B_b: int
    B_bp: int

    def __post_init__(self):
        for name in ("A_a", "A_ap", "B_b", "B_bp"):
            _require_choice(getattr(self, name), name, (-1, 1))


def single_average_value(asg: BinaryAssignment) -> int:
    return asg.A_a * (asg.B_b + asg.B_bp) + asg.A_ap * (asg.B_b - asg.B_bp)


@dataclass(frozen=True)
class ExpressionBound:
    max_value: int
    min_value: int
    max_witness: tuple
    min_witness: tuple
    n_assignments: int


@dataclass(frozen=True)
class BoundReport:
    expr_single_max: int
    expr_single_min: int
    expr_four_max: int
    expr_four_min: int
    witnesses: dict

    def to_dict(self) -> dict:
        return {
            "expr_single_max": self.expr_single_max,
            "expr_single_min": self.expr_single_min,
            "expr_four_max": self.expr_four_max,
            "expr_four_min": self.expr_four_min,
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
        }


def _extrema(value, bits: int) -> ExpressionBound:
    """Extrema of value(row) over all 2^bits rows of +/-1 entries; each witness
    is the first row, in itertools.product order, that reaches its extremum."""
    rows = list(itertools.product((-1, 1), repeat=bits))
    values = [value(row) for row in rows]
    hi, lo = max(values), min(values)
    return ExpressionBound(max_value=hi, min_value=lo, max_witness=rows[values.index(hi)],
                           min_witness=rows[values.index(lo)], n_assignments=len(rows))


def enumerate_single_average_bound() -> ExpressionBound:
    """Extrema of the single-dataset expression over all 2^4 assignments."""
    return _extrema(lambda bits: single_average_value(BinaryAssignment(*bits)), 4)


def enumerate_four_average_bound() -> ExpressionBound:
    """Extrema of E1 + E2 + E3 - E4 over independent per-context assignments.

    Each context k supplies its own (A_k, B_k) pair: 2^8 combinations; the
    value uses only the product realized in that context: bits = (A_1, B_1,
    ..., A_4, B_4).
    """
    return _extrema(lambda r: r[0] * r[1] + r[2] * r[3] + r[4] * r[5] - r[6] * r[7], 8)


def bound_report() -> BoundReport:
    single = enumerate_single_average_bound()
    four = enumerate_four_average_bound()
    return BoundReport(
        expr_single_max=single.max_value, expr_single_min=single.min_value,
        expr_four_max=four.max_value, expr_four_min=four.min_value,
        witnesses={
            "single_max": single.max_witness, "single_min": single.min_witness,
            "four_max": four.max_witness, "four_min": four.min_witness,
        })


@dataclass(frozen=True)
class BooleReport:
    n_rows: int
    mean: float
    violations: int
    row_min: float
    row_max: float


def boole_check(rows) -> BooleReport:
    """Row-wise check that the single-dataset expression stays in [-2, 2].

    rows: iterable of (A_a, A_ap, B_b, B_bp) with entries in {-1, +1}; the
    violation count is necessarily zero for well-formed input, which is the
    point being verified. A bool entry is not a +/-1 value.
    """
    data = _require_values(rows if isinstance(rows, np.ndarray) else list(rows), "row entries",
                           (-1, 1))
    if data.ndim != 2 or data.shape[1] != 4 or data.shape[0] == 0:
        raise ValueError("rows must be a nonempty sequence of 4 binary values each")
    vals = data[:, 0] * (data[:, 2] + data[:, 3]) + data[:, 1] * (data[:, 2] - data[:, 3])
    violations = int(np.sum(np.abs(vals) > 2))
    return BooleReport(n_rows=int(data.shape[0]), mean=float(vals.mean()),
                       violations=violations, row_min=float(vals.min()),
                       row_max=float(vals.max()))


@dataclass(frozen=True)
class CHSHResult:
    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float
    s: float
    regime: str
    s_stderr: float = 0.0

    def to_dict(self) -> dict:
        return {"e_ab": self.e_ab, "e_abp": self.e_abp, "e_apb": self.e_apb,
                "e_apbp": self.e_apbp, "s": self.s, "abs_s": abs(self.s),
                "regime": self.regime, "s_stderr": self.s_stderr}


def classify_regime(abs_s: float, stderr: float = 0.0) -> str:
    """Bound regime of |S|; Monte Carlo values get 4*stderr of slack at each
    boundary so that statistical noise cannot promote the regime."""
    _require_in(abs_s, "abs_s", 0.0)
    _require_in(stderr, "stderr", 0.0)
    slack = 4.0 * stderr
    if abs_s <= 2.0 + max(1e-12, slack):
        return "classical (<= 2)"
    if abs_s <= TSIRELSON + max(1e-9, slack):
        return "quantum (<= 2*sqrt(2))"
    return "superquantum (> 2*sqrt(2))"


def chsh(curve_source: Callable, quad: SettingsQuad) -> CHSHResult:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') from any correlation
    evaluator; evaluators may return a float or a CorrelationEstimate."""
    return chsh_from_estimates([curve_source(x, y) for x, y in quad.pairs()])


def chsh_from_estimates(estimates) -> CHSHResult:
    """S, its standard error (the four added in quadrature) and its regime
    from the correlations at the four SettingsQuad.pairs(), each a float or
    a CorrelationEstimate; ValueError for any other number of them."""
    estimates = list(estimates)
    if len(estimates) != 4:
        raise ValueError(f"estimates must be four, one per SettingsQuad pair, "
                         f"got {len(estimates)}")
    es = [e.e_hat if isinstance(e, CorrelationEstimate) else float(e) for e in estimates]
    errs = [e.stderr if isinstance(e, CorrelationEstimate) else 0.0 for e in estimates]
    s = es[0] + es[1] + es[2] - es[3]
    stderr = float(np.sqrt(sum(e ** 2 for e in errs)))
    return CHSHResult(e_ab=es[0], e_abp=es[1], e_apb=es[2], e_apbp=es[3],
                      s=float(s), regime=classify_regime(abs(s), stderr),
                      s_stderr=stderr)


def cosine_correlation(x, y) -> float:
    """Analytic singlet correlation -cos(eta) = -x.y."""
    x = _require_unit(x, "x", 3)
    y = _require_unit(y, "y", 3)
    return float(-np.dot(x, y))


def sawtooth_correlation(x, y) -> float:
    """Analytic flat-space baseline -1 + 2*eta/pi."""
    x = _require_unit(x, "x", 3)
    y = _require_unit(y, "y", 3)
    eta = float(_safe_arccos(np.dot(x, y)))
    return -1.0 + 2.0 * eta / np.pi
