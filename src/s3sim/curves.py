"""Correlation-curve container and its CSV/JSON wire formats.

CSV layout: '# key=value' metadata lines carrying the resolved run
configuration, one header row, then one row per grid angle with 9
significant digits, dot decimal. Files written here parse back through
read_curve_csv / read_curve_json byte-losslessly at that precision.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_COLUMNS = ("eta_deg", "e_hat", "e_analytic", "stderr", "g", "n")

# most points a grid range may give, and most steps a geodesic run may take:
# a 1e5-step geodesic run peaks near 90 MiB, and memory grows linearly beyond
MAX_POINTS = 100_000


def fmt9(x: float) -> str:
    """Format a float with 9 significant digits (locale-independent)."""
    return format(float(x), ".9g")


@dataclass(frozen=True)
class CurvePoint:
    eta_deg: float
    e_hat: float
    e_analytic: float
    stderr: float
    g: float
    n: int


@dataclass(frozen=True)
class CorrelationCurve:
    points: tuple[CurvePoint, ...]
    meta: dict

    def __post_init__(self):
        degs = [p.eta_deg for p in self.points]
        if any(b <= a for a, b in zip(degs, degs[1:])):
            raise ValueError("curve grid must be strictly increasing")
        for p in self.points:
            vals = (p.eta_deg, p.e_hat, p.e_analytic, p.stderr, p.g)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite curve point at eta={p.eta_deg}")

    def max_abs_deviation(self) -> float:
        return max(abs(p.e_hat - p.e_analytic) for p in self.points)


def write_curve_csv(curve: CorrelationCurve, path) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(curve.meta.items())]
    lines.append(",".join(CSV_COLUMNS))
    for p in curve.points:
        lines.append(",".join([
            fmt9(p.eta_deg), fmt9(p.e_hat), fmt9(p.e_analytic),
            fmt9(p.stderr), fmt9(p.g), str(int(p.n)),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve_csv(path) -> CorrelationCurve:
    meta: dict = {}
    points = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if tuple(line.split(",")) != CSV_COLUMNS:
                raise ValueError(f"unexpected curve CSV header: {line!r}")
            header_seen = True
            continue
        cells = line.split(",")
        points.append(CurvePoint(
            eta_deg=float(cells[0]), e_hat=float(cells[1]), e_analytic=float(cells[2]),
            stderr=float(cells[3]), g=float(cells[4]), n=int(cells[5]),
        ))
    if not header_seen:
        raise ValueError("curve CSV has no header row")
    return CorrelationCurve(points=tuple(points), meta=meta)


def curve_to_dict(curve: CorrelationCurve) -> dict:
    return {
        "meta": dict(curve.meta),
        "points": [
            {k: (int(getattr(p, k)) if k == "n" else float(getattr(p, k))) for k in CSV_COLUMNS}
            for p in curve.points
        ],
    }


def write_curve_json(curve: CorrelationCurve, path) -> None:
    Path(path).write_text(json.dumps(curve_to_dict(curve), indent=2, sort_keys=True) + "\n")


def read_curve_json(path) -> CorrelationCurve:
    data = json.loads(Path(path).read_text())
    points = tuple(CurvePoint(**{k: (int(d[k]) if k == "n" else float(d[k])) for k in CSV_COLUMNS})
                   for d in data["points"])
    return CorrelationCurve(points=points, meta=data["meta"])


def parse_grid(spec) -> np.ndarray:
    """Angle grid in degrees from 'start:stop:step', a (start, stop, step)
    triple, or an explicit sequence; must lie within [0, 180]. A range may
    give at most MAX_POINTS points, checked before the grid is built."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("grid spec must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        spec = (start, stop, step)
    if isinstance(spec, tuple) and len(spec) == 3:
        start, stop, step = spec
        if step <= 0:
            raise ValueError("grid step must be positive")
        stop += 0.5 * step
        # the unrounded arange length; "not <=" also rejects nan and inf
        if not (stop - start) / step <= MAX_POINTS:
            raise ValueError(f"grid must have at most {MAX_POINTS} points")
        grid = np.arange(start, stop, step, dtype=float)
    else:
        grid = np.asarray(list(spec), dtype=float)
    if grid.size == 0:
        raise ValueError("empty angle grid")
    if np.any(grid < 0.0) or np.any(grid > 180.0):
        raise ValueError("grid angles must lie within [0, 180] degrees")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid
