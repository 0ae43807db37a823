"""Correlation-curve container and the one artifact wire format.

CSV: sorted '# key=value' metadata lines carrying the resolved run
configuration, one header row, then one row per record; floats with 9
significant digits, dot decimal. write_rows_csv, read_rows_csv and
write_json serve every artifact; a curve parses back through
read_curve_csv at that precision and through read_curve_json exactly.
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


def write_rows_csv(meta: dict, columns, rows, path) -> None:
    """Write meta, a header of `columns` and one line per row mapping."""
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, str)) else fmt9(v)
                              for v in (row[c] for c in columns)))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_csv(path) -> tuple[dict, list[str], list[dict]]:
    meta: dict = {}
    rows: list[dict] = []
    columns: list[str] | None = None
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
        elif len(cells) != len(columns):
            raise ValueError(f"CSV line {number}: {len(cells)} cells, {len(columns)} columns")
        else:
            rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ValueError("CSV has no header row")
    return meta, columns, rows


def read_rows_csv(path) -> tuple[dict, list[dict]]:
    """Parse a write_rows_csv file back into meta and rows of string cells."""
    meta, _, rows = _parse_csv(path)
    return meta, rows


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def curve_to_dict(curve: CorrelationCurve) -> dict:
    return {
        "meta": dict(curve.meta),
        "points": [
            {k: (int(getattr(p, k)) if k == "n" else float(getattr(p, k))) for k in CSV_COLUMNS}
            for p in curve.points
        ],
    }


def _point(row: dict) -> CurvePoint:
    """A curve point from a CSV row or a JSON point."""
    return CurvePoint(**{k: (int(row[k]) if k == "n" else float(row[k])) for k in CSV_COLUMNS})


def write_curve_csv(curve: CorrelationCurve, path) -> None:
    write_rows_csv(curve.meta, CSV_COLUMNS, curve_to_dict(curve)["points"], path)


def read_curve_csv(path) -> CorrelationCurve:
    meta, columns, rows = _parse_csv(path)
    if tuple(columns) != CSV_COLUMNS:
        raise ValueError(f"unexpected curve CSV header: {','.join(columns)!r}")
    return CorrelationCurve(points=tuple(map(_point, rows)), meta=meta)


def write_curve_json(curve: CorrelationCurve, path) -> None:
    write_json(curve_to_dict(curve), path)


def read_curve_json(path) -> CorrelationCurve:
    data = json.loads(Path(path).read_text())
    return CorrelationCurve(points=tuple(map(_point, data["points"])), meta=data["meta"])


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
