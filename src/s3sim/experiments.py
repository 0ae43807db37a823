"""Named, seeded, reproducible experiments and their file artifacts.

Each experiment resolves a configuration, fans per-point work out over
index-keyed random substreams (so the same seed gives byte-identical
artifacts for any worker count), and writes CSV or JSON with the resolved
configuration embedded as a metadata block.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import pearle
from .algebra import geodesic_sweep, planar
from .bounds import (CANONICAL_QUAD_DEGREES, CHSHResult, SettingsQuad, bound_report,
                     canonical_quad, chsh, chsh_from_estimates, cosine_correlation,
                     sawtooth_correlation)
# read_rows_csv is re-exported: callers read row artifacts from here
from .curves import (CSV_COLUMNS, MAX_POINTS, CorrelationCurve, CurvePoint, curve_to_dict,
                     fmt9, parse_grid, read_rows_csv, write_json, write_rows_csv)
from .rng import substream

EXPERIMENTS = ("curve", "chsh", "geodesic", "bounds", "probabilities", "flat-vs-s3")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid experiment configuration (a usage error, exit code 2)."""


class NumericError(RuntimeError):
    """Non-finite value produced where a finite number was required."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    model: str = "s3"
    n_per_point: int = 100_000
    grid: tuple | str | list = (0.0, 180.0, 5.0)
    kappa: int = 1
    steps: int = 180
    workers: int = 1
    out: str | None = None
    format: str = "csv"

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.seed is None:
            raise ConfigError("seed is mandatory (no wall-clock default)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.model not in pearle.MODES:
            raise ConfigError(f"unknown model {self.model!r}; choose from {pearle.MODES}")
        if self.n_per_point < 1:
            raise ConfigError("n must be >= 1")
        if self.n_per_point >= 2**63:  # numpy sizes are int64
            raise ConfigError(f"n must be < 2**63, got {self.n_per_point}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if self.kappa < 1:
            raise ConfigError("kappa must be >= 1")
        if not 1 <= self.steps <= MAX_POINTS:
            raise ConfigError(f"steps must be in [1, {MAX_POINTS}], got {self.steps}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        try:
            parse_grid(self.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def grid_degrees(self) -> np.ndarray:
        return parse_grid(self.grid)

    def meta(self) -> dict:
        grid = self.grid
        if not isinstance(grid, str):
            # shortest round-trip digits, so the recorded grid rebuilds exactly
            is_range = isinstance(grid, tuple) and len(grid) == 3
            sep, values = (":", grid) if is_range else (",", parse_grid(grid))
            grid = sep.join(np.format_float_positional(float(x), trim="-") for x in values)
        return {
            "experiment": self.experiment, "model": self.model,
            "n": str(self.n_per_point), "seed": str(self.seed), "grid": grid,
            "kappa": str(self.kappa), "steps": str(self.steps), "format": self.format,
        }

    def default_out(self) -> str:
        return f"{self.experiment.replace('-', '_')}.{self.format}"


def parse_config_file(path) -> dict:
    """Flat key=value text; '#' starts a comment; keys match the CLI flags."""
    out: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: never more than the tasks or the CPUs."""
    import os  # loaded at interpreter start; kept local so module import stays unchanged
    return min(workers, tasks, os.cpu_count() or 1)


def _map_tasks(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], on a process pool of _pool_size(workers, len(tasks)).

    Every task carries its own substream index, so the results do not
    depend on the pool size."""
    workers = _pool_size(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _require_finite(values, what: str) -> None:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value in {what}")


# ---------------------------------------------------------------------------
# curve

def _curve_point_task(args) -> CurvePoint:
    mode, deg, n, seed, index, kappa = args
    return pearle.curve_point(mode, deg, n, seed, index, kappa)


def run_curve(config: ExperimentConfig) -> CorrelationCurve:
    """Correlation sweep for the configured model over the angle grid."""
    grid = config.grid_degrees()
    tasks = [(config.model, float(deg), config.n_per_point, config.seed, i, config.kappa)
             for i, deg in enumerate(grid)]
    points = _map_tasks(_curve_point_task, tasks, config.workers)
    # a point with no coincidences has e_hat = nan; CorrelationCurve rejects it
    _require_finite([[p.e_hat, p.e_analytic, p.stderr, p.g] for p in points], "curve")
    return CorrelationCurve(points=tuple(points), meta=config.meta())


# ---------------------------------------------------------------------------
# chsh

def _chsh_pair_task(args):
    x, y, n, seed, index, mode, kappa = args
    return pearle._pair_estimate(x, y, n, substream(seed, index), mode, kappa)


def chsh_monte_carlo(quad: SettingsQuad, n: int, seed: int, mode: str = "s3",
                     kappa: int = 1, workers: int = 1) -> CHSHResult:
    """CHSH from per-pair Monte Carlo estimates on substreams (seed, pair);
    the four pairs run on up to `workers` processes."""
    tasks = [(x, y, n, seed, i, mode, kappa) for i, (x, y) in enumerate(quad.pairs())]
    ests = _map_tasks(_chsh_pair_task, tasks, workers)
    for i, est in enumerate(ests):
        if est.n == 0:
            raise NumericError(f"no coincident detections in CHSH setting pair {i}; increase n")
    return chsh_from_estimates(ests)


def run_chsh(config: ExperimentConfig) -> dict:
    """Analytic and Monte Carlo CHSH at the canonical planar quad."""
    quad = canonical_quad()
    analytic_eval = sawtooth_correlation if config.model == "flat" else cosine_correlation
    analytic = chsh(analytic_eval, quad)
    mc = chsh_monte_carlo(quad, config.n_per_point, config.seed, config.model, config.kappa,
                          config.workers)
    payload = {
        "meta": config.meta(),
        "quad_degrees": list(CANONICAL_QUAD_DEGREES),
        "analytic": analytic.to_dict(),
        "monte_carlo": mc.to_dict(),
    }
    _require_finite([analytic.s, mc.s, mc.s_stderr], "chsh report")
    return payload


# ---------------------------------------------------------------------------
# geodesic

def run_geodesic(config: ExperimentConfig) -> dict:
    """SU(2) vs SO(3) geodesic distances over half angles [0, pi]."""
    points = geodesic_sweep(config.steps)
    rows = [{"half_angle_deg": np.degrees(p.half_angle),
             "psi_deg": 2.0 * np.degrees(p.half_angle),
             "d_su2": p.d_su2, "d_so3": p.d_so3} for p in points]
    _require_finite([[r["d_su2"], r["d_so3"]] for r in rows], "geodesic sweep")
    return {"meta": config.meta(), "rows": rows}


# ---------------------------------------------------------------------------
# bounds

def run_bounds(config: ExperimentConfig) -> dict:
    report = bound_report()
    return {"meta": config.meta(), **report.to_dict()}


# ---------------------------------------------------------------------------
# probabilities

def _probability_task(args) -> dict:
    mode, deg, n, seed, index, kappa = args
    counts = pearle.outcome_counts(planar(0.0), planar(deg), n, substream(seed, index),
                                   mode, kappa)
    return pearle._table_from_counts(np.radians(deg), counts).to_dict()


def run_probabilities(config: ExperimentConfig) -> dict:
    """Per-angle joint/single/zero-event probability tables."""
    grid = config.grid_degrees()
    tasks = [(config.model, float(deg), config.n_per_point, config.seed, i, config.kappa)
             for i, deg in enumerate(grid)]
    tables = _map_tasks(_probability_task, tasks, config.workers)
    _require_finite([list(t.values()) for t in tables], "probability tables")
    return {"meta": config.meta(), "tables": tables}


# ---------------------------------------------------------------------------
# flat-vs-s3

def compare_models(config: ExperimentConfig) -> dict:
    """Both curves on one grid plus their CHSH values at the canonical quad,
    with a summary line per model naming its bound regime."""
    s3_cfg = replace(config, model="s3")
    flat_cfg = replace(config, model="flat")
    curve_s3 = run_curve(s3_cfg)
    curve_flat = run_curve(flat_cfg)
    chsh_s3 = chsh_monte_carlo(canonical_quad(), config.n_per_point, config.seed,
                               "s3", config.kappa, config.workers)
    chsh_flat = chsh_monte_carlo(canonical_quad(), config.n_per_point, config.seed, "flat",
                                 workers=config.workers)
    summary = [
        f"s3: |S| = {abs(chsh_s3.s):.6f} -> {chsh_s3.regime}",
        f"flat: |S| = {abs(chsh_flat.s):.6f} -> {chsh_flat.regime}",
    ]
    return {
        "meta": config.meta(),
        "curves": {"s3": curve_to_dict(curve_s3), "flat": curve_to_dict(curve_flat)},
        "chsh": {"s3": chsh_s3.to_dict(), "flat": chsh_flat.to_dict()},
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# artifact writing

def write_artifact(experiment: str, payload, path: Path, fmt: str) -> None:
    if isinstance(payload, CorrelationCurve):
        payload = curve_to_dict(payload)
    if fmt == "json":
        write_json(payload, path)
        return
    meta = payload["meta"]
    if experiment == "curve":
        columns, rows = CSV_COLUMNS, payload["points"]
    elif experiment == "geodesic":
        columns, rows = ("half_angle_deg", "psi_deg", "d_su2", "d_so3"), payload["rows"]
    elif experiment == "probabilities":
        columns, rows = pearle.TABLE_COLUMNS, payload["tables"]
    elif experiment == "flat-vs-s3":
        meta = dict(meta)
        for model in ("s3", "flat"):
            meta[f"{model}_abs_s"] = fmt9(abs(payload["chsh"][model]["s"]))
            meta[f"{model}_regime"] = payload["chsh"][model]["regime"]
        for line in payload["summary"]:
            meta.setdefault("summary_" + line.split(":")[0], line)
        columns = ("model", *CSV_COLUMNS)
        rows = [{"model": model, **point}
                for model in ("s3", "flat") for point in payload["curves"][model]["points"]]
    else:
        # chsh and bounds reports flatten to key,value rows
        columns = ("key", "value")
        rows = [{"key": k, "value": v} for k, v in _flatten(payload).items()]
    write_rows_csv(meta, columns, rows, path)


def _flatten(obj, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            if prefix == "" and k == "meta":
                continue
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj if isinstance(obj, str) else (
            str(obj) if isinstance(obj, (int, np.integer)) else fmt9(obj))
    return out


def run(config: ExperimentConfig) -> Path:
    """Run the configured experiment and write its artifact file.

    Returns the written path. Deterministic for a fixed (config, seed).
    """
    config = config.validated()
    runners = {
        "curve": run_curve, "chsh": run_chsh, "geodesic": run_geodesic,
        "bounds": run_bounds, "probabilities": run_probabilities,
        "flat-vs-s3": compare_models,
    }
    payload = runners[config.experiment](config)
    out = Path(config.out) if config.out else Path(config.default_out())
    write_artifact(config.experiment, payload, out, config.format)
    return out
