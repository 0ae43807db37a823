"""Named, seeded, reproducible experiments and their file artifacts.

Each experiment resolves a configuration, runs its tasks on up to --workers
processes and writes CSV or JSON with that configuration as a metadata
block. Every grid point reads substream (seed, 0) and chsh setting pair i
reads (seed, i), so a seed gives byte-identical artifacts for any --workers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import kernel, pearle
from .algebra import _require_choice, _require_int, geodesic_sweep
from .bounds import (CANONICAL_QUAD_DEGREES, CHSHResult, SettingsQuad, bound_report,
                     canonical_quad, chsh, chsh_from_estimates, cosine_correlation,
                     sawtooth_correlation)
# read_rows_csv is re-exported: callers read row artifacts from here
from .curves import (CSV_COLUMNS, MAX_POINTS, CorrelationCurve, curve_to_dict, fmt9,
                     format_grid, parse_grid, read_rows_csv, write_curve_csv, write_curve_json,
                     write_json, write_rows_csv)
# NumericError is re-exported: cli catches it from here
from .pearle import NumericError
from .rng import substream

EXPERIMENTS = ("curve", "chsh", "geodesic", "bounds", "probabilities", "flat-vs-s3")
FORMATS = ("csv", "json")
# the models flat-vs-s3 runs side by side, in the order it runs and writes them
COMPARED_MODELS = ("s3", "flat")

# The one list of flags and config keys: each key names a flag of every
# subcommand and maps to its ExperimentConfig field, its type, its choices
# and its flag help, in which {} is the field's default.
CONFIG_KEYS = {
    "model": ("model", str, kernel.MODES, "ensemble model (default {})"),
    "n": ("n_per_point", int, None, "samples per grid point"),
    "seed": ("seed", int, None, "64-bit seed (mandatory)"),
    "grid": ("grid", str, None, "angle grid start:stop:step or a comma list, in degrees"),
    "kappa": ("kappa", int, None, "winding index (default {})"),
    "steps": ("steps", int, None, "geodesic sweep steps (default {})"),
    "workers": ("workers", int, None, "processes that compute the grid points or CHSH "
                "setting pairs, the parent included (default {})"),
    "out": ("out", str, None, "output path (default <experiment>.<format>)"),
    "format": ("format", str, FORMATS, "artifact format (default {})"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration (a usage error, exit code 2)."""


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
    out: str | os.PathLike | None = None
    format: str = "csv"

    def validated(self) -> "ExperimentConfig":
        if self.seed is None:
            raise ConfigError("seed is mandatory (no wall-clock default)")
        try:
            _require_choice(self.experiment, "experiment", EXPERIMENTS)
            _require_int(self.seed, "seed", 0, 2**64 - 1)
            _require_choice(self.model, "model", kernel.MODES)
            _require_int(self.n_per_point, "n", 1, 2**63 - 1)  # numpy sizes are int64
            _require_int(self.kappa, "kappa", 1)
            _require_int(self.steps, "steps", 1, MAX_POINTS)
            _require_int(self.workers, "workers", 1)
            _require_choice(self.format, "format", FORMATS)
            parse_grid(self.grid)
            if self.out is not None and (not isinstance(self.out, (str, os.PathLike))
                                         or os.fspath(self.out) == ""):
                raise ValueError(f"out must be None or a non-empty str or os.PathLike, "
                                 f"got {self.out!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def grid_degrees(self) -> np.ndarray:
        return parse_grid(self.grid)

    def meta(self) -> dict:
        """The experiment and every config key but workers and out, which
        change no artifact byte, as text."""
        return {"experiment": self.experiment,
                **{key: format_grid(self.grid) if key == "grid" else str(getattr(self, field))
                   for key, (field, *_) in CONFIG_KEYS.items() if key not in ("workers", "out")}}

    def sampled_meta(self) -> dict:
        """meta() plus the sampler version, for the experiments that run pairs."""
        return {**self.meta(), "sampler": str(kernel.SAMPLER_VERSION)}

    def default_out(self) -> str:
        return f"{self.experiment.replace('-', '_')}.{self.format}"


def parse_config_file(path) -> dict:
    """Flat key=value UTF-8 text, a leading BOM ignored; '#' starts a comment; keys are flags."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {exc}") from exc
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"config key {key!r} is set more than once")
        out[key] = value
    return out


def _pool_size(workers: int, tasks: int) -> int:
    """Processes that compute, the parent included: never more than the
    tasks or the CPUs this process may run on. A pool starts one fewer."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(_require_int(workers, "workers", 1), tasks, cpus)


def _pair_counts(task) -> list:
    """The pool task: the 3x3 candidate table of each setting pair, from
    one pass over substream (seed, index). A task is (settings, n, seed,
    index, mode), each setting a pair's kernel _setting (cos eta, sin eta):
    plain floats, ints and strings, as kappa changes no outcome, and float
    tuples pickle ~20 times faster than ndarrays."""
    settings, n, seed, index, mode = task
    return kernel._candidate_tables(settings, n, substream(seed, index), mode)


def _share_counts(share) -> list:
    """The count tables of a share of pool tasks, in order."""
    return [counts for task in share for counts in _pair_counts(task)]


def _split(items, parts: int) -> list:
    """items in `parts` contiguous shares whose sizes differ by at most
    one, the larger first."""
    size, extra = divmod(len(items), parts)
    return [items[i * size + min(i, extra):(i + 1) * size + min(i + 1, extra)]
            for i in range(parts)]


def _tables(tasks, workers: int) -> list:
    """The count tables of every task, in order, on _pool_size(workers,
    len(tasks)) processes with a contiguous share of the tasks each (see
    _split). A task names its substream: no split moves a table. The parent
    computes the first share while a pool with one process per other share
    computes the rest, one share per pool task, so no pool process starts
    idle. A serial run never imports the pool module. A pool process that
    dies breaks the pool: that is an OSError."""
    first, *rest = _split(tasks, _pool_size(workers, len(tasks)))
    if not rest:
        return _share_counts(first)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=len(rest)) as pool:
            pooled = pool.map(_share_counts, rest)  # submitted before the parent's share
            return _share_counts(first) + [t for share in pooled for t in share]
    except BrokenProcessPool as exc:
        raise OSError(f"a worker process died: {exc}") from exc


def _pair_tables(pairs, n: int, seed: int, mode: str, workers: int) -> list:
    """The candidate table of each setting pair (a, b) of unit vectors, pair
    i in its own task on substream (seed, i)."""
    return _tables([((pearle._pair_setting(a, b),), n, seed, i, mode)
                    for i, (a, b) in enumerate(pairs)], workers)


def _grid_tables(config: ExperimentConfig) -> tuple[np.ndarray, list]:
    """The grid and its count tables: point i has a at 0 and b at grid[i]
    degrees, and every point reads substream (seed, 0), so its table does
    not depend on how the grid splits into _pool_size(workers, len(grid))
    contiguous shares, one task each (see _split)."""
    grid, settings = pearle._grid_settings(config.grid_degrees())
    shares = _split(settings, _pool_size(config.workers, len(settings)))
    return grid, _tables([(tuple(share), config.n_per_point, config.seed, 0, config.model)
                          for share in shares], config.workers)


# ---------------------------------------------------------------------------
# curve

def run_curve(config: ExperimentConfig) -> CorrelationCurve:
    """Correlation sweep for the configured model over the angle grid."""
    grid, tables = _grid_tables(config)
    return pearle._curve(config.model, grid, tables, config.sampled_meta())


# ---------------------------------------------------------------------------
# chsh

def chsh_monte_carlo(quad: SettingsQuad, n: int, seed: int, mode: str = "s3", *,
                     workers: int = 1) -> CHSHResult:
    """CHSH from per-pair Monte Carlo estimates on substreams (seed, pair);
    the four pairs run on up to `workers` processes."""
    pairs = quad.pairs()
    tables = _pair_tables(pairs, n, seed, mode, workers)
    ests = [pearle._pair_estimate(x, y, mode, counts, i)
            for i, ((x, y), counts) in enumerate(zip(pairs, tables))]
    return chsh_from_estimates(ests)


def run_chsh(config: ExperimentConfig) -> dict:
    """Analytic and Monte Carlo CHSH at the canonical planar quad."""
    quad = canonical_quad()
    analytic_eval = sawtooth_correlation if config.model == "flat" else cosine_correlation
    analytic = chsh(analytic_eval, quad)
    mc = chsh_monte_carlo(quad, config.n_per_point, config.seed, config.model,
                          workers=config.workers)
    return {
        "meta": config.sampled_meta(),
        "quad_degrees": list(CANONICAL_QUAD_DEGREES),
        "analytic": analytic.to_dict(),
        "monte_carlo": mc.to_dict(),
    }


# ---------------------------------------------------------------------------
# geodesic

def run_geodesic(config: ExperimentConfig) -> dict:
    """SU(2) vs SO(3) geodesic distances over half angles [0, pi]."""
    points = geodesic_sweep(config.steps)
    rows = [{"half_angle_deg": np.degrees(p.half_angle),
             "psi_deg": 2.0 * np.degrees(p.half_angle),
             "d_su2": p.d_su2, "d_so3": p.d_so3} for p in points]
    return {"meta": config.meta(), "rows": rows}


# ---------------------------------------------------------------------------
# bounds

def run_bounds(config: ExperimentConfig) -> dict:
    report = bound_report()
    return {"meta": config.meta(), **report.to_dict()}


# ---------------------------------------------------------------------------
# probabilities

def run_probabilities(config: ExperimentConfig) -> dict:
    """Per-angle joint/single/zero-event probability tables."""
    grid, counts = _grid_tables(config)
    return {"meta": config.sampled_meta(), "tables": [
        pearle._table_from_counts(np.radians(deg), kernel._kept(c, config.model)).to_dict()
        for deg, c in zip(grid, counts)]}


# ---------------------------------------------------------------------------
# flat-vs-s3

def compare_models(config: ExperimentConfig) -> dict:
    """Both curves on one grid plus their CHSH values at the canonical quad,
    with a summary line per model naming its bound regime."""
    # both curves, then both CHSH runs, in COMPARED_MODELS order
    curves = {model: run_curve(replace(config, model=model)) for model in COMPARED_MODELS}
    results = {model: chsh_monte_carlo(canonical_quad(), config.n_per_point, config.seed, model,
                                       workers=config.workers) for model in COMPARED_MODELS}
    return {
        "meta": config.sampled_meta(),
        "curves": {model: curve_to_dict(curve) for model, curve in curves.items()},
        "chsh": {model: result.to_dict() for model, result in results.items()},
        "summary": [f"{model}: |S| = {abs(result.s):.6f} -> {result.regime}"
                    for model, result in results.items()],
    }


# ---------------------------------------------------------------------------
# artifact writing

def write_artifact(experiment: str, payload, path: Path, fmt: str) -> None:
    if isinstance(payload, CorrelationCurve):
        (write_curve_json if fmt == "json" else write_curve_csv)(payload, path)
        return
    if fmt == "json":
        write_json(payload, path)
        return
    meta = payload["meta"]
    if experiment == "geodesic":
        columns, rows = ("half_angle_deg", "psi_deg", "d_su2", "d_so3"), payload["rows"]
    elif experiment == "probabilities":
        columns, rows = pearle.TABLE_COLUMNS, payload["tables"]
    elif experiment == "flat-vs-s3":
        meta = dict(meta)
        for model, line in zip(COMPARED_MODELS, payload["summary"]):
            meta[f"{model}_abs_s"] = fmt9(abs(payload["chsh"][model]["s"]))
            meta[f"{model}_regime"] = payload["chsh"][model]["regime"]
            meta[f"summary_{model}"] = line
        columns = ("model", *CSV_COLUMNS)
        rows = [{"model": model, **point}
                for model in COMPARED_MODELS for point in payload["curves"][model]["points"]]
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
    out = Path(config.default_out() if config.out is None else config.out)
    write_artifact(config.experiment, payload, out, config.format)
    return out
