"""The four benchmark workloads: one op each, its inputs and its output checks.

Every op starts from `cli.resolve_config`, so the CLI defaults (planar
settings, angle grid 0:180:5) apply unless a workload overrides them, and is
then driven through the public API of s3sim.experiments, s3sim.pearle and
s3sim.singlet. A check returns a list of failure messages; an op fails if it
raises or if any message comes back.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from s3sim import cli, curves, experiments, pearle, singlet

# At most two pool workers, and never more than the machine has cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))
TSIRELSON = 2.0 * math.sqrt(2.0)
RECORDS_N = 20_000
PAIR_RECORDS_N = 10_000
# event-records settings: a at 0 degrees, b at 45 degrees (a CHSH quad angle)
RECORDS_ANGLE_DEG = 45.0


def planar(deg: float) -> np.ndarray:
    rad = math.radians(deg)
    return np.array([math.cos(rad), math.sin(rad), 0.0])


def resolve(argv: list[str]):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    n: int             # pairs per point (records, for event-records)
    events: int        # pairs (or records) delivered by one op
    pooled: bool       # runs a process pool; checked byte-equal to --workers 1
    n_label: str

    def args(self, seed: int, out: Path, **flags) -> list[str]:
        argv = list(self.argv) + ["--seed", str(seed), "--out", str(out)]
        for flag, value in flags.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def op(self, seed: int, out: Path, **flags) -> Path:
        """One operation: resolve the config, simulate, write the artifact."""
        config = resolve(self.args(seed, out, **flags))
        if self.name == "event-records":
            return _event_records(config, out)
        return experiments.run(config)

    def check(self, path: Path) -> list[str]:
        return CHECKS[self.name](Path(path), self.n)


def _event_records(config, out: Path) -> Path:
    grid = config.grid_degrees()
    a, b = planar(grid[0]), planar(RECORDS_ANGLE_DEG)
    records = singlet.simulate_runs(a, b, RECORDS_N, config.seed,
                                    winding_rule="angle-threshold")
    with open(out, "w", newline="") as f:
        singlet.records_to_csv(records, f)
    pairs = pearle.pair_records(a, b, PAIR_RECORDS_N, config.seed)
    # the pair records are checked here, while they are in memory
    outcomes = {(p.A, p.B) for p in pairs}
    if len(pairs) != PAIR_RECORDS_N or not outcomes <= {(1, 1), (1, -1), (-1, 1), (-1, -1)}:
        raise ValueError(f"pair_records gave {len(pairs)} records with outcomes {outcomes}")
    return out


# ---------------------------------------------------------------------------
# output checks, on the artifact parsed back with the repo's own readers

def _check_curve(path: Path, n: int) -> list[str]:
    curve = curves.read_curve_csv(path)
    bad = []
    if len(curve.points) != 37:
        bad.append(f"curve has {len(curve.points)} points, expected 37")
    for p in curve.points:
        if p.g != 1.0 or p.n != n:
            bad.append(f"s3 point {p.eta_deg:g} deg has g={p.g!r}, n={p.n} (n expected {n})")
        # the tolerance tests/test_acceptance.py uses
        tol = 4.0 * p.stderr if p.stderr > 0 else 1e-12
        if abs(p.e_hat - p.e_analytic) > tol:
            bad.append(f"point {p.eta_deg:g} deg: |e_hat - e_analytic| = "
                       f"{abs(p.e_hat - p.e_analytic):.3g} > 4 stderr = {tol:.3g}")
    return bad


_JOINT = ("p_pp", "p_mm", "p_pm", "p_mp")
_ZERO_EVENT = ("p_00", "p_p0", "p_m0", "p_0p", "p_0m")


def _check_tables(path: Path, n: int) -> list[str]:
    _, rows = experiments.read_rows_csv(path)
    bad = [] if len(rows) == 37 else [f"{len(rows)} probability rows, expected 37"]
    for row in rows:
        total = sum(float(row[c]) for c in _JOINT + _ZERO_EVENT)
        if abs(total - 1.0) > 1e-9 or int(row["n"]) != n:
            bad.append(f"row {row['eta_deg']} deg: cells sum to {total!r}, n={row['n']}")
    return bad


def _check_chsh(path: Path, n: int) -> list[str]:
    mc = json.loads(path.read_text())["monte_carlo"]
    dev = abs(abs(mc["s"]) - TSIRELSON)
    if dev > 4.0 * mc["s_stderr"]:
        return [f"|S| = {abs(mc['s']):.6f} is {dev:.3g} from 2*sqrt(2), "
                f"more than 4 sigma = {4.0 * mc['s_stderr']:.3g}"]
    return []


def _check_records(path: Path, n: int) -> list[str]:
    lines = path.read_text().splitlines()
    rows = len(lines) - 1
    if not lines or lines[0] != "a_theta,b_theta,lambda,A,B,joint_limit" or rows != RECORDS_N:
        return [f"records CSV has {rows} rows, expected {RECORDS_N}"]
    return []


CHECKS = {"s3-curve": _check_curve, "reject-tables-pool": _check_tables,
          "chsh-large": _check_chsh, "event-records": _check_records}

WORKLOADS = {w.name: w for w in (
    Workload("s3-curve",
             ("curve", "--model", "s3", "--n", "100000", "--workers", "1", "--format", "csv"),
             n=100_000, events=100_000 * 37, pooled=False, n_label="n=1e5 pairs x 37 points"),
    Workload("reject-tables-pool",
             ("probabilities", "--model", "pearle-reject", "--n", "100000",
              "--workers", str(WORKERS), "--format", "csv"),
             n=100_000, events=100_000 * 37, pooled=True, n_label="n=1e5 pairs x 37 points"),
    Workload("event-records",
             ("curve",), n=RECORDS_N,
             events=RECORDS_N + PAIR_RECORDS_N, pooled=False,
             n_label="2e4 singlet records + 1e4 pair records"),
    Workload("chsh-large",
             ("chsh", "--model", "s3", "--n", "1000000", "--workers", str(WORKERS),
              "--format", "json"),
             n=1_000_000, events=1_000_000 * 4, pooled=True, n_label="n=1e6 pairs x 4 setting pairs"),
)}
