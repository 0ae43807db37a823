"""Per-layer metrics of the traced run.

Two sources. `micro_metrics` times single public calls at fixed sizes, the
same for every workload. `op_metrics` reads the span trees of the workload's
traced ops. SHOULD_MOVE says, for each metric, which end-to-end metric it
should move, on which workload, and where it should not move.
"""
from __future__ import annotations

import math
import time
import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

from s3sim import pearle, rng, singlet
from spans import TRACED_LAYERS, durations, layer_shares, self_times, work_seconds
from workloads import PAIR_RECORDS_N, RECORDS_ANGLE_DEG, RECORDS_N, planar

N = 100_000
N_LARGE = 1_000_000

# metric: (end-to-end metric it should move, on which workloads, where it should not move)
SHOULD_MOVE = {
    "rng.uniform_sphere_ns": ("op_s_p50, events_per_s",
                              "s3-curve, chsh-large (less on reject-tables-pool)", "event-records"),
    "pearle.pearle_f_ns": ("op_s_p50", "s3-curve", "event-records"),
    "pearle.admissible_ns": ("op_s_p50", "s3-curve", "event-records"),
    "pearle.admission_rate.eta000": ("explains candidates per pair", "s3-curve", "-"),
    "pearle.admission_rate.eta090": ("explains candidates per pair", "s3-curve", "-"),
    "pearle.admission_rate.eta180": ("explains candidates per pair", "s3-curve", "-"),
    "pearle.run_pair_ns.s3": ("op_s_p50", "s3-curve", "event-records"),
    "pearle.run_pair_ns.pearle-reject": ("op_s_p50", "reject-tables-pool", "event-records"),
    "pearle.run_pair_ns.flat": ("op_s_p50", "none of the four (flat mode)", "event-records"),
    "pearle.run_pair_s3_1e6_s": ("op_s_p50", "chsh-large", "-"),
    "pearle.run_pair_peak_mb": ("peak_rss_mb", "chsh-large", "-"),
    "pearle.probabilities_from_outcomes_ns": ("op_s_p50", "reject-tables-pool", "s3-curve"),
    "pearle.curve_point_ms": ("op_s_p50", "s3-curve, chsh-large", "-"),
    "pearle.estimate_pair_ms": ("op_s_p50", "s3-curve, chsh-large", "-"),
    "pearle.pair_records_us": ("op_s_p50, events_per_s", "event-records", "s3-curve"),
    "singlet.simulate_runs_us": ("op_s_p50, events_per_s", "event-records", "s3-curve"),
    "singlet.records_to_csv_us": ("op_s_p50, events_per_s", "event-records", "s3-curve"),
    "singlet.simulate_outcomes_ns": ("op_s_p50", "event-records", "-"),
    "experiments.runner_s": ("op_s_p50", "all (per workload)", "-"),
    "experiments.write_artifact_ms": ("op_s_p50 where the artifact is large",
                                      "event-records vs the rest", "-"),
    "experiments.artifact_bytes": ("op_s_p50 where the artifact is large",
                                   "event-records vs the rest", "-"),
    "experiments.parallel_efficiency": ("op_s_p50, cpu_s_per_op",
                                        "reject-tables-pool, chsh-large", "s3-curve (workers=1)"),
    **{f"{layer}.self_share": ("- (where op time goes)", "all (per workload)", "-")
       for layer in TRACED_LAYERS},
    "trace.overhead_s": ("- (traced op_s_p50 minus untraced op_s_p50)", "all (per workload)", "-"),
}


def _seconds(fn, reps: int = 1) -> float:
    """Median wall seconds of `reps` calls of fn."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def micro_metrics(seed: int, tracer, scratch: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    a, b90 = planar(0.0), planar(90.0)

    g = rng.substream(seed, 0)
    m["rng.uniform_sphere_ns"] = _seconds(lambda: rng.uniform_sphere(g, N), 7) / N * 1e9
    # one fixed draw of candidates (e_o, eta) for the threshold and admission layers
    e_o = rng.uniform_sphere(g, N)
    eta = g.uniform(0.0, math.pi, size=N)
    m["pearle.pearle_f_ns"] = _seconds(lambda: pearle.pearle_f(eta), 7) / N * 1e9
    f = pearle.pearle_f(eta)
    m["pearle.admissible_ns"] = _seconds(lambda: pearle.admissible(e_o, f, a, b90), 7) / N * 1e9
    for deg in (0, 90, 180):
        admitted = int(np.count_nonzero(pearle.admissible(e_o, f, a, planar(deg))))
        m[f"pearle.admission_rate.eta{deg:03d}"] = admitted / N

    for mode in pearle.MODES:
        secs = _seconds(lambda: pearle.run_pair(a, b90, N, rng.substream(seed, 0), mode), 3)
        m[f"pearle.run_pair_ns.{mode}"] = secs / N * 1e9
    m["pearle.run_pair_s3_1e6_s"] = _seconds(
        lambda: pearle.run_pair(a, b90, N_LARGE, rng.substream(seed, 0), "s3"))
    tracemalloc.start()
    try:
        pearle.run_pair(a, b90, N_LARGE, rng.substream(seed, 0), "s3")
        m["pearle.run_pair_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    run = pearle.run_pair(a, b90, N, rng.substream(seed, 0), "pearle-reject")
    m["pearle.probabilities_from_outcomes_ns"] = _seconds(
        lambda: pearle.probabilities_from_outcomes(math.pi / 2, run.A, run.B), 5) / N * 1e9

    reps = 3
    tracer.install()
    try:
        for _ in range(reps):
            pearle.curve_point("s3", 90.0, N, seed, 0)
            pearle.estimate_pair(a, b90, N, rng.substream(seed, 0), "s3")
    finally:
        tracer.uninstall()
    own = self_times(tracer.collect())
    m["pearle.curve_point_ms"] = own["pearle.curve_point"] / reps * 1e3
    m["pearle.estimate_pair_ms"] = own["pearle.estimate_pair"] / reps * 1e3

    b45 = planar(RECORDS_ANGLE_DEG)
    m["singlet.simulate_outcomes_ns"] = _seconds(
        lambda: singlet.simulate_outcomes(a, b45, RECORDS_N, seed,
                                          winding_rule="angle-threshold"), 5) / RECORDS_N * 1e9
    t0 = time.perf_counter()
    records = singlet.simulate_runs(a, b45, RECORDS_N, seed, winding_rule="angle-threshold")
    t1 = time.perf_counter()
    with open(scratch / "micro_records.csv", "w", newline="") as fh:
        singlet.records_to_csv(records, fh)
    t2 = time.perf_counter()
    pearle.pair_records(a, b45, PAIR_RECORDS_N, seed)
    t3 = time.perf_counter()
    m["singlet.simulate_runs_us"] = (t1 - t0) / RECORDS_N * 1e6
    m["singlet.records_to_csv_us"] = (t2 - t1) / RECORDS_N * 1e6
    m["pearle.pair_records_us"] = (t3 - t2) / PAIR_RECORDS_N * 1e6
    return m


# the op's compute and artifact-write spans, per workload
_RUNNER = {"s3-curve": [("experiments", "run_curve")],
           "reject-tables-pool": [("experiments", "run_probabilities")],
           "chsh-large": [("experiments", "run_chsh")],
           "event-records": [("singlet", "simulate_runs"), ("pearle", "pair_records")]}
_WRITER = {"event-records": ("singlet", "records_to_csv")}


def op_metrics(workload, op_trees: list, serial_trees, untraced_p50: float,
               traced_p50: float, workers: int, artifact: Path) -> dict[str, float]:
    """Per-layer metrics from the span trees of the traced ops (one list per
    op) and, for a pooled workload, of the traced --workers 1 reference op."""
    m: dict[str, float] = {}
    m["experiments.runner_s"] = median(
        sum(sum(durations(trees, *key)) for key in _RUNNER[workload.name]) for trees in op_trees)
    writer = _WRITER.get(workload.name, ("experiments", "write_artifact"))
    m["experiments.write_artifact_ms"] = median(
        sum(durations(trees, *writer)) for trees in op_trees) * 1e3
    m["experiments.artifact_bytes"] = float(artifact.stat().st_size)
    if workload.pooled:
        # serial work from the --workers 1 run over the pooled wall time
        m["experiments.parallel_efficiency"] = (
            work_seconds(serial_trees) / (workers * untraced_p50))
    else:
        m["experiments.parallel_efficiency"] = median(
            work_seconds(trees) / sum(durations(trees, "op", workload.name))
            for trees in op_trees)
    shares = layer_shares([spans for trees in op_trees for spans in trees])
    for layer, share in shares.items():
        m[f"{layer}.self_share"] = share
    m["trace.overhead_s"] = traced_p50 - untraced_p50
    return m
