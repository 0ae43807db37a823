#!/usr/bin/env python3
"""s3sim benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload s3-curve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Works from any directory: it puts the absolute path of the repository's src/
on sys.path and writes only under <repo>/.perfbench_out/. One process drives
the load, closed loop: the next op starts when the previous one has returned
and its outputs have been checked. Ops repeat for --seconds (at least three).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced, then traced, then times single public calls, and
reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object. A results file with the machine and
provenance block goes to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("s3-curve", "reject-tables-pool", "event-records", "chsh-large")
SETUP_REPS = 7
MIN_OPS = 3

# A fresh interpreter imports s3sim and resolves the workload's config.
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); from s3sim import cli; "
              "cli.resolve_config(cli.build_parser().parse_args({argv!r}))")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if not sha:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or "unknown"


def machine_block(seed: int, trace: int) -> dict:
    import numpy
    import s3sim
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "l2_per_core": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "s3sim": s3sim.__version__, "git_commit": git_commit(),
        "workload_seed": seed, "tracing": bool(trace),
    }


# ---------------------------------------------------------------------------
# measuring

class SetupProbe:
    """Times fresh interpreters that import s3sim and resolve the workload's
    config. The runs are spread between the ops of the timed loop, so their
    median covers the same stretch of time as the ops do."""

    def __init__(self, argv: list[str]):
        self.code = SETUP_CODE.format(src=str(SRC), argv=argv)
        self.times: list[float] = []

    def _once(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def pace(self, fraction_done: float) -> None:
        while len(self.times) < min(SETUP_REPS, SETUP_REPS * fraction_done):
            self._once()

    def median(self) -> float:
        self.pace(1.0)
        return median(self.times)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Ops:
    """Runs ops of one workload and counts attempts and failures.

    Every artifact must be byte-equal to the reference: the --workers 1
    artifact for a pooled workload, else the first op's artifact."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w, self.seed, self.workdir = workload, seed, workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None
        self.suffix = ".json" if "json" in workload.argv else ".csv"

    def run(self, out_name: str, tracer=None, **flags) -> tuple[float, float, Path]:
        """One checked op; returns (wall s, cpu s, artifact). Only the op is timed."""
        out = self.workdir / (out_name + self.suffix)
        gc.collect()
        self.attempted += 1
        problems: list[str] = []
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                self.w.op(self.seed, out, **flags)
            else:
                with tracer.span("op", self.w.name):
                    self.w.op(self.seed, out, **flags)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems.append(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        if not problems:
            problems = self.w.check(out)
            data = out.read_bytes()
            if self.reference is None:
                self.reference = data
            elif data != self.reference:
                problems.append(f"{out.name} differs from the reference artifact "
                                f"({len(data)} vs {len(self.reference)} bytes)")
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
            print(f"FAILED op {self.attempted}: {problems}", file=sys.stderr)
        return wall, cpu, out

    def loop(self, seconds: float, tracer=None, trees=None,
             between=None) -> tuple[list, list, Path]:
        """Ops for `seconds`, at least MIN_OPS; after each op, untimed,
        `between` gets the fraction of `seconds` gone by."""
        walls, cpus = [], []
        start = time.perf_counter()
        while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
            wall, cpu, out = self.run("op", tracer)
            walls.append(wall)
            cpus.append(cpu)
            if tracer is not None:
                trees.append(tracer.collect())
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        return walls, cpus, out

    def reference_op(self, workers: int, tracer=None) -> list:
        """Untimed warm-up that also fixes the reference artifact."""
        if not self.w.pooled:
            self.w.op(self.seed, self.workdir / ("warmup" + self.suffix), n=1000)
            return []
        if tracer is not None:
            tracer.install()
        try:
            self.run("reference_workers1", tracer, workers=1)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return tracer.collect() if tracer is not None else []


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    With k sorted samples that is the (k-10)-th, percentile 100*(k-10)/k. It
    lies above the median only from k = 20 on; with fewer samples the
    maximum is reported instead, and the label says so."""
    s = sorted(samples)
    k = len(s)
    if k >= 20:
        return s[k - 11], f"p{100.0 * (k - 10) / k:.1f} of {k} samples"
    return s[-1], (f"max of {k} samples (below 20 samples the percentile with "
                   f"10 beyond it is not above the median)")


# ---------------------------------------------------------------------------
# one workload

def end_to_end(w, seed: int, seconds: float, workdir: Path) -> tuple[Ops, dict, dict]:
    from workloads import WORKERS
    setup = SetupProbe(w.args(seed, workdir / "setup_probe"))
    ops = Ops(w, seed, workdir)
    ops.reference_op(WORKERS)
    walls, cpus, out = ops.loop(seconds, between=setup.pace)
    p50 = median(walls)
    tail_s, tail_label = tail(walls)
    metrics = {
        "setup_s": setup.median(), "op_s_p50": p50, "op_s_tail": tail_s,
        "events_per_s": w.events / p50, "cpu_s_per_op": median(cpus),
        "peak_rss_mb": peak_rss_mib(),
    }
    notes = {"op_s_samples": walls, "cpu_s_samples": cpus, "setup_s_samples": setup.times,
             "op_s_tail_is": tail_label,
             "artifact_bytes": out.stat().st_size}
    return ops, metrics, notes


def per_layer(w, seed: int, seconds: float, workdir: Path) -> tuple[Ops, dict, dict]:
    from perlayer import micro_metrics, op_metrics
    from spans import Tracer
    from workloads import WORKERS
    tracer = Tracer(workdir)
    ops = Ops(w, seed, workdir)
    serial_trees = ops.reference_op(WORKERS, tracer)
    untraced, _, _ = ops.loop(seconds / 2)
    op_trees: list = []
    tracer.install()
    try:
        traced, _, out = ops.loop(seconds / 2, tracer, op_trees)
    finally:
        tracer.uninstall()
    metrics = op_metrics(w, op_trees, serial_trees, median(untraced), median(traced),
                         WORKERS, out)
    metrics.update(micro_metrics(seed, tracer, workdir))
    notes = {"untraced_op_s_samples": untraced, "traced_op_s_samples": traced,
             "pool_workers": WORKERS}
    return ops, metrics, notes


def run_one(args) -> int:
    from perlayer import SHOULD_MOVE
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    measure = per_layer if args.trace else end_to_end
    ops, measured, notes = measure(w, args.seed, args.seconds, workdir)
    missing = sorted({m["name"] for m in wanted} - set(measured))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(ops.failures)

    print(f"== {w.name}  seed={args.seed}  trace={args.trace}  ({w.n_label})")
    for m in wanted:
        line = f"  {m['name']:<40} {measured[m['name']]:>14.6g} {m['unit']}"
        if args.trace:
            line += "   moves {} on {}; not on {}".format(*SHOULD_MOVE[m["name"]])
        print(line)
    for key, value in notes.items():
        if not key.endswith("samples"):
            print(f"  {key}: {value}")
    print(f"  error_rate: {failed / ops.attempted:.6g} ratio ({failed} failed of "
          f"{ops.attempted} attempted ops)")

    result = {
        "machine": machine_block(args.seed, args.trace),
        "workload": w.name, "sizes": w.n_label, "seconds": args.seconds,
        "run_wall_s": time.perf_counter() - t_start,
        "error_rate": {"value": failed / ops.attempted, "unit": "ratio",
                       "failed": failed, "attempted": ops.attempted},
        "failures": ops.failures, "metrics": metrics, "notes": notes,
    }
    if args.trace:
        from spans import UNMEASURED_LAYERS
        result["should_move"] = {m["name"]: dict(zip(("moves", "on", "not_on"),
                                                     SHOULD_MOVE[m["name"]]))
                                 for m in wanted}
        result["unmeasured_layers"] = UNMEASURED_LAYERS
    shutil.rmtree(workdir)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "s3sim" / "__init__.py").is_file():
        print(f"perfbench: no s3sim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
