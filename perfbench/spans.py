"""Spans around calls into s3sim's public functions, kept in memory.

The tracer wraps every public function of the traced layers and rebinds
each name, in every loaded s3sim module that holds it, to the wrapper. No
file under src/ changes and nothing is traced unless `install` was called.
A span records (layer, function, start, end, parent); a layer's self time is
its spans' durations minus the part their child spans cover.

Process-pool workers are forked from a traced parent, so they inherit the
wrappers. A worker writes each finished top-level span tree as one JSON line
to `spill_dir/spans-<pid>.jsonl` before its task returns, and `collect`
reads those lines back once the op is over.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TRACED_LAYERS = ("rng", "singlet", "pearle", "curves", "experiments", "cli")
UNMEASURED_LAYERS = {
    "layers": ["algebra", "bounds"],
    "why": "no workload spends even 1% of its time there (geodesic_sweep(180) takes "
           "0.8 ms, bound_report() 0.13 ms); their functions stay unwrapped and "
           "their time counts as self time of the layer that called them",
}

LAYER, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self._owner = os.getpid()
        self._pid = self._owner
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, layer: str, name: str) -> None:
        if os.getpid() != self._pid:
            # first span in a forked worker: drop the parent's copy
            self._pid = os.getpid()
            self._spans, self._stack = [], []
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([layer, name, time.perf_counter(), None, parent])
        self._stack.append(len(self._spans) - 1)

    def _exit(self) -> None:
        self._spans[self._stack.pop()][END] = time.perf_counter()
        if not self._stack and self._pid != self._owner:
            with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as f:
                f.write(json.dumps(self._spans) + "\n")
            self._spans = []

    @contextmanager
    def span(self, layer: str, name: str):
        self._enter(layer, name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer, fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Rebind the public functions of TRACED_LAYERS to span wrappers."""
        wrappers = {}
        for layer in TRACED_LAYERS:
            mod = sys.modules[f"s3sim.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        holders = [m for k, m in sys.modules.items() if k == "s3sim" or k.startswith("s3sim.")]
        for mod in holders:
            for name, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, pair[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    # -- reading ---------------------------------------------------------

    def collect(self) -> list[list]:
        """All finished span trees, this process's and the workers', then reset."""
        trees = [self._spans] if self._spans else []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            trees.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        self._spans, self._stack = [], []
        return trees


def self_times(trees) -> dict[str, float]:
    """Self seconds per 'layer.function' over all span trees."""
    out: dict[str, float] = defaultdict(float)
    for spans in trees:
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        for s, c in zip(spans, child):
            out[f"{s[LAYER]}.{s[NAME]}"] += (s[END] - s[START]) - c
    return dict(out)


def layer_shares(trees) -> dict[str, float]:
    """Each traced layer's share of all self time in the trees.

    For a serial op the total is the op's wall time. For a pooled op it is
    the op's wall time plus the workers' busy time, and the parent's wait on
    the pool counts as experiments self time.
    """
    per_layer: dict[str, float] = defaultdict(float)
    for key, secs in self_times(trees).items():
        per_layer[key.split(".", 1)[0]] += secs
    total = sum(per_layer.values())
    return {layer: per_layer[layer] / total for layer in TRACED_LAYERS}


def durations(trees, layer: str, name: str) -> list[float]:
    return [s[END] - s[START] for spans in trees for s in spans
            if s[LAYER] == layer and s[NAME] == name]


def work_seconds(trees, layers=("rng", "pearle", "singlet")) -> float:
    """Wall time of the outermost spans in `layers`: the per-point public
    calls that make up an op's simulation work, summed over processes."""
    total = 0.0
    for spans in trees:
        for s in spans:
            if s[LAYER] not in layers:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][LAYER] not in layers:
                p = spans[p][PARENT]
            if p < 0:
                total += s[END] - s[START]
    return total
