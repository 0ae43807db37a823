import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from s3sim import cli, experiments, kernel
from s3sim.bounds import TSIRELSON, canonical_quad
from s3sim.curves import (MAX_POINTS, CorrelationCurve, CurvePoint, parse_grid,
                          read_curve_csv, read_curve_json, write_curve_csv, write_curve_json)
from s3sim.experiments import (COMPARED_MODELS, CONFIG_KEYS, ConfigError, ExperimentConfig,
                               _pool_size, chsh_monte_carlo, compare_models, parse_config_file,
                               read_rows_csv, run, run_bounds, run_chsh, run_curve, run_geodesic,
                               run_probabilities)
from s3sim.pearle import correlation_curve
from s3sim.rng import substream


def cfg(**kw):
    base = dict(experiment="curve", seed=42, n_per_point=2_000,
                grid=(0.0, 180.0, 30.0), format="csv")
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# grids and config plumbing

def test_parse_grid_forms():
    assert np.allclose(parse_grid("0:180:45"), [0, 45, 90, 135, 180])
    assert np.allclose(parse_grid((0.0, 10.0, 5.0)), [0, 5, 10])
    assert np.allclose(parse_grid([3.0, 7.0]), [3, 7])
    with pytest.raises(ValueError):
        parse_grid("0:200:10")
    with pytest.raises(ValueError):
        parse_grid("10:0:5")
    with pytest.raises(ValueError):
        parse_grid("0:90")


@pytest.mark.parametrize("spec, bad", [
    ("-inf", "-inf"), ([0.0, np.nan], "nan"), ((0.0, np.inf, 5.0), "inf"),
], ids=repr)
def test_parse_grid_rejects_non_finite_values(spec, bad):
    # the API forms; test_cli_non_finite_grid_is_usage_error covers the text
    # forms. A range must not report inf as too many points.
    with pytest.raises(ValueError, match=f"must be finite, got {bad}$"):
        parse_grid(spec)


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(experiment="nonsense").validated()
    with pytest.raises(ConfigError):
        cfg(model="other").validated()
    with pytest.raises(ConfigError):
        cfg(n_per_point=0).validated()
    with pytest.raises(ConfigError):
        cfg(format="xml").validated()
    with pytest.raises(ConfigError):
        cfg(seed=None).validated()
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError):
            cfg(seed=seed).validated()
    assert cfg().validated().seed == 42
    assert cfg(seed=0).validated().seed == 0
    assert cfg(seed=2**64 - 1).validated().seed == 2**64 - 1


@pytest.mark.parametrize("experiment", ["geodesic", "curve"])
@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("n_per_point", 100.5), ("kappa", 1.5), ("kappa", 2.5),
    ("kappa", True), ("steps", 10.5), ("workers", 1.5), ("workers", np.float64(2.0)),
], ids=repr)
def test_config_rejects_non_integer_values(tmp_path, experiment, field, value):
    # a float or bool would reach the artifact's meta, or fail later as a
    # TypeError; the CLI's int parsing never produces one
    out = tmp_path / "x.csv"
    config = cfg(experiment=experiment, grid="0:90:90", out=str(out), **{field: value})
    with pytest.raises(ConfigError, match="must be an integer"):
        run(config)
    assert not out.exists()


def test_config_accepts_numpy_integers():
    config = cfg(seed=np.uint64(2**64 - 1), n_per_point=np.int64(10), kappa=np.int32(3),
                 steps=np.int16(5), workers=np.int8(1)).validated()
    assert config.meta()["seed"] == str(2**64 - 1) and config.meta()["kappa"] == "3"


@pytest.mark.parametrize("field, value, name", [
    ("kappa", 0, "kappa"), ("n_per_point", 2**63, "n"), ("steps", MAX_POINTS + 1, "steps"),
], ids=repr)
def test_config_rejects_out_of_range_integers(field, value, name):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer in "):
        cfg(experiment="geodesic", **{field: value}).validated()


def test_point_limit_applies_to_grids_and_steps():
    assert parse_grid((0.0, 180.0, 180.0 / (MAX_POINTS - 1))).size == MAX_POINTS
    with pytest.raises(ValueError):
        parse_grid((0.0, 180.0, 180.0 / MAX_POINTS))  # MAX_POINTS + 1 points
    assert cfg(experiment="geodesic", steps=MAX_POINTS).validated().steps == MAX_POINTS
    for steps in (0, MAX_POINTS + 1):
        with pytest.raises(ConfigError):
            cfg(experiment="geodesic", steps=steps).validated()


def _usable_cpus(monkeypatch, n):
    """Let the process run on n CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# kernel work that pays for any pool, for the _pool_size tests of the other caps
_PAYS = 10**9


@pytest.mark.parametrize("mode", ["s3", "pearle-reject", "flat"])
def test_api_curve_is_the_cli_curve_for_every_grid_form(mode, monkeypatch):
    # correlation_curve and run_curve read a grid through parse_grid and
    # build the curve with one builder, whatever the grid's form or the
    # worker count
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_POOL_WORK", 1)  # any work pays for a pool
    forms = ([0.0, 45.0, 90.0, 135.0, 180.0], (0.0, 45.0, 90.0, 135.0, 180.0),
             np.arange(0.0, 181.0, 45.0), range(0, 181, 45))
    n, seed = 3000, 17
    for workers in (1, 2):
        for grid in forms:
            config = cfg(model=mode, n_per_point=n, seed=seed, workers=workers,
                         grid=",".join(str(deg) for deg in grid))
            assert (correlation_curve(mode, grid, n, seed).points
                    == run_curve(config).points), (workers, grid)


def test_a_bad_grid_is_a_config_error_before_any_run(tmp_path):
    # a nested grid reached format_grid (geodesic) or the kernel (probabilities)
    for experiment in ("geodesic", "probabilities"):
        out = tmp_path / f"{experiment}.csv"
        with pytest.raises(ConfigError, match="^grid must "):
            run(cfg(experiment=experiment, grid=[[0, 90]], out=str(out)))
        assert not out.exists()


def test_a_bad_out_is_a_config_error_before_any_draw(tmp_path, monkeypatch):
    # out=5 sampled the whole grid, then failed in Path(5) with a TypeError
    calls, fill = [], kernel._fill_draws
    monkeypatch.setattr(kernel, "_fill_draws", lambda *args: calls.append(1) or fill(*args))
    for out in (5, 2.5, b"c.csv"):
        with pytest.raises(ConfigError, match="^out must "):
            run(cfg(out=out))
    assert len(calls) == 0
    out = tmp_path / "c.csv"  # a path is an out too
    assert run(cfg(model="flat", n_per_point=100, grid="0:90:90", out=out)) == out


def test_cli_empty_out_is_usage_error(tmp_path, monkeypatch, capsys):
    # an empty out wrote the default <experiment>.<format> and exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.cfg").write_text("seed=1\nout=\n")
    for argv in (["geodesic", "--seed", "1", "--out", ""], ["geodesic", "--config", "empty.cfg"]):
        assert cli.main(argv) == 2
        assert "usage error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg"]


def test_config_keys_map_each_field_once():
    # CONFIG_KEYS is the one map between config keys, flags and fields
    keyed = [field for field, *_ in CONFIG_KEYS.values()]
    assert sorted(keyed) == sorted(f.name for f in fields(ExperimentConfig)
                                   if f.name != "experiment")
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(experiments.EXPERIMENTS)
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config", *(f"--{key}" for key in CONFIG_KEYS)}, name


def test_workers_help_names_its_metavar(capsys):
    # the help said "at most N processes" beside the flag's WORKERS metavar
    with pytest.raises(SystemExit) as exit_:
        cli.main(["curve", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--workers WORKERS at most WORKERS processes, the parent included; " in text


def test_every_config_key_is_a_file_key_and_all_but_two_are_meta(tmp_path):
    text = {"model": "flat", "n": "7", "seed": "3", "grid": "0:90:45", "kappa": "2",
            "steps": "9", "workers": "2", "out": "x.csv", "format": "json"}
    assert set(text) == set(CONFIG_KEYS)
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in text.items()))
    config = cli.resolve_config(cli.build_parser().parse_args(["chsh", "--config", str(path)]))
    for key, (field, type_, *_) in CONFIG_KEYS.items():
        assert getattr(config, field) == type_(text[key]), key
    # workers and out change no artifact byte, so the metadata leaves them out
    assert config.meta() == {"experiment": "chsh",
                             **{k: v for k, v in text.items() if k not in ("workers", "out")}}


def test_pool_size_never_exceeds_tasks_or_cpus(monkeypatch):
    # the CPUs this process may run on count, not the machine's: under
    # taskset -c 0, os.cpu_count() still counts every CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _usable_cpus(monkeypatch, 2)
    assert _pool_size(1, 37, _PAYS) == 1
    assert _pool_size(100_000, 37, _PAYS) == 2
    assert _pool_size(8, 1, _PAYS) == 1
    _usable_cpus(monkeypatch, 64)
    assert _pool_size(100_000, 37, _PAYS) == 37


def test_pool_size_falls_back_to_cpu_count(monkeypatch):
    # a platform without sched_getaffinity caps at os.cpu_count(), or 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _pool_size(100_000, 37, _PAYS) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(4, 37, _PAYS) == 1


def _decision(runs, n, mode, monkeypatch):
    # the processes _tables decides on at --workers 2; its shares compute nothing
    parts = []
    monkeypatch.setattr(experiments, "_split", lambda items, k: parts.append(k) or [items])
    monkeypatch.setattr(experiments, "_share_tables", lambda share: [None] * len(share[0]))
    experiments._tables(runs, n, 23, mode, 2)
    return parts[0]


def _grid_decision(grid, n, mode, monkeypatch):
    # the decision _grid_tables makes at --workers 2: one run holds the grid
    settings = [kernel._setting(np.cos(np.radians(deg))) for deg in parse_grid(grid)]
    return _decision([(0, settings)], n, mode, monkeypatch)


def _chsh_decision(n, mode, monkeypatch):
    # the decision chsh_monte_carlo makes at --workers 2: one run per pair
    return _decision([(i, (kernel._setting(0.5),)) for i in range(4)], n, mode, monkeypatch)


def test_pool_starts_only_when_the_work_pays(monkeypatch):
    # on 2 CPUs, two workers slowed every default-size run below and sped up
    # the n = 1e6 ones; nothing runs here
    _usable_cpus(monkeypatch, 2)
    mp = monkeypatch
    serial = [_grid_decision("0:180:5", 100_000, "pearle-reject", mp),
              _chsh_decision(100_000, "s3", mp),
              _grid_decision("0:180:1", 20_000, "s3", mp),
              *(_grid_decision("0:180:5", 100_000, model, mp) for model in COMPARED_MODELS),
              *(_chsh_decision(100_000, model, mp) for model in COMPARED_MODELS),
              _grid_decision("0:180:5", 100_000, "s3", mp)]
    assert serial == [1] * 8
    assert [_chsh_decision(1_000_000, "s3", mp), _chsh_decision(1_000_000, "pearle-reject", mp),
            _grid_decision("0:180:5", 1_000_000, "s3", mp)] == [2, 2, 2]


# Runs s3sim's CLI on 2 usable CPUs, then prints the pool modules it loaded.
_WORK_CAP_PROBE = ("import os, sys\n"
                   "os.sched_getaffinity = lambda pid: {0, 1}\n"
                   "from s3sim import cli\n"
                   "code = cli.main(sys.argv[1:])\n"
                   "print('pool modules:', [m for m in ('concurrent.futures', 'multiprocessing')"
                   " if m in sys.modules])\n"
                   "sys.exit(code)\n")


def test_cli_default_run_at_two_workers_loads_no_process_pool(tmp_path, cli_env):
    # the default pearle-reject tables are below one extra process's work,
    # so --workers 2 computes them serially, as --workers 1 does
    out = tmp_path / "x.csv"
    res = subprocess.run([sys.executable, "-c", _WORK_CAP_PROBE, "probabilities", "--model",
                          "pearle-reject", "--workers", "2", "--seed", "5", "--out", str(out)],
                         capture_output=True, text=True, env=cli_env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert out.exists()
    assert res.stdout.splitlines()[-1] == "pool modules: []"


@pytest.mark.parametrize("experiment", ["curve", "chsh", "probabilities", "flat-vs-s3"])
def test_cli_bytes_hold_at_every_pool_size(experiment, tmp_path, monkeypatch):
    # the subprocess worker-count tests run at n = 2000, which the work cap
    # computes serially: here any work pays, so the pool starts at 4 and 8
    _usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(experiments, "_POOL_WORK", 1)  # any work pays for a pool
    parts, split = [], experiments._split
    monkeypatch.setattr(experiments, "_split",
                        lambda items, n: parts.append(n) or split(items, n))
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.json"
        assert cli.main([experiment, "--n", "2000", "--grid", "0:180:45", "--seed", "77",
                         "--workers", str(workers), "--format", "json", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        assert max(parts) == min(workers, 5 if experiment != "chsh" else 4), workers
        parts.clear()
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("experiment", ["curve", "chsh", "probabilities", "flat-vs-s3"])
def test_every_sampled_experiment_maps_the_one_pair_task(experiment, monkeypatch):
    # shares hold plain numbers, which pickle cheaply, and return one count
    # table per setting b, one kernel pass per substream: a serial grid is
    # one pass on (seed, 0), chsh one per pair on (seed, pair)
    seen, passes = [], []

    def spy(share):
        seen.append((share, real(share)))
        return seen[-1][1]

    def count_pass(settings, *args):
        passes.append(len(settings))
        return candidate_tables(settings, *args)

    real, candidate_tables = experiments._share_tables, kernel._candidate_tables
    monkeypatch.setattr(experiments, "_share_tables", spy)
    monkeypatch.setattr(kernel, "_candidate_tables", count_pass)
    runners = {"curve": run_curve, "chsh": run_chsh, "probabilities": run_probabilities,
               "flat-vs-s3": compare_models}
    runners[experiment](cfg(experiment=experiment, n_per_point=200, grid="0:90:45"))
    settings = {"curve": [3], "chsh": [1] * 4, "probabilities": [3],
                "flat-vs-s3": [1] * 8 + [3] * 2}[experiment]
    assert sorted(passes) == settings
    indices = {"curve": [0] * 3, "chsh": [0, 1, 2, 3], "probabilities": [0] * 3,
               "flat-vs-s3": [0] * 6 + [0, 1, 2, 3] * 2}[experiment]
    assert [index for share, _ in seen for index, _ in share[0]] == indices
    for share, tables in seen:
        pairs, *rest = share
        assert all(type(i) is int and type(x) is float for i, s in pairs for x in s)
        assert {len(s) for _, s in pairs} == {2}
        assert all(type(x) in (int, str) for x in rest)
        assert len(tables) == len(pairs)
        assert all(t.shape == (3, 3) and t.dtype == np.int64 for t in tables)


@pytest.mark.parametrize("mode", kernel.MODES)
def test_tables_over_several_substreams_are_each_runs_kernel_tables(mode, monkeypatch):
    # two grids and two pairs, each run on its own substream, give each
    # run's kernel tables in order whether 1, 2, 3 or 4 processes compute
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(experiments, "_POOL_WORK", 1)  # any work pays for a pool
    parts, split = [], experiments._split
    monkeypatch.setattr(experiments, "_split",
                        lambda items, n: parts.append(n) or split(items, n))
    grid = [kernel._setting(np.cos(np.radians(deg))) for deg in (0.0, 60.0, 135.0)]
    runs = [(0, grid), (3, (kernel._setting(0.5),)), (1, grid[1:]),
            (5, (kernel._setting(-0.25),))]
    n, seed = kernel.CHUNK + 3, 61
    expected = [table for index, settings in runs
                for table in kernel._candidate_tables(settings, n, substream(seed, index), mode)]
    for workers in (1, 2, 3, 4):
        tables = experiments._tables(runs, n, seed, mode, workers)
        assert len(tables) == len(expected) == 7
        assert all(np.array_equal(x, y) for x, y in zip(tables, expected)), workers
    assert parts == [1, 2, 3, 4]


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nseed = 7\nmodel=flat\nn = 500\n\ngrid = 0:90:45\n")
    values = parse_config_file(p)
    assert values == {"seed": "7", "model": "flat", "n": "500", "grid": "0:90:45"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 7\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


# ---------------------------------------------------------------------------
# curve artifacts

def test_curve_round_trips_csv_and_json(tmp_path):
    curve = run_curve(cfg())
    csv_path = tmp_path / "curve.csv"
    json_path = tmp_path / "curve.json"
    write_curve_csv(curve, csv_path)
    write_curve_json(curve, json_path)
    back_csv = read_curve_csv(csv_path)
    back_json = read_curve_json(json_path)
    for back in (back_csv, back_json):
        assert back.meta == {k: str(v) for k, v in curve.meta.items()}
        assert len(back.points) == len(curve.points)
        for mine, theirs in zip(curve.points, back.points):
            assert theirs.n == mine.n
            assert abs(theirs.e_hat - mine.e_hat) < 1e-8  # 9 significant digits


def test_curve_header_embeds_config(tmp_path):
    curve = run_curve(cfg(seed=99))
    path = tmp_path / "c.csv"
    write_curve_csv(curve, path)
    text = path.read_text()
    assert "# seed=99" in text
    assert "# model=s3" in text
    assert text.splitlines()[0].startswith("#")


def test_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        CorrelationCurve(points=(
            CurvePoint(10.0, 0.0, 0.0, 0.0, 1.0, 5),
            CurvePoint(5.0, 0.0, 0.0, 0.0, 1.0, 5)), meta={})
    with pytest.raises(ValueError):
        CorrelationCurve(points=(CurvePoint(0.0, np.nan, 0.0, 0.0, 1.0, 5),), meta={})


def test_run_curve_matches_analytic_for_each_model():
    for model, tol_kind in (("s3", "cos"), ("flat", "saw"), ("pearle-reject", "cos")):
        curve = run_curve(cfg(model=model, n_per_point=20_000))
        for p in curve.points:
            tol = 4.0 * p.stderr if p.stderr > 0 else 1e-12
            assert abs(p.e_hat - p.e_analytic) <= tol, (model, p.eta_deg)
        if model == "s3":
            assert all(p.g == 1.0 for p in curve.points)
        if model == "pearle-reject":
            assert all(p.g < 1.0 for p in curve.points)


# ---------------------------------------------------------------------------
# other experiments

def test_run_chsh_payload():
    payload = run_chsh(cfg(experiment="chsh", n_per_point=50_000))
    assert abs(abs(payload["analytic"]["s"]) - TSIRELSON) < 1e-9
    mc = payload["monte_carlo"]
    assert abs(abs(mc["s"]) - TSIRELSON) <= 4.0 * mc["s_stderr"]


def test_chsh_monte_carlo_flat_model():
    res = chsh_monte_carlo(canonical_quad(), 50_000, seed=5, mode="flat")
    assert abs(abs(res.s) - 2.0) <= 4.0 * res.s_stderr
    assert res.regime.startswith("classical")


def test_run_geodesic_rows():
    payload = run_geodesic(cfg(experiment="geodesic", steps=180))
    rows = payload["rows"]
    assert len(rows) == 181
    d2 = np.array([r["d_su2"] for r in rows])
    d3 = np.array([r["d_so3"] for r in rows])
    assert np.all(np.diff(d2) > 0) and abs(d2[-1] - np.pi) < 1e-12
    assert np.max(np.abs(d3 - np.minimum(d2, np.pi - d2))) < 1e-12
    assert rows[90]["psi_deg"] == pytest.approx(180.0)


def test_run_bounds_payload():
    payload = run_bounds(cfg(experiment="bounds"))
    assert payload["expr_single_max"] == 2
    assert payload["expr_four_max"] == 4


def test_run_probabilities_payload():
    payload = run_probabilities(cfg(experiment="probabilities", n_per_point=20_000,
                                    grid=(0.0, 180.0, 45.0)))
    tables = payload["tables"]
    assert len(tables) == 5
    for t in tables:
        assert t["p_00"] == 0.0
        assert abs(t["g"] - 1.0) < 1e-12


def test_compare_models_payload():
    payload = compare_models(cfg(experiment="flat-vs-s3", n_per_point=20_000,
                                 grid=(0.0, 180.0, 45.0)))
    assert set(payload["curves"]) == {"s3", "flat"}
    assert any("quantum" in line for line in payload["summary"] if line.startswith("s3"))
    assert any("classical" in line for line in payload["summary"] if line.startswith("flat"))
    mid = [p for p in payload["curves"]["s3"]["points"] if p["eta_deg"] == 90.0][0]
    assert abs(mid["e_hat"]) < 0.05  # both curves cross zero at 90 degrees


# ---------------------------------------------------------------------------
# the CLI

@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd=None):
        # a hanging child fails the test instead of stalling the suite
        return subprocess.run([sys.executable, "-m", "s3sim", *args],
                              capture_output=True, text=True, cwd=cwd, env=cli_env,
                              timeout=120)
    return run


def test_cli_curve_writes_csv(tmp_path, run_cli):
    out = tmp_path / "curve.csv"
    res = run_cli("curve", "--model", "s3", "--n", "2000", "--seed", "42",
                  "--grid", "0:180:45", "--out", str(out))
    assert res.returncode == 0, res.stderr
    curve = read_curve_csv(out)
    assert [p.eta_deg for p in curve.points] == [0.0, 45.0, 90.0, 135.0, 180.0]
    assert curve.meta["seed"] == "42"


def test_cli_missing_seed_is_usage_error(tmp_path, run_cli):
    res = run_cli("curve", "--n", "100", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "seed" in res.stderr


@pytest.mark.parametrize("args", [
    ("curve", "--seed", "-1", "--n", "100", "--grid", "0:90:90"),
    ("bounds", "--seed", "-1"),
    ("curve", "--seed", str(2**64), "--n", "100", "--grid", "0:90:90"),
])
def test_cli_seed_outside_64_bits_is_usage_error(tmp_path, run_cli, args):
    out = tmp_path / "x.csv"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 2
    assert "usage error" in res.stderr
    assert not out.exists()


def test_cli_n_outside_64_bits_is_usage_error(tmp_path, run_cli):
    out = tmp_path / "x.csv"
    res = run_cli("probabilities", "--model", "pearle-reject", "--n", str(2**63),
                  "--seed", "1", "--grid", "0:0:5", "--out", str(out))
    assert res.returncode == 2
    assert "usage error" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("curve", "--n", "10", "--grid", "0:180:1e-9"),
    ("geodesic", "--steps", "100000000000"),
], ids=lambda args: args[0])
def test_cli_oversized_grid_or_steps_is_usage_error(tmp_path, run_cli, args):
    # both used to end in a numpy allocation error and exit 1
    out = tmp_path / "x.csv"
    res = run_cli(*args, "--seed", "1", "--out", str(out))
    assert res.returncode == 2
    assert "usage error" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, bad", [
    (("curve", "--model", "s3", "--grid", "nan"), "nan"),
    (("curve", "--model", "s3", "--grid", "0,nan,90"), "nan"),
    (("curve", "--model", "s3", "--grid", "0:180:nan"), "nan"),
    (("curve", "--model", "s3", "--grid", "0:inf:5"), "inf"),
    (("probabilities", "--model", "flat", "--grid", "nan"), "nan"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_cli_non_finite_grid_is_usage_error(tmp_path, run_cli, args, bad):
    # a NaN grid point used to run s3 mode through its whole candidate
    # budget and exit 4
    out = tmp_path / "x.csv"
    res = run_cli(*args, "--n", "20000", "--seed", "1", "--out", str(out))
    assert res.returncode == 2
    assert f"usage error: grid must be finite, got {bad}" in res.stderr
    assert not out.exists()


# Prints which process-pool modules the finished run left in sys.modules.
_POOL_PROBE = ("import atexit, runpy, sys\n"
               "pool = ('concurrent.futures.process', 'multiprocessing')\n"
               "atexit.register(lambda: print('pool modules:', "
               "[m for m in pool if m in sys.modules]))\n"
               "sys.argv[0] = 's3sim'\n"
               "runpy.run_module('s3sim', run_name='__main__', alter_sys=True)\n")


@pytest.mark.parametrize("args", [
    ("curve", "--n", "2000", "--grid", "0:180:45", "--workers", "1"),
    ("geodesic",),
], ids=lambda args: args[0])
def test_cli_serial_run_loads_no_process_pool(tmp_path, cli_env, args):
    # python -m s3sim, with a hook that reports the loaded modules at exit
    out = tmp_path / "x.csv"
    res = subprocess.run([sys.executable, "-c", _POOL_PROBE, *args, "--seed", "5",
                          "--out", str(out)],
                         capture_output=True, text=True, env=cli_env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert out.exists()
    assert res.stdout.splitlines()[-1] == "pool modules: []"


def test_cli_unknown_experiment_is_usage_error(run_cli):
    res = run_cli("frobnicate", "--seed", "1")
    assert res.returncode == 2


def test_cli_bad_flag_value_is_usage_error(tmp_path, run_cli):
    res = run_cli("curve", "--seed", "1", "--grid", "0:999:10",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_cli_io_error_exit_code(tmp_path, run_cli):
    res = run_cli("bounds", "--seed", "1", "--format", "json",
                  "--out", str(tmp_path / "missing_dir" / "x.json"))
    assert res.returncode == 3


def test_cli_numeric_failure_exit_code(tmp_path, run_cli):
    # a single emitted pair in rejection mode can leave a grid point with no
    # coincidences: the curve point is non-finite and the run must fail loudly
    res = run_cli("curve", "--model", "pearle-reject", "--n", "1", "--seed", "2",
                  "--grid", "0:180:90", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 4
    assert "numeric failure" in res.stderr


def test_cli_chsh_without_coincidences_is_numeric_failure(tmp_path, run_cli):
    # one emitted pair per setting pair in rejection mode leaves some pair
    # with no coincidences, so its correlation is undefined
    out = tmp_path / "x.csv"
    res = run_cli("chsh", "--model", "pearle-reject", "--n", "1", "--seed", "1",
                  "--out", str(out))
    assert res.returncode == 4
    assert "numeric failure" in res.stderr and "coincident" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, pair", [
    (("curve", "--seed", "2", "--grid", "0:180:90"), "setting pair 0 (eta = 0 deg)"),
    (("chsh", "--seed", "1"), "setting pair 3 (eta = 135 deg)"),
])
def test_cli_numeric_failure_names_the_pair_and_its_angle(tmp_path, capsys, args, pair):
    code = cli.main([*args, "--model", "pearle-reject", "--n", "1",
                     "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        f"s3sim: numeric failure: no coincident detections in {pair}; increase n\n")


def test_cli_value_error_is_not_a_numeric_failure(tmp_path, monkeypatch, capsys):
    def broken(config):
        raise ValueError("a bug, not a number")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["bounds", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert "numeric failure" not in capsys.readouterr().err


def test_cli_memory_error_is_usage_error(tmp_path, monkeypatch, capsys):
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "run", out_of_memory)
    out = tmp_path / "x.csv"
    code = cli.main(["probabilities", "--model", "pearle-reject", "--n", str(10**12),
                     "--seed", "1", "--grid", "0:0:5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error" in err and "--n" in err and "pearle-reject" in err
    assert "Traceback" not in err
    assert not out.exists()


_PARENT = os.getpid()
_real_share_tables = experiments._share_tables


def _die(share):
    # the parent computes a share too: only a pool process exits
    if os.getpid() != _PARENT:
        os._exit(1)
    return _real_share_tables(share)


def test_cli_dead_worker_is_io_error(tmp_path, monkeypatch, capsys):
    # a worker process that exits mid-task breaks the pool: an I/O error,
    # not a numeric failure, and no artifact
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_POOL_WORK", 1)  # any work pays for a pool
    monkeypatch.setattr(experiments, "_share_tables", _die)
    out = tmp_path / "x.csv"
    code = cli.main(["probabilities", "--model", "flat", "--n", "100", "--grid", "0:90:45",
                     "--seed", "1", "--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "I/O error" in err and "worker process died" in err
    assert "numeric failure" not in err
    assert not out.exists()


_PID_LOG = {}


def _logged_share_tables(share):
    # one file per process, one line per setting pair of a share: its
    # substream index and its angle eta in degrees. The sleep outlasts a
    # pool process's start, so no process can finish its share and take
    # another before every process has taken one.
    with open(_PID_LOG["dir"] / str(os.getpid()), "a") as f:
        for index, (cos_eta, sin_eta) in share[0]:
            f.write(f"{index}:{round(float(np.degrees(np.arctan2(sin_eta, cos_eta))))}\n")
    time.sleep(0.05)
    return _real_share_tables(share)


# the setting pairs of each run below in order, as _logged_share_tables logs them
_RUN_PAIRS = {"probabilities": [f"0:{deg}" for deg in range(0, 181, 5)],
              "chsh": ["0:45", "1:45", "2:45", "3:135"]}


@pytest.mark.parametrize("experiment, model, shares", [
    ("probabilities", "pearle-reject", [13, 12, 12]),
    ("chsh", "s3", [2, 1, 1]),
])
def test_pool_processes_take_one_share_each(experiment, model, shares, tmp_path, monkeypatch):
    # --workers 3 is three processes computing, the parent included, each
    # on a contiguous share of (index, setting) pairs: a grid's pairs all
    # read substream (seed, 0), chsh's pair i (seed, i). The artifact
    # equals the serial one
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(experiments, "_POOL_WORK", 1)  # any work pays for a pool
    outputs = []
    for workers in (1, 3):
        if workers == 3:
            monkeypatch.setitem(_PID_LOG, "dir", tmp_path / "pids")
            monkeypatch.setattr(experiments, "_share_tables", _logged_share_tables)
            (tmp_path / "pids").mkdir()
        out = tmp_path / f"w{workers}.csv"
        run(cfg(experiment=experiment, model=model, grid="0:180:5", workers=workers,
                out=str(out)))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    ran = {int(f.name): f.read_text().split() for f in (tmp_path / "pids").iterdir()}
    pairs = _RUN_PAIRS[experiment]
    assert len(ran) == min(3, sum(shares))
    assert sorted(ran.values()) == sorted(pairs[start:start + size] for start, size in
                                          zip(np.cumsum([0, *shares[:-1]]).tolist(), shares))
    assert ran[os.getpid()] == pairs[:shares[0]]


def test_cli_config_file_with_flag_override(tmp_path, run_cli):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("seed=5\nn=1000\ngrid=0:90:45\nmodel=flat\n")
    out = tmp_path / "c.csv"
    res = run_cli("curve", "--config", str(cfg_file), "--out", str(out),
                  "--model", "s3")
    assert res.returncode == 0, res.stderr
    curve = read_curve_csv(out)
    assert curve.meta["model"] == "s3"  # flag overrides file
    assert curve.meta["seed"] == "5"


def test_artifacts_with_a_bom_read_as_the_plain_files(tmp_path):
    # an editor's BOM failed the CSV readers ("CSV line 10: 6 cells, 1
    # columns") and read_curve_json ("Unexpected UTF-8 BOM")
    curve = run_curve(cfg(model="flat", n_per_point=200, grid="0:90:45"))
    for write, read, name in ((write_curve_csv, read_curve_csv, "c.csv"),
                              (write_curve_json, read_curve_json, "c.json")):
        plain, bom = tmp_path / name, tmp_path / f"bom_{name}"
        write(curve, plain)
        bom.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read(bom) == read(plain)
    assert read_curve_json(tmp_path / "bom_c.json") == curve
    assert read_rows_csv(tmp_path / "bom_c.csv") == read_rows_csv(tmp_path / "c.csv")


def test_config_file_with_a_bom_is_the_plain_file(tmp_path):
    # a BOM written by an editor read as part of the first key
    text = "seed=7\nn=100\ngrid=0:90:45\nmodel=flat\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    args = [cli.build_parser().parse_args(["curve", "--config", str(path)])
            for path in (plain, bom)]
    assert cli.resolve_config(args[1]) == cli.resolve_config(args[0])


def test_cli_config_key_set_twice_is_usage_error(tmp_path, capsys):
    # the last value won: n=100 then n=200 ran n = 200 and exited 0
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("seed=5\nn=100\ngrid=0:90:45\nn=200\n")
    out = tmp_path / "c.csv"
    assert cli.main(["curve", "--config", str(cfg_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "config key 'n' is set more than once" in err
    assert not out.exists()


def test_cli_undecodable_config_file_is_usage_error(tmp_path, run_cli):
    cfg_file = tmp_path / "latin.cfg"
    cfg_file.write_bytes(b"n=10\xff\n")
    out = tmp_path / "c.csv"
    res = run_cli("curve", "--seed", "1", "--config", str(cfg_file), "--out", str(out))
    assert res.returncode == 2
    assert "usage error" in res.stderr and "latin.cfg" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_cli_config_file_is_utf8_in_any_locale(tmp_path, cli_env):
    # an ASCII locale without coercion would fail to decode the comment
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("# caf\u00e9\nseed=5\nn=100\ngrid=0:90:45\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    env = {**cli_env, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    res = subprocess.run([sys.executable, "-m", "s3sim", "curve", "--config", str(cfg_file),
                          "--out", str(out)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert read_curve_csv(out).meta["seed"] == "5"


def test_artifact_bytes_do_not_depend_on_the_locale(tmp_path, cli_env):
    # parse_grid reads Arabic-Indic digits through float() and the grid is
    # recorded verbatim; an ASCII locale failed to encode it and left an
    # empty artifact behind
    cfg_file = tmp_path / "g.cfg"
    cfg_file.write_text("grid=0,٣٠\nn=100\n", encoding="utf-8")
    outputs = []
    for name, locale in (("utf8", {"PYTHONUTF8": "1"}),
                         ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})):
        out = tmp_path / f"{name}.csv"
        res = subprocess.run([sys.executable, "-m", "s3sim", "curve", "--seed", "1", "--config",
                              str(cfg_file), "--out", str(out)], capture_output=True, text=True,
                             env={**cli_env, **locale}, timeout=120)
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert "# grid=0,٣٠\n".encode() in outputs[0]
    assert outputs[1] == outputs[0]


def test_cli_bounds_json(tmp_path, run_cli):
    out = tmp_path / "bounds.json"
    res = run_cli("bounds", "--seed", "1", "--format", "json", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["expr_single_max"] == 2
    assert payload["expr_four_max"] == 4
    assert payload["meta"]["seed"] == "1"


def test_cli_geodesic_csv_round_trip(tmp_path, run_cli):
    out = tmp_path / "geo.csv"
    res = run_cli("geodesic", "--seed", "1", "--steps", "90", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta, rows = read_rows_csv(out)
    assert meta["steps"] == "90"
    assert len(rows) == 91
    assert float(rows[-1]["d_su2"]) == pytest.approx(np.pi)


def test_cli_probabilities_csv(tmp_path, run_cli):
    out = tmp_path / "probs.csv"
    res = run_cli("probabilities", "--seed", "2", "--n", "5000",
                  "--grid", "0:90:45", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta, rows = read_rows_csv(out)
    assert len(rows) == 3
    assert all(float(r["p_00"]) == 0.0 for r in rows)


def test_cli_flat_vs_s3_csv(tmp_path, run_cli):
    out = tmp_path / "cmp.csv"
    res = run_cli("flat-vs-s3", "--seed", "3", "--n", "20000",
                  "--grid", "0:180:45", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta, rows = read_rows_csv(out)
    assert {r["model"] for r in rows} == {"s3", "flat"}
    assert "quantum" in meta["s3_regime"]
    assert "classical" in meta["flat_regime"]


def _outputs_across_worker_counts(tmp_path, run_cli, args):
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"{args[0]}_w{workers}.out"
        res = run_cli(*args, "--seed", "77", "--workers", str(workers), "--out", str(out))
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    return outputs


def test_cli_reproducible_across_worker_counts(tmp_path, run_cli):
    outputs = _outputs_across_worker_counts(
        tmp_path, run_cli, ("curve", "--n", "2000", "--grid", "0:180:45"))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("args", [
    ("chsh", "--n", "2000", "--format", "json"),
    ("flat-vs-s3", "--n", "2000", "--grid", "0:180:45"),
], ids=lambda args: args[0])
def test_cli_pooled_experiments_reproducible_across_worker_counts(tmp_path, run_cli, args):
    outputs = _outputs_across_worker_counts(tmp_path, run_cli, args)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_default_output_name(tmp_path, run_cli):
    res = run_cli("bounds", "--seed", "1", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("experiment, sampled", [
    ("curve", True), ("probabilities", True), ("chsh", True), ("flat-vs-s3", True),
    ("geodesic", False), ("bounds", False),
])
def test_artifacts_name_the_sampler(tmp_path, run_cli, experiment, sampled):
    # the experiments that run pairs record pearle.SAMPLER_VERSION; the
    # others draw nothing and keep their bytes. Any worker count gives the
    # same artifact.
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"{experiment}_w{workers}.csv"
        res = run_cli(experiment, "--n", "2000", "--grid", "0:180:45", "--steps", "18",
                      "--seed", "31", "--workers", str(workers), "--out", str(out))
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    meta, _ = read_rows_csv(tmp_path / f"{experiment}_w1.csv")
    assert meta.get("sampler") == ("3" if sampled else None)
