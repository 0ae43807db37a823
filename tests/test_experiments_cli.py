import json
import os
import subprocess
import sys

import numpy as np
import pytest

from s3sim import cli
from s3sim.bounds import TSIRELSON, canonical_quad
from s3sim.curves import (MAX_POINTS, CorrelationCurve, CurvePoint, parse_grid,
                          read_curve_csv, read_curve_json, write_curve_csv, write_curve_json)
from s3sim.experiments import (ConfigError, ExperimentConfig, _pool_size, chsh_monte_carlo,
                               compare_models, parse_config_file, read_rows_csv, run,
                               run_bounds, run_chsh, run_curve, run_geodesic,
                               run_probabilities)


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


def test_point_limit_applies_to_grids_and_steps():
    assert parse_grid((0.0, 180.0, 180.0 / (MAX_POINTS - 1))).size == MAX_POINTS
    with pytest.raises(ValueError):
        parse_grid((0.0, 180.0, 180.0 / MAX_POINTS))  # MAX_POINTS + 1 points
    assert cfg(experiment="geodesic", steps=MAX_POINTS).validated().steps == MAX_POINTS
    for steps in (0, MAX_POINTS + 1):
        with pytest.raises(ConfigError):
            cfg(experiment="geodesic", steps=steps).validated()


def test_pool_size_never_exceeds_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _pool_size(1, 37) == 1
    assert _pool_size(100_000, 37) == 2
    assert _pool_size(8, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _pool_size(100_000, 37) == 37
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(4, 37) == 1


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
