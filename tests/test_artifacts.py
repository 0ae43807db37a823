"""The artifact wire format: one CSV writer and reader, the curve readers on
top of them, the grid metadata, and the CLI's resolution of defaults."""
import argparse
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sim import cli
from s3sim.curves import (CSV_COLUMNS, CorrelationCurve, CurvePoint, fmt9, read_curve_csv,
                          read_curve_json, read_rows_csv, write_curve_csv, write_curve_json,
                          write_rows_csv)
from s3sim.experiments import EXPERIMENTS, FORMATS, ExperimentConfig, run, run_probabilities
from s3sim.pearle import MODES, TABLE_COLUMNS

HEADER = ",".join(CSV_COLUMNS)

# ---------------------------------------------------------------------------
# malformed files

READERS = {"rows": read_rows_csv, "curve": read_curve_csv}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("row", ["0,-1,-1,0.01", "0,-1,-1,0.01,1,100,7"])
def test_readers_reject_rows_of_the_wrong_length(tmp_path, reader, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed=1\n{HEADER}\n0,-1,-1,0.01,1,100\n{row}\n")
    with pytest.raises(ValueError, match="line 4"):
        READERS[reader](path)


@pytest.mark.parametrize("header", ["eta_deg,e_hat", "eta,e_hat,e_analytic,stderr,g,n"])
@pytest.mark.parametrize("rows", [0, 1])
def test_read_curve_csv_rejects_a_wrong_header(tmp_path, header, rows):
    n_cells = header.count(",") + 1
    body = "".join(",".join(["0"] * n_cells) + "\n" for _ in range(rows))
    path = tmp_path / "bad.csv"
    path.write_text(f"# seed=1\n{header}\n{body}")
    with pytest.raises(ValueError, match="header"):
        read_curve_csv(path)


def test_readers_require_a_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# seed=1\n\n")
    for reader in READERS.values():
        with pytest.raises(ValueError, match="no header"):
            reader(path)


# ---------------------------------------------------------------------------
# grid metadata

def _rebuilt(config: ExperimentConfig) -> ExperimentConfig:
    recorded = config.meta()["grid"]
    grid = recorded if ":" in recorded else [float(x) for x in recorded.split(",")]
    return ExperimentConfig(experiment=config.experiment, seed=config.seed, grid=grid)


@pytest.mark.parametrize("grid", [(0.0, 1.0, 0.1234567), [0.0, 33.33333333, 90.0]])
def test_grid_metadata_rebuilds_the_grid(grid):
    config = ExperimentConfig(experiment="curve", seed=1, grid=grid)
    assert np.array_equal(_rebuilt(config).grid_degrees(), config.grid_degrees())


def test_grid_metadata_of_cli_grids_is_unchanged():
    assert ExperimentConfig(experiment="curve", seed=1).meta()["grid"] == "0:180:5"
    assert ExperimentConfig(experiment="curve", seed=1, grid="0:90:7.5").meta()["grid"] == \
        "0:90:7.5"


# ---------------------------------------------------------------------------
# column lists

def test_probability_artifact_columns_are_pinned(tmp_path):
    config = ExperimentConfig(experiment="probabilities", seed=3, n_per_point=100,
                              grid="0:90:90", out=str(tmp_path / "p.csv"))
    header = [line for line in Path(run(config)).read_text().splitlines()
              if not line.startswith("#")][0]
    assert header == ("eta_deg,n,p_pp,p_mm,p_pm,p_mp,p_single_plus_1,p_single_minus_1,"
                      "p_single_plus_2,p_single_minus_2,p_00,p_p0,p_m0,p_0p,p_0m,g")
    assert tuple(header.split(",")) == TABLE_COLUMNS
    assert tuple(run_probabilities(config)["tables"][0]) == TABLE_COLUMNS


def test_help_defaults_match_config_defaults():
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        helps = {a.dest: a.help for a in parser._actions}
        for dest in ("model", "kappa", "steps", "workers", "format"):
            stated = re.search(r"\(default (\S+)\)", helps[dest])
            assert stated is not None, (name, dest)
            assert stated.group(1) == str(defaults[dest]), (name, dest)


# ---------------------------------------------------------------------------
# round trips

WORD = st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,7}", fullmatch=True)
# metadata values keep inner spaces; the reader strips the ends of each line
VALUE = st.from_regex(r"[A-Za-z0-9_.:,=-]([A-Za-z0-9_.:,= -]*[A-Za-z0-9_.:,=-])?", fullmatch=True)
META = st.dictionaries(WORD, VALUE, max_size=4)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELL = st.one_of(st.integers(-10**12, 10**12), FINITE,
                 st.from_regex(r"[A-Za-z0-9_.:-]{1,6}", fullmatch=True))


@st.composite
def tables(draw):
    columns = draw(st.lists(WORD, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({c: CELL for c in columns}), max_size=5))
    return columns, rows


@st.composite
def curves(draw):
    centi = draw(st.lists(st.integers(0, 18_000), min_size=1, max_size=6, unique=True))
    points = tuple(CurvePoint(eta_deg=c / 100, e_hat=draw(FINITE), e_analytic=draw(FINITE),
                              stderr=draw(FINITE), g=draw(FINITE),
                              n=draw(st.integers(0, 10**12)))
                   for c in sorted(centi))
    return CorrelationCurve(points=points, meta=draw(META))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(META, tables())
def test_rows_csv_round_trip(meta, table):
    columns, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_rows_csv(meta, columns, rows, path)
        meta_back, rows_back = read_rows_csv(path)
    assert meta_back == meta
    assert rows_back == [{c: str(v) if isinstance(v, (int, str)) else fmt9(v)
                          for c, v in row.items()} for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curves())
def test_curve_csv_round_trip_at_nine_digits(curve):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
    assert back.meta == curve.meta
    assert len(back.points) == len(curve.points)
    for p, q in zip(curve.points, back.points):
        assert q.n == p.n
        for k in CSV_COLUMNS[:-1]:
            assert getattr(q, k) == float(fmt9(getattr(p, k))), k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curves())
def test_curve_json_round_trip_is_exact(curve):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        write_curve_json(curve, path)
        assert read_curve_json(path) == curve


@st.composite
def grid_specs(draw):
    start = draw(st.integers(0, 90))
    step = draw(st.integers(1, 45))
    stop = start + step * draw(st.integers(0, (180 - start) // step))
    return f"{start}:{stop}:{step}"


SETTINGS = st.fixed_dictionaries(
    {"seed": st.integers(0, 2**64 - 1)},
    optional={"model": st.sampled_from(MODES), "n": st.integers(1, 10**9),
              "grid": grid_specs(), "kappa": st.integers(1, 5),
              "steps": st.integers(1, 1000), "workers": st.integers(1, 8),
              "format": st.sampled_from(FORMATS),
              "out": st.from_regex(r"[a-z][a-z0-9_]{0,7}\.(csv|json)", fullmatch=True)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(EXPERIMENTS), SETTINGS)
def test_config_file_and_flags_resolve_alike(experiment, values):
    parser = cli.build_parser()
    flags = [experiment] + [arg for k, v in values.items() for arg in (f"--{k}", str(v))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        from_file = cli.resolve_config(parser.parse_args([experiment, "--config", str(path)]))
    from_flags = cli.resolve_config(parser.parse_args(flags))
    fields_ = {("n_per_point" if k == "n" else k): v for k, v in values.items()}
    expected = ExperimentConfig(experiment=experiment, **fields_)
    assert from_file == from_flags == expected
