"""The artifact wire format: one CSV writer and reader, the curve readers on
top of them, the grid metadata, and the CLI's resolution of defaults."""
import argparse
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3sim import cli
from s3sim.curves import (CSV_COLUMNS, CorrelationCurve, CurvePoint, fmt9, parse_grid,
                          read_curve_csv, read_curve_json, read_rows_csv, write_curve_csv,
                          write_curve_json, write_rows_csv)
from s3sim.experiments import EXPERIMENTS, FORMATS, ExperimentConfig, run, run_probabilities
from s3sim.pearle import MODES, TABLE_COLUMNS, correlation_curve, flat_mode_curve

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


POINT = {c: 1 for c in CSV_COLUMNS}


@pytest.mark.parametrize("payload, message", [
    ({"meta": {}}, "no 'points'"),
    ({"meta": {}, "points": [POINT, {c: 1 for c in CSV_COLUMNS if c != "e_hat"}]},
     "no 'e_hat' in point 1"),
    # a meta of 3 gave a curve; the other three raised TypeError
    (3, "curve JSON is not an object"),
    ({"meta": 3, "points": []}, "'meta' is not an object"),
    ({"meta": {}, "points": 3}, "'points' is not a list"),
    ({"meta": {}, "points": [POINT, 3]}, "point 1 is not an object"),
])
def test_read_curve_json_names_a_missing_key(tmp_path, payload, message):
    # a KeyError named neither the file's problem nor the point
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        read_curve_json(path)


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


@pytest.mark.parametrize("make", [lambda grid: correlation_curve("s3", grid, 100, 1),
                                  lambda grid: flat_mode_curve(100, grid, 1)],
                         ids=["correlation_curve", "flat_mode_curve"])
def test_api_curves_record_n_and_grid_like_cli_artifacts(make):
    grid = [0.0, 33.33333333, 90.0]
    meta = make(grid).meta
    assert sorted(meta) == ["grid", "kappa", "model", "n", "sampler", "seed"]
    assert (meta["n"], meta["seed"], meta["kappa"], meta["sampler"]) == ("100", "1", "1", "3")
    assert meta["grid"] == "0,33.33333333,90"
    assert np.array_equal(parse_grid(meta["grid"]), grid)


@pytest.mark.parametrize("grid", [(0.0, 33.33333333, 90.0), (0.0, 45.0, 90.0)])
def test_api_curve_meta_keeps_a_tuple_grid_explicit(grid):
    # a tuple of angles is the grid's points, not a start:stop:step range
    curve = correlation_curve("flat", grid, 10, 1)
    assert [p.eta_deg for p in curve.points] == list(grid)
    assert np.array_equal(parse_grid(curve.meta["grid"]), grid)


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


# ---------------------------------------------------------------------------
# pinned bytes

# sha256 of each artifact at seed 9173, n 2000, grid 0:180:45, 30 geodesic
# steps and one worker. The table changes only at a declared break of the
# artifact bytes, such as a SAMPLER_VERSION bump or new columns.
PINNED = {
    ("bounds", "s3", "csv"):
        "25e1c99f393829bedeb08fea6590f831b8432625db30dc592b73929da8b9e44a",
    ("bounds", "s3", "json"):
        "e7cc91880ba477518d301fdbc88fa1177c6bc7b19f8fc88db72c7caa98433cbb",
    ("chsh", "flat", "csv"):
        "ae533fe29d526bd899dc059715bf86deac9078b07b5b5514c6b54badc00b9e7c",
    ("chsh", "flat", "json"):
        "080c5f60f28fc735e8de3acd66612f8ded5c4c404088f49d8c2cd2946ddf4be5",
    ("chsh", "pearle-reject", "csv"):
        "b230592d6b67e2476c740730722639c4698e2786d98eaba0b06cc22036c6640d",
    ("chsh", "pearle-reject", "json"):
        "ebd4a8272d4fbfffb4407b5c175113dd79d84a5e11053c04947dff5505181e37",
    ("chsh", "s3", "csv"):
        "b049119ca9cbabae57d7ad41259b49468bf37579f3289834790eb2fe7bf76087",
    ("chsh", "s3", "json"):
        "d47e02be31004fd25daf4b3f2ae51b874db8dc53fdec79060a094169f402b9fe",
    ("curve", "flat", "csv"):
        "80851f0622f3a9275c84582e488755e0656d213b1f3b2efc1e92afd38654d9bb",
    ("curve", "flat", "json"):
        "ed0ad5c41ed377d3c709593f60a83ba684a921c36a6da060436ae25cda61d7c3",
    ("curve", "pearle-reject", "csv"):
        "a5b47bbdca0a58afb9b6ecad7ff5ef3b70c62372051b9df21e7b2849fc93f333",
    ("curve", "pearle-reject", "json"):
        "10bf12edc66b6f3022899f9826b32b07e236a16e11282af5f86366107b43bf6b",
    ("curve", "s3", "csv"):
        "8a279dc1411399e31debde9a4c0aa07506dad32e25d4918b1f48ed5cf1ca10b8",
    ("curve", "s3", "json"):
        "e8e0fe29d297d001be36509fcd79689dcab2b3083b9e6ab1476028fd7d1c815a",
    ("flat-vs-s3", "s3", "csv"):
        "ce210bff8d4a65663f07e54ebed073aaab057dfb43c37ded06c9a67c2856a50e",
    ("flat-vs-s3", "s3", "json"):
        "3b2b487f279497ecc60eb18b93941b1369883ed0594c727f493de330f7bc00dd",
    ("geodesic", "s3", "csv"):
        "351b5ed7a4e03568f1c7e1bf759fe5d977a4c578ae57799f253522fa5506a162",
    ("geodesic", "s3", "json"):
        "bbd4dc0d50875de5637fefdbfb137068d2998e3a4f992d2c067ff471650c0324",
    ("probabilities", "flat", "csv"):
        "d48309b440f82ca13ad7bfd25754ace60e5e204b44a1e89488b4abc005cfab6d",
    ("probabilities", "flat", "json"):
        "54602bb03f4307ac7add0ef075ac8e91c103a1ad9e90f09dd23434d631dd0992",
    ("probabilities", "pearle-reject", "csv"):
        "701b0b29f572d8224febb5dae5c2e6ebb6176d1e3c3573804c92ad5930bc56a3",
    ("probabilities", "pearle-reject", "json"):
        "70a3aaeaff65688c92b583bf5522974a46a856e05ace8e1085bfa393d96ccbbd",
    ("probabilities", "s3", "csv"):
        "3d65b9b2c0070cab4d45fb82b01bfb409b1e15cead48bb5ba0aa7c7cfbfb9f34",
    ("probabilities", "s3", "json"):
        "6c5493b21a20da23f65d7c576d0bc751bd13921b6ad7edb5cf975369a5a58354",
}

SAMPLED = ("curve", "chsh", "probabilities", "flat-vs-s3")

# the kappa meta entry of an artifact, as written in each format
KAPPA_ENTRY = {"csv": "# kappa={}\n", "json": '"kappa": "{}"'}


def _pinned_artifact(tmp_path, experiment, model, fmt, kappa=1) -> bytes:
    out = tmp_path / f"{experiment}_{model}_{kappa}.{fmt}"
    config = ExperimentConfig(experiment, seed=9173, model=model, n_per_point=2000,
                              grid="0:180:45", kappa=kappa, steps=30, workers=1,
                              format=fmt, out=str(out))
    return run(config).read_bytes()


@pytest.mark.parametrize("experiment, model, fmt", sorted(PINNED))
def test_artifact_bytes_are_pinned(tmp_path, experiment, model, fmt):
    data = _pinned_artifact(tmp_path, experiment, model, fmt)
    assert hashlib.sha256(data).hexdigest() == PINNED[experiment, model, fmt]
    if experiment in SAMPLED:
        # kappa rescales eta_z_so but not the threshold law, so no outcome moves
        one, three = (KAPPA_ENTRY[fmt].format(k).encode() for k in (1, 3))
        assert one in data
        assert _pinned_artifact(tmp_path, experiment, model, fmt, kappa=3) == \
            data.replace(one, three)


# sha256 of CSV artifacts at seed 6151, n 20000 and grid 0:180:1: 181
# settings over two chunks each (s3 over three or more), where the table
# above has five settings in one chunk
FINE_PINNED = {
    ("curve", "s3"): "5ed08128614f58eb44560644dedb9138875f7b98873bf268a63828882ae9a30b",
    ("probabilities", "pearle-reject"):
        "32f348691052f04fa4fd2bf5706d4210a584e5f5c70d6c22e02a4d32deca31c9",
    ("probabilities", "flat"): "928daee2f5dfc88e4d3ca46fd59f5c5b2d00e5a197b8298032470f29de7faf88",
}


@pytest.mark.parametrize("experiment, model", sorted(FINE_PINNED))
def test_fine_grid_bytes_are_pinned(tmp_path, experiment, model):
    config = ExperimentConfig(experiment, seed=6151, model=model, n_per_point=20_000,
                              grid="0:180:1", workers=1, format="csv", out=str(tmp_path / "a.csv"))
    assert hashlib.sha256(run(config).read_bytes()).hexdigest() == FINE_PINNED[experiment, model]


# ---------------------------------------------------------------------------
# bytes across numpy's CPU dispatch levels

# numpy picks a SIMD code path for float32 cos, sqrt and divide at import;
# NPY_DISABLE_CPU_FEATURES takes targets away. The kernel's float64 redo band
# is meant to keep every decision, and so every byte, off that choice.
DISPATCH_LEVELS = {
    "no-avx512": "AVX512_SPR AVX512_ICL X86_V4",
    "baseline": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}

# the sampled pinned CSV cases, and two larger runs on a seed of their own
DISPATCH_CASES = {
    **{f"{experiment}/{model}": dict(experiment=experiment, seed=9173, model=model,
                                     n_per_point=2000, grid="0:180:45", steps=30)
       for experiment, model, fmt in sorted(PINNED) if experiment in SAMPLED and fmt == "csv"},
    **{f"{experiment}/{model}/n=2e4": dict(experiment=experiment, seed=9907, model=model,
                                           n_per_point=20_000, grid="0:180:15")
       for experiment, model in (("curve", "s3"), ("probabilities", "pearle-reject"))},
}

# prints the dispatch targets numpy enabled, then the sha256 of each case
_DISPATCH_CHILD = """
import hashlib, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps([x for x in __cpu_dispatch__ if __cpu_features__.get(x)]), flush=True)
from s3sim.experiments import ExperimentConfig, run
cases, out = json.loads(sys.argv[1]), Path(sys.argv[2])
print(json.dumps({key: hashlib.sha256(run(ExperimentConfig(**kw, out=str(out / "a.csv")))
                                      .read_bytes()).hexdigest() for key, kw in cases.items()}))
"""


def _dispatch_hashes(cli_env, tmp_path, disabled):
    """(targets, hashes) of a child run with the targets in `disabled` off
    (native when None); skip if numpy did not start or left one of them on."""
    env = {k: v for k, v in cli_env.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    res = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, json.dumps(DISPATCH_CASES),
                          str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    lines = res.stdout.splitlines()
    if disabled and not lines:
        pytest.skip(f"numpy did not start with {disabled} disabled: {res.stderr.strip()}")
    assert res.returncode == 0, res.stderr
    targets = json.loads(lines[0])
    if disabled and set(disabled.split()) & set(targets):
        pytest.skip(f"numpy kept {sorted(set(disabled.split()) & set(targets))} enabled")
    return targets, json.loads(lines[1])


@pytest.fixture(scope="module")
def native_hashes(cli_env, tmp_path_factory):
    return _dispatch_hashes(cli_env, tmp_path_factory.mktemp("native"), None)[1]


@pytest.mark.parametrize("level", sorted(DISPATCH_LEVELS))
def test_artifact_bytes_hold_at_restricted_cpu_dispatch(cli_env, tmp_path, native_hashes, level):
    targets, hashes = _dispatch_hashes(cli_env, tmp_path, DISPATCH_LEVELS[level])
    assert hashes == native_hashes, targets
    for key, kw in DISPATCH_CASES.items():
        if kw["seed"] == 9173:
            assert hashes[key] == PINNED[kw["experiment"], kw["model"], "csv"], (key, targets)
