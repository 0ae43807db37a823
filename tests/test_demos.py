"""Each narrative script in demos/ runs to completion against the package.

The demos import s3sim's public and private names directly, so an API
change that breaks one fails here rather than silently.
"""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS  # an empty glob would leave test_demo_runs with no cases


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, cli_env):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=tmp_path, env=cli_env, timeout=120)
    assert res.returncode == 0, res.stderr
