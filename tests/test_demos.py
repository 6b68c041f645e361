"""Every demo script runs to completion, each in a fresh interpreter with
the library taken from ``src``."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # each demo takes about 0.2 s on a 2-core host, start-up included
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert elapsed < 5
