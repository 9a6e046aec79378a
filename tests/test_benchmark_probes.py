"""The benchmark's traced child still finds every entry point it wraps.

`benchmark/child.py` wraps layer entry points by name and reports a name
that no longer exists as absent, which turns that per-layer metric null.
This runs one small traced job so that a rename shows up in the test suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "benchmark" / "child.py"


@pytest.mark.skipif(not CHILD.exists(), reason="benchmark/ is not in this checkout")
def test_traced_child_finds_every_wrapped_name(tmp_path):
    report = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "PARAHECKE_CACHE_DIR"}
    run = subprocess.run(
        [sys.executable, str(CHILD), str(report), "1",
         "--datum", "a1", "--jobs", "1", "satake", "--height", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    rep = json.loads(report.read_text(encoding="utf-8"))
    assert rep["setup_done"] is not None
    assert rep["absent"] == []
