"""Every ``benchmarks/bench_*.py`` must at least *run*.

Bench modules are not collected by the default test run (pytest only picks
up ``test_*.py``), so this test runs all of them in one pytest subprocess —
sharing the session-cached experiment harness across files — with
``REPRO_REPS=1`` (one experiment repetition per figure), ``REPRO_SMOKE=1``
(benches shrink their own timing loops) and ``--benchmark-disable`` (each
benchmarked callable runs once, untimed).  It is the slowest tier-1 test by
far (~1 minute: it replays every figure experiment once); set
``REPRO_SKIP_BENCH_SMOKE=1`` to skip it during quick local loops.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_SKIP_BENCH_SMOKE")),
    reason="REPRO_SKIP_BENCH_SMOKE set",
)
def test_all_benches_run_in_smoke_mode():
    files = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    assert len(files) >= 20
    env = dict(os.environ, REPRO_REPS="1", REPRO_SMOKE="1")
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *map(str, files)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=540,
    )
    assert result.returncode == 0, (
        f"bench smoke run failed (rc={result.returncode}):\n"
        f"--- stdout (tail) ---\n{result.stdout[-4000:]}\n"
        f"--- stderr (tail) ---\n{result.stderr[-2000:]}"
    )
