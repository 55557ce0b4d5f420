"""Smoke tests of the evidence scripts in tools/: each runs to the end on
its smallest input, so a change to a type they build cannot leave them broken."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("script, args, last", [
    ("pole_stages.py", ["--profiles", "1", "--repeats", "1"], "tracemalloc peak: item "),
    ("block_sites.py", ["96x96", "--pairs", "1"], "_sum_steps by_rows vs cumsum"),
    ("blas_kernels.py", ["--calls", "1", "--processes", "1"], "  1024^2:"),
], ids=["pole_stages", "block_sites", "blas_kernels"])
def test_script_exits_zero(script, args, last):
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOLS / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last), proc.stdout
