"""The process memory policy that ``galab.grid`` sets on glibc: freed
grid arrays stay in the process, so repeated pole removals on the same
strip take no page faults once the heap has grown to their size."""

import os
import subprocess
import sys

import pytest

from conftest import child_env

resource = pytest.importorskip("resource")

#: a fresh process: warm up on the bundled pole removal, then count the
#: minor faults of the next RUNS runs
_CHILD = """
import resource
from galab import grid
from galab.scenarios import PIPELINES, _Checks, load_scenario

scn = load_scenario("canonical-pole-removal")
runner = PIPELINES[scn.pipeline][0]
for _ in range(2):
    runner(scn, _Checks(scn))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({runs}):
    runner(scn, _Checks(scn))
print(*grid._HEAP_POLICY, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

RUNS = 3


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the policy is set on glibc only")
def test_pole_removal_takes_no_page_faults_after_warm_up():
    # without the policy each run takes about 1200 to 1600 faults, with
    # it none; the bound leaves room for the interpreter's own pages
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(runs=RUNS)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    mmap_pinned, trim_raised, faults = map(int, proc.stdout.split())
    assert (mmap_pinned, trim_raised) == (1, 1)
    assert faults <= 10 * RUNS, faults
