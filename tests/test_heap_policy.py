"""The process memory policy that ``galab.grid`` sets on glibc: freed
grid arrays stay in the process, so repeated pole removals on the same
strip, and a pipeline whose row blocks allocate their own temporaries in
the caller and the block map's worker, take no page faults once the heap
has grown to their size."""

import os
import subprocess
import sys

import pytest

from conftest import child_env

resource = pytest.importorskip("resource")

#: a fresh process: warm up on ``run`` twice, then count the minor faults
#: of the next RUNS runs
_CHILD = """
import resource
from galab import grid
{setup}
for _ in range(2):
    run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({runs}):
    run()
print(*grid._HEAP_POLICY, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

#: the bundled pole removal: one-block arrays
_POLE_REMOVAL = """
from galab.scenarios import PIPELINES, _Checks, load_scenario
scn = load_scenario("canonical-pole-removal")
run = lambda: PIPELINES[scn.pipeline][0](scn, _Checks(scn))
"""

#: 600 x 256 complex: four row blocks, so on two CPUs the worker runs
#: half of each map
_TWO_BLOCKS = """
import numpy as np
from galab.grid import Field, GridSpec, dbar, residual
from galab.moutard import moutard_simple
from galab.potential import omega
g = GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256)
f, fp, psi = (Field(g, np.exp(g.z * c)) for c in (1 + 2j, 0.3 - 0.2j, 0.5 + 0.4j))
u = Field(g, np.zeros(g.shape(), complex))

def run():
    m = moutard_simple(u, f, fp, omega(f, fp, (0, 0), 20j))
    psi_t = m.map_psi(psi, omega(psi, fp))
    residual(m.u_tilde, psi_t), dbar(psi_t)
"""

RUNS = 3


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _faults(setup: str) -> int:
    """Minor faults of RUNS warm runs in a child, with the policy set."""
    proc = subprocess.run([sys.executable, "-c", _CHILD.format(setup=setup, runs=RUNS)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    mmap_pinned, trim_raised, faults = map(int, proc.stdout.split())
    assert (mmap_pinned, trim_raised) == (1, 1)
    return faults


@pytest.mark.skipif(not _glibc(), reason="the policy is set on glibc only")
def test_pole_removal_takes_no_page_faults_after_warm_up():
    # without the policy each run takes about 1200 to 1600 faults, with
    # it none; the bound leaves room for the interpreter's own pages
    faults = _faults(_POLE_REMOVAL)
    assert faults <= 10 * RUNS, faults


@pytest.mark.skipif(not _glibc(), reason="the policy is set on glibc only")
def test_blocks_allocating_their_own_temporaries_take_no_page_faults():
    # without the policy each run takes about 2300 faults, with it none
    faults = _faults(_TWO_BLOCKS)
    assert faults <= 10 * RUNS, faults
