"""The grid layer's bytes do not depend on the BLAS kernel.

OpenBLAS built with DYNAMIC_ARCH, as numpy's wheels are, picks its
kernels for the CPU at load time, and ``OPENBLAS_CORETYPE`` overrides
the pick.  Two child processes, one with the default kernel and one
with Sandybridge's, hash the stencils, the residuals and ``diff_axis``
on seeded fields; a ``np.tensordot`` on the same data is the control.
Where the control's bytes do not change either, the variable was not
honoured (another BLAS, or a CPU family without those kernels), and the
test has nothing to compare.
"""

import json
import subprocess
import sys

import pytest

from conftest import child_env

_CHILD = """
import hashlib, json
import numpy as np
from galab.grid import Field, GridSpec, dbar, diff_axis, dz, residual

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

rng = np.random.default_rng(38)
galab, control = {}, {}
for grid in (GridSpec(0.0, 1.0, 1.0, 2.0, 64, 64),
             GridSpec(-0.1, 0.1, 1.0, 2.0, 480, 81, excluded_band=0.002)):
    u, psi = (Field(grid, rng.standard_normal(grid.shape())
                    + 1j * rng.standard_normal(grid.shape())) for _ in range(2))
    key = f"{grid.nx}x{grid.ny}"
    galab[key + " dbar"] = digest(dbar(psi).values)
    galab[key + " dz"] = digest(dz(psi).values)
    for kind in ("direct", "conjugate"):
        galab[f"{key} residual {kind}"] = np.float64(residual(u, psi, kind)).hex()
    for data in (psi.values.real, psi.values):
        for axis in (0, 1):
            galab[f"{key} diff_axis {data.dtype} {axis}"] = digest(diff_axis(data, 0.01, axis))
            control[f"{key} tensordot {data.dtype} {axis}"] = digest(np.tensordot(
                np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
                np.moveaxis(data, axis, 0)[:5], axes=(0, 0)))
print(json.dumps({"galab": galab, "control": control}))
"""


def _digests(coretype):
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_grid_layer_bytes_do_not_depend_on_the_blas_kernel():
    default, sandybridge = _digests(None), _digests("Sandybridge")
    if default["control"] == sandybridge["control"]:
        pytest.skip("OPENBLAS_CORETYPE is not honoured here: tensordot's bytes do not change")
    changed = sorted(k for k in default["galab"] if default["galab"][k] != sandybridge["galab"][k])
    assert not changed, f"bytes that change with the BLAS kernel: {changed}"
