"""The contour-pole layers write the same bits as when the digests were
recorded, on twelve seeded profiles of the 480 x 81 strip.

The bundled scenarios hold only r-1-only and r-1 + r1 profiles; these
add an imaginary r0 and a cubic phase, as the pole-strip benchmark
draws them.  Each profile is hashed part by part with SHA-256: the
coefficient u*, both seed fields, the potential's imaginary part, the
transformed coefficient, the result's JSON and every beta_j of both
seed series.

Like ``bundled_digests.json``, the record pins numpy's own kernels, so
it is checked only under the numpy version recorded with it.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from galab.grid import GridSpec
from galab.series import FunctionOnInterval, PoleProfile
from galab.singularity import remove_pole, synthesize_seeds, synthesize_singular_u

RECORD = json.loads((Path(__file__).parent / "data" / "pole_digests.json").read_text())

IV = (1.0, 2.0)
STRIP = GridSpec(x_min=-0.1, x_max=0.1, y_min=1.0, y_max=2.0, nx=480, ny=81,
                 excluded_band=0.002)
ORDER = 8
SEEDS = range(12)


def poly(*coeffs):
    return FunctionOnInterval.from_poly(list(coeffs), IV)


def pole_case(seed):
    """Cubic phi, r-1 = -1/2, linear imaginary r0, Im r1 = phi''/2, and
    quadratic leading seed coefficients that stay above 0.5 on [1, 2]."""
    rng = random.Random(seed)
    u = lambda s: rng.uniform(-s, s)
    phi = [u(0.15) for _ in range(4)]
    r1 = [complex(u(0.15), phi[2]), complex(u(0.15), 3.0 * phi[3])]
    profile = PoleProfile(poly(*phi), {-1: poly(-0.5),
                                       0: poly(1j * u(0.15), 1j * u(0.15)),
                                       1: poly(*r1)})

    def positive():
        # c0 + c1 (y - 1) + c2 (y - 1)^2 >= c0 - |c1| - |c2|
        c0, c1, c2 = rng.uniform(1.0, 2.0), u(0.25), u(0.25)
        return poly(c0 - c1 + c2, c1 - 2.0 * c2, c2)

    return profile, positive(), positive()


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def pole_digests(seed) -> dict[str, str]:
    profile, beta, beta_plus = pole_case(seed)
    u_star, _ = synthesize_singular_u(profile, STRIP)
    f, fp = synthesize_seeds(profile, beta, beta_plus, STRIP, ORDER)
    result = remove_pole(u_star, f, fp)
    parts = {"u_star": u_star.values, "f": f.values,
             "f_plus": fp.values, "omega_im": result.omega.im,
             "u_tilde": result.u_tilde.values,
             "result": json.dumps(result.to_json()).encode()}
    for name, model in (("beta", f), ("beta_plus", fp)):
        coeffs = sorted(model.series.beta.items())
        parts[name] = b"".join(f"{j}:{fn.data.size};".encode() + fn.data.tobytes()
                               for j, fn in coeffs)
    return {name: _digest(data) for name, data in parts.items()}


def test_the_record_covers_every_seed():
    assert sorted(RECORD["profiles"]) == sorted(str(s) for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_pole_outputs_are_bit_identical(seed):
    if np.__version__ != RECORD["numpy"]:
        pytest.skip(f"digests were recorded under numpy {RECORD['numpy']}, "
                    f"this is numpy {np.__version__}")
    want = RECORD["profiles"][str(seed)]
    got = pole_digests(seed)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"bits changed in {changed}"
