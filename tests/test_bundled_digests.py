"""Every bundled scenario writes the same bytes as when the digests were
recorded: 15 reports and 11 CSV dumps, compared by SHA-256.

The digests in ``data/bundled_digests.json`` pin the output of numpy's
own kernels (complex exp, division and products round per numpy
release), so they are checked only under the numpy version recorded
with them.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from galab.scenarios import bundled_scenarios, load_scenario, run_scenario

RECORD = json.loads((Path(__file__).parent / "data" / "bundled_digests.json").read_text())


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    if np.__version__ != RECORD["numpy"]:
        pytest.skip(f"digests were recorded under numpy {RECORD['numpy']}, "
                    f"this is numpy {np.__version__}")
    out = tmp_path_factory.mktemp("bundled")
    for name in bundled_scenarios():
        run_scenario(load_scenario(name), out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_the_record_covers_every_report_and_dump():
    names = RECORD["files"]
    assert sum(n.endswith(".report.json") for n in names) == 15
    assert sum(n.endswith(".csv") for n in names) == 11
    assert {n.split(".")[0] for n in names} == set(bundled_scenarios())


def test_bundled_outputs_are_byte_identical(written):
    assert sorted(written) == sorted(RECORD["files"])
    changed = {name: written[name] for name, digest in RECORD["files"].items()
               if written[name] != digest}
    assert not changed, f"bytes changed; new SHA-256 of each: {changed}"
