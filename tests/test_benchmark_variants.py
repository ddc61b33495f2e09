"""Every input of the benchmark sets up and passes with its reference digest.

The benchmark picks one of ``workloads.VARIANTS`` inputs per seed, and its
runner counts a pass that raises as a failed pass, so a variant whose set-up
raises or whose bytes moved shows only at the seeds that pick it.  Here each
variant of each workload runs ``setup()`` and one ``run_pass()``, and its
digest is compared with ``perfbench/reference.json``.  The benchmark's
modules are imported as they are and never changed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_benchmark_variant_matches_its_reference(reference, name,
                                                      variant):
    wl = workloads.make(name, variant)
    wl.setup()
    assert wl.run_pass() == reference[name][str(variant)]
