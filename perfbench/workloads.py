"""The four benchmark workloads: their inputs and one timed pass of each.

A workload pass is what a user waits for: a scenario bundle run through
``scenarios.run_scenario`` with ``jobs=1``, or, for ``kg-net``, the
Klein-Gordon net built and checked over a generated universe.  The seed picks
one of ``VARIANTS`` inputs (``seed % VARIANTS``), so that every variant has
a reference digest in ``reference.json`` and every pass is checked byte for
byte.  See README.md for why each workload exists.

This module imports ``latticehk``; ``worker.py`` puts the checkout's ``src``
first on ``sys.path`` before importing it.  Functions that spans.py traces
are called through their module, so that the traced run sees these calls.
"""

from __future__ import annotations

import copy
import hashlib

from latticehk import nets, sites
from latticehk.geometry import LatticeSpacetime, region_points
from latticehk.kleingordon import KgContext
from latticehk.rational import QQ
from latticehk.scenarios import (DEMOS, build_context, report_bytes,
                                 run_scenario, validate_scenario)

NAMES = ("field-descent", "site-localization", "kg-net", "demo-mix")
VARIANTS = 24

# The curated bundles use a circumference-6 cylinder with rows 0..4; one pass
# of kg-descent there takes about 16 s.  Rows 0..3 of a circumference-5
# cylinder keep every check's verdict and its dominant layer while bringing a
# pass to one or two seconds, so that a run holds enough passes for a median.
SMALL_CYLINDER = {"kind": "cylinder", "circumference": 5,
                  "window": [-14, 16]}
SMALL_UNIVERSE = {"compactness": "rc", "t_range": [0, 3], "max_height": 3,
                  "cap": 1600}

# kg-net: the universe of tests/test_nets.py::test_kg_aqft_axioms.  The first
# KG_NET_REGIONS regions are the singletons and two-point regions of rows 0-1
# and the slab over them; every disjoint pair inside the slab makes
# check_kg_axioms recompute sigma_reduced of the slab.
KG_NET_REGIONS = 18
KG_NET_C = 6


def _small(checks, seed, options=None, compactness="rc"):
    return {
        "schema": "latticehk-scenario/1",
        "seed": seed,
        "spacetime": dict(SMALL_CYLINDER),
        "universe": {**SMALL_UNIVERSE, "compactness": compactness},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": list(checks),
        "options": options or {},
    }


def _plane_counit(seed):
    """kg-counit on a plane strip.  No cylinder instance needs the adapted
    band cover; here the fourth plain instance is a null-band cover, whose
    relation check is settled by it."""
    return {
        "schema": "latticehk-scenario/1",
        "seed": seed,
        "spacetime": {"kind": "plane", "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 4],
                     "x_range": [0, 0], "max_height": 4, "cap": 1600},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": ["descent.kg-counit"],
        "options": {"descent.kg-counit": {"count": 4}},
    }


def scenarios(name: str, variant: int) -> list[dict]:
    """The scenario configs of one pass of a scenario workload."""
    if name == "field-descent":
        checks = DEMOS["kg-descent"]["checks"]
        return [_small(checks, variant, {
            "descent.kg-counit": {"count": 2},
            "descent.finer-implies-coarser": {"count": 1}}),
            _plane_counit(variant)]
    if name == "site-localization":
        checks = DEMOS["localization-oracle"]["checks"] + \
            ["site.precostack-instances"]
        return [_small(checks, variant,
                       DEMOS["localization-oracle"]["options"])]
    if name == "demo-mix":
        counter = _small(DEMOS["counterexamples"]["checks"], variant,
                         compactness="copen")
        del counter["aqft"]
        geometry = copy.deepcopy(DEMOS["appendix-geometry"])
        geometry["seed"] = variant
        extension = _small(DEMOS["cover-extension"]["checks"], variant,
                           DEMOS["cover-extension"]["options"])
        return [counter, geometry, extension]
    raise KeyError(name)


def check_ids(name: str) -> list[str]:
    if name == "kg-net":
        return []
    return [cid for cfg in scenarios(name, 0) for cid in cfg["checks"]]


def all_check_ids() -> list[str]:
    out = []
    for name in NAMES:
        for cid in check_ids(name):
            if cid not in out:
                out.append(cid)
    return out


class PassFailure(Exception):
    """A pass ran but its result is wrong."""


class ScenarioWorkload:
    """Run the workload's scenarios back to back; the pass digest covers
    every report's bytes without the timestamp."""

    def __init__(self, name: str, variant: int):
        self.configs = scenarios(name, variant)

    def setup(self):
        for cfg in self.configs:
            validate_scenario(cfg)
            build_context(cfg)

    def run_pass(self) -> str:
        h = hashlib.sha256()
        for cfg in self.configs:
            report = run_scenario(cfg, jobs=1)
            if report["summary"]["unexpected"]:
                bad = [r["id"] for r in report["records"]
                       if r["verdict"] != "pass"]
                raise PassFailure(f"unexpected verdicts among {bad}")
            h.update(report_bytes(report, drop_timestamp=True))
        return h.hexdigest()


def kg_net_regions(variant: int):
    """The kg-net universe: the template regions moved by a symmetry of the
    cylinder that the variant picks (rotation, reflection, time shift).  All
    variants are isomorphic, so they cost the same, yet each is a different
    set of regions with its own transition matrices."""
    M = LatticeSpacetime("cylinder", (-14, 16), KG_NET_C)
    uni = sites.enumerate_universe(M, compactness="rc", t_range=(0, 3),
                                   max_height=3, diamonds=True,
                                   strict_diamonds=False, min_slab_height=2,
                                   cap=900)
    template = [r for r in uni if len(r.pts) <= 20][:KG_NET_REGIONS]
    dx = variant % KG_NET_C
    sign = -1 if (variant // KG_NET_C) % 2 else 1
    dt = (variant // (2 * KG_NET_C)) % 2
    keys = {r.pts for r in uni}
    out = []
    for r in template:
        img = region_points(M, [(t + dt, (sign * x + dx) % KG_NET_C)
                                for (t, x) in r.pts])
        if img.pts not in keys:
            raise ValueError("kg-net variant leaves the universe")
        out.append(img)
    return M, sorted(out, key=lambda r: r.sort_key())


class KgNetWorkload:
    """build_kg_aqft(check=True) and check_time_slice on a localized site;
    the pass digest covers every transition matrix."""

    def __init__(self, variant: int):
        self.variant = variant

    def setup(self):
        self.M, self.regions = kg_net_regions(self.variant)

    def run_pass(self) -> str:
        site = sites.SiteCategory(self.M, self.regions, "rc", localized=True)
        net = nets.build_kg_aqft(KgContext(self.M, QQ(1, 4)), site,
                                 check=True)
        if not nets.check_time_slice(net) or net.skipped:
            raise PassFailure("time-slice axiom fails or maps were skipped")
        h = hashlib.sha256()
        for (a, b) in sorted(net.transitions):
            ra, rb = site.region_of(a), site.region_of(b)
            m = net.transitions[(a, b)]
            h.update(repr((sorted(ra.pts), sorted(rb.pts), m.nrows, m.ncols,
                           [[str(v) for v in row] for row in m.data]))
                     .encode())
        return h.hexdigest()


def make(name: str, seed: int):
    variant = seed % VARIANTS
    if name == "kg-net":
        return KgNetWorkload(variant)
    return ScenarioWorkload(name, variant)

