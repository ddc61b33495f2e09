"""Scenario files, the report format, and the curated demo bundles.

A scenario is a JSON document selecting a spacetime, a universe
configuration, optional covers and regions, an assignment family, and a list
of registry check ids.  Reports are JSON documents with one record per check
result; records carry stable field order so that two runs with the same seed
are byte-identical up to the timestamp.
"""

from __future__ import annotations

import datetime
import json

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .checks import (EXPECTED, REGISTRY, UNIVERSE_KEYS, RunContext,
                     run_check)
from .descent import CheckRecord
from .geometry import (GeometryError, LatticeSpacetime, Region, hull,
                       region_diamond, region_full, region_points,
                       region_slab)
from .sites import Cover, SiteError

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["schema", "spacetime", "checks"],
    "properties": {
        "schema": {"const": "latticehk-scenario/1"},
        "seed": {"type": "integer"},
        "spacetime": {
            "type": "object",
            "required": ["kind", "window"],
            "properties": {
                "kind": {"enum": ["plane", "cylinder"]},
                "circumference": {"type": "integer", "minimum": 2},
                "window": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": {"type": "integer"}},
            },
        },
        # propertyNames, not additionalProperties: one enum names every
        # allowed key, with no sub-schema per key
        "universe": {"type": "object",
                     "propertyNames": {"enum": ["compactness",
                                                *UNIVERSE_KEYS]}},
        "covers": {"type": "array"},
        "regions": {"type": "object"},
        "aqft": {"type": "object",
                 "propertyNames": {"enum": ["family", "mass2", "predicate",
                                            "algebra"]}},
        "checks": {"type": "array", "items": {"type": "string"},
                   "minItems": 1},
        "options": {"type": "object",
                    "propertyNames": {"enum": sorted(REGISTRY)}},
        "expect": {"type": "object"},
    },
    "additionalProperties": False,
}
# built once: jsonschema.validate would check the schema itself on every call
_VALIDATOR = validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


class ScenarioError(Exception):
    pass


def parse_spacetime(literal: dict) -> LatticeSpacetime:
    kind = literal["kind"]
    window = tuple(literal["window"])
    if kind == "cylinder":
        return LatticeSpacetime("cylinder", window, literal["circumference"])
    return LatticeSpacetime("plane", window)


def parse_region(M: LatticeSpacetime, literal: dict) -> Region:
    kind = literal.get("kind")
    if kind == "full":
        return region_full(M)
    if kind == "points":
        return region_points(M, [tuple(p) for p in literal["pts"]])
    if kind == "diamond":
        return region_diamond(M, tuple(literal["bottom"]),
                              tuple(literal["top"]))
    if kind == "slab":
        return region_slab(M, literal["t0"], literal["t1"])
    if kind == "hull":
        return hull(M, region_points(M, [tuple(p) for p in literal["pts"]]))
    raise ScenarioError(f"unknown region literal {literal!r}")


def parse_cover(M: LatticeSpacetime, literal: dict) -> Cover:
    base = parse_region(M, literal["base"])
    pieces = tuple(parse_region(M, p) for p in literal["pieces"])
    zone = parse_region(M, literal["zone"]) if "zone" in literal else None
    return Cover(base, pieces, zone=zone)


def validate_scenario(config: dict):
    e = best_match(_VALIDATOR.iter_errors(config))
    if e is not None:
        raise ScenarioError(f"invalid scenario: {e.message} at "
                            f"{'/'.join(str(p) for p in e.path)}")
    for cid in config["checks"]:
        if cid not in REGISTRY:
            raise ScenarioError(f"unknown check id {cid!r}")


def build_context(config: dict) -> RunContext:
    M = parse_spacetime(config["spacetime"])
    # no check reads the region and cover literals; they are parsed so that
    # a malformed one is a configuration error
    try:
        for lit in config.get("regions", {}).values():
            parse_region(M, lit)
        for lit in config.get("covers", []):
            parse_cover(M, lit)
    except (GeometryError, SiteError) as e:
        raise ScenarioError(str(e))
    return RunContext(M=M, seed=int(config.get("seed", 0)),
                      universe_cfg=dict(config.get("universe", {})),
                      aqft_cfg=dict(config.get("aqft", {})))


def _is_unexpected(rec: CheckRecord, expect: dict) -> bool:
    expected = expect.get(rec.id, EXPECTED)
    acceptable = {expected, "skip"} if expected == "pass" else {expected}
    return rec.verdict not in acceptable


def run_scenario(config: dict, jobs: int = 1,
                 fail_fast: bool = False) -> dict:
    """Execute a validated scenario and assemble the report.  The checks run
    one after another; ``jobs`` accepts only 1."""
    if jobs != 1:
        raise ValueError("checks run in one thread; jobs must be 1")
    validate_scenario(config)
    ctx = build_context(config)
    options = config.get("options", {})
    expect = config.get("expect", {})
    records: list[CheckRecord] = []
    for cid in config["checks"]:
        batch = run_check(cid, ctx, options.get(cid, {}))
        records.extend(batch)
        if fail_fast and any(_is_unexpected(r, expect) for r in batch):
            break
    summary = {"pass": 0, "fail": 0, "skip": 0, "unexpected": 0}
    for rec in records:
        summary[rec.verdict] += 1
        if _is_unexpected(rec, expect):
            summary["unexpected"] += 1
    return {
        "schema": "latticehk-report/1",
        "config": config,
        "records": [r.to_json() for r in records],
        "summary": summary,
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
    }


def report_bytes(report: dict, drop_timestamp: bool = False) -> bytes:
    doc = dict(report)
    if drop_timestamp:
        doc.pop("generated_at", None)
    return json.dumps(doc, indent=1, default=str).encode()


# ---------------------------------------------------------------------------
# curated demos
# ---------------------------------------------------------------------------


def _cylinder_scenario(checks, seed=7, options=None, t_range=(0, 4),
                       max_height=4):
    return {
        "schema": "latticehk-scenario/1",
        "seed": seed,
        "spacetime": {"kind": "cylinder", "circumference": 6,
                      "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": list(t_range),
                     "max_height": max_height, "cap": 1600},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": checks,
        "options": options or {},
    }


def _plane_scenario(checks, seed=7, options=None):
    return {
        "schema": "latticehk-scenario/1",
        "seed": seed,
        "spacetime": {"kind": "plane", "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 4],
                     "x_range": [-2, 4], "max_height": 4, "cap": 1600},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": checks,
        "options": options or {},
    }


DEMOS = {
    "kg-descent": _cylinder_scenario(
        ["descent.kg-counit", "descent.kg-negative-control",
         "descent.finer-implies-coarser"],
        options={"descent.kg-counit": {"count": 6}}),
    "counterexamples": {
        "schema": "latticehk-scenario/1",
        "seed": 7,
        "spacetime": {"kind": "cylinder", "circumference": 6,
                      "window": [-14, 16]},
        "universe": {"compactness": "copen", "t_range": [0, 4],
                     "max_height": 4, "cap": 1600},
        "checks": ["descent.prestack-failure", "net.epsilon-iso-violation",
                   "descent.indicator-datum-trivial"],
    },
    "localization-oracle": _cylinder_scenario(
        ["site.localization-oracle", "site.localized-embedding-functors"],
        options={"site.localization-oracle": {"universes": 6,
                                              "regions": 10}}),
    "cover-extension": _cylinder_scenario(
        ["site.extend-cover"],
        options={"site.extend-cover": {"count": 5}}),
    "appendix-geometry": {
        **_plane_scenario(
            ["causality.cone-lightcone",
             "causality.development-vs-double-complement",
             "causality.development-props",
             "causality.strict-diamonds-d-stable",
             "causality.d-stable-neighborhood-sweep",
             "causality.embedding-development-lemmas",
             "causality.stabilization"],
            options={"causality.development-vs-double-complement":
                     {"hulls": 40}}),
        # the equality with the double causal complement is a continuum
        # theorem that fails on the lattice where the causal complement U'
        # is empty and on thin hulls (some of them 4-connected staircases);
        # the corpus includes such instances on purpose and the companion
        # records confirm the divergence by brute force (docs/decisions.md)
        "expect": {"causality.development-vs-double-complement": "fail"},
    },
}
