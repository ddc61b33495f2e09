"""Scenario files, the report format, and the curated demo bundles.

A scenario is a JSON document selecting a spacetime, a universe
configuration, an assignment family, and a list of registry check ids, with
per-check options and expected verdicts.  The curated demos are the scenario
files in ``demos/``.  Reports are JSON documents with one record per check
result; records carry stable field order so that two runs with the same seed
are byte-identical up to the timestamp.
"""

from __future__ import annotations

import datetime
import functools
import json
from pathlib import Path

from .checks import (EXPECTED, OPTIONS, REGISTRY, UNIVERSE_KEYS, RunContext,
                     run_check)
from .descent import CheckRecord
from .geometry import LatticeSpacetime

# a window or a range of rows or columns: [first, last]
_PAIR = {"type": "array", "minItems": 2, "maxItems": 2,
         "items": {"type": "integer"}}
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
                "window": _PAIR,
            },
        },
        # propertyNames, not additionalProperties: one enum names every
        # allowed key, with no sub-schema per key
        "universe": {"type": "object",
                     "propertyNames": {"enum": ["compactness",
                                                *UNIVERSE_KEYS]},
                     "properties": {"t_range": _PAIR, "x_range": _PAIR}},
        "aqft": {"type": "object",
                 "propertyNames": {"enum": ["family", "mass2", "predicate",
                                            "algebra"]}},
        "checks": {"type": "array", "items": {"type": "string"},
                   "minItems": 1},
        # check id -> {option name: integer}, over the names it reads
        "options": {"type": "object",
                    "propertyNames": {"enum": sorted(REGISTRY)},
                    "properties": {
                        cid: {"type": "object",
                              "propertyNames": {"enum": list(names)},
                              "additionalProperties": {"type": "integer"}}
                        for cid, names in OPTIONS.items()}},
        "expect": {"type": "object"},
    },
    "additionalProperties": False,
}


@functools.cache
def _validator():
    """The scenario validator, built once at the first validation:
    jsonschema.validate would check the schema itself on every call, and
    importing jsonschema is left to the runs that validate a scenario."""
    from jsonschema.validators import validator_for
    return validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


class ScenarioError(Exception):
    pass


def validate_scenario(config: dict):
    from jsonschema.exceptions import best_match
    e = best_match(_validator().iter_errors(config))
    if e is not None:
        raise ScenarioError(f"invalid scenario: {e.message} at "
                            f"{'/'.join(str(p) for p in e.path)}")
    for cid in config["checks"]:
        if cid not in REGISTRY:
            raise ScenarioError(f"unknown check id {cid!r}")


def build_context(config: dict) -> RunContext:
    st = config["spacetime"]
    # a plane ignores a circumference; a cylinder without one is refused
    c = st.get("circumference") if st["kind"] == "cylinder" else None
    M = LatticeSpacetime(st["kind"], tuple(st["window"]), c)
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


# the curated bundles: the scenario files of demos/, by file name
DEMO_DIR = Path(__file__).with_name("demos")
DEMOS = {path.stem: json.loads(path.read_text())
         for path in sorted(DEMO_DIR.glob("*.json"))}
