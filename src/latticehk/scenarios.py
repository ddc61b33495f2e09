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
import json
import numbers
from pathlib import Path

from .checks import (EXPECTED, OPTIONS, REGISTRY, UNIVERSE_KEYS, CheckRecord,
                     RunContext, run_check)
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
        # allowed key, and properties types those that need a type
        "universe": {"type": "object",
                     "propertyNames": {"enum": ["compactness",
                                                *UNIVERSE_KEYS]},
                     "properties": {
                         "compactness": {"enum": ["rc", "copen"]},
                         "t_range": _PAIR, "x_range": _PAIR,
                         "max_height": {"type": "integer", "minimum": 0},
                         "min_slab_height": {"type": "integer",
                                             "minimum": 1},
                         "cap": {"type": "integer", "minimum": 0}}},
        "aqft": {"type": "object",
                 "propertyNames": {"enum": ["family", "mass2", "algebra"]}},
        "checks": {"type": "array", "items": {"type": "string"},
                   "minItems": 1},
        # check id -> {option name: count >= 0}, over the names it reads
        "options": {"type": "object",
                    "propertyNames": {"enum": sorted(REGISTRY)},
                    "properties": {
                        cid: {"type": "object",
                              "propertyNames": {"enum": list(names)},
                              "additionalProperties": {"type": "integer",
                                                       "minimum": 0}}
                        for cid, names in OPTIONS.items()}},
        "expect": {"type": "object"},
    },
    "additionalProperties": False,
}


# JSON types by name; a bool is neither an integer nor a number, and unlike
# JSON Schema an integral float such as 2.0 is no integer either, because a
# check would pass it on to range()
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": numbers.Number}


def _is_type(instance, name: str) -> bool:
    return isinstance(instance, _TYPES[name]) and \
        not isinstance(instance, bool)


def _errors(schema: dict, instance, path: tuple = ()):
    """Yield (path, message, misfit) for each way ``instance`` fails
    ``schema``, in jsonschema's order and with its messages: the schema's
    keywords in dict order, each sub-schema depth first.  ``misfit`` says
    whether the instance fails the type of the schema that raised the error
    (or that schema names no type).  Only the keywords of SCENARIO_SCHEMA
    are read, with the messages of the values it gives them; every const
    and enum value there is a string, so equality is plain ``==``."""
    misfit = "type" not in schema or not _is_type(instance, schema["type"])
    obj, arr = _is_type(instance, "object"), _is_type(instance, "array")
    for key, value in schema.items():
        if key == "type" and misfit:
            yield path, f"{instance!r} is not of type {value!r}", misfit
        elif key == "required" and obj:
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property", misfit
        elif key == "properties" and obj:
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(sub, instance[name], (*path, name))
        elif key == "const" and instance != value:
            yield path, f"{value!r} was expected", misfit
        elif key == "enum" and instance not in value:
            yield path, f"{instance!r} is not one of {value!r}", misfit
        elif key == "minimum" and _is_type(instance, "number") \
                and instance < value:
            yield (path, f"{instance!r} is less than the minimum of "
                   f"{value!r}", misfit)
        elif key == "minItems" and arr and len(instance) < value:
            word = "should be non-empty" if value == 1 else "is too short"
            yield path, f"{instance!r} {word}", misfit
        elif key == "maxItems" and arr and len(instance) > value:
            yield path, f"{instance!r} is too long", misfit
        elif key == "items" and arr:
            for i, item in enumerate(instance):
                yield from _errors(value, item, (*path, i))
        elif key == "propertyNames" and obj:
            # a key is checked at the path of the object that holds it
            for name in instance:
                yield from _errors(value, name, path)
        elif key == "additionalProperties" and obj:
            extras = [k for k in instance
                      if k not in schema.get("properties", {})]
            if value is False and extras:
                names = ", ".join(repr(k) for k in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                yield (path, f"Additional properties are not allowed "
                       f"({names} {verb} unexpected)", misfit)
            elif isinstance(value, dict):
                for k in extras:
                    yield from _errors(value, instance[k], (*path, k))


class ScenarioError(Exception):
    pass


def validate_scenario(config: dict):
    # the error jsonschema's best_match picks: the shallowest, then the
    # greatest path, then one whose instance misfits its schema's type; the
    # first of equals wins (the schema has no anyOf or oneOf to weaken one)
    e = max(_errors(SCENARIO_SCHEMA, config),
            key=lambda e: (-len(e[0]), e[0], e[2]), default=None)
    if e is not None:
        path, message, _ = e
        raise ScenarioError(f"invalid scenario: {message} at "
                            f"{'/'.join(str(p) for p in path)}")
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
