import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validators
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

import latticehk
from latticehk import checks, descent, scenarios
from latticehk.checks import UNIVERSE_KEYS
from latticehk.cli import main
from latticehk.geometry import ModelError
from latticehk.kleingordon import KgSpace
from latticehk.rational import Mat
from latticehk.scenarios import (DEMOS, SCENARIO_SCHEMA, ScenarioError,
                                 report_bytes, run_scenario,
                                 validate_scenario)


_CYLINDER = {"kind": "cylinder", "circumference": 6, "window": [-14, 16]}


def _scenario_file(scenario):
    """A scenario document: a list stands for itself, a dict gets the schema
    tag and, unless it names its own, the cylinder."""
    if isinstance(scenario, list):
        return scenario
    return {"schema": "latticehk-scenario/1", "spacetime": _CYLINDER,
            **scenario}


def test_scenario_schema_is_a_valid_schema():
    # validate_scenario does not check the schema itself; this test does
    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


_BAD_CONFIGS = [
    {"schema": "nope", "spacetime": {}, "checks": []},
    {"schema": "latticehk-scenario/1",
     "spacetime": {"kind": "plane", "window": [0, 4]},
     "checks": ["no.such.check"]},
    {"schema": "latticehk-scenario/1",
     "spacetime": {"kind": "plane", "window": [0, 4]},
     "checks": ["algebra.hom-counts"], "bogus_key": 1},
    # a typo in the universe block is rejected, not dropped
    {"schema": "latticehk-scenario/1",
     "spacetime": {"kind": "plane", "window": [0, 4]},
     "universe": {"compactness": "rc", "t_rang": [0, 3]},
     "checks": ["algebra.hom-counts"]},
]


def test_validate_rejects_bad_configs():
    for config in _BAD_CONFIGS:
        with pytest.raises(ScenarioError):
            validate_scenario(config)


_TYPO_BLOCKS = [{"aqft": {"family": "klein-gordon", "mas2": "1/4"}},
                {"options": {"site.extend-covr": {"count": 5}}}]


@pytest.mark.parametrize("block", _TYPO_BLOCKS, ids=["aqft", "options"])
def test_cli_rejects_a_typo_in_the_aqft_and_options_keys(tmp_path, block):
    scn = tmp_path / "typo.json"
    scn.write_text(json.dumps(_scenario_file(
        {"checks": ["algebra.hom-counts"], **block})))
    assert main(["run", str(scn)]) == 2


def test_run_scenario_report_shape():
    config = {
        "schema": "latticehk-scenario/1",
        "seed": 3,
        "spacetime": {"kind": "cylinder", "circumference": 6,
                      "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 3],
                     "max_height": 3, "cap": 900},
        "checks": ["algebra.hom-counts", "algebra.two-valued-colimit"],
    }
    report = run_scenario(config)
    assert report["schema"] == "latticehk-report/1"
    assert report["summary"]["fail"] == 0
    for rec in report["records"]:
        assert set(rec) >= {"id", "paper_ref", "verdict", "digest"}
    assert "generated_at" in report


def test_determinism_modulo_timestamp():
    config = json.loads(json.dumps(DEMOS["localization-oracle"]))
    r1 = run_scenario(config)
    r2 = run_scenario(config)
    assert report_bytes(r1, drop_timestamp=True) == \
        report_bytes(r2, drop_timestamp=True)


_UNIVERSE_TYPO = _scenario_file({
    "universe": {"compactness": "rc", "t_rang": [0, 3]},
    "checks": ["algebra.hom-counts"]})
_NO_CHECKS = _scenario_file({"checks": []})


def test_cli_run_and_exit_codes(tmp_path, capsys):
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps({
        "schema": "latticehk-scenario/1",
        "seed": 1,
        "spacetime": {"kind": "cylinder", "circumference": 6,
                      "window": [-14, 16]},
        "checks": ["algebra.hom-counts"],
    }))
    out = tmp_path / "report.json"
    assert main(["--report", str(out), "run", str(scn)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["pass"] >= 1
    # truncated file: configuration error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(_UNIVERSE_TYPO))
    capsys.readouterr()
    assert main(["run", str(typo)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: invalid scenario: 't_rang' is not one of " \
        f"{['compactness', *UNIVERSE_KEYS]} at universe\n"
    no_checks = tmp_path / "no_checks.json"
    no_checks.write_text(json.dumps(_NO_CHECKS))
    assert main(["run", str(no_checks)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: invalid scenario: [] should be non-empty " \
        "at checks\n"
    # kg.time-slice on a cylinder universe with one-row slabs
    one_row = tmp_path / "one_row.json"
    one_row.write_text(json.dumps({
        "schema": "latticehk-scenario/1",
        "spacetime": {"kind": "cylinder", "circumference": 4,
                      "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 2],
                     "max_height": 2},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": ["kg.time-slice"],
    }))
    assert main(["run", str(one_row)]) == 2
    # with no expect the divergence record is unexpected: --fail-fast stops
    # after its check, a full run goes on to the next one
    ff = tmp_path / "ff.json"
    ff.write_text(json.dumps({
        **DEMOS["appendix-geometry"], "expect": {},
        "checks": ["causality.development-vs-double-complement",
                   "causality.cone-lightcone"]}))
    for flags, records in ((["--fail-fast"], 3), ([], 4)):
        capsys.readouterr()
        assert main([*flags, "run", str(ff)]) == 1
        assert capsys.readouterr().out.count("] causality.") == records


_ROWS = {"compactness": "rc", "t_range": [0, 1], "max_height": 1}


_MISCONFIGURED = [
    ([], {"checks": ["descent.kg-counit"],
          "options": {"descent.kg-counit": {"count": "x"}}},
     "invalid scenario: 'x' is not of type 'integer' at "
     "options/descent.kg-counit/count"),
    ([], {"checks": ["site.extend-cover"],
          "options": {"site.extend-cover": {"cuont": 1}}},
     "invalid scenario: 'cuont' is not one of ['count'] at "
     "options/site.extend-cover"),
    (["--window", "5"], {"checks": ["algebra.hom-counts"]},
     "argument --window: window must read LO..HI, e.g. -12..14, not '5'"),
    (["--window", "a..b"], {"checks": ["algebra.hom-counts"]},
     "argument --window: window must read LO..HI, e.g. -12..14, not "
     "'a..b'"),
    ([], {"universe": _ROWS, "aqft": {"algebra": {"kind": "matrix"}},
          "checks": ["net.indicator-time-slice"]},
     "unknown algebra literal {'kind': 'matrix'}"),
    ([], {"universe": _ROWS, "aqft": {"algebra": {"kind": "qpower",
                                                  "k": True}},
          "checks": ["net.indicator-time-slice"]},
     "unknown algebra literal {'kind': 'qpower', 'k': True}"),
    ([], {"aqft": {"mass2": "a quarter"}, "checks": ["kg.generator-spaces"]},
     "mass2 must be a rational, not 'a quarter'"),
    ([], {"spacetime": {"kind": "plane", "window": [-14, 16]},
          "universe": {"t_range": [0, 4]},
          "checks": ["causality.development-props"]},
     "plane enumeration needs an explicit x_range"),
    ([], {"covers": [], "checks": ["algebra.hom-counts"]},
     "invalid scenario: Additional properties are not allowed ('covers' "
     "was unexpected) at "),
    ([], {"spacetime": {"kind": "cylinder", "window": [-14, 16]},
          "checks": ["algebra.hom-counts"]},
     "cylinder needs circumference >= 2"),
    ([], {"universe": {"t_range": "0..4"},
          "checks": ["causality.development-props"]},
     "invalid scenario: '0..4' is not of type 'array' at universe/t_range"),
    (["--max-universe", "5"],
     {"universe": _ROWS, "checks": ["site.refinement-functors"]},
     "universe exceeds cap 5; raise universe.cap or narrow "
     "universe.t_range, universe.x_range or universe.max_height"),
    # an integral float is no integer: range() would refuse it
    ([], {"checks": ["site.extend-cover"],
          "options": {"site.extend-cover": {"count": 2.0}}},
     "invalid scenario: 2.0 is not of type 'integer' at "
     "options/site.extend-cover/count"),
    ([], {"universe": {"t_range": [0, 1.0]},
          "checks": ["causality.development-props"]},
     "invalid scenario: 1.0 is not of type 'integer' at universe/t_range/1"),
    ([], {"seed": 3.0, "checks": ["algebra.hom-counts"]},
     "invalid scenario: 3.0 is not of type 'integer' at seed"),
    # an override on a block that is not an object
    (["--seed", "3"], [],
     "invalid scenario: [] is not of type 'object' at "),
    (["--window=-12..14"], {"spacetime": "cylinder",
                            "checks": ["algebra.hom-counts"]},
     "invalid scenario: 'cylinder' is not of type 'object' at spacetime"),
    # the brute-force sample is a constant, refused by name before its
    # value is read
    ([], {"checks": ["causality.development-vs-double-complement"],
          "options": {"causality.development-vs-double-complement":
                      {"hulls": 5, "brute": -1}}},
     "invalid scenario: 'brute' is not one of ['hulls'] at "
     "options/causality.development-vs-double-complement"),
    # a negative count would skip the check
    ([], {"checks": ["site.extend-cover"],
          "options": {"site.extend-cover": {"count": -3}}},
     "invalid scenario: -3 is less than the minimum of 0 at "
     "options/site.extend-cover/count"),
    # the universe keys of the counterexamples demo, each mistyped or out
    # of range: a negative height or cap would empty the universe quietly
    *(([], {**DEMOS["counterexamples"],
            "universe": {**DEMOS["counterexamples"]["universe"], key: value}},
       f"invalid scenario: {message} at universe/{key}")
      for key, value, message in [
          ("max_height", "x", "'x' is not of type 'integer'"),
          ("min_slab_height", 1.5, "1.5 is not of type 'integer'"),
          ("cap", None, "None is not of type 'integer'"),
          ("compactness", "open", "'open' is not one of ['rc', 'copen']"),
          ("max_height", -1, "-1 is less than the minimum of 0"),
          ("min_slab_height", 0, "0 is less than the minimum of 1"),
          ("cap", -1, "-1 is less than the minimum of 0")]),
    # with no t_range the zone is the whole window, so a field reaches its
    # edge row
    ([], {"checks": ["kg.field-identities"]},
     "field touches the window margin at row 16; widen spacetime.window "
     "[-14, 16] or narrow universe.t_range"),
    # there too, a translated region leaves the window
    ([], {"universe": {"compactness": "rc", "max_height": 2, "cap": 5000},
          "checks": ["causality.cauchy-morphism-equivalence"]},
     "point (17, 0) outside the window; widen spacetime.window [-14, 16] "
     "or narrow universe.t_range"),
    # the plane strip wrapped onto a cylinder needs its width plus two
    ([], {"spacetime": {"kind": "cylinder", "window": [-14, 16],
                        "circumference": 4},
          "seed": 3,
          "universe": {"compactness": "rc", "t_range": [0, 3],
                       "max_height": 2},
          "checks": ["causality.embedding-development-lemmas"]},
     "source strip too wide to embed injectively with two-sided step "
     "preservation; raise spacetime.circumference 4 to at least 5"),
    # on a circle of three sites the truncated control is a slab, and a
    # height-2 diamond's waist is a one-row Cauchy surface
    ([], {"spacetime": {**_CYLINDER, "circumference": 3}, "universe": _ROWS,
          "checks": ["causality.stabilization"]},
     "the truncated-horizon control of causality.stabilization wraps into "
     "a slab; raise spacetime.circumference 3 to at least 4"),
    ([], {"spacetime": {**_CYLINDER, "circumference": 3}, "universe": _ROWS,
          "checks": ["net.point-family"]},
     "net.point-family: the waist of a height-2 diamond is a whole circle, "
     "a one-row Cauchy surface; raise spacetime.circumference 3 to at "
     "least 4"),
    ([], {"universe": _ROWS, "checks": ["kg.time-slice"]},
     "kg.time-slice needs a universe without one-row slabs: a one-row slab "
     "carries half the leapfrog Cauchy data; set universe.min_slab_height "
     "to 2"),
    # an indicator net's support is read off the site, not chosen by name
    ([], {"universe": _ROWS,
          "aqft": {"family": "indicator",
                   "predicate": "contains_cauchy_surface"},
          "checks": ["net.indicator-time-slice"]},
     "invalid scenario: 'predicate' is not one of ['family', 'mass2', "
     "'algebra'] at aqft"),
    # a range that runs backwards or leaves the window names its key
    ([], {"universe": {"t_range": [3, 1]},
          "checks": ["causality.development-props"]},
     "universe.t_range [3, 1] runs backwards; write it as [1, 3]"),
    ([], {"spacetime": {"kind": "plane", "window": [-14, 16]},
          "universe": {"t_range": [0, 2], "x_range": [2, 0]},
          "checks": ["site.refinement-functors"]},
     "universe.x_range [2, 0] runs backwards; write it as [0, 2]"),
    ([], {"universe": {"t_range": [10, 20]},
          "checks": ["causality.development-props"]},
     "universe.t_range [10, 20] leaves spacetime.window [-14, 16]; narrow "
     "universe.t_range or widen spacetime.window"),
    (["--window", "5..3"], {"checks": ["algebra.hom-counts"]},
     "spacetime.window [5, 3] runs backwards; write it as [3, 5]"),
]


@pytest.mark.parametrize("flags,scenario,message", _MISCONFIGURED, ids=[
    "option-value", "option-name", "window-number", "window-words",
    "algebra-kind", "algebra-bool-k", "mass2", "plane-x-range", "covers-key",
    "no-circumference", "t-range-type", "max-universe", "option-float",
    "t-range-float", "seed-float", "seed-on-a-list", "window-on-a-string",
    "negative-brute", "negative-count", "max-height-type",
    "min-slab-height-type", "cap-type", "compactness-enum",
    "negative-max-height", "zero-min-slab-height", "negative-cap",
    "window-margin", "outside-window", "strip-too-wide",
    "stabilization-narrow-cylinder", "point-family-narrow-cylinder",
    "kg-one-row-slabs", "aqft-predicate", "t-range-backwards",
    "x-range-backwards", "t-range-outside-window", "window-backwards"])
def test_cli_misconfiguration_exits_2(tmp_path, capsys, flags, scenario,
                                      message):
    """A misconfigured scenario or flag exits 2 with one line, never with a
    traceback."""
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps(_scenario_file(scenario)))
    capsys.readouterr()
    assert main([*flags, "run", str(scn)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# jsonschema is the oracle of validate_scenario, with one difference kept on
# purpose: an integer is an int that is no bool, never an integral float
_ORACLE_TYPE = validator_for(SCENARIO_SCHEMA)
_ORACLE = validators.extend(
    _ORACLE_TYPE, type_checker=_ORACLE_TYPE.TYPE_CHECKER.redefine(
        "integer",
        lambda _, x: isinstance(x, int) and not isinstance(x, bool)),
)(SCENARIO_SCHEMA)


def _agrees_with_the_oracle(config):
    """validate_scenario reports the message and path of the error that
    best_match picks, and passes what the oracle passes (up to the check
    ids, which no schema lists)."""
    e = best_match(_ORACLE.iter_errors(config))
    try:
        validate_scenario(config)
    except ScenarioError as err:
        got = str(err)
    else:
        got = None
    if e is None:
        assert got is None or got.startswith("unknown check id")
    else:
        assert got == (f"invalid scenario: {e.message} at "
                       f"{'/'.join(str(p) for p in e.path)}")


def test_validation_agrees_with_jsonschema_on_the_malformed_configs():
    configs = [*_BAD_CONFIGS, _UNIVERSE_TYPO, _NO_CHECKS,
               *(_scenario_file({"checks": ["algebra.hom-counts"], **block})
                 for block in _TYPO_BLOCKS),
               *(_scenario_file(case[1]) for case in _MISCONFIGURED)]
    for config in configs:
        _agrees_with_the_oracle(config)


@pytest.mark.parametrize("config", [None, True, 0, 2.0, "x", [],
                                    [DEMOS["kg-descent"]]])
def test_validation_agrees_with_jsonschema_on_non_objects(config):
    _agrees_with_the_oracle(config)


def _schema_words(schema):
    """Every property name, required name and enum or const value."""
    for key, value in schema.items():
        if key == "properties":
            yield from value
            for sub in value.values():
                yield from _schema_words(sub)
        elif key in ("required", "enum"):
            yield from value
        elif key == "const":
            yield value
        elif isinstance(value, dict):
            yield from _schema_words(value)


_WORDS = sorted(set(_schema_words(SCENARIO_SCHEMA)))
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
           | st.integers(-3, 40).map(float) | st.floats(allow_nan=False)
           | st.text(max_size=3) | st.sampled_from(_WORDS))
_KEYS = st.sampled_from(_WORDS) | st.text(max_size=3)
_VALUES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS, kids, max_size=3), max_leaves=5)


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


@st.composite
def _mutated_demos(draw):
    """A demo with one to three keys replaced, deleted or added, each in
    any object or array of it."""
    config = json.loads(json.dumps(DEMOS[draw(st.sampled_from(
        sorted(DEMOS)))]))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_containers(config))
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        keys = list(node) if isinstance(node, dict) else \
            list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" or not keys:
            if isinstance(node, dict):
                node[draw(_KEYS)] = draw(_VALUES)
            else:
                node.append(draw(_VALUES))
        elif op == "replace":
            node[draw(st.sampled_from(keys))] = draw(_VALUES)
        else:
            del node[draw(st.sampled_from(keys))]
    return config


@settings(max_examples=400, deadline=None)
@given(_mutated_demos())
def test_validation_agrees_with_jsonschema_on_mutated_demos(config):
    _agrees_with_the_oracle(config)


def test_validation_prefers_the_error_that_misfits_its_type(monkeypatch):
    """Of two errors at one path, best_match takes one whose instance fails
    its schema's type (a key checked by propertyNames, whose schema names no
    type) over an earlier one.  SCENARIO_SCHEMA has no such pair today."""
    schema = {"type": "object", "required": ["a"],
              "propertyNames": {"enum": ["b"]}}
    expected = best_match(validator_for(schema)(schema).iter_errors({"c": 1}))
    assert expected.message == "'c' is not one of ['b']"
    monkeypatch.setattr(scenarios, "SCENARIO_SCHEMA", schema)
    with pytest.raises(ScenarioError) as err:
        validate_scenario({"c": 1})
    assert str(err.value) == f"invalid scenario: {expected.message} at "


_SUPPORTED = {"type", "required", "properties", "const", "enum", "minimum",
              "minItems", "maxItems", "items", "propertyNames",
              "additionalProperties"}


def test_scenario_schema_uses_only_the_supported_keywords():
    """validate_scenario reads eleven keywords and compares const and enum
    values with ==, so a new keyword or a non-string value would be
    silently misread."""
    def walk(schema):
        assert set(schema) <= _SUPPORTED, set(schema) - _SUPPORTED
        for key, value in schema.items():
            if key == "properties":
                for sub in value.values():
                    walk(sub)
            elif isinstance(value, dict):
                walk(value)
            elif key in ("const", "enum"):
                assert all(isinstance(v, str)
                           for v in ([value] if key == "const" else value))
    walk(SCENARIO_SCHEMA)


_PLANE = {"kind": "plane", "window": [-14, 16]}
# two points: fewer than any draw of these checks may take
_TWO_POINTS = {"compactness": "rc", "t_range": [0, 0], "x_range": [0, 1],
               "max_height": 4, "cap": 1600}


# check id -> the most points one of its draws takes
_DRAWS = {"causality.cauchy-morphism-equivalence": 4,
          "causality.cauchy-union-property": 3,
          "causality.development-props": 4,
          "causality.development-vs-double-complement": 4,
          "causality.disjointness-hereditary": 3,
          "kg.field-identities": 3,
          "kg.pullback-identification": 3,
          "site.localization-oracle": 4}


@pytest.mark.parametrize("spacetime,check,message", [
    *(pytest.param(_PLANE, cid, f"a draw takes up to {hi} points of the "
                   f"zone, which holds 2; widen t_range or x_range",
                   id=f"plane-{cid}") for cid, hi in _DRAWS.items()),
    *(pytest.param(st, "site.extend-cover", "site.extend-cover draws "
                   "two-row regions below the top row of the zone, so it "
                   "needs 3 rows, not 1; widen t_range",
                   id=f"{st['kind']}-site.extend-cover")
      for st in (_PLANE, _CYLINDER)),
])
def test_cli_zone_too_small_to_draw_from_exits_2(tmp_path, capsys,
                                                 spacetime, check, message):
    """A check that draws more distinct points than the zone holds is a
    configuration error, not a traceback."""
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps({"schema": "latticehk-scenario/1",
                               "spacetime": spacetime,
                               "universe": _TWO_POINTS,
                               "checks": [check]}))
    capsys.readouterr()
    assert main(["run", str(scn)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("c", [3, 4])
def test_embedding_lemmas_draw_nothing_on_a_narrow_cylinder(tmp_path, capsys,
                                                            c):
    """The check draws no region on a circle narrower than its plane strip
    plus two: the scenario is refused and names the circumference."""
    scenario = {"spacetime": {**_CYLINDER, "circumference": c}, "seed": 3,
                "universe": {"compactness": "rc", "t_range": [0, 3],
                             "max_height": 2},
                "checks": ["causality.embedding-development-lemmas"]}
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps(_scenario_file(scenario)))
    capsys.readouterr()
    assert main(["run", str(scn)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: source strip too wide to embed injectively "
        "with two-sided step preservation; raise spacetime.circumference "
        f"{c} to at least 5\n")


def test_cli_import_leaves_jsonschema_out():
    """A process that imports the CLI, validates a demo and runs a scenario
    never loads jsonschema."""
    src = Path(latticehk.__file__).resolve().parent.parent
    code = ("import sys, latticehk.cli\n"
            "from latticehk.scenarios import (DEMOS, run_scenario, "
            "validate_scenario)\n"
            "validate_scenario(DEMOS['kg-descent'])\n"
            "run_scenario({'schema': 'latticehk-scenario/1', 'spacetime': "
            "{'kind': 'plane', 'window': [0, 4]}, "
            "'checks': ['algebra.hom-counts']})\n"
            "print('jsonschema' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    """A failed engine invariant is a bug, not a configuration error."""
    def broken(M, U):
        raise ModelError("development left its band")

    monkeypatch.setattr(checks, "cauchy_development", broken)
    capsys.readouterr()
    assert main(["demo", "appendix-geometry"]) == 3
    assert capsys.readouterr().err == \
        "internal error: development left its band\n"


def test_cli_perturbed_pairing_exits_3(monkeypatch, capsys):
    """A pairing perturbed by +1/-1 in one antisymmetric pair stays
    antisymmetric, but no longer vanishes on some causally disjoint pair:
    the relation counit check refuses it as an engine fault."""
    reduced = KgSpace.sigma_reduced

    def perturbed(space):
        rows = [list(row) for row in reduced(space).data]
        if len(rows) > 1:
            rows[0][1] += 1
            rows[1][0] -= 1
        return Mat(rows, len(rows))

    monkeypatch.setattr(KgSpace, "sigma_reduced", perturbed)
    capsys.readouterr()
    assert main(["demo", "kg-descent"]) == 3
    assert capsys.readouterr().err == \
        "internal error: pairing fails causal support\n"


def test_cli_broken_fork_exits_3(monkeypatch, capsys):
    """A quotient map that does not coequalize its pair is an engine
    fault: the relation counit check builds both, so it never sees one
    from a scenario."""
    exact = descent.is_exact_coequalizer
    monkeypatch.setattr(descent, "is_exact_coequalizer",
                        lambda d, q: exact(Mat.identity(d.nrows), q))
    capsys.readouterr()
    assert main(["demo", "kg-descent"]) == 3
    assert capsys.readouterr().err == \
        "internal error: q does not coequalize the pair\n"


def test_cli_unnamed_exception_exits_3_with_its_traceback(monkeypatch,
                                                         capsys):
    """An exception that no clause of the CLI names is a bug too: it exits
    3, the code of an engine fault, not 1, the code of an unexpected
    verdict, and its traceback is printed."""
    def broken(*args):
        raise ZeroDivisionError("cone of nothing")

    monkeypatch.setattr(checks, "cone", broken)
    capsys.readouterr()
    assert main(["check-causality", "--backend", "plane"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("ZeroDivisionError: cone of nothing\n")


def test_cli_demo_and_overrides(tmp_path):
    out = tmp_path / "demo.json"
    code = main(["--report", str(out), "--seed", "11", "--window=-12..14",
                 "demo", "localization-oracle"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 11
    assert doc["config"]["spacetime"]["window"] == [-12, 14]


def test_cli_window_with_a_space(tmp_path):
    """``--window -12..14`` reads like ``--window=-12..14``."""
    scn = tmp_path / "s.json"
    scn.write_text(json.dumps(_scenario_file(
        {"checks": ["algebra.hom-counts"]})))
    out = tmp_path / "report.json"
    assert main(["--window", "-12..14", "--report", str(out),
                 "run", str(scn)]) == 0
    assert json.loads(out.read_text())["config"]["spacetime"]["window"] \
        == [-12, 14]


def test_cli_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "descent.kg-counit" in out
    assert "claim=" in out


def test_records_carry_registry_claims_and_digests():
    from latticehk.checks import CLAIMS
    config = json.loads(json.dumps(DEMOS["kg-descent"]))
    report = run_scenario(config)
    for rec in report["records"]:
        assert rec["paper_ref"] in CLAIMS
        assert rec["digest"]


def test_run_scenario_accepts_only_one_job():
    config = json.loads(json.dumps(DEMOS["counterexamples"]))
    with pytest.raises(ValueError, match="jobs must be 1"):
        run_scenario(config, jobs=2)


@pytest.mark.parametrize("name", ["counterexamples", "appendix-geometry",
                                  "cover-extension", "kg-descent"])
def test_run_scenario_leaves_no_reference_cycles(name):
    """A run's spacetime, sites and nets are freed by reference counting,
    so nothing waits for the cycle collector."""
    config = json.loads(json.dumps(DEMOS[name]))
    gc.collect()
    gc.disable()
    try:
        run_scenario(config)
        assert gc.collect() == 0
    finally:
        gc.enable()
