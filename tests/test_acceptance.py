"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criterion 1 checks the two causality oracles, the
Cauchy development D(U) and the double causal complement U'', against each
other and against brute-force enumeration.  The identity D(U) == U'' is a
continuum theorem whose proof needs open covers and connected curves; the
lattice breaks it on wide cylinder regions and thin hulls, so the criterion
asserts what the lattice promises: the inclusion D(U) within U'' everywhere,
equality on diamonds with a nonempty causal complement, and brute-force
agreement of both engines wherever they diverge.  The divergence stays
visible as the expected ``fail`` of the registry record
``causality.development-vs-double-complement``; docs/decisions.md has the
analysis.
"""

import json

import pytest

import latticehk.checks as C
from latticehk import instances, oracles
from latticehk.checks import RunContext
from latticehk.descent import (generator_counit_check,
                               relation_counit_check)
from latticehk.geometry import (LatticeSpacetime, cauchy_development,
                                double_complement)
from latticehk.kleingordon import KgContext
from latticehk.rational import QQ
from latticehk.scenarios import DEMOS, report_bytes, run_scenario
from latticehk.sites import (SiteCategory, close_universe_for_localization,
                             compare_localization_models)


def _line(n, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {tag} - {detail}")
    return ok


@pytest.fixture(scope="module")
def plane_ctx():
    return RunContext(M=LatticeSpacetime("plane", (-22, 26)), seed=7,
                      universe_cfg={"compactness": "rc", "t_range": [0, 4],
                                    "x_range": [-2, 4], "max_height": 4,
                                    "min_slab_height": 2, "cap": 1600},
                      aqft_cfg={"mass2": "1/4"})


@pytest.fixture(scope="module")
def cyl_ctx():
    return RunContext(M=LatticeSpacetime("cylinder", (-22, 26), 6), seed=7,
                      universe_cfg={"compactness": "rc", "t_range": [0, 4],
                                    "max_height": 4, "min_slab_height": 2,
                                    "cap": 1600},
                      aqft_cfg={"mass2": "1/4"})


def test_criterion_1_causality_oracle_agreement():
    """D(U) from the escape-path DP against the double causal complement
    U'' from cone computation: exhaustive diamonds on a 9x9 plane window
    and a c=6 height-8 cylinder window, plus 200 seeded random hulls.

    Asserted: D(U) within U'' on every instance; D(U) == U'' on every
    diamond with a nonempty causal complement U' (all plane diamonds, since
    a finite plane region is never related to every point); and agreement
    of both engines with brute-force enumeration on every instance where
    D(U) != U''.  Equality is not asserted elsewhere because the lattice
    breaks it: a cylinder diamond can be causally related to every lattice
    point (U' empty, U'' full) while a path dodges it, and a hull can leave
    U' without a lattice point where the continuum has a thin spacelike
    sliver.  docs/decisions.md has the analysis.
    """
    plane = LatticeSpacetime("plane", (-40, 44))
    cylm = LatticeSpacetime("cylinder", (-40, 44), 6)
    corpora = []
    corpora.append(("plane-diamonds", plane, instances.exhaustive_diamonds(
        plane, [(t, x) for t in range(9) for x in range(9)])))
    corpora.append(("cylinder-diamonds", cylm, instances.exhaustive_diamonds(
        cylm, [(t, x) for t in range(8) for x in range(6)])))
    ctxp = RunContext(M=plane, seed=7)
    ctxc = RunContext(M=cylm, seed=7)
    corpora.append(("plane-hulls", plane, instances.seeded_hulls(
        plane, [(t, x) for t in range(9) for x in range(9)],
        ctxp.rng("acc1"), 100)))
    corpora.append(("cylinder-hulls", cylm, instances.seeded_hulls(
        cylm, [(t, x) for t in range(8) for x in range(6)],
        ctxc.rng("acc1"), 100)))
    counts = {}
    inclusion_bad, equality_bad, brute_bad = [], [], []
    for name, M, corpus in corpora:
        mism = 0
        for U in corpus:
            D = cauchy_development(M, U)
            DC = double_complement(M, U)
            if D == DC:
                continue
            mism += 1
            example = (name, sorted(U.pts))
            if not DC.contains(D):
                inclusion_bad.append(example)
            # U'' is full exactly when U' is empty
            if name.endswith("-diamonds") and \
                    (M.kind == "plane" or not DC.is_full):
                equality_bad.append(example)
            if not oracles.brute_confirms(M, U, D, DC):
                brute_bad.append(example)
        counts[name] = (len(corpus), mism)
    ok = not (inclusion_bad or equality_bad or brute_bad)
    _line(1, ok, f"corpora (instances, D != U'') {counts}, inclusion "
          f"violations {len(inclusion_bad)}, diamond equality failures "
          f"{len(equality_bad)}, brute-force disagreements {len(brute_bad)}")
    assert not inclusion_bad, (
        "D(U) within U'' is a lattice theorem and fails on "
        f"{len(inclusion_bad)} instances, first {inclusion_bad[0]}")
    assert not equality_bad, (
        "D(U) == U'' fails on a diamond whose causal complement is "
        f"nonempty, {len(equality_bad)} instances, first {equality_bad[0]}; "
        "see docs/decisions.md for the divergences the lattice does force")
    assert not brute_bad, (
        "an engine disagrees with brute-force enumeration on "
        f"{len(brute_bad)} divergent instances, first {brute_bad[0]}")


def test_criterion_2_localization_model(plane_ctx, cyl_ctx):
    mismatches = 0
    universes = 0
    for ctx in (plane_ctx, cyl_ctx):
        zone = sorted(ctx.zone().pts)
        rng = ctx.rng("acc2")
        for _ in range(10):
            seeds = instances.seeded_hulls(ctx.M, zone, rng, 10)
            closed = close_universe_for_localization(ctx.M, seeds, cap=40)
            universes += 1
            site = SiteCategory(ctx.M, closed, "rc", localized=False)
            ok, mism = compare_localization_models(site)
            mismatches += len(mism)
    recs = C.run_check("site.localized-embedding-functors", cyl_ctx,
                       {"count": 12})
    fw = recs[0]
    embeddings = fw.witness["embeddings"]
    ok = mismatches == 0 and fw.verdict == "pass" and \
        universes >= 20 and embeddings >= 10
    _line(2, ok, f"{universes} universes, {mismatches} mismatches; "
          f"{embeddings} localized embedding functors, "
          f"{fw.witness['bad']} bad")
    assert ok


def test_criterion_3_precostack_instances(plane_ctx, cyl_ctx):
    total, bad, refusals = 0, 0, 0
    for ctx in (plane_ctx, cyl_ctx):
        recs = C.run_check("site.precostack-instances", ctx, {"count": 20})
        by_id = {r.id: r for r in recs}
        pre = by_id["site.precostack-instances"]
        total += pre.witness["plain"] + pre.witness["localized"]
        bad += pre.witness["bad"]
        if by_id["site.localized-refusal"].verdict == "pass":
            refusals += 1
    ok = total >= 50 and bad == 0 and refusals >= 1
    _line(3, ok, f"{total} cover-functor instances, {bad} failures, "
          f"{refusals} engineered refusals caught")
    assert ok


def test_criterion_4_prestack_failure_demos(plane_ctx, cyl_ctx):
    recs = C.run_check("descent.prestack-failure", plane_ctx) + \
        C.run_check("descent.prestack-failure", cyl_ctx)
    counts = [(r.witness["global_count"], r.witness["datum_count"])
              for r in recs]
    ok = len(recs) == 4 and all(c == (4, 1) for c in counts) and \
        all(r.verdict == "pass" for r in recs)
    _line(4, ok, f"4 variants, counts {counts}")
    assert ok


def test_criterion_5_epsilon_iso_violation(plane_ctx):
    recs = C.run_check("net.epsilon-iso-violation", plane_ctx)
    r = recs[0]
    ok = r.verdict == "pass"
    _line(5, ok, str(r.witness))
    assert ok


def test_criterion_6_klein_gordon_suite(plane_ctx, cyl_ctx):
    # (a) field identities on 100 seeded fields per backend
    ra = [C.run_check("kg.field-identities", ctx, {"count": 100})[0]
          for ctx in (plane_ctx, cyl_ctx)]
    a_ok = all(r.verdict == "pass" for r in ra)
    # (b) time-slice isomorphism for every Cauchy pair of the cylinder
    # universe; the plane universe has none, so its record is a skip
    rb_plane, rb_cyl = [C.run_check("kg.time-slice", ctx)[0]
                        for ctx in (plane_ctx, cyl_ctx)]
    pairs = rb_cyl.witness["cauchy_pairs"]
    b_ok = rb_cyl.verdict == "pass" and pairs > 0 and \
        rb_plane.verdict == "skip"
    # (c) counit checks, >= 30 instances per flavor
    done = {"plain": 0, "localized": 0}
    failures = 0
    for localized in (False, True):
        want = 30
        for ctx in (cyl_ctx, plane_ctx):
            kg = KgContext(ctx.M, QQ(1, 4))
            need = want - done["localized" if localized else "plain"]
            if need <= 0:
                break
            for cov, U in instances.descent_instances(ctx, localized, need):
                v, _ = generator_counit_check(kg, cov, U,
                                              localized=localized)
                if v == "skip":
                    continue
                v2 = relation_counit_check(kg, cov, U,
                                           localized=localized)[0] \
                    if v == "pass" else "fail"
                if v != "pass" or v2 != "pass":
                    failures += 1
                done["localized" if localized else "plain"] += 1
    c_ok = failures == 0 and all(v >= 30 for v in done.values())
    # (d) engineered negative control
    rd = C.run_check("descent.kg-negative-control", cyl_ctx)[0]
    d_ok = rd.verdict == "pass"
    ok = a_ok and b_ok and c_ok and d_ok
    _line(6, ok, f"fields ok={a_ok}; {pairs} Cauchy pairs iso={b_ok}; "
          f"counit instances {done} failures={failures}; "
          f"negative control={d_ok}")
    assert ok


def test_criterion_7_cover_extension(plane_ctx, cyl_ctx):
    total = {"plain": 0, "D_stable": 0}
    bad = 0
    for ctx in (cyl_ctx, plane_ctx):
        r = C.run_check("site.extend-cover", ctx, {"count": 10})[0]
        if r.verdict == "skip":
            continue
        bad += r.witness["bad"]
        for mode in total:
            total[mode] += r.witness[mode]
    ok = bad == 0 and all(v >= 20 for v in total.values())
    _line(7, ok, f"instances {total}, failures {bad}")
    assert ok


def test_criterion_8_finer_implies_coarser(plane_ctx, cyl_ctx):
    recs = [C.run_check("descent.finer-implies-coarser", ctx,
                        {"count": 6})[0]
            for ctx in (plane_ctx, cyl_ctx)]
    violations = sum(r.witness["violations"] for r in recs)
    instances = sum(r.witness["instances"] for r in recs)
    ok = violations == 0 and instances > 0 and \
        all(r.verdict == "pass" for r in recs)
    _line(8, ok, f"{instances} refinement comparisons, "
          f"{violations} violations")
    assert ok


def test_criterion_9_determinism():
    config = json.loads(json.dumps(DEMOS["kg-descent"]))
    r1 = run_scenario(config)
    r2 = run_scenario(config)
    ok = report_bytes(r1, drop_timestamp=True) == \
        report_bytes(r2, drop_timestamp=True)
    _line(9, ok, "repeated pinned-seed runs byte-identical modulo "
          "timestamp")
    assert ok
