import pytest

from latticehk.algebra import Initial, QPower
from latticehk.checks import check_point_family, check_pullback_functorial
from latticehk.geometry import (LatticeEmbedding, bounded_spacetime,
                                region_diamond, region_points,
                                region_slab)
from latticehk.kleingordon import KgContext
from latticehk.nets import (AqftError, build_indicator, build_kg_aqft,
                            check_kg_axioms, check_time_slice,
                            count_nat_transforms, epsilon_iso_check,
                            make_predicate, pullback_indicator)
from latticehk.rational import QQ
from latticehk.sites import (SiteCategory, embedding_site_functor,
                             enumerate_universe)


def _copen_site(cyl):
    uni = enumerate_universe(cyl, compactness="copen", t_range=(0, 4),
                             max_height=4, cap=1600)
    return SiteCategory(cyl, uni, "copen", localized=False)


def test_indicator_guardrails(cyl):
    site = _copen_site(cyl)
    # non-monotone predicate: no functor
    target = next(r for r in site.objects
                  if not r.is_full and len(r.pts) == 1)
    with pytest.raises(AqftError):
        build_indicator(site, make_predicate("equals_region", site,
                                             data=target), QPower(2))
    # predicate holding on two causally disjoint regions is refused
    with pytest.raises(AqftError):
        build_indicator(site, lambda U: not U.is_full and len(U.pts) == 1,
                        QPower(2))


def test_indicator_time_slice(cyl):
    site = _copen_site(cyl)
    A = build_indicator(site, make_predicate("contains_cauchy_surface",
                                             site), QPower(2))
    assert check_time_slice(A)
    slabs = [k for k in site.object_keys()
             if not isinstance(A.values[k], Initial)
             and not site.region_of(k).is_full]
    assert slabs  # slabs of the cylinder carry the distinguished value


def test_epsilon_iso_constant_and_full(cyl):
    site = _copen_site(cyl)
    const = build_indicator(site, lambda U: False, QPower(2))
    assert all(epsilon_iso_check(const, k) for k in site.object_keys())
    at_full = build_indicator(site, make_predicate("equals_full", site),
                              QPower(2))
    kfull = next(k for k in site.object_keys()
                 if site.region_of(k).is_full)
    assert not epsilon_iso_check(at_full, kfull)


def test_epsilon_iso_violation_mechanism(plane):
    dia = region_diamond(plane, (0, 0), (4, 0))
    src = bounded_spacetime(plane, dia.pts)
    f = LatticeEmbedding(src, plane, 0, 0)
    img = f.image()
    uni = enumerate_universe(plane, compactness="copen", x_range=(-2, 4),
                             t_range=(-1, 5), max_height=5, cap=3000)
    uni = sorted(set(uni) | {img}, key=lambda r: r.sort_key())
    siteN = SiteCategory(plane, uni, "copen", localized=False)
    A = build_indicator(siteN, make_predicate("contains_image", siteN,
                                              data=img), QPower(2))
    assert all(epsilon_iso_check(A, k) for k in siteN.object_keys())
    siteM = SiteCategory(src, enumerate_universe(src, compactness="copen",
                                                 cap=3000),
                         "copen", localized=False)
    F = embedding_site_functor(f, siteM, siteN)
    pb = pullback_indicator(F, A)
    kfull = next(k for k in siteM.object_keys()
                 if siteM.region_of(k).is_full)
    assert isinstance(pb.values[kfull], QPower)
    assert not epsilon_iso_check(pb, kfull)
    assert all(isinstance(pb.values[k], Initial)
               for k in siteM.object_keys() if k != kfull)


def test_nat_transform_counts(cyl):
    site = _copen_site(cyl)
    A = build_indicator(site, make_predicate("equals_full", site),
                        QPower(2))
    B = build_indicator(site, make_predicate("equals_full", site),
                        QPower(2))
    assert count_nat_transforms(A, B) == 4
    Binit = build_indicator(site, lambda U: False, QPower(1))
    assert count_nat_transforms(A, Binit) == 2
    Cinit = build_indicator(site, lambda U: False, QPower(2))
    assert count_nat_transforms(Cinit, Cinit) == 1
    # a multi-object connected block still counts like a single hom set
    AC = build_indicator(site, make_predicate("contains_cauchy_surface",
                                              site), QPower(2))
    BC = build_indicator(site, make_predicate("contains_cauchy_surface",
                                              site), QPower(2))
    assert count_nat_transforms(AC, BC) == 4


def test_kg_aqft_axioms(cyl):
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, diamonds=True,
                             strict_diamonds=False, min_slab_height=2,
                             cap=900)
    uni = [r for r in uni if len(r.pts) <= 20][:40]
    site = SiteCategory(cyl, uni, "rc", localized=False)
    kg = KgContext(cyl, QQ(1, 4))
    A = build_kg_aqft(kg, site)
    assert not check_kg_axioms(A)
    assert check_time_slice(A)


def test_kg_aqft_localized(cyl):
    s01 = region_slab(cyl, 0, 1)
    s23 = region_slab(cyl, 2, 3)
    s03 = region_slab(cyl, 0, 3)
    site = SiteCategory(cyl, [s01, s23, s03], "rc", localized=True)
    kg = KgContext(cyl, QQ(1, 4))
    A = build_kg_aqft(kg, site)
    assert not A.skipped
    # all three slabs are mutually Cauchy-connected: all maps invertible
    for (a, b), m in A.transitions.items():
        assert m.rank() == 12


@pytest.mark.parametrize("ctx_name, verdict",
                         [("plane_ctx", "skip"), ("cyl_ctx", "pass")],
                         ids=["plane_ctx", "cyl_ctx"])
def test_point_family_check(ctx_name, verdict, request):
    recs = check_point_family(request.getfixturevalue(ctx_name), {})
    assert [r.verdict for r in recs] == [verdict], recs[0].witness
    if verdict == "skip":
        assert recs[0].witness["reason"]


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_pullback_functorial_check(ctx_name, request):
    recs = check_pullback_functorial(request.getfixturevalue(ctx_name), {})
    assert [r.verdict for r in recs] == ["pass"]


def test_nat_transform_count_multiplicative_over_blocks(cyl):
    # two overlapping (hence not causally disjoint) regions with no common
    # superset in the universe: two connected support blocks, counts multiply
    d1 = region_diamond(cyl, (0, 0), (4, 0))
    d2 = region_diamond(cyl, (1, 1), (5, 1))
    assert d1.pts & d2.pts
    site = SiteCategory(cyl, [d1, d2], "rc", localized=False)
    A = build_indicator(site, lambda U: True, QPower(2))
    B = build_indicator(site, lambda U: True, QPower(2))
    assert count_nat_transforms(A, B) == 16
