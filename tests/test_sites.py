import functools

import pytest

from latticehk import sites
from latticehk.geometry import (LatticeEmbedding, LatticeSpacetime,
                                apply_embedding, bounded_spacetime,
                                cauchy_development,
                                contains_cauchy_surface_of, hull,
                                is_D_stable, region_development,
                                region_diamond, region_full, region_points,
                                region_slab, set_bits)
from latticehk.instances import diamond_source
from latticehk.scenarios import DEMOS, run_scenario
from latticehk.sites import (Cover, CoverCategory, SiteCategory, SiteError,
                             check_cover_intersections,
                             check_localization_functor,
                             close_universe_for_localization,
                             compare_localization_models, enumerate_universe,
                             extend_cover, j_functor, localization_functor,
                             refinement_functor, saturation_hom)

from conftest import fixpoint_closure, scanned_universe

GOLDEN_UNIVERSE_SIZE = 278  # cylinder c=6, rows 0..4, heights <= 3


def test_enumerate_universe_golden(cyl):
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 4),
                             max_height=3, cap=900)
    assert len(uni) == GOLDEN_UNIVERSE_SIZE
    again = enumerate_universe(cyl, compactness="rc", t_range=(0, 4),
                               max_height=3, cap=900)
    assert uni == again  # deterministic order


def test_enumerate_universe_slabs_and_cap(cyl):
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, diamonds=False,
                             strict_diamonds=False)
    slabs = [r for r in uni if len({x for (_, x) in r.pts}) == 6]
    assert len(slabs) == 10  # all sub-slabs of a 4-row band
    with pytest.raises(SiteError):
        enumerate_universe(cyl, compactness="rc", t_range=(0, 4), cap=5)


def _bit(rows, a, b) -> bool:
    """Whether row ``a`` of a relation holds ``b``."""
    return bool(rows[a] >> b & 1)


def _hom(site, U, V) -> bool:
    return _bit(site.hom, site.index[U], site.index[V])


def test_site_hom_rules(cyl):
    s01 = region_slab(cyl, 0, 1)
    s03 = region_slab(cyl, 0, 3)
    s23 = region_slab(cyl, 2, 3)
    site = SiteCategory(cyl, [s01, s03, s23], "rc", localized=False)
    assert _hom(site, s01, s03)
    assert not _hom(site, s03, s01)
    assert not _hom(site, s23, s01)
    loc = site.relocalized(True)
    # slabs have full developments, so every pair is connected
    for a in (s01, s03, s23):
        for b in (s01, s03, s23):
            assert _hom(loc, a, b)


def test_site_orthogonality(plane):
    u1 = region_points(plane, [(0, -3)])
    u2 = region_points(plane, [(0, 3)])
    big = region_diamond(plane, (-4, 0), (4, 0))
    site = SiteCategory(plane, [u1, u2, big], "rc", localized=False)
    k1, k2, kb = (site.index[r] for r in (u1, u2, big))
    # two morphisms into one target are orthogonal iff their sources are
    # causally disjoint
    assert _bit(site.hom, k1, kb) and _bit(site.hom, k2, kb)
    assert _bit(site.disjoint, k1, k2) and _bit(site.disjoint, k2, k1)
    assert not _bit(site.disjoint, k1, kb)


def test_full_region_homs(cyl):
    s01 = region_slab(cyl, 0, 1)
    dia = region_diamond(cyl, (0, 0), (2, 0))
    full = region_full(cyl)
    plain = SiteCategory(cyl, [s01, dia, full], "copen", localized=False)
    assert _hom(plain, s01, full) and not _hom(plain, full, s01)
    loc = plain.relocalized(True)
    assert _hom(loc, full, s01)  # the slab develops to everything
    assert not _hom(loc, full, dia)


def test_saturation_oracle_and_functor(cyl, cyl_ctx):
    zone = sorted(cyl_ctx.zone().pts)
    rng = cyl_ctx.rng("test-sat")
    from latticehk.instances import seeded_hulls
    seeds = seeded_hulls(cyl, zone, rng, 14)
    closed = close_universe_for_localization(cyl, seeds)
    site = SiteCategory(cyl, closed, "rc", localized=False)
    ok, mism = compare_localization_models(site)
    assert ok, mism
    assert check_localization_functor(site)
    L = localization_functor(site)
    assert L.is_functor() and L.preserves_orthogonality()


def test_saturation_is_sound_without_closure(plane):
    # zigzag reachability never invents morphisms beyond the closed form
    u1 = region_diamond(plane, (0, 0), (2, 0))
    u2 = region_diamond(plane, (0, 0), (4, 0))
    u3 = region_points(plane, [(0, 3)])
    site = SiteCategory(plane, [u1, u2, u3], "rc", localized=False)
    sat = saturation_hom(site)
    loc = site.relocalized(True)
    for i in range(3):
        for j in range(3):
            if sat[i] >> j & 1:
                assert _bit(loc.hom, i, j)


def test_cover_validation(cyl):
    s03 = region_slab(cyl, 0, 3)
    p1 = region_points(cyl, [p for p in s03.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in s03.pts if p[0] >= 1])
    cov = Cover(s03, (p1, p2))
    assert check_cover_intersections(cov)
    inters = cov.intersections()
    assert (0, 1) in inters
    with pytest.raises(SiteError):
        Cover(s03, (p1,))  # does not cover the base
    with pytest.raises(SiteError):
        Cover(region_full(cyl), (p1, p2))  # needs a zone
    with pytest.raises(SiteError):
        Cover(s03, (region_points(cyl, [(0, 0), (2, 0)]),))  # not convex


def test_d_stable_cover_intersections(cyl):
    zone = region_slab(cyl, 0, 3)
    from latticehk.instances import column_cover
    cov = column_cover(cyl, zone)
    assert cov.is_D_stable()
    assert check_cover_intersections(cov)


def test_cover_category_and_j(cyl):
    s03 = region_slab(cyl, 0, 3)
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=900)
    sub = [r for r in uni if s03.contains(r)]
    site = SiteCategory(cyl, sub, "rc", localized=False)
    p1 = region_points(cyl, [p for p in s03.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in s03.pts if p[0] >= 1])
    cc = CoverCategory(site, Cover(s03, (p1, p2)))
    jf = j_functor(cc)
    assert jf.is_functor()
    assert jf.fully_faithful()
    assert jf.reflects_orthogonality() and jf.preserves_orthogonality()
    # single-piece cover gives an equivalence onto the admitted objects
    cc1 = CoverCategory(site, Cover(s03, (s03,)))
    assert len(cc1.objects) == len(site.objects)
    assert j_functor(cc1).fully_faithful()
    # a generated hom the ambient site lacks breaks the simplified description
    a, b = next((a, b) for a in cc1.object_keys() for b in cc1.object_keys()
                if not _bit(cc1.hom, a, b))
    cc1.hom[a] |= 1 << b
    with pytest.raises(SiteError):
        cc1.check_explicit_description()


def _broken_description(monkeypatch, site, break_row):
    """Make the cover category's simplified description, the site's rows
    pulled back, pass through ``break_row(rows)`` before the build reads
    it."""
    import latticehk.sites as sites_mod
    pull = sites_mod._pullback

    def broken(rows, image):
        out = list(pull(rows, image))
        if rows is site.hom:
            break_row(out)
        return tuple(out)

    monkeypatch.setattr(sites_mod, "_pullback", broken)


def test_a_description_with_an_extra_morphism_raises(cyl, monkeypatch):
    """A description holding a morphism between two pieces that no
    generator makes is never reached by the closure, and the build
    refuses."""
    s03 = region_slab(cyl, 0, 3)
    site = SiteCategory(cyl, enumerate_universe(
        cyl, compactness="rc", t_range=(0, 3), max_height=3, cap=900), "rc")
    cover = Cover(s03, (region_slab(cyl, 0, 2), region_slab(cyl, 1, 3)))
    cc = CoverCategory(site, cover)
    a, b = next((a, b) for a in cc.object_keys() for b in cc.object_keys()
                if cc.objects[a][0] != cc.objects[b][0]
                and not _bit(cc.hom, a, b))

    def add(out):
        out[a] |= 1 << b

    _broken_description(monkeypatch, site, add)
    with pytest.raises(SiteError, match="simplified description"):
        CoverCategory(site, cover)


def test_a_description_missing_a_composite_raises(cyl, monkeypatch):
    """A description that drops the composite a -> c of a -> b -> c is not
    closed under composition.  On a one-piece cover the generators are the
    whole description, so only the closure's last pass, which adds the
    composite back, tells them apart; the build must still refuse."""
    s03 = region_slab(cyl, 0, 3)
    site = SiteCategory(cyl, enumerate_universe(
        cyl, compactness="rc", t_range=(0, 3), max_height=3, cap=900), "rc")
    cover = Cover(s03, (s03,))
    hom = CoverCategory(site, cover).hom
    a, c = next((a, c) for a in range(len(hom))
                for b in set_bits(hom[a] & ~(1 << a))
                for c in set_bits(hom[b] & ~(1 << b) & ~(1 << a)))

    def drop(out):
        out[a] &= ~(1 << c)

    _broken_description(monkeypatch, site, drop)
    with pytest.raises(SiteError, match="simplified description"):
        CoverCategory(site, cover)


def test_localized_cover_requires_d_stable(cyl):
    rect = region_points(cyl, [(t, x) for t in (0, 1) for x in (0, 1, 2)])
    assert not is_D_stable(cyl, rect)
    site = SiteCategory(cyl, [rect, region_points(cyl, [(0, 0)])], "rc",
                        localized=True)
    with pytest.raises(SiteError):
        CoverCategory(site, Cover(rect, (rect,)))


def test_deliberately_broken_functor(plane):
    # collapsing two disjoint regions onto one breaks full faithfulness
    u1 = region_points(plane, [(0, -3)])
    u2 = region_points(plane, [(0, 3)])
    big = region_diamond(plane, (-4, 0), (4, 0))
    site = SiteCategory(plane, [u1, u2, big], "rc", localized=False)
    from latticehk.sites import SiteFunctor
    i1, i2, ib = (site.index[u1], site.index[u2], site.index[big])
    F = SiteFunctor(site, site, {i1: i1, i2: i1, ib: ib})
    assert not F.fully_faithful() or not F.reflects_orthogonality()


def test_refinement_functor(cyl):
    s03 = region_slab(cyl, 0, 3)
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=900)
    sub = [r for r in uni if s03.contains(r)]
    site = SiteCategory(cyl, sub, "rc", localized=False)
    p1 = region_points(cyl, [p for p in s03.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in s03.pts if p[0] >= 1])
    coarse = Cover(s03, (p1, p2))
    fine_pieces = (region_points(cyl, [p for p in p1.pts if p[0] <= 1]),
                   region_points(cyl, [p for p in p1.pts if p[0] >= 1]),
                   region_points(cyl, [p for p in p2.pts if p[0] <= 2]),
                   region_points(cyl, [p for p in p2.pts if p[0] >= 2]))
    fine = Cover(s03, fine_pieces)
    F = refinement_functor(site, fine, coarse, {0: 0, 1: 0, 2: 1, 3: 1})
    assert F.is_functor() and F.fully_faithful()
    assert F.reflects_orthogonality()
    with pytest.raises(SiteError):
        refinement_functor(site, fine, coarse, {0: 1, 1: 0, 2: 1, 3: 1})


def test_extend_cover_restriction_property(cyl):
    zone = region_slab(cyl, 0, 4)
    p1 = region_points(cyl, [p for p in zone.pts if p[0] <= 3])
    p2 = region_points(cyl, [p for p in zone.pts if p[0] >= 1])
    cov = Cover(region_full(cyl), (p1, p2), zone=zone)
    f = LatticeEmbedding(cyl, cyl, 1, 2)
    U = region_diamond(cyl, (0, 0), (3, 1))
    window = region_slab(cyl, *cyl.window)
    ext = extend_cover(f, cov, U, window, mode="plain")
    assert ext.base.is_full
    # pieces meeting f(U) are exactly the pushed-forward ones
    img = apply_embedding(f, U)
    for piece in ext.pieces:
        if piece.pts & img.pts:
            pre = {p.pts for p in cov.pieces}
            back = frozenset(cyl.norm_point((t - f.dt, x - f.dx))
                             for (t, x) in piece.pts)
            assert back in pre
    from latticehk.instances import column_cover
    covD = column_cover(cyl, zone)
    U2 = region_points(cyl, [(1, 0), (2, 0)])
    extD = extend_cover(f, covD, U2, window, mode="D_stable")
    assert extD.is_D_stable()
    with pytest.raises(SiteError):
        extend_cover(f, cov, U2, window, mode="D_stable")  # not D-stable


def test_enumerate_universe_tiny_plane_diamonds(plane):
    uni = enumerate_universe(plane, compactness="rc", x_range=(0, 2),
                             t_range=(0, 2), max_height=2,
                             strict_diamonds=False, cap=200)
    singles = [r for r in uni if len(r.pts) == 1]
    assert len(singles) == 9  # every window site
    # every causally related pair contributes its hull, deduplicated
    pair_hulls = {r.pts for r in uni if len(r.pts) > 1}
    seen = set()
    for p in [(t, x) for t in range(3) for x in range(3)]:
        for q in [(t, x) for t in range(3) for x in range(3)]:
            if q[0] > p[0] and abs(q[1] - p[1]) <= q[0] - p[0]:
                h = region_diamond(plane, p, q)
                seen.add(h.pts)
    assert pair_hulls == seen


def _universe_cases():
    """Spacetimes with the universe keywords that reach every base:
    a plane strip, cylinders of circumference 2-6, the bounded diamond
    source and a bounded slab."""
    plane = LatticeSpacetime("plane", (-2, 6))
    yield plane, {"x_range": (-1, 2), "t_range": (0, 3)}
    for c in range(2, 7):
        yield LatticeSpacetime("cylinder", (-2, 6), c), {"t_range": (0, 3)}
    cyl = LatticeSpacetime("cylinder", (-2, 6), 5)
    yield diamond_source(cyl), {}
    yield bounded_spacetime(cyl, region_slab(cyl, 0, 2).pts), {}


def _universe_outcome(enum, M, **kw):
    try:
        return enum(M, **kw)
    except SiteError as e:
        return str(e)


def test_enumerate_universe_matches_candidate_scan():
    """The causal-pair loop lists the universe the scan over candidate
    tops lists, and trips the cap at the same count."""
    for M, kw in _universe_cases():
        for compactness in ("rc", "copen"):
            for strict in (True, False):
                for max_height in (None, 3):
                    opts = dict(kw, compactness=compactness, cap=2000,
                                strict_diamonds=strict, max_height=max_height)
                    want = scanned_universe(M, **opts)
                    assert enumerate_universe(M, **opts) == want, (M, opts)
                    explicit = sum(not r.is_full for r in want)
                    for cap in (explicit - 1, explicit):
                        opts["cap"] = cap
                        assert _universe_outcome(enumerate_universe, M,
                                                 **opts) == \
                            _universe_outcome(scanned_universe, M, **opts)


def test_enumerate_universe_normalizes_no_candidate(monkeypatch):
    """The copen universe of the bounded diamond source on a cylinder with
    a 30-row window and no height bound is listed from the pairs of its
    points: no top is normalized per row of the window."""
    src = diamond_source(LatticeSpacetime("cylinder", (-14, 16), 5))
    calls = []
    real = LatticeSpacetime.norm_point
    monkeypatch.setattr(LatticeSpacetime, "norm_point",
                        lambda M, p: calls.append(p) or real(M, p))
    uni = enumerate_universe(src, compactness="copen", cap=2000)
    assert len(uni) > len(src.extent)
    assert len(calls) <= len(src.extent) ** 2


def _orthogonality_composition_stable(site) -> bool:
    """Orthogonality is keyed to sources, so composition stability says:
    morphism sources mapping into causally disjoint regions are themselves
    causally disjoint.  Definitional for the plain rule; for the localized
    rule it is a property of developments, checked here exhaustively."""
    n = len(site.objects)
    for i in range(n):
        for j in range(i + 1, n):
            if not _bit(site.disjoint, i, j):
                continue
            for a in range(n):
                if not _bit(site.hom, a, i):
                    continue
                for b in range(n):
                    if a != b and _bit(site.hom, b, j) and \
                            not _bit(site.disjoint, a, b):
                        return False
    return True


def test_localized_orthogonality_composition_stable(cyl):
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=900)
    site = SiteCategory(cyl, uni, "rc", localized=True)
    assert _orthogonality_composition_stable(site)
    assert _orthogonality_composition_stable(site.relocalized(False))


# ---------------------------------------------------------------------------
# bitset rows against the frozenset definitions
# ---------------------------------------------------------------------------


def _seeded_hulls(M, pts, seed):
    """Twenty hulls of two or three points of ``pts``, drawn by ``seed``."""
    import random
    rng = random.Random(seed)
    return [hull(M, region_points(M, rng.sample(pts, rng.randint(2, 3))))
            for _ in range(20)]


def _oracle_universes(M, seed):
    """An rc and a copen universe of ``M`` (seeded samples, seeded hulls
    included) and, when ``M`` is unbounded, a copen universe of a bounded
    sub-lattice of ``M``."""
    import random
    from latticehk.geometry import bounded_spacetime
    from latticehk.sites import base_points
    rng = random.Random(seed)
    kw = {"t_range": (0, 3), "max_height": 3, "cap": 900}
    if M.kind == "plane":
        kw["x_range"] = (-1, 2)
        extent = region_diamond(M, (0, 0), (4, 0)).pts
    else:
        extent = region_slab(M, 0, 2).pts
    hulls = set(_seeded_hulls(M, base_points(M, kw.get("x_range"), (0, 3)),
                              seed))
    rc, copen = (sorted(set(enumerate_universe(M, compactness=comp, **kw))
                        | hulls, key=lambda r: r.sort_key())
                 for comp in ("rc", "copen"))
    copen = [r for r in copen if not r.is_full]
    out = [(M, "rc", rng.sample(rc, min(50, len(rc)))),
           (M, "copen", rng.sample(copen, min(50, len(copen))) +
            [region_full(M)])]
    if M.extent is None:
        B = bounded_spacetime(M, extent)
        out.append((B, "copen", enumerate_universe(B, compactness="copen",
                                                   cap=900)))
    return out


def _holds(A, B):
    """``B`` inside ``A``, read off their point sets."""
    if A.is_full:
        return True
    if B.is_full:
        return B.ambient.extent is not None and B.points() <= A.pts
    return B.pts <= A.pts


def _oracle_rows(M, objs):
    from latticehk.geometry import are_causally_disjoint
    dev = [cauchy_development(M, r) for r in objs]
    n = len(objs)
    plain, loc, cauchy, disjoint = ([0] * n for _ in range(4))
    for i, u in enumerate(objs):
        for j, v in enumerate(objs):
            if _holds(v, u):
                plain[i] |= 1 << j
                if dev[i] == dev[j]:
                    cauchy[i] |= 1 << j
            if _holds(dev[j], u):
                loc[i] |= 1 << j
            if are_causally_disjoint(M, u, v):
                disjoint[i] |= 1 << j
    return plain, loc, cauchy, disjoint


@pytest.mark.parametrize("backend", ["plane", "cyl", 2, 3, 4, 5, "bounded"])
@pytest.mark.parametrize("seed", [3, 11])
def test_site_rows_match_frozenset_oracle(backend, seed, plane, cyl):
    """The fixtures, cylinders so narrow that a cone wraps the circle in
    one or two steps, and the bounded diamond of the convexity tests."""
    from latticehk.geometry import LatticeSpacetime
    if isinstance(backend, int):
        M = LatticeSpacetime("cylinder", cyl.window, backend)
    else:
        M = _convexity_spacetimes(plane, cyl)[backend][0]
    for N, comp, uni in _oracle_universes(M, seed):
        site = SiteCategory(N, uni, comp, localized=False)
        plain, loc, cauchy, disjoint = _oracle_rows(N, site.objects)
        assert list(site.hom) == plain
        assert list(site.relocalized(True).hom) == loc
        assert list(site.cauchy) == cauchy
        assert list(site.disjoint) == disjoint
        # objects, developments that leave the site's rows, single points
        # (off the site's grid on an unbounded spacetime) and seeded hulls
        devs = [cauchy_development(N, r) for r in site.objects[::5]]
        far = [region_points(N, [p]) for p in sorted(N.extent)[::4]] \
            if N.extent else [region_points(N, [(t, x)]) for t in (-13, 15)
                              for x in (-11, 0)]
        held = sorted(frozenset().union(*[r.pts for r in site.objects]))
        for piece in [*site.objects[::7], *devs, *far,
                      *_seeded_hulls(N, held, seed)]:
            assert site.within(piece) == sum(
                1 << k for k, r in enumerate(site.objects)
                if _holds(piece, r)), piece


def _pairwise_properties(F):
    """is_functor, fully_faithful, preserves and reflects orthogonality,
    each by its definition over every pair of source objects."""
    s, t, m = F.source, F.target, F.omap
    keys = list(s.object_keys())
    pairs = [(a, b) for a in keys for b in keys if a < b and
             any(_bit(s.hom, a, c) and _bit(s.hom, b, c) for c in keys)]
    return (all(_bit(t.hom, m[a], m[b])
                for a in keys for b in keys if _bit(s.hom, a, b)),
            all(_bit(s.hom, a, b) == _bit(t.hom, m[a], m[b])
                for a in keys for b in keys),
            all(_bit(t.disjoint, m[a], m[b])
                for a, b in pairs if _bit(s.disjoint, a, b)),
            all(_bit(s.disjoint, a, b)
                for a, b in pairs if _bit(t.disjoint, m[a], m[b])))


def _row_properties(F):
    return (F.is_functor(), F.fully_faithful(),
            F.preserves_orthogonality(), F.reflects_orthogonality())


def test_row_functor_checks_match_pairwise_definitions(plane, cyl):
    import random
    from latticehk.instances import column_cover
    from latticehk.sites import SiteFunctor
    functors = []
    # the non-injective map of test_deliberately_broken_functor
    u1 = region_points(plane, [(0, -3)])
    u2 = region_points(plane, [(0, 3)])
    big = region_diamond(plane, (-4, 0), (4, 0))
    site = SiteCategory(plane, [u1, u2, big], "rc", localized=False)
    i1, i2, ib = (site.index[u1], site.index[u2], site.index[big])
    functors.append(SiteFunctor(site, site, {i1: i1, i2: i1, ib: ib}))
    # j functors of cover categories, plain and localized
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=900)
    s03 = region_slab(cyl, 0, 3)
    plain = SiteCategory(cyl, [r for r in uni if s03.contains(r)], "rc")
    p1 = region_points(cyl, [p for p in s03.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in s03.pts if p[0] >= 1])
    functors.append(j_functor(CoverCategory(plain, Cover(s03, (p1, p2)))))
    functors.append(j_functor(CoverCategory(plain.relocalized(True),
                                            column_cover(cyl, s03, 2))))
    # an embedding functor between localized sites
    src = SiteCategory(cyl, uni, "rc", localized=True)
    f = LatticeEmbedding(cyl, cyl, 1, 2)
    tgt = SiteCategory(cyl, [apply_embedding(f, r) for r in uni], "rc",
                       localized=True)
    functors.append(SiteFunctor(src, tgt, {
        k: tgt.index[apply_embedding(f, r)]
        for k, r in enumerate(src.objects)}))
    # a rotation: an automorphism of the localized site, not the identity
    turn = LatticeEmbedding(cyl, cyl, 0, 2)
    rot = SiteFunctor(src, src, {k: src.index[apply_embedding(turn, r)]
                                 for k, r in enumerate(src.objects)})
    assert sorted(rot.omap.values()) == list(src.object_keys()) and \
        any(k != v for k, v in rot.omap.items())
    functors.append(rot)
    # seeded non-injective maps of a small site into itself
    rng = random.Random(5)
    small = SiteCategory(cyl, rng.sample(uni, 30), "rc")
    keys = list(small.object_keys())
    for _ in range(4):
        omap = {k: rng.choice(keys) for k in keys}
        functors.append(SiteFunctor(small, small.relocalized(True), omap))
        functors.append(SiteFunctor(small, small, {
            k: k if rng.random() < 0.8 else rng.choice(keys)
            for k in keys}))
    # the identity map, plain into itself and into the localization
    functors.append(SiteFunctor(small, small, {k: k for k in keys}))
    functors.append(localization_functor(small))
    # maps whose image covers few objects of the large localized site: the
    # inclusion of the small universe, and seeded maps onto five objects
    inside = {k: src.index[U] for k, U in enumerate(small.objects)}
    functors.append(SiteFunctor(small.relocalized(True), src, inside))
    few = rng.sample(list(src.object_keys()), 5)
    for _ in range(4):
        omap = {k: rng.choice(few) for k in keys}
        functors.append(SiteFunctor(small, src, omap))
        functors.append(SiteFunctor(small.relocalized(True), src, omap))
    seen = set()
    for F in functors:
        expected = _pairwise_properties(F)
        assert _row_properties(F) == expected
        seen.add(expected)
    assert len(seen) > 2  # the corpus has both verdicts


def _pairwise_cover_category(site, cover):
    """Objects and generated homs of a cover category, by the frozenset
    definitions: admission by containment, per-piece morphisms and overlap
    identifications, closed under composition."""
    objs = [(i, k) for i, piece in enumerate(cover.pieces)
            for k in site.object_keys() if piece.contains(site.objects[k])]
    overlaps = cover.intersections()
    gen = [0] * len(objs)
    for a, (i, k1) in enumerate(objs):
        for b, (j, k2) in enumerate(objs):
            if i == j and _bit(site.hom, k1, k2):
                gen[a] |= 1 << b
            elif k1 == k2:
                key = (min(i, j), max(i, j))
                if key in overlaps and \
                        overlaps[key].contains(site.objects[k1]):
                    gen[a] |= 1 << b
    return tuple(objs), fixpoint_closure(gen)


def test_site_localization_closures_match_the_fixpoint_closure(monkeypatch):
    """Every CoverCategory and saturation_hom closure of one pass of the
    benchmark's site-localization workload (the localization-oracle demo and
    site.precostack-instances on a circumference-5 cylinder, rows 0..3)
    equals the fixpoint closure of the union of its relations."""
    inputs = []
    closure = sites._closure

    def recording(*rows):
        inputs.append(rows)
        return closure(*rows)

    monkeypatch.setattr(sites, "_closure", recording)
    demo = DEMOS["localization-oracle"]
    report = run_scenario({
        "schema": "latticehk-scenario/1", "seed": 7,
        "spacetime": {"kind": "cylinder", "circumference": 5,
                      "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 3],
                     "max_height": 3, "cap": 1600},
        "aqft": {"family": "klein-gordon", "mass2": "1/4"},
        "checks": demo["checks"] + ["site.precostack-instances"],
        "options": demo["options"]}, jobs=1)
    assert not report["summary"]["unexpected"]
    assert len(inputs) == 20
    assert max(len(rows[0]) for rows in inputs) >= 300
    for rows in inputs:
        union = [functools.reduce(int.__or__, row) for row in zip(*rows)]
        assert closure(*rows) == fixpoint_closure(union)


def test_cover_category_rows_match_pairwise_definitions(cyl):
    from latticehk.instances import column_cover, tall_diamond_cover
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=900)
    s03 = region_slab(cyl, 0, 3)
    site = SiteCategory(cyl, uni, "rc", localized=False)
    p1 = region_points(cyl, [p for p in s03.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in s03.pts if p[0] >= 1])
    cases = [(site, Cover(s03, (p1, p2))),
             (site.relocalized(True), column_cover(cyl, s03, 1)),
             (site.relocalized(True), tall_diamond_cover(cyl, s03))]
    for st, cov in cases:
        cc = CoverCategory(st, cov)
        objs, hom = _pairwise_cover_category(st, cov)
        assert cc.objects == objs
        assert cc.hom == hom
        assert [_bit(cc.disjoint, a, b) for a in cc.object_keys()
                for b in cc.object_keys()] == \
            [_bit(st.disjoint, k1, k2) for (_, k1) in objs
             for (_, k2) in objs]


# ---------------------------------------------------------------------------
# the per-run site cache
# ---------------------------------------------------------------------------


def test_site_rows_are_shared_and_immutable(cyl_ctx):
    site = SiteCategory(cyl_ctx.M, cyl_ctx.universe("rc"), "rc")
    loc = site.relocalized(True)
    assert site.relocalized(False) is site
    assert site.relocalized(True) is loc
    assert loc.relocalized(False).hom is site.hom
    for name in ("plain_hom", "local_hom", "cauchy", "disjoint"):
        assert getattr(loc, name) is getattr(site, name)
        with pytest.raises(TypeError):
            getattr(site, name)[0] = 0
    assert site.hom is site.plain_hom and loc.hom is site.local_hom
    with pytest.raises(TypeError):
        loc.hom[0] |= 1


def _diamond_source_site(M, compactness):
    src = diamond_source(M)
    return SiteCategory(src, enumerate_universe(src, compactness=compactness,
                                                cap=2000), compactness)


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_full_key_and_development_mask_match_the_geometry(ctx_name,
                                                          request):
    """``full`` is the key of the full object, and bit k of ``dev_full`` is
    whether object k contains a Cauchy surface of the whole spacetime, on
    the fixture's rc and copen sites and on the sites over the bounded
    diamond source, each with its localized twin."""
    ctx = request.getfixturevalue(ctx_name)
    sites = [site for comp in ("rc", "copen")
             for site in (ctx.site(comp), _diamond_source_site(ctx.M, comp))]
    proper = 0
    for site in sites:
        full = region_full(site.M)
        dev_full = sum(1 << k for k, U in enumerate(site.objects)
                       if contains_cauchy_surface_of(site.M, U, full))
        for s in (site, site.relocalized(True)):
            assert s.full == next((k for k, U in enumerate(s.objects)
                                   if U.is_full), None)
            assert s.dev_full == dev_full
        proper += bool(dev_full & ~(0 if site.full is None
                                    else 1 << site.full))
    assert proper  # some proper object develops to the whole spacetime


@pytest.mark.parametrize("backend", ["plane", "cyl"])
def test_a_bounded_development_that_fills_the_extent_is_full(backend,
                                                             request):
    """On a bounded spacetime a proper region whose development is the
    extent develops to the full region, so the site's Cauchy row of such
    an object holds the full object, to which it is localized-isomorphic."""
    site = _diamond_source_site(request.getfixturevalue(backend), "copen")
    M, full = site.M, site.full
    filling = [k for k, U in enumerate(site.objects) if k != full and
               region_development(M, U, region_full(M)).pts == M.extent]
    assert filling
    for k in filling:
        assert cauchy_development(M, site.objects[k]) == region_full(M)
        assert site.local_hom[k] >> full & 1 and \
            site.local_hom[full] >> k & 1
        assert site.cauchy[k] >> full & 1
    assert {k for k in site.object_keys()
            if site.cauchy[k] >> full & 1} == {*filling, full}


def _count_site_builds(monkeypatch):
    import latticehk.sites as sites_mod
    builds = []
    init = sites_mod.SiteCategory.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sites_mod.SiteCategory, "__init__", counting)
    return builds


def test_localized_embedding_functors_build_each_site_once(monkeypatch):
    from latticehk.checks import run_check
    from latticehk.scenarios import DEMOS, build_context
    ctx = build_context(DEMOS["localization-oracle"])
    builds = _count_site_builds(monkeypatch)
    recs = run_check("site.localized-embedding-functors", ctx)
    assert recs[0].verdict == "pass"
    assert len(builds) <= 7
    assert len(ctx.sites) == len(builds)


def test_each_run_starts_with_an_empty_site_cache(monkeypatch):
    import latticehk.scenarios as scen
    config = {
        "schema": "latticehk-scenario/1", "seed": 7,
        "spacetime": {"kind": "cylinder", "circumference": 6,
                      "window": [-14, 16]},
        "universe": {"compactness": "rc", "t_range": [0, 3],
                     "max_height": 3, "cap": 1600},
        "checks": ["site.precostack-instances", "site.cover-intersections"],
    }
    contexts = []
    build = scen.build_context

    def recording(cfg):
        ctx = build(cfg)
        assert not ctx.sites
        contexts.append(ctx)
        return ctx

    monkeypatch.setattr(scen, "build_context", recording)
    builds = _count_site_builds(monkeypatch)
    first = scen.report_bytes(scen.run_scenario(config), drop_timestamp=True)
    n_first = len(builds)
    second = scen.report_bytes(scen.run_scenario(config), drop_timestamp=True)
    assert first == second
    assert len(contexts) == 2 and contexts[0] is not contexts[1]
    assert n_first > 0 and len(builds) == 2 * n_first


def test_site_cache_races_build_identical_sites(cyl_ctx):
    import sys
    import threading
    from latticehk.checks import RunContext
    ctx = RunContext(M=cyl_ctx.M, seed=7,
                     universe_cfg={"compactness": "rc", "t_range": [0, 2],
                                   "max_height": 2})
    uni = ctx.universe("rc")
    got = []

    def worker(localized):
        got.append(ctx.site_over(uni, "rc", localized))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % 2 == 1,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(got) == 6
    assert len(ctx.sites) == 1
    ref = SiteCategory(ctx.M, uni, "rc")
    for site in got:
        assert site.objects == ref.objects
        assert site.hom == (ref.local_hom if site.localized
                            else ref.plain_hom)
        assert (site.cauchy, site.disjoint) == (ref.cauchy, ref.disjoint)


def test_universe_is_enumerated_once_per_key(monkeypatch, cyl):
    import latticehk.checks as checks
    calls = []
    real = checks.enumerate_universe

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "enumerate_universe", counting)
    ctx = checks.RunContext(M=cyl, seed=7,
                            universe_cfg={"compactness": "rc",
                                          "t_range": [0, 2],
                                          "max_height": 2})
    uni = ctx.universe("rc")
    assert isinstance(uni, tuple)
    assert ctx.universe("rc") is uni
    assert ctx.site().objects == ctx.site(localized=True).objects
    assert len(calls) == 1
    # another compactness is another enumeration, also made once
    copen = ctx.universe("copen")
    assert copen is not uni and ctx.universe("copen") is copen
    assert len(calls) == 2
    assert uni == tuple(real(cyl, compactness="rc", t_range=(0, 2),
                             max_height=2))


# ---------------------------------------------------------------------------
# relations read off the rows the site already holds
# ---------------------------------------------------------------------------


def _convexity_spacetimes(plane, cyl):
    """The plane, the cylinder and a bounded sub-lattice of the plane, each
    with the points that seeded regions are drawn from."""
    from latticehk.geometry import bounded_spacetime
    zone = [(t, x) for t in range(4) for x in range(-1, 3)]
    B = bounded_spacetime(plane, region_diamond(plane, (0, 0), (6, 0)).pts)
    return {"plane": (plane, zone),
            "cyl": (cyl, [(t, x) for t in range(4) for x in range(6)]),
            "bounded": (B, sorted(B.extent))}


@pytest.mark.parametrize("backend", ["plane", "cyl", "bounded"])
def test_site_convexity_agrees_with_is_causally_convex(backend, plane, cyl):
    """Seeded universes of hulls and raw point samples: the site builds iff
    every object is causally convex, and otherwise names the first object
    in sort order that is not."""
    import random
    from latticehk.geometry import is_causally_convex
    M, pts = _convexity_spacetimes(plane, cyl)[backend]
    rng = random.Random(backend)
    verdicts = set()
    for _ in range(25):
        objs = [hull(M, region_points(M, rng.sample(pts, rng.randint(1, 3))))
                for _ in range(6)]
        objs += [region_points(M, rng.sample(pts, rng.randint(2, 3)))
                 for _ in range(rng.randint(0, 2))]
        objs = sorted(set(objs), key=lambda r: r.sort_key())
        bad = [r for r in objs if not is_causally_convex(M, r)]
        verdicts.add(bool(bad))
        if not bad:
            assert SiteCategory(M, objs, "rc").objects == tuple(objs)
            continue
        with pytest.raises(SiteError) as err:
            SiteCategory(M, objs[::-1], "rc")
        assert str(err.value) == \
            f"universe region not causally convex: {bad[0]}"
    assert verdicts == {True, False}


@pytest.mark.parametrize("backend", ["plane", "cyl", "bounded"])
def test_site_names_the_first_non_convex_object(backend, plane, cyl):
    """Two non-convex objects with different descriptions, listed in the
    reverse of sort order: the message names the one sorted first."""
    M, _ = _convexity_spacetimes(plane, cyl)[backend]
    first = region_points(M, [(0, 0), (2, 0)])
    second = region_points(M, [(1, 0), (2, 0), (4, 0)])
    ok = region_diamond(M, (0, 0), (2, 0))
    with pytest.raises(SiteError,
                       match=r"^universe region not causally convex: "
                             r"Region\(2 pts, t in \[0,2\]\)$"):
        SiteCategory(M, [second, ok, first], "rc")


def test_a_site_sweeps_the_cones_of_its_points_not_of_its_objects(
        monkeypatch):
    """A site of the site-localization benchmark's shape (150 objects over
    20 points) sweeps at most a future and a past cone per grid position
    that its objects hold, never a pair per object."""
    from latticehk.geometry import LatticeSpacetime, _Grid
    M = LatticeSpacetime("cylinder", (-14, 16), 5)
    uni = enumerate_universe(M, compactness="rc", t_range=(0, 3),
                             max_height=3, cap=1600)
    assert len(uni) == 150
    SiteCategory(M, uni)  # the second build reads its developments off M
    sweeps = []
    cone = _Grid.cone

    def counting(self, *args, **kwargs):
        sweeps.append(args)
        return cone(self, *args, **kwargs)

    monkeypatch.setattr(_Grid, "cone", counting)
    SiteCategory(M, uni)
    points = frozenset().union(*(r.pts for r in uni))
    assert 0 < len(sweeps) <= 2 * len(points)


@pytest.mark.parametrize("localized", [False, True])
def test_functors_out_of_both_twins_match_pairwise_definitions(cyl,
                                                               localized):
    """The twin is a copy of the site, and the two rules pair different
    objects through a common target: the points share no plain target, but
    all develop into the row, whose development is everything.  Sending r
    onto q maps the disjoint pair (p, r) onto the related pair (p, q), so
    it preserves orthogonality under the plain rule only.  Functors out of
    either twin, into either, give the pairwise verdicts, whichever twin
    was made first."""
    from latticehk.sites import SiteFunctor
    row, p, q, r = [region_slab(cyl, 0, 0)] + [
        region_points(cyl, [pt]) for pt in ((1, 0), (2, 1), (3, 3))]
    site = SiteCategory(cyl, [row, p, q, r], "rc", localized=localized)
    twins = {localized: site, not localized: site.relocalized(not localized)}
    k = site.index
    squeeze = {k[row]: k[row], k[p]: k[p], k[q]: k[q], k[r]: k[q]}
    maps = [squeeze, {a: a for a in k.values()},
            {a: k[row] for a in k.values()}]
    for source in twins.values():
        for target in twins.values():
            for omap in maps:
                F = SiteFunctor(source, target, omap)
                assert _row_properties(F) == _pairwise_properties(F)
    assert [SiteFunctor(twins[loc], twins[loc], squeeze)
            .preserves_orthogonality() for loc in (False, True)] == \
        [True, False]


def test_functor_pulls_each_target_relation_back_once(cyl, monkeypatch):
    import latticehk.sites as sites_mod
    pulled = []
    pullback = sites_mod._pullback
    monkeypatch.setattr(sites_mod, "_pullback", lambda rows, image:
                        pulled.append(rows) or pullback(rows, image))
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 2),
                             max_height=2)
    site = SiteCategory(cyl, uni, "rc")
    loc = site.relocalized(True)
    F = localization_functor(site)
    for _ in range(2):
        _row_properties(F)
    assert [id(rows) for rows in pulled] == [id(loc.hom), id(loc.disjoint)]
