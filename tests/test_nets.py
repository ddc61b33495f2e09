import random
from itertools import product

import pytest

from latticehk import nets
from latticehk.algebra import (INITIAL, AlgebraError, Initial, QPower,
                               ThinDiagram, count_homs, enumerate_homs,
                               two_valued_colimit)
from latticehk.checks import run_check
from latticehk.geometry import (LatticeEmbedding, apply_embedding,
                                bounded_spacetime, region_diamond,
                                region_full, region_points, region_slab,
                                set_bits)
from latticehk.instances import point_cover
from latticehk.kleingordon import KgContext, KgSpace
from latticehk.nets import (AqftError, IndicatorAqft, build_indicator,
                            build_kg_aqft, check_kg_axioms,
                            check_time_slice, count_nat_transforms,
                            epsilon_iso_check, pullback_indicator)
from latticehk.rational import Mat, Q0, Q1, QQ
from latticehk.sites import (Cover, CoverCategory, SiteCategory,
                             SiteFunctor, enumerate_universe, j_functor)


def _copen_site(cyl):
    uni = enumerate_universe(cyl, compactness="copen", t_range=(0, 4),
                             max_height=4, cap=1600)
    return SiteCategory(cyl, uni, "copen", localized=False)


def test_indicator_guardrails(cyl):
    site = _copen_site(cyl)
    # a support that is not upward closed: no functor
    target = next(k for k, r in enumerate(site.objects)
                  if not r.is_full and len(r.pts) == 1)
    with pytest.raises(AqftError, match="not upward closed"):
        build_indicator(site, 1 << target, QPower(2))
    # an upward closed support holding two causally disjoint objects
    other = next(set_bits(site.disjoint[target]))
    with pytest.raises(AqftError, match="causally disjoint"):
        build_indicator(site, site.plain_hom[target] |
                        site.plain_hom[other], QPower(2))


def test_indicator_time_slice(cyl):
    site = _copen_site(cyl)
    A = build_indicator(site, site.dev_full, QPower(2))
    assert check_time_slice(A)
    slabs = [k for k in set_bits(A.support)
             if not site.region_of(k).is_full]
    assert slabs  # slabs of the cylinder carry the distinguished value


def test_epsilon_iso_constant_and_full(cyl):
    site = _copen_site(cyl)
    const = build_indicator(site, 0, QPower(2))
    assert all(epsilon_iso_check(const, k) for k in site.object_keys())
    at_full = build_indicator(site, 1 << site.full, QPower(2))
    assert not epsilon_iso_check(at_full, site.full)


def test_epsilon_iso_violation_mechanism(plane):
    dia = region_diamond(plane, (0, 0), (4, 0))
    src = bounded_spacetime(plane, dia.pts)
    f = LatticeEmbedding(src, plane, 0, 0)
    img = f.image()
    uni = enumerate_universe(plane, compactness="copen", x_range=(-2, 4),
                             t_range=(-1, 5), max_height=5, cap=3000)
    uni = sorted(set(uni) | {img}, key=lambda r: r.sort_key())
    siteN = SiteCategory(plane, uni, "copen", localized=False)
    A = build_indicator(siteN, siteN.plain_hom[siteN.index[img]], QPower(2))
    assert all(epsilon_iso_check(A, k) for k in siteN.object_keys())
    siteM = SiteCategory(src, enumerate_universe(src, compactness="copen",
                                                 cap=3000),
                         "copen", localized=False)
    F = SiteFunctor(siteM, siteN, {k: siteN.index[apply_embedding(f, U)]
                                   for k, U in enumerate(siteM.objects)})
    pb = pullback_indicator(F, A)
    assert pb.support == 1 << siteM.full  # the full object alone
    assert not epsilon_iso_check(pb, siteM.full)


def test_nat_transform_counts(cyl):
    site = _copen_site(cyl)
    A = build_indicator(site, 1 << site.full, QPower(2))
    B = build_indicator(site, 1 << site.full, QPower(2))
    assert count_nat_transforms(A, B) == 4
    Binit = build_indicator(site, 0, QPower(1))
    assert count_nat_transforms(A, Binit) == 2
    Cinit = build_indicator(site, 0, QPower(2))
    assert count_nat_transforms(Cinit, Cinit) == 1
    # a multi-object connected block still counts like a single hom set
    AC = build_indicator(site, site.dev_full, QPower(2))
    BC = build_indicator(site, site.dev_full, QPower(2))
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
    recs = run_check("net.point-family", request.getfixturevalue(ctx_name))
    assert [r.verdict for r in recs] == [verdict], recs[0].witness
    if verdict == "skip":
        assert recs[0].witness["reason"]


def test_point_family_components_read_the_functors_images(cyl_ctx,
                                                          monkeypatch):
    """Each component's target region is read off its arrow's functor, so
    the generator-space identification moves no object again."""
    import latticehk.kleingordon as kg_mod
    moved = []
    monkeypatch.setattr(kg_mod, "apply_embedding",
                        lambda f, U: moved.append(U) or
                        apply_embedding(f, U), raising=False)
    rec, = run_check("net.point-family", cyl_ctx)
    assert rec.verdict == "pass" and moved == []


def test_point_family_identity_arrow_and_foreign_sites(cyl_ctx, monkeypatch):
    """The family's identity arrow is checked: negating one of its
    components breaks identity and naturality.  An arrow whose functor does
    not run between its members' sites is refused."""
    import latticehk.checks as checks_mod
    families = []
    monkeypatch.setattr(checks_mod, "verify_point",
                        lambda P: families.append(P) or nets.verify_point(P))
    rec, = run_check("net.point-family", cyl_ctx)
    assert rec.verdict == "pass" and rec.witness["verdicts"]["identity"]
    fam = families[0]
    s, t, F, alpha = fam.arrows["id"]
    assert F.source is F.target and \
        all(k == v for k, v in F.omap.items())
    k = min(alpha)
    flipped = {**fam.arrows, "id": (s, t, F, {**alpha, k: -alpha[k]})}
    assert nets.verify_point(nets.PointFamily(
        fam.members, flipped, fam.compositions)) == \
        {"natural_iso": False, "composition": True, "identity": False}
    foreign = {**fam.arrows, "g": ("M1", "N", *fam.arrows["g"][2:])}
    with pytest.raises(AqftError, match="arrow g does not run"):
        nets.verify_point(nets.PointFamily(fam.members, foreign))


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_pullback_functorial_check(ctx_name, request):
    recs = run_check("net.pullback-functorial",
                     request.getfixturevalue(ctx_name))
    assert [r.verdict for r in recs] == ["pass"]


def test_nat_transform_count_multiplicative_over_blocks(cyl):
    # two overlapping (hence not causally disjoint) regions with no common
    # superset in the universe: two connected support blocks, counts multiply
    d1 = region_diamond(cyl, (0, 0), (4, 0))
    d2 = region_diamond(cyl, (1, 1), (5, 1))
    assert d1.pts & d2.pts
    site = SiteCategory(cyl, [d1, d2], "rc", localized=False)
    A = build_indicator(site, 0b11, QPower(2))
    B = build_indicator(site, 0b11, QPower(2))
    assert count_nat_transforms(A, B) == 16


# ---------------------------------------------------------------------------
# the row-wise nets against their pairwise definitions
# ---------------------------------------------------------------------------


def _small_site(M, localized, seed):
    """Twelve seeded regions and the full region, on a few rows."""
    uni = enumerate_universe(M, compactness="copen", t_range=(0, 3),
                             x_range=(-1, 2) if M.kind == "plane" else None,
                             max_height=2, cap=3000)
    full = [r for r in uni if r.is_full]
    rest = random.Random(seed).sample([r for r in uni if not r.is_full], 12)
    return SiteCategory(M, rest + full, "copen", localized=localized)


def _small_cover_category(cyl):
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 4),
                             max_height=1, cap=3000)
    site = SiteCategory(cyl, uni, "rc", localized=False)
    U = region_slab(cyl, 0, 4)
    return CoverCategory(site, Cover(U, (region_slab(cyl, 0, 2),
                                         region_slab(cyl, 2, 4))))


@pytest.fixture(scope="module", params=[
    ("plane", False), ("plane", True), ("cyl", False), ("cyl", True),
    ("cyl", "cover")], ids=lambda p: f"{p[0]}-{p[1]}")
def small_structure(request):
    name, flavor = request.param
    M = request.getfixturevalue(name)
    if flavor == "cover":
        return _small_cover_category(M)
    return _small_site(M, flavor, seed=len(name) + 2 * flavor)


def _bit(rows, a, b) -> bool:
    """Whether row ``a`` of a relation holds ``b``."""
    return bool(rows[a] >> b & 1)


def _up_closure(site, seeds):
    return {b for a in seeds for b in site.object_keys()
            if _bit(site.hom, a, b)}


def _support_sets(site, rng, n):
    """Random object sets (mostly not upward closed) and upward closures of
    one or two random objects."""
    keys = list(site.object_keys())
    out = []
    for _ in range(n):
        out.append(set(rng.sample(keys, rng.randint(1, 4))))
        out.append(_up_closure(site, rng.sample(keys, rng.randint(1, 2))))
    return out


def _pairwise_refusal(site, S):
    keys = list(site.object_keys())
    for a in keys:
        for b in keys:
            if _bit(site.hom, a, b) and a in S and b not in S:
                return ("support not upward closed along "
                        f"{site.region_of(a)} -> {site.region_of(b)}; no "
                        "indicator functor")
    if any(a < b and _bit(site.disjoint, a, b) for a in S for b in S):
        return "support holds two causally disjoint objects"
    return None


def test_build_indicator_refusals_match_pairwise(small_structure):
    site = small_structure
    rng = random.Random(5)
    seen = set()
    for S in _support_sets(site, rng, 15):
        expected = _pairwise_refusal(site, S)
        seen.add(expected is None)
        try:
            A = build_indicator(site, sum(1 << k for k in S), QPower(2))
            got = None
        except AqftError as e:
            got = str(e)
        assert got == expected
        if got is None:
            assert set(set_bits(A.support)) == S
    assert seen == {True, False}  # both outcomes were exercised


def _indicator(site, S, alg=QPower(2)):
    return IndicatorAqft(site, alg, sum(1 << k for k in S))


def _values(site, S, alg=QPower(2)) -> dict:
    """The per-object algebras of the indicator net on the objects S: the
    reference the support mask must reproduce."""
    return {k: alg if k in S else INITIAL for k in site.object_keys()}


def _brute_nat_count(site, va, vb):
    """All component families on the support of the per-object values va,
    each kept when every naturality square of a morphism a -> b (a bit of
    hom) into the values vb commutes."""
    S = [k for k in site.object_keys() if not isinstance(va[k], Initial)]

    def b_map(a, b):
        if isinstance(vb[a], Initial):
            return Mat([[Q1]] * (1 if isinstance(vb[b], Initial)
                                 else vb[b].k), 1)
        return Mat.identity(vb[b].k)

    homs = {k: enumerate_homs(va[k], vb[k]) for k in S}
    # per square, B(a -> b) after each candidate component at a
    squares = [(a, b, [b_map(a, b) @ h for h in homs[a]])
               for a in S for b in S if a != b and _bit(site.hom, a, b)]
    count = 0
    for pick in product(*[range(len(homs[k])) for k in S]):
        eta = dict(zip(S, pick))
        count += all(pushed[eta[a]] == homs[b][eta[b]]
                     for a, b, pushed in squares)
    return count


def _seeded_nat_pairs(site):
    """The seeded supports of the count tests: ``(S, None, None)`` for a
    support of A that is not upward closed, else ``(S, Tb, alg)`` for each
    net B (support Tb, algebra alg) that A on S is counted against."""
    rng = random.Random(11)
    keys = list(site.object_keys())
    for S in _support_sets(site, rng, 10):
        if len(S) > 4:
            continue
        if any(_bit(site.hom, a, b) and b not in S
               for a in S for b in keys):
            yield S, None, None
            continue
        T = S | _up_closure(site, rng.sample(keys, 1))
        for Tb, alg in ((S, QPower(2)), (T, QPower(2)), (set(), QPower(2)),
                        (S, QPower(3))):
            yield S, Tb, alg


def test_count_nat_transforms_matches_brute_force(small_structure):
    site = small_structure
    counted = 0
    for S, Tb, alg in _seeded_nat_pairs(site):
        A = _indicator(site, S)
        if Tb is None:
            with pytest.raises(AqftError, match="not upward closed"):
                count_nat_transforms(A, A)
            continue
        assert count_nat_transforms(A, _indicator(site, Tb, alg)) == \
            _brute_nat_count(site, _values(site, S), _values(site, Tb, alg))
        counted += 1
    assert counted >= 12


def _closed_nat_count(site, S, Tb, a_alg, b_alg) -> int:
    """The product, over the weak components C of the support S, of
    |Hom(A, B)| when C lies in Tb and |Hom(A, Q)| otherwise
    (docs/decisions.md, "The closed count of natural transformations")."""
    total, rest = 1, set(S)
    while rest:
        comp, todo = set(), [min(rest)]
        while todo:
            a = todo.pop()
            if a not in comp:
                comp.add(a)
                todo += [b for b in rest if _bit(site.hom, a, b) or
                         _bit(site.hom, b, a)]
        rest -= comp
        total *= count_homs(a_alg, b_alg if comp <= Tb else QPower(1))
    return total


def test_count_nat_transforms_matches_the_closed_count(small_structure):
    site = small_structure
    inside = set()
    for S, Tb, alg in _seeded_nat_pairs(site):
        if Tb is not None:
            assert count_nat_transforms(_indicator(site, S),
                                        _indicator(site, Tb, alg)) == \
                _closed_nat_count(site, S, Tb, QPower(2), alg)
            inside.add(bool(S) and S <= Tb)
    assert inside == {True, False}


def _same_values(A, values) -> bool:
    return all(type(A.value(k)) is type(v) and A.value(k) == v
               for k, v in values.items())


def _pulled(F, values) -> dict:
    """The per-object values pulled back along F: each object takes the
    value of its image."""
    return {k: values[F.omap[k]] for k in F.source.object_keys()}


def _time_slice_pairwise(site, values) -> bool:
    """Every Cauchy pair carries one value."""
    return all(type(values[a]) is type(values[b]) and values[a] == values[b]
               for a in site.object_keys() for b in set_bits(site.cauchy[a]))


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_indicator_support_matches_the_per_object_values(ctx_name, request):
    """On seeded supports, an indicator net's values, its time-slice verdict
    and its pullbacks along an embedding functor and along a cover functor
    are those of the per-object values."""
    ctx = request.getfixturevalue(ctx_name)
    M = ctx.M
    site = ctx.site("copen")
    F = ctx.embedded(LatticeEmbedding(M, M, 1, 1), site)
    J = j_functor(CoverCategory(site, point_cover(M, ctx.zone())))
    rng = random.Random(13)
    verdicts = []
    for G in (F, J):
        target = G.target
        for S in _support_sets(target, rng, 6):
            A = _indicator(target, S)  # unchecked: most S are not closed
            values = _values(target, S)
            assert _same_values(A, values)
            verdicts.append(check_time_slice(A))
            assert verdicts[-1] == _time_slice_pairwise(target, values)
            pb, pulled = pullback_indicator(G, A), _pulled(G, values)
            assert _same_values(pb, pulled)
            if isinstance(pb.site, SiteCategory):
                assert check_time_slice(pb) == \
                    _time_slice_pairwise(pb.site, pulled)
    assert True in verdicts and (M.kind == "plane" or False in verdicts)


def _epsilon_iso_oracle(A, U_key) -> bool:
    """The counit by its diagram: the relatively compact objects that U's
    region contains, their hom pairs as a ThinDiagram, and its two-valued
    colimit compared with the value at U."""
    site = A.site
    full = site.index.get(region_full(site.M))
    below = [j for j in set_bits(site.within(site.region_of(U_key)))
             if j != full]
    pos = {k: i for i, k in enumerate(below)}
    homs = frozenset((pos[a], pos[b]) for a in below
                     for b in set_bits(site.hom[a]) if b != a and b in pos)
    colim = two_valued_colimit(ThinDiagram(len(below), homs),
                               [A.value(k) for k in below])
    val = A.value(U_key)
    if isinstance(colim, Initial) and isinstance(val, Initial):
        return True
    return colim == val


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"],
                         ids=["plane", "cyl"])
def test_epsilon_iso_matches_the_diagram_oracle(ctx_name, request):
    """On seeded upward-closed supports of the fixture site, the flood-fill
    counit agrees with the diagram's colimit at every object.  The full
    object alone is the support whose counit fails at the full object."""
    ctx = request.getfixturevalue(ctx_name)
    site = ctx.site("copen")
    rng = random.Random(4)
    keys = list(site.object_keys())
    supports = [set(), {site.index[region_full(ctx.M)]}] + [
        _up_closure(site, rng.sample(keys, n)) for n in (1, 1, 2, 2, 3)]
    verdicts = set()
    for S in supports:
        A = _indicator(site, S)
        for k in keys:
            got = epsilon_iso_check(A, k)
            assert got == _epsilon_iso_oracle(A, k)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_epsilon_iso_check_nets_match_the_oracle(ctx_name, request,
                                                 monkeypatch):
    """Every counit that ``net.epsilon-iso-violation`` decides, on the net
    of the image, its pullback and the constant initial net, agrees with
    the diagram's colimit."""
    import latticehk.checks as checks_mod
    calls = []
    monkeypatch.setattr(checks_mod, "epsilon_iso_check",
                        lambda A, k: calls.append((A, k)) or
                        epsilon_iso_check(A, k))
    rec, = run_check("net.epsilon-iso-violation",
                     request.getfixturevalue(ctx_name))
    assert rec.verdict == "pass"
    assert len({id(A) for A, _ in calls}) == 3
    assert all(epsilon_iso_check(A, k) == _epsilon_iso_oracle(A, k)
               for A, k in calls)


@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_inside_rows_are_the_within_masks(ctx_name, request):
    """Row j of ``inside`` is ``within`` of object j's region, the full
    object's included, and the localized twin reads the same rows."""
    ctx = request.getfixturevalue(ctx_name)
    for comp in ("rc", "copen"):
        site = ctx.site(comp)
        assert site.inside == tuple(site.within(site.region_of(j))
                                    for j in site.object_keys())
        assert ctx.site(comp, localized=True).inside == site.inside
    copen = ctx.site("copen")
    assert copen.inside[copen.index[region_full(ctx.M)]] == \
        (1 << len(copen.objects)) - 1


def test_epsilon_iso_refuses_a_support_that_is_not_upward_closed(cyl_ctx):
    """A supported object below U with a hom to an unsupported one below U
    is refused with the diagram colimit's message."""
    site = cyl_ctx.site("copen")
    U, a = next((U, a) for U in site.object_keys()
                if not site.region_of(U).is_full
                for a in set_bits(site.inside[U])
                if site.hom[a] & site.inside[U] & ~(1 << a))
    A = _indicator(site, {a})
    with pytest.raises(AlgebraError) as want:
        _epsilon_iso_oracle(A, U)
    with pytest.raises(AlgebraError) as got:
        epsilon_iso_check(A, U)
    assert str(got.value) == str(want.value)


def test_nets_build_no_diagram():
    assert not hasattr(nets, "ThinDiagram")
    assert not hasattr(nets, "two_valued_colimit")


def _cauchy_slabs_net(cyl):
    """Three mutually Cauchy slabs and two causally disjoint columns inside
    the lowest one."""
    regions = [region_slab(cyl, 0, 1), region_slab(cyl, 2, 3),
               region_slab(cyl, 0, 3),
               region_points(cyl, [(0, 0), (1, 0)]),
               region_points(cyl, [(0, 3), (1, 3)])]
    site = SiteCategory(cyl, regions, "rc", localized=True)
    return build_kg_aqft(KgContext(cyl, QQ(1, 4)), site)


def test_kg_time_slice_reads_no_pairing(cyl, monkeypatch):
    A = _cauchy_slabs_net(cyl)
    calls = []
    pairing = KgSpace.sigma_reduced
    monkeypatch.setattr(KgSpace, "sigma_reduced",
                        lambda self: calls.append(self) or pairing(self))
    assert not check_kg_axioms(A) and calls  # the disjoint pair is paired
    calls.clear()
    assert check_time_slice(A)
    assert not calls


def test_kg_time_slice_catches_a_tampered_cauchy_transition(cyl):
    A = _cauchy_slabs_net(cyl)
    a, b = next((a, b) for a in A.site.object_keys()
                for b in set_bits(A.site.cauchy[a]) if a != b)
    t = A.transitions[(a, b)]
    A.transitions[(a, b)] = Mat([[0] * t.ncols] * t.nrows, t.ncols)
    assert not check_time_slice(A)
    assert check_kg_axioms(A)[-1] == \
        f"Cauchy morphism {a}->{b} not invertible"


def _kg_net(cyl):
    """The localized Klein-Gordon net over the first 18 small regions of
    rows 0-3, where every transition column is a unit column."""
    uni = enumerate_universe(cyl, compactness="rc", t_range=(0, 3),
                             max_height=3, diamonds=True,
                             strict_diamonds=False, min_slab_height=2,
                             cap=900)
    site = SiteCategory(cyl, [r for r in uni if len(r.pts) <= 20][:18],
                        "rc", localized=True)
    return build_kg_aqft(KgContext(cyl, QQ(1, 4)), site)


def _commutativity_oracle(A, dense_matmul):
    """T_ac^T sigma_c T_bc formed densely for every disjoint triple."""
    site, T = A.site, A.transitions
    errs, triples = [], 0
    for a in site.object_keys():
        for b in set_bits(site.disjoint[a]):
            for c in set_bits(site.hom[a] & site.hom[b]):
                if b <= a or (a, c) not in T or (b, c) not in T:
                    continue
                triples += 1
                pairing = dense_matmul(dense_matmul(
                    T[(a, c)].transpose(), A.spaces[c].sigma_reduced()),
                    T[(b, c)])
                if any(v for row in pairing.data for v in row):
                    errs.append(f"pairing does not vanish on the disjoint "
                                f"pair {a}, {b} inside {c}")
    return errs, triples


def test_commutativity_matches_the_dense_pairing(cyl, dense_matmul):
    A = _kg_net(cyl)
    errs, triples = _commutativity_oracle(A, dense_matmul)
    assert triples and errs == [] == nets.commutativity_errors(A)
    # transitions with a random column each: some pairings stop vanishing
    rng = random.Random(3)
    tampered = dict(A.transitions)
    for key in rng.sample(sorted(tampered), 30):
        t = tampered[key]
        if t.ncols:
            j = rng.randrange(t.ncols)
            tampered[key] = Mat([[rng.randint(-2, 2) if k == j else v
                                  for k, v in enumerate(row)]
                                 for row in t.data], t.ncols)
    B = nets.CcrAqft(A.site, A.spaces, tampered)
    errs, _ = _commutativity_oracle(B, dense_matmul)
    assert errs and nets.commutativity_errors(B) == errs


def test_commutativity_names_a_tampered_pair(cyl):
    """A transition column that is not orthogonal to the disjoint image
    gives the error message of the pair."""
    A = _kg_net(cyl)
    T = A.transitions
    a, b, c = next((a, b, c) for a in A.site.object_keys()
                   for b in set_bits(A.site.disjoint[a]) if b > a
                   for c in set_bits(A.site.hom[a] & A.site.hom[b])
                   if (a, c) in T and (b, c) in T)
    lhs = T[(a, c)].transpose() @ A.spaces[c].sigma_reduced()
    k = next(k for k in range(lhs.ncols) if any(r[k] for r in lhs.data))
    t = T[(b, c)]
    # column 0 of T_bc becomes the unit vector e_k
    T[(b, c)] = Mat([[Q1 if i == k else Q0, *row[1:]]
                     for i, row in enumerate(t.data)], t.ncols)
    assert f"pairing does not vanish on the disjoint pair {a}, {b} " \
        f"inside {c}" in nets.commutativity_errors(A)
