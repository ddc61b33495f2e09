import random

import pytest
from hypothesis import example, given, settings, strategies as st

from latticehk.checks import RunContext
from latticehk.geometry import (GeometryError, LatticeEmbedding,
                                LatticeSpacetime, ModelError, Region, _Grid,
                                WindowTooSmallError, _band,
                                _development_raw, _double_complement_raw,
                                _margin_for, _spreader, _windowed,
                                apply_embedding,
                                are_causally_disjoint, bounded_spacetime,
                                cauchy_development, check_loc_morphism, cone,
                                contains_cauchy_surface_of,
                                development_restriction, double_complement,
                                find_D_stable_neighborhood, flood_fill, hull,
                                is_causally_convex, is_cauchy_morphism,
                                is_D_stable, preimage_region,
                                region_development, region_diamond,
                                region_full, region_points, region_slab,
                                region_strict_diamond, set_bits,
                                stabilization_check, transposed,
                                weak_components)
from latticehk.instances import (bounded_embeddings, diamond_source,
                                 translation_embeddings)
from latticehk.oracles import brute_confirms, brute_escapes

from conftest import (fixpoint_closure, full_band_development,
                      general_apply_embedding, grid_strict_diamond,
                      union_find_components)


def test_cone_plane_lightcone(plane):
    c = cone(plane, region_points(plane, [(0, 0)]), "future", False, 4)
    assert c.pts == frozenset((t, x) for t in range(5)
                              for x in range(-t, t + 1))
    ci = cone(plane, region_points(plane, [(0, 0)]), "future", True, 4)
    assert ci.pts == frozenset((t, x) for t in range(1, 5)
                               for x in range(-(t - 1), t))


def test_cone_wraps_on_cylinder(cyl):
    c = cone(cyl, region_points(cyl, [(0, 0)]), "future", False, 3)
    assert {p for p in c.pts if p[0] == 3} == {(3, x) for x in range(6)}


def test_cone_past_and_errors(plane):
    p = cone(plane, region_points(plane, [(4, 0)]), "past", False, 0)
    assert (0, 4) in p.pts and (0, 5) not in p.pts
    with pytest.raises(WindowTooSmallError):
        cone(plane, region_points(plane, [(0, 0)]), "future", False, 99)
    assert cone(plane, region_full(plane), "future", False, 4).is_full


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("direction", ["future", "past"])
@pytest.mark.parametrize("kind", ["plane", "cyl"])
def test_cone_matches_definition(kind, direction, strict, request):
    """J+/J-/I+/I- agree with the definition within the horizon: (t, x) is
    in the cone of S iff some s in S has dt >= xdist (dt > xdist when
    strict), dt counted from s toward the horizon."""
    M = request.getfixturevalue(kind)
    up = direction == "future"
    rng = random.Random(f"cone:{kind}:{direction}:{strict}")
    for _ in range(12):
        S = region_points(M, [(rng.randint(0, 4), rng.randint(-2, 4))
                              for _ in range(rng.randint(1, 4))])
        ts = [t for (t, _) in S.pts]
        if up:
            lo = min(ts)
            hi = horizon = max(ts) + rng.randint(1, 4)
        else:
            lo = horizon = min(ts) - rng.randint(1, 4)
            hi = max(ts)
        reach = hi - lo
        xs = range(M.circumference) if M.kind == "cylinder" else \
            range(-2 - reach - 1, 4 + reach + 2)
        want = set()
        for t in range(lo, hi + 1):
            for x in xs:
                for (st, sx) in S.pts:
                    dt = t - st if up else st - t
                    d = M.xdist(x, sx)
                    if dt > d or (dt == d and not strict):
                        want.add((t, x))
        assert cone(M, S, direction, strict, horizon).pts == want


def test_cone_monotone_idempotent(plane):
    s1 = region_points(plane, [(0, 0)])
    s2 = region_points(plane, [(0, 0), (1, 1)])
    c1 = cone(plane, s1, "future", False, 5)
    c2 = cone(plane, s2, "future", False, 5)
    assert c1.pts <= c2.pts
    again = cone(plane, c1, "future", False, 5)
    assert again.pts == c1.pts


def test_hull_and_convexity(plane, cyl):
    h = hull(plane, region_points(plane, [(0, 0), (4, 0)]))
    assert h.pts == frozenset((t, x) for t in range(5)
                              for x in range(-min(t, 4 - t),
                                             min(t, 4 - t) + 1))
    assert is_causally_convex(plane, h)
    assert not is_causally_convex(plane,
                                  region_points(plane, [(0, 0), (2, 0)]))
    # a single slice of the cylinder is achronal, hence causally convex
    assert is_causally_convex(cyl, region_points(
        cyl, [(0, x) for x in range(6)]))
    assert is_causally_convex(plane, region_full(plane))


def test_hull_single_point(plane):
    h = hull(plane, region_points(plane, [(3, 3)]))
    assert h.pts == frozenset({(3, 3)})


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 4)),
                min_size=1, max_size=5))
def test_hull_idempotent_monotone(pts):
    M = LatticeSpacetime("plane", (-14, 16))
    S = region_points(M, pts)
    h = hull(M, S)
    assert S.pts <= h.pts
    assert hull(M, h).pts == h.pts
    assert h.is_relatively_compact


def test_development_examples(plane, cyl):
    assert cauchy_development(
        plane, region_points(plane, [(0, 0)])).pts == frozenset({(0, 0)})
    slab = region_slab(cyl, 0, 0)
    assert cauchy_development(cyl, slab).is_full
    dia = hull(plane, region_points(plane, [(0, 0), (4, 0)]))
    assert cauchy_development(plane, dia).pts == dia.pts


def test_development_idempotent(plane):
    U = hull(plane, region_points(plane, [(0, 0), (1, 2), (3, 1)]))
    D = cauchy_development(plane, U)
    assert cauchy_development(plane, D) == D


def test_double_complement_examples(plane, cyl):
    pt = region_points(plane, [(0, 0)])
    assert double_complement(plane, pt).pts == pt.pts
    dia = hull(plane, region_points(plane, [(0, 0), (4, 0)]))
    assert double_complement(plane, dia).pts == dia.pts
    slab = region_slab(cyl, 0, 1)
    assert double_complement(cyl, slab).is_full


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)),
                min_size=1, max_size=4),
       st.booleans())
@example([(0, 0), (2, 0)], True)
@example([(0, 0), (2, 0)], False)
def test_development_inside_double_complement(pts, cylinder):
    M = LatticeSpacetime("cylinder", (-14, 16), 6) if cylinder \
        else LatticeSpacetime("plane", (-14, 16))
    S = region_points(M, pts)
    if not is_causally_convex(M, S):
        with pytest.raises(GeometryError, match="^double_complement expects "
                           "a causally convex region$"):
            double_complement(M, S)
    U = hull(M, S)  # S itself when S is convex
    D = cauchy_development(M, U)
    DC = double_complement(M, U)
    if DC.is_full:
        return
    assert not D.is_full
    assert D.pts <= DC.pts


def test_double_complement_divergence_is_genuine(cyl, plane):
    """The staircase diamond has empty causal complement but a dodging
    path: the continuum identity with the development fails on compact
    slices, and both engines agree about each side.  The enumerators
    confirm it and the spacelike pair of docs/decisions.md, also in windows
    that cut their box, and refuse one point off in the compared rows."""
    U = region_diamond(cyl, (0, 0), (3, 2))
    D = cauchy_development(cyl, U)
    DC = double_complement(cyl, U)
    assert DC.is_full and not D.is_full
    assert D.pts == U.pts
    # the full U'' on the diamond's box, rows -6..9
    box = region_points(cyl, [(t, x) for t in range(-6, 10)
                              for x in range(6)])
    pair = region_points(plane, [(2, 1), (7, 7)])
    for U, DC, d_off, dc_off in [
            (U, box, [(1, 4), (0, 0), (-6, 0), (9, 5)],
             [(1, 4), (-6, 0), (9, 5)]),
            (pair, double_complement(plane, pair),
             [(3, 2), (7, 7), (-6, -7), (15, 15)],
             [(4, 3), (2, 1), (0, -7), (9, 15)])]:
        M, D = U.ambient, cauchy_development(U.ambient, U)
        assert D != DC and brute_confirms(M, U, D, DC)
        for p in d_off:
            assert not brute_confirms(M, U, region_points(M, D.pts ^ {p}),
                                       DC), p
        for p in dc_off:
            assert not brute_confirms(M, U, D,
                                       region_points(M, DC.pts ^ {p})), p
    for M, pts in [(cyl.with_window(0, 3), [(0, 0), (3, 2)]),
                   (plane.with_window(2, 7), [(2, 1), (7, 7)])]:
        U = hull(M, region_points(M, pts))
        assert brute_confirms(M, U, cauchy_development(M, U),
                               double_complement(M, U))


def test_plane_diamonds_satisfy_the_complement_identity(plane):
    for h in range(0, 5):
        for dx in range(-h, h + 1):
            U = region_diamond(plane, (0, 0), (h, dx))
            assert cauchy_development(plane, U) == \
                double_complement(plane, U)


def test_predicates(plane, cyl):
    assert are_causally_disjoint(plane, region_points(plane, [(0, -3)]),
                                 region_points(plane, [(0, 3)]))
    assert not are_causally_disjoint(plane, region_points(plane, [(0, 0)]),
                                     region_points(plane, [(2, 1)]))
    s01 = region_slab(cyl, 0, 1)
    s03 = region_slab(cyl, 0, 3)
    assert is_cauchy_morphism(cyl, s01, s03)
    assert contains_cauchy_surface_of(cyl, s01, region_full(cyl))
    dia = region_diamond(cyl, (0, 0), (4, 0))
    assert not contains_cauchy_surface_of(cyl, dia, region_full(cyl))
    assert is_D_stable(cyl, region_points(cyl, [(0, 0), (1, 0)]))
    assert not is_D_stable(cyl, region_points(
        cyl, [(0, x) for x in (0, 1, 2)] + [(1, x) for x in (0, 1, 2)]))


def test_region_development(cyl):
    V = region_diamond(cyl, (0, 0), (4, 0))
    mid = region_points(cyl, [p for p in V.pts if p[0] == 2])
    dev = region_development(cyl, mid, V)
    assert dev.pts == V.pts  # the full waist meets every maximal path
    part = region_points(cyl, sorted(p for p in V.pts if p[0] == 2)[:2])
    assert region_development(cyl, part, V).pts != V.pts


def test_strict_diamonds(plane):
    sd = region_strict_diamond(plane, (0, 0), (4, 0))
    assert sd.pts == frozenset({(1, 0), (2, -1), (2, 0), (2, 1), (3, 0)})
    assert is_D_stable(plane, sd)
    assert is_causally_convex(plane, sd)
    with pytest.raises(GeometryError):
        region_strict_diamond(plane, (0, 0), (1, 0))


def _strict_outcome(build, M, bottom, top):
    """The strict diamond of the tips, or its refusal message."""
    try:
        return build(M, bottom, top)
    except GeometryError as e:
        return str(e)


def _strict_tip_cases():
    """Spacetimes with tip pairs: the plane, cylinders of circumference
    2-8 with unnormalized tip columns, and bounded extents with both tips
    inside."""
    plane = LatticeSpacetime("plane", (-20, 20))
    yield plane, [((0, 0), (s, x)) for s in range(-1, 9)
                  for x in range(-9, 10)]
    for c in range(2, 9):
        M = LatticeSpacetime("cylinder", (-20, 20), c)
        yield M, [((0, xb), (s, x)) for xb in (-1, 0, c + 1)
                  for s in range(-1, c + 4) for x in range(-c, 2 * c)]
    for M, extent in [
            (plane, region_diamond(plane, (0, 0), (8, 1)).pts),
            (LatticeSpacetime("cylinder", (-20, 20), 5),
             {(t, x) for t in range(0, 7) for x in range(5)}),
            (LatticeSpacetime("cylinder", (-20, 20), 4),
             region_diamond(LatticeSpacetime("cylinder", (-20, 20), 4),
                            (0, 0), (6, 1)).pts)]:
        B = bounded_spacetime(M, extent)
        pts = sorted(B.extent)
        yield B, [(p, q) for p in pts for q in pts]


def test_strict_diamond_matches_grid_construction():
    """The diamond of the inner tips equals the strict cones' meet on a
    grid of its own, refusals and their messages included, wherever the
    tips lie in the spacetime."""
    compared = built = 0
    for M, pairs in _strict_tip_cases():
        for p, q in pairs:
            got = _strict_outcome(region_strict_diamond, M, p, q)
            assert got == _strict_outcome(grid_strict_diamond, M, p, q), \
                (M, p, q)
            compared += 1
            built += isinstance(got, Region)
    assert (compared, built) == (6817, 2549)


def test_strict_diamond_refuses_inner_tips_outside_the_extent(plane):
    """On a bounded spacetime a strict diamond whose inner tips leave the
    extent is refused as the diamond of those tips is, where the clipped
    meet I+ & I- & extent is not empty (docs/decisions.md)."""
    B = bounded_spacetime(plane, region_diamond(plane, (0, 0), (6, 0)).pts)
    assert region_strict_diamond(B, (-1, 0), (7, 0)).pts == B.extent
    with pytest.raises(GeometryError, match=r"point \(-1, 0\) outside "
                       "bounded extent"):
        region_strict_diamond(B, (-2, 0), (4, 0))
    with pytest.raises(GeometryError, match="outside bounded extent"):
        region_diamond(B, (-1, 0), (3, 0))
    clipped = grid_strict_diamond(B, (-2, 0), (4, 0))
    assert clipped.pts == {(t, x) for t in range(0, 4)
                           for x in range(-t, t + 1) if abs(x) <= 3 - t}


@pytest.mark.parametrize("c", [4, 5, 6, 7])
def test_tall_strict_diamonds_on_a_cylinder_are_not_d_stable(c):
    """The divergence of causality.strict-diamonds-d-stable on cylinders
    (docs/decisions.md): with tips s rows and d columns apart, a strict
    diamond with a whole-circle row holds a Cauchy surface, and one without
    is D-stable exactly when s + d < 2 * (c // 2) + 3.  Every failure has
    s + d > c, where the open continuum diamond fails too."""
    M = LatticeSpacetime("cylinder", (-3 * c, 3 * c + 4), c)
    for s in range(2, c + 3):
        for x in range(c):
            d = M.xdist(x, 0)
            if d > s - 2:
                continue
            V = region_strict_diamond(M, (0, 0), (s, x))
            rows = {t for (t, _) in V.pts}
            waist = any(len({y for (t, y) in V.pts if t == r}) == c
                        for r in rows)
            stable = is_D_stable(M, V)
            assert stable == (not waist and s + d < 2 * (c // 2) + 3)
            assert stable or s + d > c


def test_find_d_stable_neighborhood_sweep(plane):
    U = hull(plane, region_points(plane, [(0, 0), (4, 0)]))
    V = find_D_stable_neighborhood(plane, (2, 0), U)
    assert region_strict_diamond(plane, (1, 0), (3, 0)).pts <= V.pts
    for p in sorted(U.pts):
        W = find_D_stable_neighborhood(plane, p, U)
        assert p in W.pts and U.contains(W)
        assert is_D_stable(plane, W) and is_causally_convex(plane, W)
    single = find_D_stable_neighborhood(plane, (0, 0),
                                        region_points(plane, [(0, 0)]))
    assert single.pts == frozenset({(0, 0)})


def test_find_d_stable_neighborhood_tries_the_radius_that_fills_u(plane):
    """A strict diamond of radius r spans rows p[0] - r + 1 .. p[0] + r - 1,
    so the diamond (0, 0)-(4, 0) is the strict diamond of radius 3 around
    its centre, which is D-stable."""
    U = region_diamond(plane, (0, 0), (4, 0))
    V = find_D_stable_neighborhood(plane, (2, 0), U)
    assert V == U and len(V.pts) == 13


def test_full_region_point_views(plane):
    """A bounded full region lists its extent in both views; the unbounded
    one has no rows, so ``pts`` is empty and ``points`` refuses."""
    M = bounded_spacetime(plane, region_diamond(plane, (0, 0), (3, 1)).pts)
    full = region_full(M)
    assert full.pts == full.points() == M.extent
    assert len(full.pts) == 8
    assert region_full(plane).pts == frozenset()
    with pytest.raises(GeometryError, match="no materialized point set"):
        region_full(plane).points()


# -- the bitset relation helpers against the fixpoint and union-find ---------


def _random_relations(rng):
    """Seeded bitset relations on 0 to 40 objects: empty, self-loops only,
    and asymmetric ones of three densities."""
    for n in (0, 1, 5, 17, 40):
        yield [0] * n
        yield [1 << i for i in range(n)]
        for density in (0.03, 0.15, 0.5):
            yield [sum(1 << j for j in range(n) if rng.random() < density)
                   for _ in range(n)]


def test_flood_fill_closure_matches_the_fixpoint_closure():
    rng = random.Random(35)
    for rows in _random_relations(rng):
        n = len(rows)
        assert [flood_fill(1 << i, rows) for i in range(n)] == \
            fixpoint_closure(rows)
        # two relations close like their union
        other = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                 for _ in range(n)]
        union = fixpoint_closure([a | b for a, b in zip(rows, other)])
        assert [flood_fill(1 << i, rows, other) for i in range(n)] == union
        # inside a mask: the closure of the relation cut down to the mask
        within = rng.getrandbits(n) if n else 0
        cut = fixpoint_closure([row & within if within >> i & 1 else 0
                                for i, row in enumerate(rows)])
        for i in set_bits(within):
            assert flood_fill(1 << i, rows, within=within) == cut[i]


def test_weak_components_match_union_find():
    rng = random.Random(36)
    for rows in _random_relations(rng):
        n = len(rows)
        for mask in ((1 << n) - 1, rng.getrandbits(n) if n else 0):
            nodes = list(set_bits(mask))
            edges = [(a, b) for a in nodes for b in set_bits(rows[a] & mask)]
            expected = [sum(1 << v for v in comp)
                        for comp in union_find_components(nodes, edges)]
            assert list(weak_components(
                mask, rows, transposed(rows, mask))) == expected


def test_transposed_matches_the_pairwise_transpose():
    rng = random.Random(37)
    for rows in _random_relations(rng):
        n = len(rows)
        for mask in ((1 << n) - 1, rng.getrandbits(n) if n else 0):
            assert transposed(rows, mask) == tuple(
                sum(1 << i for i in range(n)
                    if mask >> i & 1 and rows[i] >> j & 1)
                for j in range(n))


def test_embeddings_translation(cyl):
    f = LatticeEmbedding(cyl, cyl, 1, 2)
    assert check_loc_morphism(f)
    assert is_D_stable(cyl, f.image())
    U = region_diamond(cyl, (0, 0), (3, 1))
    lhs, rhs, DV = development_restriction(f, U)
    assert lhs == rhs == DV == \
        cauchy_development(cyl, apply_embedding(f, U)).pts
    pre = preimage_region(f, apply_embedding(f, U))
    assert pre.pts == U.pts


def test_embeddings_bounded(plane):
    dia = region_diamond(plane, (0, 0), (4, 0))
    sub = bounded_spacetime(plane, dia.pts)
    f = LatticeEmbedding(sub, plane, 1, 3)
    assert check_loc_morphism(f)
    img = f.image()
    assert img.pts == frozenset((t + 1, x + 3) for (t, x) in dia.pts)
    U = region_points(sub, [(1, 0), (2, 0)])
    # ambient development restricted to the image stays below the intrinsic
    DU = cauchy_development(sub, U)
    DV = cauchy_development(plane, apply_embedding(f, U))
    lhs, rhs, dv = development_restriction(f, U)
    assert (lhs, rhs, dv) == \
        (apply_embedding(f, DU).pts, DV.pts & img.pts, DV.pts)
    assert rhs <= lhs
    # the image is D-stable, so the development stays inside it
    assert is_D_stable(plane, img) and rhs == dv


def _preimage_oracle(f, V):
    """f^{-1}(V) point by point: the source points whose image lies in V;
    on an unbounded source, V's points moved back that stay in the
    window."""
    S = f.source
    if S.extent is not None:
        pts = {p for p in S.extent if f.map_point(p) in V.pts}
    else:
        pts = {p for (t, x) in V.pts
               if S.in_window(p := S.norm_point((t - f.dt, x - f.dx)))}
    return frozenset(pts) or None


def test_preimage_matches_the_point_oracle():
    """preimage_region moves V's rows back: it agrees with the point-wise
    preimage on translations of planes and cylinders c=2..8, on sub-lattice
    inclusions and on the wraps of plane strips onto cylinders, for V that
    meet the image, leave the window or miss the image."""
    rng = random.Random("preimage")
    checked = {None: 0, "some": 0}
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        M = LatticeSpacetime("plane", (-6, 9)) if c is None else \
            LatticeSpacetime("cylinder", (-6, 9), c)
        shifts = [(0, 0), (1, 2), (3, -2), (-4, 5), (12, 1), (0, -7),
                  (-2, 2 * (c or 4) + 1)]
        embeddings = [LatticeEmbedding(M, M, dt, dx) for dt, dx in shifts]
        if c is None or c >= 5:  # the wrapped strip needs c >= 5
            embeddings += bounded_embeddings(RunContext(M=M))
        for f in embeddings:
            S, T = f.source, f.target
            for _ in range(12):
                raw = [(rng.randint(-6, 9), rng.randint(-8, 8))
                       for _ in range(rng.randint(1, 6))]
                targets = [region_points(T, raw)]
                if S.extent is not None:
                    sub = rng.sample(sorted(S.extent),
                                     rng.randint(1, len(S.extent)))
                    targets.append(apply_embedding(
                        f, region_points(S, sub)))
                for V in targets:
                    got, want = preimage_region(f, V), _preimage_oracle(f, V)
                    if want is None:
                        assert got is None, (f, sorted(V.pts))
                    else:
                        assert got == region_points(S, want), \
                            (f, sorted(V.pts))
                    checked[want and "some"] += 1
    assert checked[None] > 50 and checked["some"] > 500


def test_wrap_embedding(plane, cyl):
    strip = hull(plane, region_points(
        plane, [(t, x) for t in range(3) for x in range(3)]))
    sub = bounded_spacetime(plane, strip.pts)
    f = LatticeEmbedding(sub, cyl, 0, 1)
    assert check_loc_morphism(f)
    wide = hull(plane, region_points(
        plane, [(t, x) for t in range(3) for x in range(6)]))
    with pytest.raises(GeometryError):
        LatticeEmbedding(bounded_spacetime(plane, wide.pts), cyl, 0, 0)


def test_bounded_spacetime_validation(plane):
    with pytest.raises(GeometryError):
        bounded_spacetime(plane, [(0, 0), (2, 0)])  # not causally convex


def test_stabilization(cyl):
    U = hull(cyl, region_points(cyl, [(0, 0), (2, 0)]))

    def op(mx):
        d = cauchy_development(mx, region_points(mx, U.pts))
        return "full" if d.is_full else tuple(sorted(d.pts))

    assert stabilization_check(cyl, op, regions=[U])
    wide = region_points(cyl.with_window(0, 1),
                         [(t, x) for t in (0, 1) for x in (0, 1, 2)])
    with pytest.raises(WindowTooSmallError):
        cauchy_development(cyl.with_window(0, 1), wide)


def test_disjointness_hereditary(plane):
    U1 = hull(plane, region_points(plane, [(0, -4), (2, -4)]))
    U2 = hull(plane, region_points(plane, [(0, 4), (2, 4)]))
    assert are_causally_disjoint(plane, U1, U2)
    for p in U1.pts:
        for q in U2.pts:
            assert are_causally_disjoint(plane,
                                         region_points(plane, [p]),
                                         region_points(plane, [q]))


def test_region_literals_guardrails(plane, cyl):
    with pytest.raises(GeometryError):
        region_slab(plane, 0, 1)
    with pytest.raises(GeometryError):
        region_points(plane, [])
    with pytest.raises(GeometryError):
        region_points(plane, [(99, 0)])
    full = region_full(cyl)
    assert not full.is_relatively_compact
    assert region_slab(cyl, 0, 1).is_relatively_compact


# -- the saturating sweeps against the full-window loops ----------------------


def _ref_cone(g, seed_rows, up, strict=False):
    """Every row of the window, in sweep order."""
    if strict:
        seed_rows = [0] + seed_rows[:-1] if up else seed_rows[1:] + [0]
    out = [0] * g.nrows
    prev = 0
    for r in range(g.nrows) if up else range(g.nrows - 1, -1, -1):
        prev = out[r] = seed_rows[r] | g.spread(prev)
    return out


def _brute_step(m, width, c):
    """The sites one causal step from the row mask ``m``, bit by bit: bit
    ``i`` reaches ``i - 1``, ``i`` and ``i + 1``, taken mod ``c`` on a
    cylinder and clipped to ``width`` bits on the plane (``c`` None)."""
    out = 0
    for i in set_bits(m):
        for j in (i - 1, i, i + 1):
            if c:
                out |= 1 << j % c
            elif 0 <= j < width:
                out |= 1 << j
    return out


def _ref_escapes(g, blocker, up, inside):
    """Point by point: a site escapes when it is inside and off the
    blocker, and either no step from it stays inside or a step reaches a
    site that escapes."""
    out = [0] * g.nrows
    nxt = nxt_inside = 0
    for r in range(g.nrows - 1, -1, -1) if up else range(g.nrows):
        for i in set_bits(inside[r] & ~blocker[r]):
            step = _brute_step(1 << i, g.width, g.M.circumference)
            if step & nxt or not step & nxt_inside:
                out[r] |= 1 << i
        nxt, nxt_inside = out[r], inside[r]
    return out


def _unbounded_escapes(g, blocker, up):
    """Every row of the window with paths that escape past its last row:
    the row beyond it is full."""
    out = [0] * g.nrows
    nxt = g.full
    for r in range(g.nrows - 1, -1, -1) if up else range(g.nrows):
        nxt = out[r] = g.spread(nxt) & ~blocker[r]
    return out


def _rows(rng, g, shape):
    """Row masks of one shape: empty, all ones, a few middle rows, the
    edge rows and edge bits, or scattered random rows."""
    n, top = g.nrows, g.width - 1
    if shape == "empty":
        return [0] * n
    if shape == "ones":
        return [g.full] * n
    rows = [0] * n
    if shape == "middle":
        mid = range(n // 3, max(n - n // 3, n // 3 + 1))
        for r in rng.sample(mid, min(len(mid), rng.randint(1, 3))):
            rows[r] = rng.randint(1, g.full)
    elif shape == "edge":
        for r in {0, n - 1}:
            rows[r] = rng.choice([1, 1 << top, 1 | 1 << top, g.full])
    else:
        for r in range(n):
            if rng.random() < 0.3:
                rows[r] = rng.randint(0, g.full)
    return rows


SHAPES = ("empty", "ones", "middle", "edge", "random")


def _grids(rng):
    """Cylinders of circumference 2-8 and planes, over random row ranges."""
    for c in [None] + list(range(2, 9)):
        M = LatticeSpacetime("plane", (-20, 20)) if c is None else \
            LatticeSpacetime("cylinder", (-20, 20), c)
        for _ in range(6):
            t0 = rng.randint(-4, 2)
            t1 = t0 + rng.randint(0, 12)
            seeds = [(rng.randint(t0, t1), rng.randint(-3, 3))
                     for _ in range(rng.randint(1, 3))]
            yield _Grid(M, t0, t1, region_points(M, seeds))


def test_saturating_cone_matches_full_sweep():
    rng = random.Random("cone-oracle")
    checked = 0
    for g in _grids(rng):
        for shape in SHAPES:
            seeds = _rows(rng, g, shape)
            for up in (True, False):
                for strict in (False, True):
                    assert g.cone(list(seeds), up, strict) == \
                        _ref_cone(g, list(seeds), up, strict)
                    checked += 1
    assert checked == 8 * 6 * len(SHAPES) * 4


def test_saturating_escapes_match_full_sweep():
    rng = random.Random("escape-oracle")
    checked = 0
    for g in _grids(rng):
        for shape in SHAPES:
            blocker = _rows(rng, g, shape)
            for inside in (_rows(rng, g, rng.choice(SHAPES)),
                           [g.full] * g.nrows):
                for up in (True, False):
                    assert g.escapes(blocker, up, inside) == \
                        _ref_escapes(g, blocker, up, inside)
                    checked += 1
            # over full rows the bounded sweep is the unbounded one
            for up in (True, False):
                assert g.escapes(blocker, up, [g.full] * g.nrows) == \
                    _unbounded_escapes(g, blocker, up)
    assert checked == 8 * 6 * len(SHAPES) * 4


def test_spreader_matches_the_per_bit_step():
    for c, widths in [(None, range(1, 9))] + [(c, [c]) for c in range(2, 9)]:
        for width in widths:
            full = (1 << width) - 1
            spread = _spreader(full, c)
            for m in range(full + 1):
                assert spread(m) == _brute_step(m, width, c), (c, width, m)


def _surface_cases(rng):
    """Seeded regions on cylinders of circumference 2-8 and on the plane:
    hulls, whole rows, slabs, diamonds and staircases of row segments."""
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        M = LatticeSpacetime("plane", (-14, 16)) if c is None else \
            LatticeSpacetime("cylinder", (-14, 16), c)
        n = c or 6
        for _ in range(12):
            t, x = rng.randint(0, 3), rng.randint(-3, 3)
            shape = rng.choice(["hull", "row", "slab", "diamond", "stairs"])
            if shape == "hull":
                yield M, hull(M, region_points(M, [
                    (rng.randint(0, 4), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 4))]))
            elif shape == "row":
                yield M, region_points(M, [(t, x + i) for i in range(n)])
            elif shape == "slab" and c:
                yield M, region_slab(M, t, t + rng.randint(0, 2))
            elif shape == "diamond":
                h = rng.randint(0, 4)
                yield M, region_diamond(M, (t, x), (t + h, x + rng.randint(
                    -h, h)))
            else:
                # each row a segment, moved sideways from the row below (a
                # plane slab is infinite, so the plane draws one of these)
                length, shift = rng.randint(1, n), rng.randint(-2, 2)
                yield M, region_points(M, [
                    (t + k, x + k * shift + i)
                    for k in range(rng.randint(1, 4)) for i in range(length)])


def test_whole_spacetime_cauchy_surface_matches_the_escape_enumerator():
    """U holds a Cauchy surface of the whole spacetime iff no point of the
    row below U escapes upward within U's rows +-1, by enumeration."""
    seen = set()
    for M, U in _surface_cases(random.Random("surface-oracle")):
        got = contains_cauchy_surface_of(M, U, region_full(M))
        a, b = U.t_range()
        if M.kind == "plane":
            assert got is False, sorted(U.pts)
            continue
        memo: dict = {}
        want = not any(brute_escapes(M, U.pts, a - 1, b + 1, (a - 1, x),
                                     True, memo)
                       for x in range(M.circumference))
        assert got == want, (M.circumference, sorted(U.pts))
        seen.add(got)
    assert seen == {True, False}


# -- the development memo -----------------------------------------------------


def test_development_memo_returns_fresh_equal_regions():
    M = LatticeSpacetime("cylinder", (-14, 16), 6)
    stable = region_points(M, [(0, 0), (1, 0)])
    grows = region_points(M, [(0, x) for x in (0, 1, 2)] +
                          [(1, x) for x in (0, 1, 2)])
    slab = region_slab(M, 0, 0)
    for U in (stable, grows, slab):
        first = cauchy_development(M, U)
        again = cauchy_development(M, U)
        assert again == first and again is not first and again.ambient is M
    # keyed by the shape: (op, rows), with the result's offset from the
    # region and its rows, or None for full
    memo = M._orbits
    assert memo["dev", stable.rows] == (0, 0, stable.rows)
    assert memo["dev", slab.rows] is None
    D = cauchy_development(M, grows)
    assert memo["dev", grows.rows] == (D.t0 - grows.t0, 0, D.rows)
    assert not any(isinstance(v, Region) for v in memo.values())
    # a time shift of a region answers from its entry, moved with it
    later = Region(M, "points", grows.t0 + 3, 0, grows.rows)
    n = len(memo)
    moved = cauchy_development(M, later)
    assert len(memo) == n and moved.ambient is M
    assert moved.pts == frozenset((t + 3, x) for (t, x) in D.pts)


def test_development_memo_keeps_failures_and_identity():
    M = LatticeSpacetime("cylinder", (0, 5), 6)
    wide = [(t, x) for t in (0, 1) for x in (0, 1, 2)]
    # D(wide) holds a point of each row next to it, so only a translate
    # with a free row on both sides fits the window
    edges = [region_points(M, [(t + s, x) for (t, x) in wide])
             for s in (0, 4)]
    inside = region_points(M, [(t + 2, x) for (t, x) in wide])
    for _ in range(2):
        for U in edges:
            with pytest.raises(WindowTooSmallError):
                cauchy_development(M, U)
        assert cauchy_development(M, inside).t_range() == (1, 4)
    # one entry, stored before the window check, serves all three
    assert list(M._orbits) == [("dev", inside.rows)]
    M1 = LatticeSpacetime("cylinder", (-14, 16), 6)
    M2 = LatticeSpacetime("cylinder", (-14, 16), 6)
    cauchy_development(M1, region_points(M1, [(0, 0)]))
    assert M1._orbits and not M2._orbits
    assert M1 == M2 and hash(M1) == hash(M2)
    assert not M1.with_window(-14, 16)._orbits
    assert not M1.enlarged(2)._orbits


def _sweep_outcome(op, M, U):
    """``op(M, U)``, or the class and message of its refusal."""
    try:
        return op(M, U)
    except GeometryError as e:
        return type(e), str(e)


def test_memo_answers_as_a_fresh_spacetime():
    """Developments, double complements and hulls of every time shift, and
    plane x shift, of seeded regions give on one warm spacetime what a
    fresh spacetime computes, refusals included."""
    rng = random.Random("orbit-memo")
    ops = (cauchy_development, double_complement, hull)
    outcomes, offsets = [], []
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        M = LatticeSpacetime("plane", (-3, 8)) if c is None else \
            LatticeSpacetime("cylinder", (-3, 8), c)
        shapes = set()
        for _ in range(10):
            # drawn on a twin, so only the translates below reach M's memo
            P = M.with_window(*M.window)
            pts = [(rng.randint(0, 3), rng.randint(0, 4))
                   for _ in range(rng.randint(1, 4))]
            shape = rng.choice(["hull", "hull", "points", "block", "column"])
            if shape == "block":  # grows a development on a cylinder
                pts += [(t, x) for t in (0, 1) for x in range(3)]
            if shape == "column":  # a hull that reaches left of its points
                pts += [(0, -1), (2, -1)]
            U = region_points(P, pts)
            if shape == "hull":
                U = hull(P, U)
            shapes.add(U.rows)
            a, b = U.t_range()
            for dt in range(M.window[0] - a, M.window[1] - b + 1):
                for dx in ((0,) if c else (-5, 0, 3)):
                    fresh = M.with_window(*M.window)
                    for op in ops:
                        got, want = (_sweep_outcome(op, N, Region(
                            N, "points", U.t0 + dt, U.x0 + dx, U.rows))
                            for N in (M, fresh))
                        assert got == want, (M, op, sorted(U.pts), dt, dx)
                        outcomes.append(want)
        # one entry per shape and operation served every translate
        assert len(M._orbits) <= 3 * len(shapes)
        offsets += [v[:2] for v in M._orbits.values() if v]
    # some results reach below their regions, and some left of them
    assert any(dt for dt, _ in offsets) and any(dx for _, dx in offsets)
    assert len(outcomes) > 2000
    refusals = {msg.split(" the window")[0] for o in outcomes
                if isinstance(o, tuple) for msg in o[1:]}
    assert refusals >= {"development exceeds", "double complement exceeds",
                        "double_complement expects a causally convex region"}
    assert {R.is_full for R in outcomes if isinstance(R, Region)} == \
        {True, False}


# -- each probe's band against the whole-window doubling probe ----------------


def _doubling(M, U, run, unstable):
    """``run(0)``, checked against ``run(margin)``: the probe that every
    development and double complement ran on the whole window before."""
    r0 = run(0)
    if r0 != run(_margin_for(M, U)):
        raise WindowTooSmallError(unstable)
    return r0


def _window_development(M, U):
    t_lo, t_hi = M.window
    return _windowed(M, _doubling(
        M, U, lambda e: _development_raw(M, U, t_lo - e - 1, t_hi + e + 1),
        "cauchy_development unstable"), "development exceeds")


def _window_double_complement(M, U):
    t_lo, t_hi = M.window
    return _windowed(M, _doubling(
        M, U, lambda e: _double_complement_raw(M, U, t_lo - e, t_hi + e),
        "double_complement unstable"), "double complement exceeds")


def _window_cauchy_surface(M, U):
    t_lo, t_hi = M.window

    def run(e):
        g = _Grid(M, t_lo - e - 1, t_hi + e + 1, U)
        up = g.escapes(g.rows(U), True, [g.full] * g.nrows)
        # no site of the row below U escapes
        return not up[U.t0 - g.t0 - 1]

    return _doubling(M, U, run, "contains_cauchy_surface_of unstable")


def _outcome(op, M, U):
    """The result of ``op(M, U)``, or its error."""
    try:
        return op(M, U)
    except GeometryError as e:
        return e


def _band_cases(rng):
    """Seeded regions on planes and cylinders of circumference 2-8: hulls,
    raw point sets, regions on the window's edge rows and whole rows, in
    wide windows and in windows a few rows tall."""
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        for _ in range(40):
            lo = rng.choice([-14, rng.randint(-4, 2)])
            hi = 16 if lo == -14 else lo + rng.randint(0, 10)
            M = LatticeSpacetime("plane", (lo, hi)) if c is None else \
                LatticeSpacetime("cylinder", (lo, hi), c)
            rows = range(max(lo, -2), min(hi, 6) + 1) or [lo]
            shape = rng.choice(["hull", "points", "edge", "row"])
            if shape == "edge":
                rows = [rng.choice([lo, hi])]
            pts = [(rng.choice(rows), rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 4))]
            if shape == "row":
                t = rng.choice(rows)
                pts += [(t, x) for x in range(rng.randint(2, 8))]
            U = region_points(M, pts)
            yield M, (hull(M, U) if shape in ("hull", "edge") else U).pts


def test_band_results_match_the_whole_window_probe(cyl, plane):
    """Every development, double complement and Cauchy-surface test gives
    the whole-window probe's result, or an error of the same type."""
    ops = [(cauchy_development, _window_development),
           (double_complement, _window_double_complement),
           (lambda M, U: contains_cauchy_surface_of(M, U, region_full(M)),
            _window_cauchy_surface)]
    wide = [(t, x) for t in (0, 1) for x in range(3)]
    cases = [*_band_cases(random.Random("band-oracle")),
             (cyl.with_window(0, 1), wide), (plane.with_window(0, 1), wide)]
    expected = []
    for M, pts in cases:
        for op, oracle in ops:
            # a fresh spacetime each time, so no memo answers for the band
            fresh = M.with_window(*M.window)
            U = region_points(fresh, pts)
            got, want = _outcome(op, fresh, U), _outcome(oracle, fresh, U)
            if isinstance(want, GeometryError):
                assert type(got) is type(want), (M, sorted(U.pts), got)
            else:
                assert got == want, (M, sorted(U.pts))
            expected.append(want)
    # the cases reach every error of the probe and both kinds of result
    errors = [str(e) for e in expected if isinstance(e, GeometryError)]
    for start in ("cauchy_development unstable", "development exceeds",
                  "double_complement unstable", "double_complement expects"):
        assert any(e.startswith(start) for e in errors), start
    regions = [R for R in expected if isinstance(R, Region)]
    assert {R.is_full for R in regions} == {True, False}


# -- the development sweep against the full-band oracle -----------------------


def _sweep_cases(rng):
    """``(M, U, t0, t1)``: seeded regions on the plane and on cylinders of
    circumference 2-8 (point sets, hulls, two-row blocks and whole rows,
    which block every path on a cylinder) over the band
    ``cauchy_development`` passes, over bands that cut the sweep short on
    either side, and over the band that starts at U's bottom row (the
    ``ModelError``) or one row below it."""
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        M = LatticeSpacetime("plane", (-14, 16)) if c is None else \
            LatticeSpacetime("cylinder", (-14, 16), c)
        for _ in range(30):
            pts = [(rng.randint(0, 4), rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 6))]
            shape = rng.choice(["points", "hull", "block", "row"])
            t = rng.randint(0, 3)
            if shape == "block":
                pts += [(t + dt, x) for dt in (0, 1)
                        for x in range(rng.randint(2, 6))]
            if shape == "row":
                pts += [(t, x) for x in range(c or 6)]
            U = region_points(M, pts)
            if shape == "hull":
                U = hull(M, U)
            a, b = U.t_range()
            yield M, U, *_band(U, _margin_for(M, U) + 1)
            yield M, U, a - rng.randint(1, 3), b + rng.randint(0, 3)
            yield M, U, a - 1, rng.randint(a, b + 1)
            yield M, U, a, b + 1


def test_development_sweep_matches_the_full_band_oracle():
    """The development sweep over the rows it changes gives the full-band
    sweep's region, full result or ``ModelError``, on every band."""
    outcomes = []
    for M, U, t0, t1 in _sweep_cases(random.Random("sweep-oracle")):
        got, want = (_sweep_outcome(lambda M, U: dev(M, U, t0, t1), M, U)
                     for dev in (_development_raw, full_band_development))
        assert got == want, (M, sorted(U.pts), t0, t1)
        outcomes.append((U, t0, t1, want))
    regions = [(U, t0, t1, R) for U, t0, t1, R in outcomes
               if isinstance(R, Region) and not R.is_full]
    # results reach past U on both sides, and some are cut by the band
    assert any(R.t0 < U.t0 for U, _, _, R in regions)
    assert any(R.t_range()[1] > U.t_range()[1] for U, _, _, R in regions)
    assert any(R.t0 == t0 for U, t0, _, R in regions)
    assert any(R.t_range()[1] == t1 > U.t_range()[1]
               for U, _, t1, R in regions)
    assert any(isinstance(R, Region) and R.is_full for *_, R in outcomes)
    assert (ModelError, "grid does not pad below the blocker") in \
        [R for *_, R in outcomes]


# -- the direct move against the general embedding path ----------------------


def _embedding_regions(rng, M):
    """Seeded regions of ``M``: hulls and point sets, some on the window's
    edge rows, and the full region."""
    lo, hi = M.window
    for _ in range(25):
        t = rng.choice([lo, hi, rng.randint(lo, hi)])
        pts = [(min(hi, t + rng.randint(0, 2)), rng.randint(-3, 3))
               for _ in range(rng.randint(1, 4))]
        U = region_points(M, pts)
        yield hull(M, U) if rng.random() < 0.5 else U
    yield region_full(M)


def test_direct_move_matches_the_general_embedding_path(plane_ctx,
                                                        cyl_ctx):
    """Between unbounded spacetimes ``apply_embedding`` moves a region's
    rows directly: every ``translation_embeddings`` shift of seeded regions
    on the plane and on cylinders gives the general path's region, or its
    window refusal.  Bounded sources and targets keep the domain and the
    whole-target tests."""
    rng = random.Random("direct-move")
    outcomes = []
    for c in (None, 2, 3, 5, 8):
        M = LatticeSpacetime("plane", (-3, 8)) if c is None else \
            LatticeSpacetime("cylinder", (-3, 8), c)
        regions = list(_embedding_regions(rng, M))
        for f in translation_embeddings(RunContext(M=M), 14):
            for U in regions:
                got, want = (_sweep_outcome(move, f, U) for move in (
                    apply_embedding, general_apply_embedding))
                assert got == want, (f, sorted(U.pts))
                outcomes.append(want)
    refusals = {o[1].split(" outside")[0] for o in outcomes
                if isinstance(o, tuple)}
    assert len(refusals) > 10 and all(r.startswith("point (")
                                      for r in refusals)
    assert {R.is_full for R in outcomes if isinstance(R, Region)} == \
        {True, False}
    for ctx in (plane_ctx, cyl_ctx):
        sub = diamond_source(ctx.M)
        inside = region_points(sub, sub.extent)
        for f in bounded_embeddings(ctx):
            away = region_points(f.source.unbounded(), [(-3, 0)])
            with pytest.raises(GeometryError, match="embedding's domain"):
                apply_embedding(f, away)
        into = LatticeEmbedding(sub.unbounded(), sub)
        away = region_points(sub.unbounded(), [(-3, 0)])
        for f in (LatticeEmbedding(sub, sub), into):
            assert apply_embedding(f, inside) == region_full(sub)
        with pytest.raises(GeometryError, match="outside bounded extent"):
            apply_embedding(into, away)


# -- the row form against the point-set oracle --------------------------------


def _point_sets(rng):
    """Seeded point sets, each with its spacetime and its normalized points:
    planes (negative and wide x), cylinders of circumference 2-8 (x given
    off the circle, so it wraps), the window's edge rows, and subsets of a
    bounded extent on each."""
    for c in (None, 2, 3, 4, 5, 6, 7, 8):
        M = LatticeSpacetime("plane", (-6, 9)) if c is None else \
            LatticeSpacetime("cylinder", (-6, 9), c)
        ext = region_diamond(M, (0, 0), (4, 0)) if c is None else \
            region_slab(M, 1, 3)
        B = bounded_spacetime(M, ext.pts)
        for _ in range(25):
            rows = rng.choice([(-6, -4), (7, 9), (-2, 5), (0, 0), (-6, 9)])
            span = rng.choice([3, 8, 40])
            raw = [(rng.randint(*rows), rng.randint(-span, span))
                   for _ in range(rng.randint(1, 9))]
            yield M, raw, frozenset(M.norm_point(p) for p in raw)
            sub = rng.sample(sorted(ext.pts), rng.randint(1, len(ext.pts)))
            yield B, sub, frozenset(sub)


def _oracle_contains(A, B):
    """``B`` inside ``A`` by their point sets; a full region holds all."""
    if A.is_full:
        return True
    if B.is_full:
        return B.ambient.extent is not None and B.points() <= A.pts
    return B.pts <= A.pts


def test_row_form_matches_the_point_set_oracle():
    """Regions built from seeded point sets are equal exactly when their
    point sets are, contain one another exactly as the sets do, and keep
    the point-set t_range and sort_key."""
    cases = list(_point_sets(random.Random("row-form")))
    by_space = {}
    for M, raw, pts in cases:
        R = region_points(M, raw)
        assert R.pts == R.points() == pts
        # the normal form: nonzero end rows, x0 = 0 on a cylinder and the
        # least x on the plane, and the rows hold exactly the points
        assert R.rows[0] and R.rows[-1]
        assert R.x0 == (0 if M.circumference else min(x for _, x in pts))
        assert {(t, R.x0 + i) for t, m in enumerate(R.rows, R.t0)
                for i in range(m.bit_length()) if m >> i & 1} == pts
        assert R.t_range() == (min(t for t, _ in pts), max(t for t, _ in pts))
        assert R.sort_key() == (0, *R.t_range(), tuple(sorted(pts)))
        # the same set given in another order and with repeats
        again = region_points(M, sorted(raw, reverse=True) + raw[:1])
        assert again == R and hash(again) == hash(R)
        by_space.setdefault(M, []).append(R)
    pairs = 0
    for M, regions in by_space.items():
        regions = regions + [region_full(M)]
        for A in regions:
            for B in regions:
                # one spacetime: the kind and the point set decide
                assert (A == B) == ((A.kind, A.pts) == (B.kind, B.pts))
                assert A.contains(B) == _oracle_contains(A, B), (A, B)
                pairs += 1
    assert pairs > 5000
    for M in by_space:
        full = region_full(M)
        assert full == region_full(M.with_window(*M.window))
        assert full.sort_key() == (1, 0, 0, ())
        if M.extent is not None:
            assert full.points() == M.extent
            assert full.t_range() == (min(t for t, _ in M.extent),
                                      max(t for t, _ in M.extent))
        else:
            with pytest.raises(GeometryError, match="materialized"):
                full.t_range()


def test_equal_regions_from_other_routes_hash_alike(plane, cyl):
    """A region reached by region_points, by hull, through the development
    memo and by a round trip of embeddings is equal, and hashes equal, to
    the region of the same points."""
    rng = random.Random("routes")
    checked = 0
    for M in [plane, cyl, *(LatticeSpacetime("cylinder", (-14, 16), c)
                            for c in (2, 3, 5, 8))]:
        M = M.with_window(*M.window)  # an empty development memo
        c = M.circumference or 0
        there = LatticeEmbedding(M, M, 3, 2 * c - 5)
        back = LatticeEmbedding(M, M, -3, 5)
        for _ in range(30):
            pts = [(rng.randint(0, 3), rng.randint(-9, 9)) for _ in range(3)]
            H = hull(M, region_points(M, pts))
            direct = region_points(M, sorted(H.pts))
            routes = [hull(M, H), apply_embedding(back, apply_embedding(
                there, H))]
            if is_D_stable(M, H):  # the second call answers from the memo
                assert M._orbits["dev", H.rows] == (0, 0, H.rows)
                routes.append(cauchy_development(M, H))
            for R in routes:
                assert R == direct == H and hash(R) == hash(direct)
                checked += 1
    assert checked > 400
