from itertools import accumulate, combinations

import pytest

from latticehk.algebra import QPower, WedgeSpace
from latticehk.checks import RunContext, make_digest, run_check
from latticehk.descent import (_counit_target, _jsonable_witness,
                               build_adapted_cover, generator_counit_check,
                               prestack_failure_demo, relation_counit_check)
from latticehk.geometry import (LatticeSpacetime, ModelError,
                                are_causally_disjoint, cauchy_development,
                                is_causally_convex, region_diamond,
                                region_full, region_points, region_slab)
from latticehk.instances import (column_cover, descent_candidates,
                                 descent_instances, tall_diamond_cover)
from latticehk.kleingordon import KgSpace
from latticehk.nets import build_indicator, pullback_indicator
from latticehk.rational import Mat, Q0, Q1
from latticehk.sites import (Cover, CoverCategory, SiteCategory, SiteError,
                             enumerate_universe, j_functor, restrict_pieces)

from conftest import (dense_apply, dense_columns, dense_rank,
                      dense_relation_check, from_dense_columns, row_space,
                      span_consistent)


def _band_cover(M, U, overlap=1):
    t0, t1 = U.t_range()
    mid = (t0 + t1) // 2
    p1 = region_points(M, [p for p in U.pts if p[0] <= mid + overlap])
    p2 = region_points(M, [p for p in U.pts if p[0] >= mid - overlap])
    return Cover(U, (p1, p2))


def test_single_piece_cover_is_trivial_descent(kg_plane, plane):
    U = region_diamond(plane, (0, 0), (4, 0))
    cov = Cover(U, (U,))
    assert generator_counit_check(kg_plane, cov, U)[0] == "pass"
    assert relation_counit_check(kg_plane, cov, U)[0] == "pass"


def test_generator_counit_band_covers(kg_plane, plane):
    U = region_diamond(plane, (0, 0), (6, 0))
    cov = _band_cover(plane, U, overlap=1)
    v, info = generator_counit_check(kg_plane, cov, U)
    assert v == "pass" and info["pieces"] == 2
    v2, info2 = relation_counit_check(kg_plane, cov, U)
    assert v2 == "pass" and info2["strategy"] == "direct"
    assert info2["consistent"]


def test_generator_counit_localized(kg_cyl, cyl):
    zone = region_slab(cyl, 0, 4)
    cov = tall_diamond_cover(cyl, zone, height=4)
    U = region_diamond(cyl, (1, 0), (3, 0))
    assert not cauchy_development(cyl, U).is_full
    v, info = generator_counit_check(kg_cyl, cov, U, localized=True)
    assert v == "pass" and info["target_iso"]
    v2, info2 = relation_counit_check(kg_cyl, cov, U, localized=True)
    assert v2 == "pass"


def test_localized_requires_d_stable_cover(kg_cyl, cyl):
    zone = region_slab(cyl, 0, 3)
    p1 = region_points(cyl, [p for p in zone.pts if p[0] <= 2])
    p2 = region_points(cyl, [p for p in zone.pts if p[0] >= 1])
    cov = Cover(region_full(cyl), (p1, p2), zone=zone)
    with pytest.raises(SiteError):
        generator_counit_check(kg_cyl, cov,
                               region_points(cyl, [(0, 0), (1, 0)]),
                               localized=True)


@pytest.mark.parametrize("c", [4, 5])
def test_localized_candidates_are_d_stable_on_narrow_cylinders(c):
    """On circumference 4 and 5 the height-4 tall diamond cover wraps
    around the circle and is not D-stable; the localized candidates leave
    it out instead of handing it to a check that raises."""
    M = LatticeSpacetime("cylinder", (-14, 16), c)
    ctx = RunContext(M=M, seed=3, universe_cfg={"compactness": "rc",
                                                "t_range": [0, 3]})
    assert not tall_diamond_cover(M, region_slab(M, 0, 3),
                                  height=4).is_D_stable()
    instances = list(descent_candidates(ctx, True))
    assert instances
    assert all(cov.is_D_stable() for cov, _ in instances)


def test_localized_skips_full_developments(kg_cyl, cyl):
    zone = region_slab(cyl, 0, 4)
    cov = column_cover(cyl, zone)
    U = region_slab(cyl, 1, 2)  # development is the whole cylinder
    v, info = generator_counit_check(kg_cyl, cov, U, localized=True)
    assert v == "skip"


def test_adapted_strategy_on_null_band_cover(kg_plane, plane):
    T = region_diamond(plane, (0, 0), (6, 0))
    p1 = region_points(plane, [p for p in T.pts if p[0] - p[1] <= 4])
    p2 = region_points(plane, [p for p in T.pts if p[0] - p[1] >= 2])
    cov = Cover(T, (p1, p2))
    assert generator_counit_check(kg_plane, cov, T)[0] == "pass"
    v, info = relation_counit_check(kg_plane, cov, T)
    assert v == "pass"
    assert info["strategy"] == "adapted"
    segs, ad = build_adapted_cover(kg_plane, T.points(),
                                   [p1.pts & T.pts, p2.pts & T.pts])
    assert segs is not None and ad["segments"] >= 3


def test_negative_control_strict_inclusion(kg_cyl, cyl):
    p1 = region_points(cyl, [(0, 0), (1, 0)])
    p2 = region_points(cyl, [(0, 3), (1, 3)])
    U = region_points(cyl, p1.pts | p2.pts)
    assert is_causally_convex(cyl, U)
    cov = Cover(U, (p1, p2))
    v, info = relation_counit_check(kg_cyl, cov, U, include_perp=False)
    assert v == "fail" and info["witness"] is not None
    assert info["span_dim"] < info["graph_dim"]
    v2, _ = relation_counit_check(kg_cyl, cov, U, include_perp=True)
    assert v2 == "pass"


def test_negative_control_runner_on_narrow_cylinders():
    """The runner's two-row pieces sit at columns 0 and 3, or at 0 and
    c // 2 where 3 is not causally disjoint from 0: a pass on c = 4..7.  On
    c = 3 no two-row pieces are disjoint, so there is no instance."""
    got = {}
    for c in range(3, 8):
        ctx = RunContext(M=LatticeSpacetime("cylinder", (-14, 16), c),
                         seed=3, universe_cfg={"t_range": [0, 3]})
        (rec,) = run_check("descent.kg-negative-control", ctx)
        got[c] = rec.verdict
    assert got == {3: "skip", 4: "pass", 5: "pass", 6: "pass", 7: "pass"}


def _same_row_space(a: Mat, b: Mat) -> bool:
    return a.ncols == b.ncols and a.rref()[0].data == b.rref()[0].data


def _dense(vec: dict, n: int) -> tuple:
    return tuple(vec.get(j, Q0) for j in range(n))


def _fraction_relation_check(kg, cover, U, localized=False,
                             include_perp=True):
    """The relation counit check in its first, Fraction formulation: every
    relation row (u wedge v, -sigma(u, v)) built with the Fraction pairing,
    the span and the graph reduced by ``row_space``, compared by
    ``_same_row_space`` and ``span_consistent``.  Kept as the oracle of the
    integer rank check."""
    M = kg.ambient
    info = {"flavor": "localized" if localized else "plain"}
    target = cauchy_development(M, U).points() if localized else U.points()
    parts = restrict_pieces(cover.pieces, target)
    T = kg.space(target)
    d = T.dim
    wedge = WedgeSpace(d)
    sigma = T.sigma_reduced()
    units = [[Q1 if t == i else Q0 for t in range(d)] for i in range(d)]
    graph = row_space([wedge.relation_vector(units[i], units[j],
                                             sigma.data[i][j])
                       for (i, j) in wedge.pairs], wedge.dim)

    def pair(u, v):
        return sum((a * b for a, b in zip(u, dense_apply(sigma, v))), Q0)

    def basis(pts):
        # the unit fields at the free points of L(pts), reduced in L(T)
        S = kg.space(pts)
        return [_dense(T.quotient.reduce_sparse(
                    T.coordinates({S.pts[c]: Q1})), T.dim)
                for c in S.quotient.free]

    def perp(a, b):
        if not are_causally_disjoint(M, region_points(M, a),
                                     region_points(M, b)):
            return []
        rows = []
        for u in basis(a):
            for v in basis(b):
                assert pair(u, v) == 0
                rows.append(wedge.relation_vector(u, v, Q0))
        return rows

    def relations_for(regions):
        rows = []
        for pts in regions:
            cols = basis(pts)
            for i in range(len(cols)):
                for j in range(i + 1, len(cols)):
                    rows.append(wedge.relation_vector(
                        cols[i], cols[j], pair(cols[i], cols[j])))
        if include_perp:
            for i in range(len(regions)):
                for j in range(i + 1, len(regions)):
                    rows += perp(regions[i], regions[j])
        return rows

    rows = relations_for(parts)
    span = row_space(rows, wedge.dim) if rows else Mat([], wedge.dim)
    strategy = "direct"
    if not _same_row_space(span, graph) and include_perp:
        segments, ad_info = build_adapted_cover(kg, target, parts)
        info["adapted"] = ad_info
        if segments is not None:
            rows += relations_for(segments)
            for seg in segments:
                for p in parts:
                    rows += perp(seg, p)
            span = row_space(rows, wedge.dim)
            strategy = "adapted"
    info.update(strategy=strategy, span_dim=span.nrows,
                graph_dim=graph.nrows, consistent=span_consistent(span))
    if _same_row_space(span, graph) and info["consistent"]:
        return "pass", info
    witness = None
    for row in graph.data:
        if Mat(list(span.data) + [row], wedge.dim).rank() != span.nrows:
            witness = [str(v) for v in row]
            break
    return "fail", {**info, "witness": witness}


def _plane_strip_ctx():
    """The plane strip x in [-2, 2], rows 0..3, seed 0, on which one plain
    kg-counit instance fails its relation check (docs/decisions.md)."""
    return RunContext(M=LatticeSpacetime("plane", (-14, 16)), seed=0,
                      universe_cfg={"compactness": "rc", "t_range": [0, 3],
                                    "x_range": [-2, 2], "cap": 1600},
                      aqft_cfg={"mass2": "1/4"})


def _relation_oracle_inputs(plane_ctx, cyl_ctx, kg_plane, kg_cyl, plane,
                            cyl):
    """(kg, cover, U, keyword arguments) for the oracle comparison."""
    out = []
    for ctx, kg in ((plane_ctx, kg_plane), (cyl_ctx, kg_cyl)):
        for localized in (False, True):
            out += [(kg, cov, U, {"localized": localized})
                    for cov, U in descent_instances(ctx, localized, 4)]
    p1 = region_points(cyl, [(0, 0), (1, 0)])
    p2 = region_points(cyl, [(0, 3), (1, 3)])
    U = region_points(cyl, p1.pts | p2.pts)
    out.append((kg_cyl, Cover(U, (p1, p2)), U,
                {"include_perp": False}))
    T = region_diamond(plane, (0, 0), (6, 0))
    n1 = region_points(plane, [p for p in T.pts if p[0] - p[1] <= 4])
    n2 = region_points(plane, [p for p in T.pts if p[0] - p[1] >= 2])
    out.append((kg_plane, Cover(T, (n1, n2)), T, {}))
    cov, U = descent_instances(_plane_strip_ctx(), False, 10)[6]
    out.append((kg_plane, cov, U, {}))
    return out


def test_relation_check_agrees_with_fraction_oracle(plane_ctx, cyl_ctx,
                                                    kg_plane, kg_cyl, plane,
                                                    cyl):
    inputs = _relation_oracle_inputs(plane_ctx, cyl_ctx, kg_plane, kg_cyl,
                                     plane, cyl)
    seen = set()
    for kg, cov, U, kwargs in inputs:
        got = relation_counit_check(kg, cov, U, **kwargs)
        assert got == _fraction_relation_check(kg, cov, U, **kwargs)
        seen.add((got[0], got[1].get("strategy")))
    assert {("pass", "direct"), ("pass", "adapted"),
            ("fail", "direct")} <= seen


def _is_coordinate_image(kg, pts, target_pts) -> bool:
    """Whether the image of L(pts) in L(target) is spanned by the unit
    vectors of its joint support: its rank, by Fraction elimination, equals
    the number of coordinates its columns touch."""
    cols = dense_columns(kg.extension(pts, target_pts))
    support = {i for col in cols for i, v in enumerate(col) if v}
    return dense_rank(cols, len(cols[0]) if cols else 0) == len(support)


def test_relation_check_agrees_with_the_dense_oracle(plane_ctx, cyl_ctx,
                                                     kg_plane, kg_cyl, plane,
                                                     cyl):
    """The check on covered pairs plus the residual elimination returns
    the whole result of the dense elimination over all pairs, witness
    included, on the fixture instances, every plane-strip instance at count
    30 (four of which fail), the negative control both ways, the null band
    cover and a single-piece cover."""
    inputs = []
    for ctx, kg in ((plane_ctx, kg_plane), (cyl_ctx, kg_cyl)):
        for localized in (False, True):
            inputs += [(kg, cov, U, {"localized": localized})
                       for cov, U in descent_instances(ctx, localized, 8)]
    inputs += [(kg_plane, cov, U, {})
               for cov, U in descent_instances(_plane_strip_ctx(), False, 30)]
    p1 = region_points(cyl, [(0, 0), (1, 0)])
    p2 = region_points(cyl, [(0, 3), (1, 3)])
    U = region_points(cyl, p1.pts | p2.pts)
    for include_perp in (False, True):
        inputs.append((kg_cyl, Cover(U, (p1, p2)), U,
                       {"include_perp": include_perp}))
    T = region_diamond(plane, (0, 0), (6, 0))
    n1 = region_points(plane, [p for p in T.pts if p[0] - p[1] <= 4])
    n2 = region_points(plane, [p for p in T.pts if p[0] - p[1] >= 2])
    inputs.append((kg_plane, Cover(T, (n1, n2)), T, {}))
    D = region_diamond(plane, (0, 0), (4, 0))
    inputs.append((kg_plane, Cover(D, (D,)), D, {}))
    seen = set()
    fails = masked = residual = 0
    for kg, cov, U, kwargs in inputs:
        got = relation_counit_check(kg, cov, U, **kwargs)
        assert got == dense_relation_check(kg, cov, U, **kwargs)
        seen.add((got[0], got[1].get("strategy")))
        fails += got[0] == "fail"
        _, _, target, parts = _counit_target(kg, cov, U,
                                             kwargs.get("localized", False))
        coordinate = [_is_coordinate_image(kg, p, target) for p in parts]
        # every part a coordinate image and a direct pass: the covered
        # pairs alone span, with nothing left to eliminate
        masked += all(coordinate) and got[0] == "pass" and \
            got[1]["strategy"] == "direct"
        residual += not all(coordinate)
    assert {("pass", "direct"), ("pass", "adapted"),
            ("fail", "direct")} <= seen
    assert fails == 5 and masked and residual


def _first_coordinate(kg, pts, target_pts) -> int:
    """The lowest coordinate of L(target) that the first image column of
    L(pts) touches."""
    return min(kg.extension(pts, target_pts).columns()[0])


def _perturbed_pairing(monkeypatch, space, p, q):
    """Make ``space``'s pairing sigma(e_p, e_q) one larger and
    sigma(e_q, e_p) one smaller: still antisymmetric, but no longer zero on
    a pair it vanished on."""
    reduced = KgSpace.sigma_reduced

    def perturbed(s):
        m = reduced(s)
        if s is not space:
            return m
        rows = [list(row) for row in m.data]
        assert rows[p][q] == 0
        rows[p][q] += 1
        rows[q][p] -= 1
        return Mat(rows, len(rows))

    monkeypatch.setattr(KgSpace, "sigma_reduced", perturbed)


def test_perturbed_pairing_raises_on_both_paths(monkeypatch, kg_cyl, cyl,
                                                kg_plane, plane):
    """A pairing that no longer vanishes on a causally disjoint pair is an
    engine fault, refused whether the pair is two coordinate images (read
    off the covered-pair masks) or involves another image (read off its
    sparse wedges)."""
    # the negative control: two coordinate images, disjoint
    p1 = region_points(cyl, [(0, 0), (1, 0)])
    p2 = region_points(cyl, [(0, 3), (1, 3)])
    U = region_points(cyl, p1.pts | p2.pts)
    target = U.points()
    assert _is_coordinate_image(kg_cyl, p1.pts, target)
    assert _is_coordinate_image(kg_cyl, p2.pts, target)
    coordinate_case = (kg_cyl, Cover(U, (p1, p2)), U,
                       _first_coordinate(kg_cyl, p1.pts, target),
                       _first_coordinate(kg_cyl, p2.pts, target))
    # a diamond whose bottom point is a combination of four coordinates,
    # and a point disjoint from that bottom point only
    D = region_diamond(plane, (0, 0), (2, 0))
    a = region_points(plane, [(0, 0)])
    b = region_points(plane, [(-1, 3)])
    c = region_points(plane, D.pts - a.pts)
    T = region_points(plane, D.pts | b.pts)
    target = T.points()
    assert are_causally_disjoint(plane, a, b)
    assert not are_causally_disjoint(plane, b, c)
    assert not are_causally_disjoint(plane, a, c)
    assert not _is_coordinate_image(kg_plane, a.pts, target)
    residual_case = (kg_plane, Cover(T, (a, b, c)), T,
                     _first_coordinate(kg_plane, a.pts, target),
                     _first_coordinate(kg_plane, b.pts, target))
    for kg, cov, U, p, q in (coordinate_case, residual_case):
        assert relation_counit_check(kg, cov, U)[0] in ("pass", "fail")
        with monkeypatch.context() as m:
            _perturbed_pairing(m, kg.space(U.points()), p, q)
            for check in (relation_counit_check, dense_relation_check):
                with pytest.raises(ModelError,
                                   match="pairing fails causal support"):
                    check(kg, cov, U)


def test_plane_strip_relation_failure_diagnosis(kg_plane, plane):
    """The one plain relation failure of kg-counit on the plane strip: two
    pieces, causally related as wholes, leave out the vanishing relation of
    a spacelike pair split across them (docs/decisions.md)."""
    cov, U = descent_instances(_plane_strip_ctx(), False, 10)[6]
    assert sorted(U.pts) == [(0, -1), (1, -2), (1, -1), (1, 0), (2, -3),
                             (2, -2), (2, -1), (3, -2)]
    p1, p2 = cov.pieces
    assert len(p1.pts & p2.pts) == 4
    assert not are_causally_disjoint(plane, p1, p2)
    assert generator_counit_check(kg_plane, cov, U)[0] == "pass"
    v, info = relation_counit_check(kg_plane, cov, U)
    assert v == "fail"
    assert (info["span_dim"], info["graph_dim"]) == (14, 15)
    assert info["strategy"] == "direct"
    assert info["adapted"] == {"reason": "band classes do not span the "
                                         "target"}
    # the witness is the graph row (e_k, 0) of one generator pair
    T = kg_plane.space(U.pts)
    k = info["witness"].index("1")
    assert info["witness"][-1] == "0"
    i, j = WedgeSpace(T.dim).pairs[k]
    a, b = (T.pts[T.quotient.free[c]] for c in (i, j))
    assert {a, b} == {(1, 0), (2, -3)}
    assert abs(a[0] - b[0]) < abs(a[1] - b[1])   # spacelike
    assert (a in p1.pts) != (b in p1.pts) and (a in p2.pts) != (b in p2.pts)


def test_thin_cover_divergence_is_documented(kg_cyl, cyl):
    """Covers whose overlaps are thinner than the stencil genuinely fail
    the generator condition on the lattice; continuum open covers always
    overlap on open sets, so this is a discretization divergence, kept
    visible as an expected failure."""
    zone = region_slab(cyl, 0, 4)
    cov = column_cover(cyl, zone)
    U = region_diamond(cyl, (2, 5), (4, 5))
    v, info = generator_counit_check(kg_cyl, cov, U, localized=True)
    assert v == "fail"
    assert info["witness"]["kind"] == "kernel"


def _in_column_space(d: Mat, vec) -> bool:
    """Whether ``vec`` is a combination of the columns of ``d``: adding it
    to them leaves their rank as it is."""
    cols = dense_columns(d)
    return dense_rank(cols + [vec], d.nrows) == dense_rank(cols, d.nrows)


def _dense_coequalizer(r1: Mat, r2: Mat, q: Mat):
    """The exactness test in its first form: the dense difference r1 - r2,
    the fork checked on the dense product, then the kernel of q."""
    d = Mat([[a - b for a, b in zip(x, y)]
              for x, y in zip(r1.data, r2.data)], r1.ncols)
    if any(sum((a * b for a, b in zip(row, col)), Q0)
           for row in q.data for col in dense_columns(d)):
        raise ModelError("q does not coequalize the pair")
    kernel = q.nullspace()
    if q.ncols - len(kernel) != q.nrows:
        for y in q.transpose().nullspace():
            if any(v != 0 for v in y):
                return False, {"kind": "cokernel", "functional": y}
        return False, {"kind": "cokernel", "functional": None}
    if d.rank() == len(kernel):
        return True, None
    for k in kernel:
        if not _in_column_space(d, k):
            return False, {"kind": "kernel", "vector": k}
    return False, {"kind": "kernel", "vector": None}


def _dense_generator_check(kg, cover, U, localized=False):
    """The generator counit check in its first, dense formulation: q from
    the dense extension columns, r1 and r2 as padded dense columns of the
    piece sum, and ``_dense_coequalizer``.  Kept as the oracle of the
    column-built check."""
    verdict, info, target_pts, parts = _counit_target(
        kg, cover, U, localized, check_iso=True)
    if verdict:
        return verdict, info
    T = kg.space(target_pts)
    blocks = [dense_columns(kg.extension(p, target_pts)) for p in parts]
    offsets = list(accumulate((len(b) for b in blocks), initial=0))
    total = offsets.pop()
    q = from_dense_columns([c for b in blocks for c in b], T.dim)

    def placed(col, offset):
        out = [Q0] * total
        out[offset:offset + len(col)] = col
        return out

    r1_cols, r2_cols = [], []
    for i, j in combinations(range(len(parts)), 2):
        inter = parts[i] & parts[j]
        if not inter:
            continue
        for c1, c2 in zip(dense_columns(kg.extension(inter, parts[i])),
                          dense_columns(kg.extension(inter, parts[j]))):
            r1_cols.append(placed(c1, offsets[i]))
            r2_cols.append(placed(c2, offsets[j]))
    ok, witness = _dense_coequalizer(from_dense_columns(r1_cols, total),
                                     from_dense_columns(r2_cols, total), q)
    info.update(pieces=len(parts), target_dim=T.dim, sum_dim=total)
    if ok:
        return "pass", info
    return "fail", {**info, "witness": _jsonable_witness(witness)}


def test_generator_check_agrees_with_the_dense_oracle(plane_ctx, cyl_ctx,
                                                      kg_plane, kg_cyl,
                                                      plane, cyl):
    inputs = []
    for ctx, kg in ((plane_ctx, kg_plane), (cyl_ctx, kg_cyl)):
        for localized in (False, True):
            inputs += [(kg, cov, U, localized)
                       for cov, U in descent_instances(ctx, localized, 8)]
    # the thin-cover divergence: a kernel witness
    inputs.append((kg_cyl, column_cover(cyl, region_slab(cyl, 0, 4)),
                   region_diamond(cyl, (2, 5), (4, 5)), True))
    # the plane band covers: two halves, and the null band cover
    U = region_diamond(plane, (0, 0), (6, 0))
    for overlap in (1, 2):
        inputs.append((kg_plane, _band_cover(plane, U, overlap), U, False))
    n1 = region_points(plane, [p for p in U.pts if p[0] - p[1] <= 4])
    n2 = region_points(plane, [p for p in U.pts if p[0] - p[1] >= 2])
    inputs.append((kg_plane, Cover(U, (n1, n2)), U, False))
    seen = set()
    for kg, cov, U, localized in inputs:
        got = generator_counit_check(kg, cov, U, localized=localized)
        assert got == _dense_generator_check(kg, cov, U, localized)
        seen.add((got[0], (got[1].get("witness") or {}).get("kind")))
    assert {("pass", None), ("fail", "kernel")} <= seen


def _restricted(A, site, cover):
    """A restricted to the cover: pulled back along its cover functor.
    Every object (piece i, region k) must carry the value of region k, the
    same on every overlap copy."""
    cc = CoverCategory(site, cover)
    R = pullback_indicator(j_functor(cc), A)
    assert R.site is cc
    assert all(R.value(n) == A.value(k)
               for n, (_, k) in enumerate(cc.objects))
    return R


def test_restriction_to_a_cover_is_the_pullback(cyl):
    uni = enumerate_universe(cyl, compactness="copen", t_range=(0, 4),
                             max_height=4, cap=1600)
    site = SiteCategory(cyl, uni, "copen", localized=False)
    A = build_indicator(site, 1 << site.full, QPower(2))
    zone = region_slab(cyl, 0, 4)
    pieces = tuple(region_points(cyl, [p]) for p in sorted(zone.pts))
    cov = Cover(region_full(cyl), pieces, zone=zone)
    assert not _restricted(A, site, cov).support
    # the coarsest cover reproduces the assignment
    s03 = region_slab(cyl, 0, 3)
    sub = [r for r in uni if not r.is_full and s03.contains(r)]
    site2 = SiteCategory(cyl, sub, "rc", localized=False)
    A2 = build_indicator(site2, site2.dev_full, QPower(2))
    R2 = _restricted(A2, site2, Cover(s03, (s03,)))
    assert R2.support.bit_count() == A2.support.bit_count()


def test_prestack_failure_counts(cyl):
    uni = enumerate_universe(cyl, compactness="copen", t_range=(0, 4),
                             max_height=4, cap=1600)
    zone = region_slab(cyl, 0, 4)
    pieces = tuple(region_points(cyl, [p]) for p in sorted(zone.pts))
    cov = Cover(region_full(cyl), pieces, zone=zone)
    for comp, loc in (("copen", False), ("copen", True), ("rc", False),
                      ("rc", True)):
        objs = uni if comp == "copen" else [u for u in uni if not u.is_full]
        site = SiteCategory(cyl, objs, comp, loc)
        support = 1 << site.full if (comp, loc) == ("copen", False) else \
            site.dev_full
        r = prestack_failure_demo(site, cov, support, QPower(2))
        assert (r["global_count"], r["datum_count"]) == (4, 1)
        assert r["exhibits_failure"] and r["datum_trivial"]


def test_finer_coarser_harness(kg_plane, plane):
    U = region_diamond(plane, (0, 0), (6, 0))
    coarse = _band_cover(plane, U, overlap=2)
    fine_pieces = []
    for piece in coarse.pieces:
        a, b = piece.t_range()
        mid = (a + b) // 2
        fine_pieces.append(region_points(
            plane, [p for p in piece.pts if p[0] <= mid + 1]))
        fine_pieces.append(region_points(
            plane, [p for p in piece.pts if p[0] >= mid - 1]))
    fine = Cover(U, tuple(fine_pieces))
    for check in (generator_counit_check, relation_counit_check):
        vf, _ = check(kg_plane, fine, U)
        vc, _ = check(kg_plane, coarse, U)
        assert not (vf == "pass" and vc == "fail"), check.__name__


def test_digest_stability():
    a = make_digest({"x": 1, "y": [1, 2]})
    b = make_digest({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 16
