from itertools import chain, combinations, product
from operator import mul

import pytest

from latticehk.algebra import WedgeSpace
from latticehk.checks import RunContext
from latticehk.descent import _counit_target, build_adapted_cover
from latticehk.geometry import (GeometryError, LatticeSpacetime, ModelError,
                                _Grid, _checked,
                                _in_extent, _meet, _moved,
                                are_causally_disjoint, region_diamond,
                                region_full, region_points, region_slab,
                                set_bits)
from latticehk.kleingordon import KgContext, apply_P, field_clean, propagator
from latticehk.rational import (IntegerEchelon, Mat, Q0, Q1, QQ,
                                primitive_integer)
from latticehk.sites import SiteError, base_points


@pytest.fixture(scope="session")
def plane():
    return LatticeSpacetime("plane", (-14, 16))


@pytest.fixture(scope="session")
def cyl():
    return LatticeSpacetime("cylinder", (-14, 16), 6)


@pytest.fixture(scope="session")
def plane_ctx(plane):
    return RunContext(M=plane, seed=7,
                      universe_cfg={"compactness": "rc", "t_range": [0, 4],
                                    "x_range": [-2, 4], "max_height": 4,
                                    "cap": 1600},
                      aqft_cfg={"mass2": "1/4"})


@pytest.fixture(scope="session")
def cyl_ctx(cyl):
    return RunContext(M=cyl, seed=7,
                      universe_cfg={"compactness": "rc", "t_range": [0, 4],
                                    "max_height": 4, "cap": 1600},
                      aqft_cfg={"mass2": "1/4"})


@pytest.fixture(scope="session")
def kg_plane(plane):
    return KgContext(plane, QQ(1, 4))


@pytest.fixture(scope="session")
def kg_cyl(cyl):
    return KgContext(cyl, QQ(1, 4))


def propagator_pairing(cfg, phi: dict, psi: dict):
    """sigma(phi, psi) = sum phi * (G psi), with G psi solved by one
    propagator call on the rows of phi: the reference for the pairing read
    off the Green kernel."""
    phi, psi = field_clean(phi), field_clean(psi)
    if not phi or not psi:
        return Q0
    ts = [t for (t, _) in phi]
    g = propagator(cfg, psi, min(ts), max(ts))
    return sum((v * g.get(p, Q0) for p, v in phi.items()), Q0)


def dense_apply(m: Mat, vec) -> tuple:
    """The image of the dense vector ``vec`` under ``m``, summed over the
    dense rows: the reference for a map read off its sparse columns."""
    if len(vec) != m.ncols:
        raise ValueError("vector length mismatch")
    return tuple(sum((a * v for a, v in zip(row, vec)), Q0)
                 for row in m.data)


def dense_columns(m: Mat) -> list[tuple]:
    """The columns of ``m`` as dense tuples."""
    return [tuple(row[j] for row in m.data) for j in range(m.ncols)]


def from_dense_columns(cols, nrows: int) -> Mat:
    """The matrix whose columns are the dense sequences ``cols``."""
    return Mat([[col[i] for col in cols] for i in range(nrows)], len(cols))


def dense_rank(rows, ncols: int) -> int:
    """The rank of the dense rows of length ``ncols``, by Gaussian
    elimination over Fractions: the reference for the integer elimination
    behind ``Mat.rank``."""
    rows = [[QQ(v) for v in r] for r in rows]
    rank = 0
    for c in range(ncols):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def row_space(rows, ncols: int) -> Mat:
    """Reduced row basis of the span of the given vectors."""
    return Mat(list(rows), ncols).rref()[0]


def span_consistent(span: Mat) -> bool:
    """Whether the row space holds no (0, c) with c nonzero: dropping the
    scalar (last) column keeps the rank.  The reference for
    ``algebra.consistency_check``, which reads the echelon's pivots."""
    wedge_part = Mat.from_columns(span.columns()[:-1], span.nrows)
    return wedge_part.rank() == span.rank()


def dense_reduce(q, vec) -> tuple:
    """The quotient coordinates of the dense vector ``vec``, reduced
    against the relation rows of ``q`` one pivot at a time."""
    v = [QQ(a) for a in vec]
    for row, pc in zip(q.sub_rref.data, q.pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v[c] for c in q.free)


def two_elimination_relations(cfg, pts) -> tuple[Mat, tuple[int, ...]]:
    """The reduced relations of the generator space L(pts) and their pivots,
    by two eliminations: the kernel of the outside constraint (each chi
    whose P chi has no entry outside the points), P applied again to each
    kernel vector, and the reduced row echelon form of those images.  The
    reference that the one-elimination build of ``KgSpace`` must
    reproduce."""
    pts = tuple(sorted(pts))
    n = len(pts)
    images = [apply_P(cfg, {p: Q1}) for p in pts]
    outside = sorted({q for img in images for q in img} - set(pts))
    constraint = Mat([[img.get(q, Q0) for img in images] for q in outside],
                     n)
    rows = []
    for chi in constraint.nullspace():
        img = apply_P(cfg, {p: c for p, c in zip(pts, chi) if c})
        assert set(img) <= set(pts), "a relation escapes the region"
        rows.append([img.get(p, Q0) for p in pts])
    return Mat(rows, n).rref()


def dense_relation_check(ctx, cover, U, localized=False,
                         include_perp=True):
    """The relation counit check with every same-piece and perp wedge
    reduced as a dense integer row of length d(d-1)/2 by one
    ``IntegerEchelon`` over all pairs: the reference that the check on
    covered pairs plus the residual elimination must reproduce, verdict,
    ``span_dim`` and witness included."""
    verdict, info, target_pts, parts = _counit_target(ctx, cover, U,
                                                      localized)
    if verdict:
        return verdict, info
    M = ctx.ambient
    T = ctx.space(target_pts)
    wedge = WedgeSpace(T.dim)
    graph = wedge.graph_of(T.sigma_reduced())
    sigma = [-x for x in primitive_integer(graph.columns()[-1], graph.nrows)]
    span = IntegerEchelon(graph.nrows)
    bases: dict = {}
    region_of: dict = {}

    def image_basis(pts):
        if pts not in bases:
            bases[pts] = [primitive_integer(c, T.dim) for c in
                          ctx.extension(pts, target_pts).columns()]
        return bases[pts]

    def region(pts):
        if pts not in region_of:
            region_of[pts] = region_points(M, pts)
        return region_of[pts]

    def add_same_piece(regions):
        for pts in regions:
            cols = image_basis(pts)
            for i, u in enumerate(cols):
                for v in cols[i + 1:]:
                    span.add(wedge.wedge(u, v))

    def add_perp(region_pairs):
        for a, b in region_pairs:
            if not are_causally_disjoint(M, region(a), region(b)):
                continue
            for u in image_basis(a):
                for v in image_basis(b):
                    w = wedge.wedge(u, v)
                    if sum(map(mul, w, sigma)):
                        raise ModelError("pairing fails causal support")
                    span.add(w)

    add_same_piece(parts)
    if include_perp:
        add_perp(combinations(parts, 2))
    strategy = "direct"
    if span.rank < graph.nrows and include_perp:
        segments, ad_info = build_adapted_cover(ctx, target_pts, parts)
        info["adapted"] = ad_info
        if segments is not None:
            add_same_piece(segments)
            add_perp(chain(combinations(segments, 2),
                           product(segments, parts)))
            strategy = "adapted"
    info.update(strategy=strategy, span_dim=span.rank,
                graph_dim=graph.nrows, consistent=True)
    if span.rank == graph.nrows:
        return "pass", info
    # the first graph row off the span: the first pair whose e_k is missing
    missing = next(k for k in range(graph.nrows) if not span.contains(
        [int(t == k) for t in range(graph.nrows)]))
    return "fail", {**info, "witness": [str(v) for v in graph.data[missing]]}


def _dense_matmul(a: Mat, b: Mat) -> Mat:
    """The row-by-column product over the dense rows: the reference that
    the sparse column product ``Mat.__matmul__`` must reproduce."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    cols = dense_columns(b)
    return Mat([[sum((x * col[k] for k, x in enumerate(row)
                      if x and col[k]), Q0) for col in cols]
                for row in a.data], b.ncols)


@pytest.fixture(scope="session")
def dense_matmul():
    return _dense_matmul


def full_band_development(M, U, t0, t1):
    """Cauchy development of U on rows t0..t1, by escape sweeps over every
    row of a grid as wide as the band is tall on each side of U: the
    reference that the sweep over the rows a development changes must
    reproduce."""
    g = _Grid(M, t0, t1, U)
    umask, inside = g.rows(U), [g.full] * g.nrows
    up = g.escapes(umask, True, inside)
    below = U.t0 - g.t0 - 1
    if below < 0:
        raise ModelError("grid does not pad below the blocker")
    if not up[below]:  # no site of the row below U escapes
        if M.kind == "plane":
            raise ModelError("finite set cannot block the plane")
        return region_full(M)
    down = g.escapes(umask, False, inside)
    return g.trim([u | (g.full & ~(a & b))
                   for u, a, b in zip(umask, up, down)])


def general_apply_embedding(f, U):
    """The image of U by the path every embedding takes: the domain test,
    the moved rows and the whole-target test.  The reference that the
    direct move between unbounded spacetimes must reproduce."""
    if U.is_full:
        out = f.image()
    elif not region_full(f.source).contains(U):
        raise GeometryError("region leaves the embedding's domain")
    else:
        out = _moved(f, U)
    full = region_full(f.target)
    return full if out.contains(full) else out


def grid_strict_diamond(M, bottom, top):
    """I+(bottom) & I-(top) by two strict cone sweeps on a grid of its own
    rows, clipped to a bounded extent: the reference that the diamond of
    the inner tips must reproduce wherever those tips lie in the extent."""
    bottom, top = M.norm_point(bottom), M.norm_point(top)
    t0, t1 = bottom[0], top[0]
    if t1 - t0 < 2:
        raise GeometryError("strict diamond needs time separation >= 2")
    # the grid is padded around the tips' columns
    tips = region_points(M.unbounded().with_window(t0, t1), [bottom, top])
    g = _Grid(M, t0, t1, tips)
    # each strict cone shifts the other end off the grid
    ends = [0] * g.nrows
    ends[0], ends[-1] = 1 << bottom[1] - g.x0, 1 << top[1] - g.x0
    rows = _meet(g.cone(ends, True, strict=True),
                 g.cone(ends, False, strict=True))
    if not any(rows):
        raise GeometryError("empty strict diamond")
    rows = _in_extent(M, g, rows)
    if not any(rows):
        raise GeometryError("strict diamond misses the bounded extent")
    return _checked(M, g.trim(rows))


def scanned_universe(M, *, compactness="rc", x_range=None, t_range=None,
                     max_height=None, diamonds=True, strict_diamonds=True,
                     min_slab_height=1, cap=500):
    """The universe by a scan over each base point's candidate tops up to
    ``max_height`` (or the window's span) rows above it, with the grid
    strict diamonds: the reference that the causal-pair loop of
    ``enumerate_universe`` must reproduce, cap refusal included."""
    pts = base_points(M, x_range, t_range)
    ptset = set(pts)
    out = set()
    hmax = max_height if max_height is not None else (M.window[1] -
                                                      M.window[0])

    def admit(r):
        if M.extent is not None and r.contains(region_full(M)):
            return
        out.add(r)
        if len(out) > cap:
            raise SiteError(f"universe exceeds cap {cap}; raise universe.cap "
                            "or narrow universe.t_range, universe.x_range "
                            "or universe.max_height")

    if diamonds:
        for (t0, x0) in pts:
            for dt in range(0, hmax + 1):
                for x1 in range(x0 - dt, x0 + dt + 1):
                    q = M.norm_point((t0 + dt, x1))
                    if q not in ptset or M.xdist(x1, x0) > dt:
                        continue
                    try:
                        admit(region_diamond(M, (t0, x0), q))
                    except GeometryError:
                        continue
                    if strict_diamonds and dt >= 2:
                        try:
                            admit(grid_strict_diamond(M, (t0, x0), q))
                        except GeometryError:
                            pass
    if M.kind == "cylinder" and M.extent is None:
        t_lo, t_hi = t_range if t_range is not None else M.window
        for a in range(t_lo, t_hi + 1):
            for b in range(a + min_slab_height - 1,
                           min(a + hmax, t_hi) + 1):
                admit(region_slab(M, a, b))
    if compactness == "copen":
        out.add(region_full(M))
    return sorted(out, key=lambda r: r.sort_key())


def fixpoint_closure(masks):
    """Reflexive-transitive closure of a relation given as bitmask rows, by
    full rounds until no row changes: the reference that the flood-fill
    closure must reproduce."""
    n = len(masks)
    out = [m | (1 << i) for i, m in enumerate(masks)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = out[i]
            for j in set_bits(acc):
                acc |= out[j]
            if acc != out[i]:
                out[i] = acc
                changed = True
    return out


def union_find_components(nodes, edges):
    """The weakly connected components of a directed graph on ``nodes`` by
    union-find, each listed in the order of ``nodes`` and ordered by its
    first node: the reference of the flood-fill components."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict = {}
    for v in nodes:
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())
