"""Counit checks over covers and the no-prestack demos.

A theory restricted to a cover is its pullback along the cover functor
(``nets.pullback_indicator`` along ``sites.j_functor``); its overlap copies of
one region carry one value by construction, so no cocycle needs checking.

The two counit checks reduce descent for field assignments to exact linear
algebra:

* the generator check asks the cover to present the generator space of a
  region as a coequalizer of the overlap and piece spaces;
* the relation check asks the commutation relations available from the
  pieces (same-piece pairings plus vanishing pairings between causally
  disjoint parts) to span the full pairing graph in the degree-two relation
  calculus.

When the piece relations alone do not span, a band of small diamonds
covering a two-row Cauchy slice of the region is constructed; segments are
sized so that any two that are causally related fit in a common piece, which
is the discrete counterpart of shrinking metric balls.  The strategy that
settled the verdict is recorded.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, product
from operator import mul

from .algebra import WedgeSpace
from .geometry import (LatticeSpacetime, ModelError, Region,
                       are_causally_disjoint, cauchy_development,
                       region_points)
from .kleingordon import KgContext
from .nets import build_indicator, count_nat_transforms, pullback_indicator
from .rational import (IntegerEchelon, Mat, is_exact_coequalizer,
                       primitive_integer)
from .sites import (Cover, CoverCategory, SiteCategory, SiteError,
                    j_functor, restrict_pieces)


# ---------------------------------------------------------------------------
# generator-level counit
# ---------------------------------------------------------------------------


def _counit_target(ctx: KgContext, cover: Cover, U: Region, localized: bool,
                   check_iso: bool = False):
    """The target T = U (plain) or T = D(U) (localized) of a counit check
    and the cover's parts of it, as ``(None, info, T, parts)``; or
    ``(verdict, info, None, None)`` when the check ends before any algebra.
    ``check_iso`` also asks L(U) -> L(D(U)) to be an isomorphism."""
    M = ctx.ambient
    info: dict = {"flavor": "localized" if localized else "plain"}
    if localized:
        if not cover.is_D_stable():
            raise SiteError("localized descent checks need D-stable covers")
        D = cauchy_development(M, U)
        if D.is_full and M.extent is None:
            return "skip", {**info, "reason": "development not "
                                              "materializable"}, None, None
        target_pts = D.points()
        if check_iso:
            ext = ctx.extension(U.points(), target_pts)
            iso = ext.is_iso()
            info["target_iso"] = iso
            if not iso:
                return "fail", {**info,
                                "reason": "extension into the development "
                                          "is not an isomorphism"}, None, None
    else:
        target_pts = U.points()
    parts = restrict_pieces(cover.pieces, target_pts)
    if not parts:
        return "skip", {**info, "reason": "no piece meets the region"}, \
            None, None
    return None, info, target_pts, parts


def generator_counit_check(ctx: KgContext, cover: Cover, U: Region,
                           localized: bool = False):
    """Exactness of  (+) L(P_i & P_j & T)  =>  (+) L(P_i & T)  ->  L(T)
    with T = U (plain) or T = D(U) (localized flavor).

    Every map is an extension by zero, read off by ``KgContext.extension``.
    Returns (verdict, info) with verdict in pass/fail/skip.
    """
    verdict, info, target_pts, parts = _counit_target(
        ctx, cover, U, localized, check_iso=True)
    if verdict:
        return verdict, info
    T = ctx.space(target_pts)
    exts = [ctx.extension(p, target_pts) for p in parts]
    offsets = list(accumulate((e.ncols for e in exts), initial=0))
    total = offsets.pop()
    q = Mat.from_columns([c for e in exts for c in e.columns()], T.dim)
    # d = r1 - r2: each overlap class, placed in part i minus in part j
    dcols = []
    for i, j in combinations(range(len(parts)), 2):
        inter = parts[i] & parts[j]
        if not inter:
            continue
        for c1, c2 in zip(ctx.extension(inter, parts[i]).columns(),
                          ctx.extension(inter, parts[j]).columns()):
            col = {offsets[i] + r: v for r, v in c1.items()}
            col.update((offsets[j] + r, -v) for r, v in c2.items())
            dcols.append(col)
    ok, witness = is_exact_coequalizer(Mat.from_columns(dcols, total), q)
    info.update(pieces=len(parts), target_dim=T.dim, sum_dim=total)
    if ok:
        return "pass", info
    return "fail", {**info, "witness": _jsonable_witness(witness)}


def _jsonable_witness(w):
    if w is None:
        return None
    out = {"kind": w["kind"]}
    vec = w.get("vector") or w.get("functional")
    if vec is not None:
        out["vector"] = [str(v) for v in vec]
    return out


# ---------------------------------------------------------------------------
# adapted band covers
# ---------------------------------------------------------------------------


def build_adapted_cover(ctx: KgContext, target_pts: frozenset,
                        parts: list):
    """Small band segments covering a two-row slice of the target.

    Segments around each band column are sized by the discrete
    ball-shrinking rule (half-width r qualifies when the 3r+1 neighborhood
    fits in one piece) and then stretched along the target's ragged edge so
    the slice is covered completely.  Three facts are verified before the
    family is returned: every segment sits inside a piece, two causally
    related segments always share a piece, and the segment classes span the
    target generator space.  Returns (segments, info), or (None, info).
    """
    M = ctx.ambient
    rows = sorted({t for (t, _) in target_pts})
    best_reason = "no admissible two-row band"
    for tstar in rows[:-1]:
        cols = sorted({x for (t, x) in target_pts if t == tstar
                       and (tstar + 1, x) in target_pts})
        if not cols:
            continue
        segs = {}
        ok = True
        for x in cols:
            r = None
            for cand in range(len(cols) + 1):
                probe = _segment(M, tstar, x, 3 * cand + 1, target_pts)
                if probe is None or not any(probe <= p for p in parts):
                    break
                r = cand
            if r is None:
                ok = False
                break
            segs[x] = _segment(M, tstar, x, r, target_pts)
        if not ok:
            best_reason = "a band column fits no piece"
            continue
        band_pts = frozenset(p for p in target_pts
                             if p[0] in (tstar, tstar + 1))
        covered = frozenset().union(*segs.values())
        for q in sorted(band_pts - covered):
            hosted = False
            for x in sorted(cols, key=lambda c: (M.xdist(c, q[1]), c)):
                cand = segs[x] | {q}
                if any(cand <= p for p in parts):
                    segs[x] = frozenset(cand)
                    hosted = True
                    break
            if not hosted:
                ok = False
                break
        if not ok:
            best_reason = "a band edge point fits no piece"
            continue
        segments = [segs[x] for x in cols]
        regions = [region_points(M, seg) for seg in segments]
        for i in range(len(segments)):
            if not ok:
                break
            for j in range(i + 1, len(segments)):
                if are_causally_disjoint(M, regions[i], regions[j]):
                    continue
                if not any((segments[i] | segments[j]) <= p
                           for p in parts):
                    ok = False
                    break
        if not ok:
            best_reason = "union property failed"
            continue
        T = ctx.space(target_pts)
        # the rank of the segment classes' images, one row per class
        image = Mat.from_columns([c for seg in segments for c in
                                  ctx.extension(seg, target_pts).columns()],
                                 T.dim).transpose()
        if image.rank() != T.dim:
            best_reason = "band classes do not span the target"
            continue
        return segments, {"band_row": tstar, "segments": len(segments)}
    return None, {"reason": best_reason}


def _segment(M: LatticeSpacetime, tstar: int, x: int, halfwidth: int,
             target_pts: frozenset):
    """Two-row band segment clipped to the target; the union property is
    re-verified explicitly afterwards, so clipping at the target's edge is
    sound."""
    pts = set()
    for t in (tstar, tstar + 1):
        for dx in range(-halfwidth, halfwidth + 1):
            p = M.norm_point((t, x + dx))
            if p in target_pts:
                pts.add(p)
    if (tstar, M.norm_x(x)) not in pts or \
            (tstar + 1, M.norm_x(x)) not in pts:
        return None
    return frozenset(pts)


# ---------------------------------------------------------------------------
# relation-level counit
# ---------------------------------------------------------------------------


def relation_counit_check(ctx: KgContext, cover: Cover, U: Region,
                          localized: bool = False,
                          include_perp: bool = True):
    """Span equality between the piece-wise relations and the full pairing
    graph on the target generator space.

    Same-piece pairs contribute their pairing relations; causally disjoint
    parts contribute vanishing-pairing relations (withheld when
    ``include_perp`` is false, the engineered negative control).  If the
    direct span falls short, relations from an adapted band cover are added.

    Every relation (u wedge v, -sigma(u, v)) lies on the pairing graph
    {(w, -sigma(w))}: a same-piece relation by construction, a vanishing one
    because sigma(u, v) = 0 is verified for it.  The graph projects one to
    one onto its wedge part, so the span is always consistent, and it equals
    the graph exactly when its wedge parts have rank d(d-1)/2.  That rank is
    found over the integers, from primitive integer multiples of the image
    basis vectors, which span the same relations.
    """
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


# ---------------------------------------------------------------------------
# prestack failure demonstrations
# ---------------------------------------------------------------------------


def prestack_failure_demo(site: SiteCategory, cover: Cover, support: int,
                          A) -> dict:
    """Counts the natural endomorphisms of the indicator theory on
    ``support`` with algebra ``A``, on the site versus on the cover
    category, where the theory is pulled back along the cover functor; a
    mismatch exhibits failure of fullness for that functor."""
    th = build_indicator(site, support, A)
    global_count = count_nat_transforms(th, th)
    local = pullback_indicator(j_functor(CoverCategory(site, cover)), th)
    local_count = count_nat_transforms(local, local)
    return {"global_count": global_count, "datum_count": local_count,
            "datum_trivial": not local.support,
            "exhibits_failure": global_count != local_count}

