"""The instances the checks run on: seeded regions, covers and embedding
families.  A drawer consumes the random source it is given, in a fixed
order; the families that read the scenario take the run context."""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from .geometry import (LatticeEmbedding, LatticeSpacetime, Region,
                       bounded_spacetime, cauchy_development, hull,
                       is_causally_convex, is_D_stable, region_diamond,
                       region_full, region_points, region_strict_diamond)
from .sites import Cover, SiteCategory, SiteError, causal_pairs

if TYPE_CHECKING:
    from .checks import RunContext


def exhaustive_diamonds(M: LatticeSpacetime, zone) -> list[Region]:
    """The distinct diamonds of pairs of ``zone``, first found first."""
    return list(dict.fromkeys(region_diamond(M, p, q)
                              for p, q in causal_pairs(M, zone)))


def draw_points(rng, zone: list, lo: int, hi: int) -> list:
    """``rng.sample(zone, rng.randint(lo, hi))``: between ``lo`` and ``hi``
    distinct points of ``zone``.  A zone of fewer than ``hi`` points is a
    configuration error whatever the count drawn, so that whether a scenario
    runs does not depend on its seed (docs/decisions.md, "A zone too small
    to draw from")."""
    if len(zone) < hi:
        raise SiteError(f"a draw takes up to {hi} points of the zone, which "
                        f"holds {len(zone)}; widen t_range or x_range")
    return rng.sample(zone, rng.randint(lo, hi))


def draw_hull(M: LatticeSpacetime, rng, zone: list, lo: int, hi: int):
    """The hull of ``draw_points(rng, zone, lo, hi)``."""
    return hull(M, region_points(M, draw_points(rng, zone, lo, hi)))


def draw_half(M: LatticeSpacetime, rng, U: Region) -> Region:
    """A random half of ``U``: ``len(U.pts) // 2`` of its points, and at
    least one, sampled from their sorted list."""
    return region_points(M, rng.sample(U.listed, max(1, len(U.pts) // 2)))


def seeded_hulls(M: LatticeSpacetime, zone, rng, count):
    return [draw_hull(M, rng, zone, 1, 4) for _ in range(count)]


def largest_first(site: SiteCategory, min_height: int = 0) -> list[Region]:
    """The explicit objects of ``site`` whose last row is at least
    ``min_height`` rows after their first, largest first."""
    return sorted((r for r in site.objects if not r.is_full and
                   r.t_range()[1] - r.t_range()[0] >= min_height),
                  key=lambda r: -len(r.pts))


def halves(M, pts, mid: int, overlap: int) -> tuple[Region, Region]:
    """The points of ``pts`` at or below row ``mid + overlap`` and those at
    or above row ``mid - overlap``."""
    return (region_points(M, [p for p in pts if p[0] <= mid + overlap]),
            region_points(M, [p for p in pts if p[0] >= mid - overlap]))


def band_covers(M, U: Region, overlap=2):
    """Time-band covers of an explicit region with the given overlap."""
    t0, t1 = U.t_range()
    if t1 - t0 < 2:
        return []
    return [Cover(U, halves(M, U.pts, (t0 + t1) // 2, overlap))]


def refine_by_halves(M, cov: Cover) -> tuple[Cover, dict]:
    """The cover whose pieces are the halves (overlap one) of the pieces of
    ``cov`` spanning three rows or more, and the others unchanged, with the
    map from its pieces to the pieces of ``cov`` they refine."""
    pieces, alpha = [], {}
    for i, piece in enumerate(cov.pieces):
        a, b = piece.t_range()
        for sub in ((piece,) if b - a < 2 else
                    halves(M, piece.pts, (a + b) // 2, 1)):
            alpha[len(pieces)] = i
            pieces.append(sub)
    return Cover(cov.base, tuple(pieces), zone=cov.zone), alpha


def point_cover(M, zone: Region) -> Cover:
    """The cover of the whole spacetime by the single points of ``zone``."""
    return Cover(region_full(M),
                 tuple(region_points(M, [p]) for p in zone.listed),
                 zone=zone)


def column_cover(M, zone_slab: Region, step=1):
    """D-stable cover of a cylinder zone by two-row columns."""
    t0, t1 = zone_slab.t_range()
    rows = sorted(set(range(t0, t1, max(1, step))) | {t1 - 1})
    pieces = []
    for t in rows:
        for x in range(M.circumference):
            pieces.append(region_points(M, [(t, x), (t + 1, x)]))
    return Cover(region_full(M), tuple(pieces), zone=zone_slab)


def tall_diamond_cover(M, zone_slab: Region, height=4):
    """Cover of a cylinder zone by strict diamonds around every site, wide
    enough at the waist for the adapted band construction.  It is D-stable
    unless a waist closes around the circle."""
    t0, t1 = zone_slab.t_range()
    pieces = []
    for t in range(t0, t1 + 1):
        for x in range(M.circumference):
            pieces.append(region_strict_diamond(
                M, (t - height // 2 - 1, x), (t + height // 2 + 1, x)))
    return Cover(region_full(M), tuple(pieces), zone=zone_slab)


def translation_embeddings(ctx: RunContext, count: int = 12):
    """Unbounded translations/rotations: embeddings whose source causal
    structure is exactly the ambient one (the faithful lattice models of
    spacetime morphisms).  Each targets a fresh twin of the spacetime, equal
    to it but with an empty memo, so a development taken on the target is
    swept at the image's own position, not moved there from the memo.

    A twin equals the spacetime, so a cache keyed by it does not tell them
    apart: ``RunContext.site_over`` keys a site by its object set, and a
    translation whose images form an already built object set reuses that
    site, built on the spacetime or on an earlier translation's twin.  Of
    the first 12 shifts on a cylinder whose universe is rotation invariant,
    only the 6 new time shifts build a target site (docs/decisions.md, "The
    site cache lives on the run context")."""
    M = ctx.M
    shifts = [(0, 0), (1, 0), (0, 1), (2, -1), (1, 2), (3, 1), (-1, 1),
              (2, 2), (-2, 0), (1, -2), (4, 0), (0, -1), (3, -2), (2, 1)]
    return [LatticeEmbedding(M, M.with_window(*M.window), dt, dx)
            for (dt, dx) in shifts[:count]]


def diamond_source(M: LatticeSpacetime) -> LatticeSpacetime:
    """The bounded sub-lattice over the diamond from (0, 0) to (4, 0) of the
    plane, or to (3, 1) of a cylinder."""
    top = (4, 0) if M.kind == "plane" else (3, 1)
    return bounded_spacetime(M.unbounded(),
                             region_diamond(M, (0, 0), top).pts)


def bounded_embeddings(ctx: RunContext):
    """Sub-lattice inclusions and wraps.  Their intrinsic path structure has
    a reflecting boundary, so developments computed inside them only bound
    the ambient ones from above; the checks below assert exactly that."""
    M = ctx.M
    sub = diamond_source(M)
    if M.kind == "plane":
        # the diamond itself and a translate of it
        return [LatticeEmbedding(sub, M, 0, 0), LatticeEmbedding(sub, M, 1, 2)]
    P = LatticeSpacetime("plane", M.window)
    strip = hull(P, region_points(
        P, [(t, x) for t in range(0, 3)
            for x in range(0, max(2, M.circumference - 3))]))
    # a plane strip wrapped onto the cylinder, and the diamond
    return [LatticeEmbedding(bounded_spacetime(P, strip.pts), M, 0, 1),
            LatticeEmbedding(sub, M, 1, 0)]


def covers_for_site(ctx: RunContext, site: SiteCategory, localized: bool,
                    count: int):
    """A deterministic family of covers suitable for the flavor."""
    M = ctx.M
    out = []
    candidates = largest_first(site)
    if not localized:
        for U in candidates[: 3 * count]:
            out.extend(band_covers(M, U))
            if len(out) >= count:
                break
    elif M.kind == "cylinder":
        zone = ctx.zone()
        for step in (1, 2):
            out.append(column_cover(M, zone, step))
        out.append(tall_diamond_cover(M, zone))
    else:
        for U in candidates[: 2 * count]:
            cov = diamond_cover_of_diamond(M, U)
            if cov is not None:
                out.append(cov)
            if len(out) >= count:
                break
    return out[:count]


def diamond_cover_of_diamond(M, U: Region):
    """Cover a straight diamond by the maximal straight sub-diamonds over
    each spatial offset; all pieces are D-stable and overlap thickly."""
    t0, t1 = U.t_range()
    if t1 - t0 < 3:
        return None
    bots = sorted(p for p in U.pts if p[0] == t0)
    tops = sorted(p for p in U.pts if p[0] == t1)
    if len(bots) != 1 or len(tops) != 1 or bots[0][1] != tops[0][1]:
        return None
    x0 = bots[0][1]
    h = t1 - t0
    pieces = []
    for d in range(-(h // 2), h // 2 + 1):
        a, b = t0 + abs(d), t1 - abs(d)
        if b - a < 1:
            continue
        pieces.append(region_diamond(M, (a, x0 + d), (b, x0 + d)))
    union = frozenset().union(*[p.pts for p in pieces])
    if union != U.pts:
        return None
    for p in pieces:
        if not is_D_stable(M, p):
            return None
    return Cover(U, tuple(pieces))


def null_band_cover(M, U: Region):
    """Two causally convex null-band pieces of a plane region; their seams
    exercise the adapted band strategy in the relation check."""
    if M.kind != "plane":
        return None
    us = sorted(t - x for (t, x) in U.pts)
    lo, hi = us[0], us[-1]
    if hi - lo < 4:
        return None
    cut = (lo + hi) // 2
    p1 = region_points(M, [p for p in U.pts if p[0] - p[1] <= cut + 1])
    p2 = region_points(M, [p for p in U.pts if p[0] - p[1] >= cut - 1])
    if not (is_causally_convex(M, p1) and is_causally_convex(M, p2)):
        return None
    return Cover(U, (p1, p2))


def descent_instances(ctx: RunContext, localized: bool, count: int):
    """The first ``count`` (cover, U) instances for the counit checks."""
    return list(islice(descent_candidates(ctx, localized), max(count, 0)))


def descent_candidates(ctx: RunContext, localized: bool):
    """(cover, U) candidates for the counit checks, in a fixed order.

    Covers are chosen with overlaps at least as thick as the field stencil,
    the lattice counterpart of honest open covers; coarser families with
    point-thin overlaps genuinely violate descent on the lattice and are
    exercised separately as documented divergences.
    """
    M = ctx.M
    if not localized:
        for U in largest_first(ctx.site(compactness="rc"), 2):
            covers = band_covers(M, U, overlap=1) + \
                band_covers(M, U, overlap=2)
            nb = null_band_cover(M, U)
            if nb is not None:
                covers.append(nb)
            for cov in covers:
                yield cov, U
    elif M.kind == "cylinder":
        zone = ctx.zone()
        t0, t1 = ctx.t_range
        targets = []
        for t in range(t0, t1 - 1):
            for x in range(M.circumference):
                targets.append(region_points(M, [(t, x), (t + 1, x)]))
                targets.append(region_diamond(M, (t, x), (t + 2, x)))
        ctx.rng("descent-instances").shuffle(targets)
        for h in (2, 4):
            cov = tall_diamond_cover(M, zone, height=h)
            # on a narrow cylinder a tall diamond's waist closes around the
            # circle, so it develops to everything and is not D-stable
            if not cov.is_D_stable():
                continue
            for U in targets:
                if not cauchy_development(M, U).is_full:
                    yield cov, U
    else:
        for U in largest_first(ctx.site(compactness="rc")):
            cov = diamond_cover_of_diamond(M, U)
            if cov is not None:
                yield cov, U
