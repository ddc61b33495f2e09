"""Thin orthogonal categories of lattice regions, covers and cover categories.

A site is carried as a finite materialized universe of causally convex
regions together with intensional rules: the plain morphism rule is subset
inclusion, the localized rule is ``U -> V`` iff ``U`` is contained in the
Cauchy development of ``V``, and two morphisms into a common target are
orthogonal iff their sources are causally disjoint in the ambient spacetime.

The category attached to a cover is built from its generators-and-relations
presentation (per-piece morphisms plus overlap identifications) as a
reachability closure, and the simplified one-morphism description is a
verified property of the build, not an assumption.

Relations are bitset rows: bit ``j`` of row ``i`` relates object ``i`` to
object ``j``.  A site lays its objects over one grid
(:func:`~latticehk.geometry.flat_grid`) and indexes their points by their
place in it.  A point's column mask holds the objects (or the developments)
that hold the point, and the hom rows are ANDs of column masks.  Causal
cones are swept once per point that an object holds, never per object: a
region's cones are the ORs of its points' cones, which decide its causal
convexity, and its disjoint row holds the explicit objects that none of
its points' cones meet.  ``within`` drops the columns of the points outside
a region.  Functor properties pull target rows back along the object map
and compare whole ints; orthogonality is read only where the two disjoint
rows differ.  The rules above (``contains`` on regions and developments,
``are_causally_disjoint``) stay the definition and are the test oracle for
the rows.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .geometry import (LatticeSpacetime, Point, Region,
                       cauchy_development, find_D_stable_neighborhood,
                       flat_grid, hull, is_causally_convex, is_D_stable,
                       region_diamond, region_full, region_points,
                       region_slab, region_strict_diamond, set_bits,
                       flood_fill, transposed,
                       LatticeEmbedding, apply_embedding, preimage_region)


class SiteError(Exception):
    """Invalid site, cover or functor construction."""


def _closure(*rows) -> list[int]:
    """Reflexive-transitive closure of the union of relations given as
    bitset rows: row ``i`` is the flood fill from ``i``."""
    return [flood_fill(1 << i, *rows) for i in range(len(rows[0]))]


class _Thin:
    """What a site and a cover category share: objects keyed ``0..n-1``
    and the bitset rows ``hom`` and ``disjoint``."""

    def object_keys(self):
        return range(len(self.objects))


class SiteCategory(_Thin):
    """A finite thin orthogonal category of regions.

    flavor: ``compactness`` in {"rc", "copen"} (whether the symbolic full
    region is admitted) x ``localized`` (which morphism rule applies).

    Rows are bitsets over the object indices: bit ``j`` of ``hom[i]`` is the
    morphism ``i -> j``.  ``plain_hom``, ``local_hom``, ``cauchy`` and
    ``disjoint`` do not depend on the morphism rule and are shared, as
    tuples, with the :meth:`relocalized` twin.  So are ``full``, the key
    of the full object (``None`` when the site has none), and ``dev_full``,
    the mask of the objects whose Cauchy development is the whole
    spacetime.
    """

    def __init__(self, M: LatticeSpacetime, universe: Iterable[Region],
                 compactness: str = "rc", localized: bool = False):
        if compactness not in ("rc", "copen"):
            raise SiteError("compactness must be 'rc' or 'copen'")
        objs = sorted(set(universe), key=lambda r: r.sort_key())
        if not objs:
            raise SiteError("empty universe")
        for r in objs:
            if r.ambient != M:
                raise SiteError("universe region with foreign ambient")
            if r.is_full and compactness == "rc":
                raise SiteError("full region is not relatively compact")
        self.M = M
        self.compactness = compactness
        self.localized = localized
        self.objects: tuple[Region, ...] = tuple(objs)
        self.index = {r: k for k, r in enumerate(self.objects)}
        self.full = self.index.get(region_full(M))
        # object k's points are the grid positions own[k], None for the
        # full region of an unbounded spacetime; the column mask of a
        # position is the objects that hold it
        self._flat, masks, cones = flat_grid(M, objs)
        own = [None if m is None else list(set_bits(m)) for m in masks]
        self._cols, every = self._columns(own)
        self._placed = (1 << len(objs)) - 1 & ~every
        # a region's cones are the ORs of its points' cones; first, so that
        # no region is developed before its convexity holds
        reach = self._reach(cones)
        explicit, near = 0, []
        for k, (r, m, pos) in enumerate(zip(objs, masks, own)):
            if r.is_full:
                near.append(-1)  # the full region meets every object
                continue
            explicit |= 1 << k
            fut = past = row = 0
            for b in pos:
                f, p = cones[b]
                fut |= f
                past |= p
                row |= reach[b]
            if fut & past != m:
                raise SiteError(f"universe region not causally convex: {r}")
            near.append(row)
        self.disjoint = tuple(explicit & ~row for row in near)
        self.plain_hom = self._containing(self._cols, every, own)
        # developments are needed only here, so the site does not keep them
        dev = [cauchy_development(M, r) for r in objs]
        dev_pos = [p if d == r else None if d.is_full else
                   list(set_bits(self._flat(d)))
                   for p, d, r in zip(own, dev, objs)]
        self.local_hom = self._containing(*self._columns(dev_pos), own)
        self.dev_full = sum(1 << j for j, d in enumerate(dev) if d.is_full)
        same_dev: dict[Region, int] = {}
        for j, d in enumerate(dev):
            same_dev[d] = same_dev.get(d, 0) | 1 << j
        self.cauchy = tuple(row & same_dev[d]
                            for row, d in zip(self.plain_hom, dev))
        self.hom = self.local_hom if localized else self.plain_hom
        self._twin: Optional[SiteCategory] = None

    @staticmethod
    def _columns(holders) -> tuple[dict[int, int], int]:
        """Each grid position's column mask, the holders that hold it, and
        the mask of the holders that hold every point.  A holder is its
        grid positions, ``None`` for a full region; its points off the grid
        belong to no object."""
        every = 0
        cols: dict[int, int] = {}
        for j, held in enumerate(holders):
            if held is None:
                every |= 1 << j
            for b in held or ():
                cols[b] = cols.get(b, 0) | 1 << j
        return cols, every

    @staticmethod
    def _containing(cols, every, own) -> tuple[int, ...]:
        """Row ``i`` holds the holders that contain object ``i``: the AND,
        over the grid positions ``own[i]`` of object ``i``, of each
        position's column mask."""
        rows = []
        for pos in own:
            # only a full region holds the full one, which has no positions
            row = 0 if pos is None else -1
            for b in pos or ():
                row &= cols.get(b, 0)
            rows.append(row | every)
        return tuple(rows)

    def _reach(self, cones) -> dict[int, int]:
        """Each grid position's reach: the objects its causal cones meet."""
        cols = self._cols
        reach = {}
        for b, (fut, past) in cones.items():
            near = 0
            for c in set_bits(fut | past):
                near |= cols.get(c, 0)
            reach[b] = near
        return reach

    def region_of(self, k) -> Region:
        return self.objects[k]

    @functools.cached_property
    def inside(self) -> tuple[int, ...]:
        """Row ``j`` holds the objects contained in object ``j``: the
        transpose of ``plain_hom``, equal to ``within(region_of(j))``.  It
        transposes ``plain_hom`` only, never ``hom``, because the
        :meth:`relocalized` twin copies this site's attributes."""
        return transposed(self.plain_hom, (1 << len(self.objects)) - 1)

    def within(self, region: Region) -> int:
        """Mask of the objects that ``region`` contains: those that hold no
        grid position outside it."""
        if region.is_full:
            return (1 << len(self.objects)) - 1
        held = self._flat(region)
        out = self._placed
        for b, col in self._cols.items():
            if not held >> b & 1:
                out &= ~col
        return out

    def relocalized(self, localized: bool) -> "SiteCategory":
        """The same objects under the ``localized`` rule.  The other rule's
        site is made once and shares every rule-free row with this one.  It
        keeps no reference back: a cycle would hold both sites until the
        cyclic garbage collector runs."""
        if bool(localized) == bool(self.localized):
            return self
        if self._twin is None:
            twin = copy.copy(self)
            twin.localized = localized
            twin.hom = self.local_hom if localized else self.plain_hom
            self._twin = twin
        return self._twin


# ---------------------------------------------------------------------------
# universe enumeration and the saturation oracle
# ---------------------------------------------------------------------------


def base_points(M: LatticeSpacetime,
                x_range: Optional[tuple[int, int]] = None,
                t_range: Optional[tuple[int, int]] = None):
    if M.extent is not None:
        return sorted(M.extent)
    t_lo, t_hi = t_range if t_range is not None else M.window
    w_lo, w_hi = M.window
    for key, r in [("t_range", (t_lo, t_hi)), ("x_range", x_range)]:
        if r is not None and r[0] > r[1]:
            raise SiteError(f"universe.{key} [{r[0]}, {r[1]}] runs "
                            f"backwards; write it as [{r[1]}, {r[0]}]")
    if not (w_lo <= t_lo and t_hi <= w_hi):
        raise SiteError(f"universe.t_range [{t_lo}, {t_hi}] leaves "
                        f"spacetime.window [{w_lo}, {w_hi}]; narrow "
                        "universe.t_range or widen spacetime.window")
    if M.kind == "cylinder":
        return [(t, x) for t in range(t_lo, t_hi + 1)
                for x in range(M.circumference)]
    if x_range is None:
        raise SiteError("plane enumeration needs an explicit x_range")
    return [(t, x) for t in range(t_lo, t_hi + 1)
            for x in range(x_range[0], x_range[1] + 1)]


def causal_pairs(M: LatticeSpacetime, pts: list[Point],
                 max_dt: Optional[int] = None):
    """The pairs (p, q) of ``pts`` with q in J+(p) and at most ``max_dt``
    rows above p, p-major in list order."""
    for p in pts:
        for q in pts:
            dt = q[0] - p[0]
            if 0 <= dt and (max_dt is None or dt <= max_dt) and \
                    M.xdist(q[1], p[1]) <= dt:
                yield p, q


def enumerate_universe(M: LatticeSpacetime, *, compactness: str = "rc",
                       x_range: Optional[tuple[int, int]] = None,
                       t_range: Optional[tuple[int, int]] = None,
                       max_height: Optional[int] = None,
                       diamonds: bool = True, strict_diamonds: bool = True,
                       min_slab_height: int = 1,
                       cap: int = 500) -> list[Region]:
    """Deterministic deduplicated universe of causally convex regions."""
    pts = base_points(M, x_range, t_range)
    out: set[Region] = set()

    def admit(r: Region):
        if M.extent is not None and r.contains(region_full(M)):
            return  # no relatively compact region equals the whole spacetime
        out.add(r)
        if len(out) > cap:
            raise SiteError(f"universe exceeds cap {cap}; raise universe.cap "
                            "or narrow universe.t_range, universe.x_range "
                            "or universe.max_height")

    if diamonds:
        for p, q in causal_pairs(M, pts, max_height):
            admit(region_diamond(M, p, q))
            # a nonempty strict diamond: its inner tips are causal too
            if strict_diamonds and M.xdist(p[1], q[1]) <= q[0] - p[0] - 2:
                admit(region_strict_diamond(M, p, q))
    if M.kind == "cylinder" and M.extent is None:
        t_lo, t_hi = t_range if t_range is not None else M.window
        for a in range(t_lo, t_hi + 1):
            top = t_hi if max_height is None else min(a + max_height, t_hi)
            # a slab of time thickness one is causally a Cauchy band but
            # carries only half the leapfrog Cauchy data; field universes
            # exclude them via min_slab_height=2
            for b in range(a + min_slab_height - 1, top + 1):
                admit(region_slab(M, a, b))
    if compactness == "copen":
        out.add(region_full(M))
    return sorted(out, key=lambda r: r.sort_key())


def saturation_hom(plain_site: SiteCategory) -> list[int]:
    """Localization oracle: reachability over plain morphisms together with
    formal inverses of Cauchy morphisms (zigzag closure)."""
    if plain_site.localized:
        raise SiteError("saturation starts from a plain site")
    # the formal inverse of each Cauchy morphism i -> j is an edge j -> i
    everything = (1 << len(plain_site.objects)) - 1
    return _closure(plain_site.hom, transposed(plain_site.cauchy, everything))


def close_universe_for_localization(M: LatticeSpacetime,
                                    universe: Iterable[Region],
                                    cap: int = 600) -> list[Region]:
    """One round of witness hulls: for every pair with U inside D(V), add the
    causally convex hull of their union.  Zigzags through these witnesses
    realize every localized morphism inside the materialized universe."""
    objs = sorted(set(universe), key=lambda r: r.sort_key())
    expl = [r for r in objs if not r.is_full]
    devs = {r: cauchy_development(M, r) for r in expl}
    extra = {hull(M, region_points(M, u.pts | v.pts))
             for u in expl for v in expl if u != v and devs[v].contains(u)}
    out = sorted(set(objs) | extra, key=lambda r: r.sort_key())
    if len(out) > cap:
        raise SiteError(f"witness closure exceeds cap {cap}")
    return out


def compare_localization_models(plain_site: SiteCategory):
    """Closed-form localized homs versus the zigzag-saturation oracle.

    Returns (agrees, mismatches) where mismatches lists (U, V, closed, oracle).
    """
    loc = plain_site.relocalized(True)
    sat = saturation_hom(plain_site)
    objs = plain_site.objects
    mism = [(objs[i], objs[j], bool(row >> j & 1), bool(sat[i] >> j & 1))
            for i, row in enumerate(loc.hom)
            for j in set_bits(row ^ sat[i])]
    return not mism, mism


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cover:
    """A finite family of causally convex regions covering a base.

    For a full base the pieces must cover a declared finite zone (the
    materialized part of the spacetime).
    """

    base: Region
    pieces: tuple[Region, ...]
    zone: Optional[Region] = None

    def __post_init__(self):
        if not self.pieces:
            raise SiteError("cover needs at least one piece")
        M = self.base.ambient
        for p in self.pieces:
            if p.ambient != M:
                raise SiteError("cover piece with foreign ambient")
            if p.is_full:
                raise SiteError("cover pieces must be explicit regions")
            if not is_causally_convex(M, p):
                raise SiteError("cover piece not causally convex")
            if not self.base.contains(p):
                raise SiteError("cover piece leaves the base")
        union = frozenset().union(*[p.pts for p in self.pieces])
        if self.base.is_full and M.extent is None:
            if self.zone is None:
                raise SiteError("cover of the full spacetime needs a zone")
            if not self.zone.points() <= union:
                raise SiteError("pieces do not cover the declared zone")
        elif union != self.base.points():
            raise SiteError("pieces do not cover the base exactly")

    @property
    def ambient(self) -> LatticeSpacetime:
        return self.base.ambient

    def is_D_stable(self) -> bool:
        M = self.ambient
        return all(is_D_stable(M, p) for p in self.pieces)

    def intersections(self, k: int = 2) -> dict[tuple[int, ...], Region]:
        """The nonempty intersections of ``k`` pieces, keyed by their
        indices in increasing order."""
        out = {}
        for idx in itertools.combinations(range(len(self.pieces)), k):
            inter = frozenset.intersection(*[self.pieces[i].pts for i in idx])
            if inter:
                out[idx] = region_points(self.ambient, inter)
        return out


def check_cover_intersections(cover: Cover):
    """Intersections of causally convex pieces are causally convex or empty,
    and D-stability is inherited by double and triple overlaps."""
    M = cover.ambient
    stable = cover.is_D_stable()
    return all(is_causally_convex(M, reg) and
               (not stable or is_D_stable(M, reg))
               for k in (2, 3) for reg in cover.intersections(k).values())


# ---------------------------------------------------------------------------
# cover categories
# ---------------------------------------------------------------------------


class CoverCategory(_Thin):
    """The thin orthogonal category presented by a cover.

    Objects are pairs (piece index, region admitted by that piece).  The hom
    relation is generated by per-piece morphisms and overlap identifications
    and closed under composition; the build then verifies the one-morphism
    simplified description (hom exists iff the ambient site has a morphism
    between the underlying regions).  Per-piece morphisms follow the ambient
    rule: developments computed inside a bounded piece can be strictly
    larger near its caps, where the piece's boundary funnels maximal paths.

    Rows are bitsets over the object indices, read off the site's rows
    pulled back along the projection (i, k) |-> k, the cover functor
    ``j_functor`` returns; that functor reads these rows back.
    """

    def __init__(self, site: SiteCategory, cover: Cover):
        if cover.ambient != site.M:
            raise SiteError("cover and site ambient mismatch")
        if site.localized and not cover.is_D_stable():
            raise SiteError(
                "localized cover categories require a D-stable cover; piece "
                "development differs from the piece itself, which is exactly "
                "where the simplified description fails")
        self.site = site
        self.cover = cover
        objs = [(i, k) for i, piece in enumerate(cover.pieces)
                for k in set_bits(site.within(piece))]
        if not objs:
            raise SiteError("empty cover category; universe too coarse")
        self.objects: tuple[tuple[int, int], ...] = tuple(objs)
        self.index = {o: n for n, o in enumerate(objs)}
        self._image = tuple(k for (_, k) in objs)
        piece_rows = [0] * len(cover.pieces)
        for a, (i, _) in enumerate(objs):
            piece_rows[i] |= 1 << a
        # the simplified description: row a holds b iff the site has the
        # morphism between their underlying regions
        self._described = _pullback(site.hom, self._image)
        # an object lies in P_i & P_j exactly when it has a copy in both,
        # and the overlap identifies the copies
        copies: dict[int, int] = {}
        for a, k in enumerate(self._image):
            copies[k] = copies.get(k, 0) | 1 << a
        gen = [self._described[a] & piece_rows[i] | copies[k]
               for a, (i, k) in enumerate(objs)]
        self.hom = _closure(gen)
        self.check_explicit_description()

    @functools.cached_property
    def disjoint(self) -> tuple[int, ...]:
        return _pullback(self.site.disjoint, self._image)

    def region_of(self, n) -> Region:
        return self.site.objects[self._image[n]]

    def check_explicit_description(self) -> None:
        """Generated homs coincide with ambient homs between the underlying
        regions (the simplified description of the cover category)."""
        if tuple(self.hom) != self._described:
            raise SiteError("cover category does not match its "
                            "simplified description")


# ---------------------------------------------------------------------------
# functors between site-like structures
# ---------------------------------------------------------------------------


def _pullback(rows, image) -> tuple[int, ...]:
    """``rows`` pulled back along the object map ``a |-> image[a]``: bit
    ``b`` of row ``a`` is set iff ``rows[image[a]]`` holds ``image[b]``.
    The map need not be injective; each image row is pulled once, and only
    its bits inside the image are walked.  The identity map keeps the rows.
    """
    if image == tuple(range(len(rows))):
        return tuple(rows)
    over: dict[int, int] = {}
    for a, y in enumerate(image):
        over[y] = over.get(y, 0) | 1 << a
    inside = sum(1 << y for y in over)
    back = {}
    for y in over:
        row = 0
        for z in set_bits(rows[y] & inside):
            row |= over[z]
        back[y] = row
    return tuple(back[y] for y in image)


class SiteFunctor:
    """An object map between two thin orthogonal site-like structures.

    Both ends expose object_keys and the bitset rows ``hom`` and
    ``disjoint``; thinness makes the action on morphisms implicit.  Every
    property is checked over the materialized objects, one row at a time:
    the target's rows are pulled back along the object map, once each, and
    compared with the source's rows as whole ints.  Orthogonality speaks of
    the pairs that share a target, and ``a`` and ``b`` share one iff their
    hom rows meet; so it asks that only of the pairs whose disjointness the
    map changes, and a map that changes none walks no bits.
    """

    def __init__(self, source, target, omap: dict):
        self.source, self.target, self.omap = source, target, omap
        for k in source.object_keys():
            if k not in omap:
                raise SiteError(f"object map misses {k}")
        self._image = tuple(omap[k] for k in source.object_keys())

    @functools.cached_property
    def hom_back(self) -> tuple[int, ...]:
        return _pullback(self.target.hom, self._image)

    @functools.cached_property
    def disjoint_back(self) -> tuple[int, ...]:
        return _pullback(self.target.disjoint, self._image)

    def is_functor(self) -> bool:
        return all(not h & ~b
                   for h, b in zip(self.source.hom, self.hom_back))

    def fully_faithful(self) -> bool:
        return tuple(self.source.hom) == self.hom_back

    def preserves_orthogonality(self) -> bool:
        return self._no_target_shared(self.source.disjoint, self.disjoint_back)

    def reflects_orthogonality(self) -> bool:
        return self._no_target_shared(self.disjoint_back, self.source.disjoint)

    def _no_target_shared(self, held, kept) -> bool:
        """Whether no ``b`` in ``held[a]`` but not in ``kept[a]`` shares a
        target with ``a``."""
        hom = self.source.hom
        return not any(hom[a] & hom[b]
                       for a, (h, k) in enumerate(zip(held, kept))
                       for b in set_bits(h & ~k))


class _CoverFunctor(SiteFunctor):
    """The functor from a cover category into its site.  The category's
    rows are the site's rows pulled back along it, so it reads them rather
    than pulling them back again.  The category does not keep it: a
    reference back would make a cycle."""

    @property
    def hom_back(self) -> tuple[int, ...]:
        return self.source._described

    @property
    def disjoint_back(self) -> tuple[int, ...]:
        return self.source.disjoint


def j_functor(cc: CoverCategory) -> SiteFunctor:
    return _CoverFunctor(cc, cc.site, dict(enumerate(cc._image)))


def localization_functor(plain_site: SiteCategory) -> SiteFunctor:
    """Identity-on-objects functor from the plain site to its localization."""
    loc = plain_site.relocalized(True)
    return SiteFunctor(plain_site, loc,
                       {k: k for k in plain_site.object_keys()})


def check_localization_functor(plain_site: SiteCategory) -> bool:
    """The localization functor preserves orthogonality and turns Cauchy
    morphisms into invertible pairs."""
    L = localization_functor(plain_site)
    hom = L.target.hom
    if not L.is_functor() or not L.preserves_orthogonality():
        return False
    return all(hom[a] >> b & 1 and hom[b] >> a & 1
               for a in plain_site.object_keys()
               for b in set_bits(plain_site.cauchy[a]))


# ---------------------------------------------------------------------------
# refinements, cover extension
# ---------------------------------------------------------------------------


def refinement_functor(site: SiteCategory, fine: Cover, coarse: Cover,
                       alpha: dict[int, int]) -> SiteFunctor:
    for i, piece in enumerate(fine.pieces):
        if i not in alpha:
            raise SiteError(f"refinement misses index {i}")
        if not coarse.pieces[alpha[i]].contains(piece):
            raise SiteError(f"refinement witness fails: piece {i} not inside "
                            f"coarse piece {alpha[i]}")
    cc_fine = CoverCategory(site, fine)
    cc_coarse = CoverCategory(site, coarse)
    omap = {}
    for n, (i, k) in enumerate(cc_fine.objects):
        omap[n] = cc_coarse.index[(alpha[i], k)]
    return SiteFunctor(cc_fine, cc_coarse, omap)


def restrict_pieces(pieces: Iterable[Region],
                    pts: frozenset[Point]) -> list[frozenset[Point]]:
    """The nonempty intersections of the pieces with ``pts``, in piece
    order."""
    return [inter for p in pieces if (inter := p.pts & pts)]


def extend_cover(f: LatticeEmbedding, cov: Cover, U: Region, zone: Region,
                 mode: str = "plain") -> Cover:
    """Extend the pushforward of a cover of the source to a cover of the
    target whose pullback restricts over ``U`` (plain mode) or over the
    development of ``U`` (D-stable mode) to the original cover.

    The complement of the protected zone is filled with D-stable causally
    convex neighborhoods, so the D-stable mode yields a D-stable cover.
    """
    if mode not in ("plain", "D_stable"):
        raise SiteError("mode must be 'plain' or 'D_stable'")
    if not U.is_relatively_compact:
        raise SiteError("U must be relatively compact")
    N = f.target
    if mode == "D_stable":
        if not is_D_stable(N, f.image()):
            raise SiteError("D-stable extension needs a D-stable image")
        if not cov.is_D_stable():
            raise SiteError("D-stable extension needs a D-stable cover")
        restrict_to = cauchy_development(f.source, U)
    else:
        restrict_to = U
    protected = apply_embedding(f, restrict_to)
    pushed = [apply_embedding(f, p) for p in cov.pieces]
    allowed = zone.points() - protected.points()
    room = region_points(N, allowed) if allowed else None
    filler: list[Region] = []
    covered: set = set()
    for p in sorted(allowed):
        if p in covered:
            continue
        W = find_D_stable_neighborhood(N, p, room)
        filler.append(W)
        covered |= W.pts
    out = Cover(region_full(N), tuple(pushed + filler),
                zone=region_points(N, zone.points() | protected.points()))
    # restriction property, re-verified before returning
    back = [b for p in out.pieces if (b := preimage_region(f, p))]
    X = restrict_to.points()
    if set(restrict_pieces(back, X)) != set(restrict_pieces(cov.pieces, X)):
        raise SiteError("restriction property violated by extend_cover "
                        "(construction bug)")
    if mode == "D_stable" and not out.is_D_stable():
        raise SiteError("D-stable extension produced a non-D-stable cover")
    return out
