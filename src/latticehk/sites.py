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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .geometry import (GeometryError, LatticeSpacetime, Region,
                       cauchy_development, find_D_stable_neighborhood, hull,
                       is_causally_convex, is_D_stable, region_diamond,
                       region_full, region_points, region_slab,
                       region_strict_diamond, set_bits, LatticeEmbedding,
                       apply_embedding, preimage_region, _Grid)


class SiteError(Exception):
    """Invalid site, cover or functor construction."""


def _closure(masks: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as bitmask rows."""
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


class SiteCategory:
    """A finite thin orthogonal category of regions.

    flavor: ``compactness`` in {"rc", "copen"} (whether the symbolic full
    region is admitted) x ``localized`` (which morphism rule applies).
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
            if not is_causally_convex(M, r):
                raise SiteError(f"universe region not causally convex: {r}")
        self.M = M
        self.compactness = compactness
        self.localized = localized
        self.objects: tuple[Region, ...] = tuple(objs)
        self.index = {r: k for k, r in enumerate(self.objects)}
        n = len(objs)
        self.dev = [cauchy_development(M, r) for r in objs]
        self.hom = [0] * n
        self.cauchy = [0] * n
        for i, u in enumerate(objs):
            for j, v in enumerate(objs):
                plain = v.contains(u)
                loc = self.dev[j].contains(u)
                if (loc if localized else plain):
                    self.hom[i] |= 1 << j
                if plain and self.dev[i] == self.dev[j]:
                    self.cauchy[i] |= 1 << j
        self.disjoint = self._disjoint_matrix()

    def _disjoint_matrix(self) -> list[int]:
        objs = self.objects
        n = len(objs)
        out = [0] * n
        expl = [r for r in objs if not r.is_full]
        if expl:
            pts = frozenset().union(*[r.points() for r in expl])
            ts = [t for (t, _) in pts]
            g = _Grid(self.M, min(ts), max(ts), pts)
            jrows = {}
            masks = {}
            for k, r in enumerate(objs):
                if r.is_full:
                    continue
                m = g.mask_rows(r.points())
                masks[k] = m
                jrows[k] = g.both(m)
            for i in range(n):
                if i not in jrows:
                    continue
                for j in range(i + 1, n):
                    if j not in masks:
                        continue
                    if all((a & b) == 0
                           for a, b in zip(jrows[i], masks[j])):
                        out[i] |= 1 << j
                        out[j] |= 1 << i
        return out

    # -- protocol shared with CoverCategory ---------------------------------

    def object_keys(self):
        return range(len(self.objects))

    def region_of(self, k) -> Region:
        return self.objects[k]

    def hom_k(self, a, b) -> bool:
        return bool(self.hom[a] >> b & 1)

    def disjoint_k(self, a, b) -> bool:
        return bool(self.disjoint[a] >> b & 1)

    # -- region-level helpers ------------------------------------------------

    def hom_exists(self, U: Region, V: Region) -> bool:
        return self.hom_k(self.index[U], self.index[V])

    def orthogonal(self, m1: tuple[Region, Region],
                   m2: tuple[Region, Region]) -> bool:
        """Morphisms are (source, target) pairs sharing the target."""
        (u1, v1), (u2, v2) = m1, m2
        if v1 != v2 or not self.hom_exists(u1, v1) or \
                not self.hom_exists(u2, v2):
            raise SiteError("orthogonality needs two morphisms to one target")
        return self.disjoint_k(self.index[u1], self.index[u2])

    def relocalized(self, localized: bool) -> "SiteCategory":
        return SiteCategory(self.M, self.objects, self.compactness, localized)


# ---------------------------------------------------------------------------
# universe enumeration and the saturation oracle
# ---------------------------------------------------------------------------


def base_points(M: LatticeSpacetime,
                x_range: Optional[tuple[int, int]] = None,
                t_range: Optional[tuple[int, int]] = None):
    if M.extent is not None:
        return sorted(M.extent)
    t_lo, t_hi = t_range if t_range is not None else M.window
    if not (M.window[0] <= t_lo and t_hi <= M.window[1]):
        raise SiteError("t_range must sit inside the window")
    if M.kind == "cylinder":
        return [(t, x) for t in range(t_lo, t_hi + 1)
                for x in range(M.circumference)]
    if x_range is None:
        raise SiteError("plane enumeration needs an explicit x_range")
    return [(t, x) for t in range(t_lo, t_hi + 1)
            for x in range(x_range[0], x_range[1] + 1)]


def enumerate_universe(M: LatticeSpacetime, *, compactness: str = "rc",
                       x_range: Optional[tuple[int, int]] = None,
                       t_range: Optional[tuple[int, int]] = None,
                       max_height: Optional[int] = None,
                       diamonds: bool = True, strict_diamonds: bool = True,
                       slabs: bool = True, min_slab_height: int = 1,
                       hull_count: int = 0,
                       max_hull_seed: int = 3, seed: int = 0,
                       cap: int = 500) -> list[Region]:
    """Deterministic deduplicated universe of causally convex regions."""
    pts = base_points(M, x_range, t_range)
    ptset = set(pts)
    out: set[Region] = set()
    hmax = max_height if max_height is not None else (M.window[1] -
                                                      M.window[0])

    def admit(r: Region):
        if M.extent is not None and r.pts == M.extent:
            return  # no relatively compact region equals the whole spacetime
        out.add(r)
        if len(out) > cap:
            raise SiteError(f"universe exceeds cap {cap}; tighten the config")

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
                            admit(region_strict_diamond(M, (t0, x0), q))
                        except GeometryError:
                            pass
    if slabs and M.kind == "cylinder" and M.extent is None:
        t_lo, t_hi = t_range if t_range is not None else M.window
        for a in range(t_lo, t_hi + 1):
            # a slab of time thickness one is causally a Cauchy band but
            # carries only half the leapfrog Cauchy data; field universes
            # exclude them via min_slab_height=2
            for b in range(a + min_slab_height - 1,
                           min(a + hmax, t_hi) + 1):
                admit(region_slab(M, a, b))
    if hull_count:
        rng = random.Random(seed)
        for _ in range(hull_count):
            k = rng.randint(2, max(2, max_hull_seed))
            sample = rng.sample(pts, min(k, len(pts)))
            admit(hull(M, region_points(M, sample)))
    if compactness == "copen":
        out.add(region_full(M))
    return sorted(out, key=lambda r: r.sort_key())


def check_orthogonality_composition_stable(site: SiteCategory) -> bool:
    """Orthogonality is keyed to sources, so composition stability says:
    morphism sources mapping into causally disjoint regions are themselves
    causally disjoint.  Definitional for the plain rule; for the localized
    rule it is a property of developments, verified here exhaustively."""
    n = len(site.objects)
    for i in range(n):
        for j in range(i + 1, n):
            if not site.disjoint_k(i, j):
                continue
            for a in range(n):
                if not site.hom_k(a, i):
                    continue
                for b in range(n):
                    if a != b and site.hom_k(b, j) and \
                            not site.disjoint_k(a, b):
                        return False
    return True


def saturation_hom(plain_site: SiteCategory) -> list[int]:
    """Localization oracle: reachability over plain morphisms together with
    formal inverses of Cauchy morphisms (zigzag closure)."""
    if plain_site.localized:
        raise SiteError("saturation starts from a plain site")
    n = len(plain_site.objects)
    edges = [0] * n
    for i in range(n):
        edges[i] |= plain_site.hom[i]
        for j in set_bits(plain_site.cauchy[i]):
            edges[j] |= 1 << i  # formal inverse of the Cauchy morphism i -> j
    return _closure(edges)


def close_universe_for_localization(M: LatticeSpacetime,
                                    universe: Iterable[Region],
                                    cap: int = 600) -> list[Region]:
    """One round of witness hulls: for every pair with U inside D(V), add the
    causally convex hull of their union.  Zigzags through these witnesses
    realize every localized morphism inside the materialized universe."""
    objs = sorted(set(universe), key=lambda r: r.sort_key())
    devs = {r: cauchy_development(M, r) for r in objs}
    extra: set[Region] = set()
    for u in objs:
        if u.is_full:
            continue
        for v in objs:
            if v.is_full or u == v:
                continue
            if devs[v].contains(u):
                w = hull(M, region_points(M, u.pts | v.pts))
                extra.add(w)
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
    mism = []
    n = len(plain_site.objects)
    for i in range(n):
        for j in range(n):
            a = loc.hom_k(i, j)
            b = bool(sat[i] >> j & 1)
            if a != b:
                mism.append((plain_site.objects[i], plain_site.objects[j],
                             a, b))
    return not mism, mism


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cover:
    """A finite family of causally convex regions covering a base.

    For a full base the pieces must cover a declared finite zone (the
    materialized part of the spacetime); the cover is then window-complete by
    declaration.
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
        if self.base.is_full and self.base.ambient.extent is None:
            zone = self.zone
            if zone is None:
                raise SiteError("cover of the full spacetime needs a zone")
            if not (zone.points() <= union):
                raise SiteError("pieces do not cover the declared zone")
        else:
            target = self.base.points()
            if union != target:
                raise SiteError("pieces do not cover the base exactly")

    @property
    def ambient(self) -> LatticeSpacetime:
        return self.base.ambient

    @property
    def window_complete(self) -> bool:
        return self.base.is_full

    def is_D_stable(self) -> bool:
        M = self.ambient
        return all(is_D_stable(M, p) for p in self.pieces)

    def intersections(self) -> dict[tuple[int, int], Region]:
        out = {}
        for i in range(len(self.pieces)):
            for j in range(i + 1, len(self.pieces)):
                inter = self.pieces[i].pts & self.pieces[j].pts
                if inter:
                    out[(i, j)] = region_points(self.ambient, inter)
        return out

    def triples(self) -> dict[tuple[int, int, int], Region]:
        out = {}
        n = len(self.pieces)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    inter = self.pieces[i].pts & self.pieces[j].pts \
                        & self.pieces[k].pts
                    if inter:
                        out[(i, j, k)] = region_points(self.ambient, inter)
        return out


def check_cover_intersections(cover: Cover):
    """Intersections of causally convex pieces are causally convex or empty,
    and D-stability is inherited by double and triple overlaps."""
    M = cover.ambient
    stable = cover.is_D_stable()
    for reg in list(cover.intersections().values()) + \
            list(cover.triples().values()):
        if not is_causally_convex(M, reg):
            return False
        if stable and not is_D_stable(M, reg):
            return False
    return True


# ---------------------------------------------------------------------------
# cover categories
# ---------------------------------------------------------------------------


class CoverCategory:
    """The thin orthogonal category presented by a cover.

    Objects are pairs (piece index, region admitted by that piece).  The hom
    relation is generated by per-piece morphisms and overlap identifications
    and closed under composition; the build then verifies the one-morphism
    simplified description (hom exists iff the ambient site has a morphism
    between the underlying regions).  Per-piece morphisms follow the ambient
    rule: developments computed inside a bounded piece can be strictly
    larger near its caps, where the piece's boundary funnels maximal paths.
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
        objs = []
        for i, piece in enumerate(cover.pieces):
            for k in site.object_keys():
                if piece.contains(site.objects[k]):
                    objs.append((i, k))
        if not objs:
            raise SiteError("empty cover category; universe too coarse")
        self.objects: tuple[tuple[int, int], ...] = tuple(objs)
        self.index = {o: n for n, o in enumerate(objs)}
        n = len(objs)
        gen = [0] * n
        overlaps = cover.intersections()
        for a, (i, k1) in enumerate(objs):
            for b, (j, k2) in enumerate(objs):
                if i == j and site.hom_k(k1, k2):
                    gen[a] |= 1 << b
                elif k1 == k2:
                    key = (min(i, j), max(i, j))
                    if key in overlaps and \
                            overlaps[key].contains(site.objects[k1]):
                        gen[a] |= 1 << b
        self.hom = _closure(gen)
        self.check_explicit_description()

    def object_keys(self):
        return range(len(self.objects))

    def region_of(self, n) -> Region:
        return self.site.objects[self.objects[n][1]]

    def hom_k(self, a, b) -> bool:
        return bool(self.hom[a] >> b & 1)

    def disjoint_k(self, a, b) -> bool:
        return self.site.disjoint_k(self.objects[a][1], self.objects[b][1])

    def check_explicit_description(self) -> None:
        """Generated homs coincide with ambient homs between the underlying
        regions (the simplified description of the cover category)."""
        for a, (_, k1) in enumerate(self.objects):
            for b, (_, k2) in enumerate(self.objects):
                if self.hom_k(a, b) != self.site.hom_k(k1, k2):
                    raise SiteError("cover category does not match its "
                                    "simplified description")


# ---------------------------------------------------------------------------
# functors between site-like structures
# ---------------------------------------------------------------------------


class SiteFunctor:
    """An object map between two thin orthogonal site-like structures.

    Both ends expose object_keys/hom_k/disjoint_k; thinness makes the action
    on morphisms implicit.  All properties are checked exhaustively over the
    materialized objects.
    """

    def __init__(self, source, target, omap: dict):
        self.source, self.target, self.omap = source, target, omap
        for k in source.object_keys():
            if k not in omap:
                raise SiteError(f"object map misses {k}")

    def is_functor(self) -> bool:
        s, t, m = self.source, self.target, self.omap
        return all(t.hom_k(m[a], m[b])
                   for a in s.object_keys() for b in s.object_keys()
                   if s.hom_k(a, b))

    def fully_faithful(self) -> bool:
        s, t, m = self.source, self.target, self.omap
        return all(s.hom_k(a, b) == t.hom_k(m[a], m[b])
                   for a in s.object_keys() for b in s.object_keys())

    def _orth_pairs(self, structure):
        keys = list(structure.object_keys())
        rows = structure.hom
        for a in keys:
            for b in keys:
                if a < b and rows[a] & rows[b]:
                    yield a, b

    def preserves_orthogonality(self) -> bool:
        s, t, m = self.source, self.target, self.omap
        return all(t.disjoint_k(m[a], m[b])
                   for a, b in self._orth_pairs(s) if s.disjoint_k(a, b))

    def reflects_orthogonality(self) -> bool:
        s, t, m = self.source, self.target, self.omap
        return all(s.disjoint_k(a, b)
                   for a, b in self._orth_pairs(s)
                   if t.disjoint_k(m[a], m[b]))


def j_functor(cc: CoverCategory) -> SiteFunctor:
    omap = {n: cc.objects[n][1] for n in cc.object_keys()}
    return SiteFunctor(cc, cc.site, omap)


def localization_functor(plain_site: SiteCategory) -> SiteFunctor:
    """Identity-on-objects functor from the plain site to its localization."""
    loc = plain_site.relocalized(True)
    return SiteFunctor(plain_site, loc,
                       {k: k for k in plain_site.object_keys()})


def check_localization_functor(plain_site: SiteCategory) -> bool:
    """The localization functor preserves orthogonality and turns Cauchy
    morphisms into invertible pairs."""
    L = localization_functor(plain_site)
    loc = L.target
    if not L.is_functor() or not L.preserves_orthogonality():
        return False
    for a in plain_site.object_keys():
        for b in set_bits(plain_site.cauchy[a]):
            if not (loc.hom_k(a, b) and loc.hom_k(b, a)):
                return False
    return True


def embedding_site_functor(f: LatticeEmbedding, src_site: SiteCategory,
                           tgt_site: SiteCategory) -> SiteFunctor:
    """The functor induced by an embedding, U |-> f(U); every image must be
    materialized in the target universe."""
    if src_site.localized != tgt_site.localized or \
            src_site.compactness != tgt_site.compactness:
        raise SiteError("flavor mismatch between embedding sites")
    omap = {}
    missing = []
    for k in src_site.object_keys():
        img = apply_embedding(f, src_site.objects[k])
        if img in tgt_site.index:
            omap[k] = tgt_site.index[img]
        else:
            missing.append(img)
    if missing:
        raise SiteError(f"universe extension request: {len(missing)} images "
                        "missing from the target universe")
    return SiteFunctor(src_site, tgt_site, omap)


# ---------------------------------------------------------------------------
# refinements, pullbacks, cover extension
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


def pullback_cover(f: LatticeEmbedding, cov: Cover) -> Cover:
    """Preimage cover, empty preimages discarded."""
    pieces = []
    for p in cov.pieces:
        pre = preimage_region(f, p)
        if pre is not None:
            pieces.append(pre)
    if not pieces:
        raise SiteError("pullback cover is empty")
    base = preimage_region(f, cov.base)
    if base is None:
        raise SiteError("pullback base is empty")
    zone = None
    if base.is_full and f.source.extent is None:
        union = frozenset().union(*[p.pts for p in pieces])
        zone = region_points(f.source, union)
    return Cover(base, tuple(pieces), zone)


def _cover_restriction(pieces: Iterable[Region], X: Region):
    out = set()
    for p in pieces:
        inter = p.pts & X.points()
        if inter:
            out.add(inter)
    return out


def extend_cover(f: LatticeEmbedding, cov: Cover, U: Region,
                 mode: str = "plain",
                 zone: Optional[Region] = None) -> Cover:
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
        DU = cauchy_development(f.source, U)
        protected = apply_embedding(f, DU)
        restrict_to = DU
    else:
        protected = apply_embedding(f, U)
        restrict_to = U
    pushed = [apply_embedding(f, p) for p in cov.pieces]
    if zone is None:
        if N.kind == "cylinder" and N.extent is None:
            zone = region_slab(N, N.window[0], N.window[1])
        else:
            raise SiteError("plane targets need an explicit zone")
    leftover = sorted(zone.points() - protected.points())
    filler: list[Region] = []
    covered: set = set()
    allowed = zone.points() - protected.points()
    for p in leftover:
        if p in covered:
            continue
        W = find_D_stable_neighborhood(N, p, Region(N, "points",
                                                    frozenset(allowed)))
        filler.append(W)
        covered |= W.pts
    out = Cover(region_full(N), tuple(pushed + filler),
                zone=region_points(N, zone.points() | protected.points()))
    # restriction property, re-verified before returning
    back = [preimage_region(f, p) for p in out.pieces]
    back_restr = _cover_restriction([b for b in back if b is not None],
                                    restrict_to)
    orig_restr = _cover_restriction(cov.pieces, restrict_to)
    if back_restr != orig_restr:
        raise SiteError("restriction property violated by extend_cover "
                        "(construction bug)")
    if mode == "D_stable" and not out.is_D_stable():
        raise SiteError("D-stable extension produced a non-D-stable cover")
    return out
