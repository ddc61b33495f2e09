"""Discrete 1+1D causal lattices and exact causality predicates.

Points are integer pairs ``(t, x)``.  A causal step goes from ``(t, x)`` to
``(t+1, x')`` with ``|x' - x| <= 1`` (distance taken modulo the circumference
on cylinders).  Chronological reachability additionally requires the time
offset to strictly exceed the spatial offset.

Sets of points are handled internally as per-row bitmasks so that cones,
Cauchy developments and causal complements reduce to a handful of integer
operations per row.  The public API deals in :class:`Region` values.

A development, double complement or Cauchy-surface test is decided on a band
of rows around its region that provably holds the answer, and a result that
leaves the materialization window raises :class:`WindowTooSmallError`.
:func:`stabilization_check` recomputes a window-sensitive operation on
enlarged windows; a result that keeps changing indicates that the window is
too small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

Point = tuple[int, int]


class GeometryError(Exception):
    """Invalid geometric input."""


class WindowTooSmallError(GeometryError):
    """The materialization window cannot contain a stable answer."""


class ModelError(GeometryError):
    """An internal lattice-model invariant failed (a bug, not bad input)."""


def set_bits(m: int):
    """Indices of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@dataclass(frozen=True)
class LatticeSpacetime:
    """A plane or cylinder causal lattice with a materialization window.

    ``window = (t_lo, t_hi)`` (inclusive) is a computation horizon only, never
    a physical boundary.  ``extent`` turns the spacetime into a bounded
    sub-lattice: the points of ``extent`` are the whole spacetime, inextendible
    causal paths are maximal paths inside it, and the symbolic full region
    denotes exactly this point set.

    ``_developments`` memoizes :func:`cauchy_development` on an unbounded
    spacetime by point set: ``None`` for the full result, else the points.
    It holds no :class:`Region` (a region holds its spacetime), takes no part
    in equality or hashing, and starts empty on every new spacetime, so a
    changed window never sees an old result.
    """

    kind: str  # "plane" | "cylinder"
    window: tuple[int, int]
    circumference: Optional[int] = None
    extent: Optional[frozenset[Point]] = None
    _developments: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.kind not in ("plane", "cylinder"):
            raise GeometryError(f"unknown spacetime kind {self.kind!r}")
        if self.kind == "cylinder":
            if self.circumference is None or self.circumference < 2:
                raise GeometryError("cylinder needs circumference >= 2")
        elif self.circumference is not None:
            raise GeometryError("plane takes no circumference")
        t_lo, t_hi = self.window
        if t_lo > t_hi:
            raise GeometryError("empty window")
        if self.extent is not None:
            if not self.extent:
                raise GeometryError("extent must be nonempty")
            for (t, x) in self.extent:
                if not (t_lo <= t <= t_hi):
                    raise GeometryError("extent exceeds window")

    # -- coordinates ------------------------------------------------------

    def norm_x(self, x: int) -> int:
        return x % self.circumference if self.kind == "cylinder" else x

    def norm_point(self, p: Point) -> Point:
        return (p[0], self.norm_x(p[1]))

    def xdist(self, x1: int, x2: int) -> int:
        if self.kind == "cylinder":
            d = (x1 - x2) % self.circumference
            return min(d, self.circumference - d)
        return abs(x1 - x2)

    def in_window(self, p: Point) -> bool:
        return self.window[0] <= p[0] <= self.window[1]

    def with_window(self, t_lo: int, t_hi: int) -> "LatticeSpacetime":
        return LatticeSpacetime(self.kind, (t_lo, t_hi), self.circumference,
                                self.extent)

    def enlarged(self, margin: int) -> "LatticeSpacetime":
        t_lo, t_hi = self.window
        return self.with_window(t_lo - margin, t_hi + margin)

    def unbounded(self) -> "LatticeSpacetime":
        return LatticeSpacetime(self.kind, self.window, self.circumference)


@dataclass(frozen=True)
class Region:
    """A finite explicit point set, or the symbolic full spacetime.

    The full region is the only region that is not relatively compact.  On a
    bounded spacetime it denotes the extent.
    """

    ambient: LatticeSpacetime
    kind: str  # "points" | "full"
    pts: frozenset[Point] = frozenset()

    def __post_init__(self):
        if self.kind not in ("points", "full"):
            raise GeometryError(f"unknown region kind {self.kind!r}")
        if self.kind == "points" and not self.pts:
            raise GeometryError("explicit region must be nonempty")

    @property
    def is_full(self) -> bool:
        return self.kind == "full"

    @property
    def is_relatively_compact(self) -> bool:
        return self.kind == "points"

    def points(self) -> frozenset[Point]:
        if self.is_full:
            if self.ambient.extent is not None:
                return self.ambient.extent
            raise GeometryError("full region on unbounded spacetime has no "
                                "materialized point set")
        return self.pts

    def t_range(self) -> tuple[int, int]:
        ts = [t for (t, _) in self.points()]
        return min(ts), max(ts)

    def contains(self, other: "Region") -> bool:
        if self.is_full:
            return True
        if other.is_full:
            if other.ambient.extent is not None:
                return other.ambient.extent <= self.pts
            return False
        return other.pts <= self.pts

    def sort_key(self):
        if self.is_full:
            return (1, 0, 0, ())
        ts = self.t_range()
        return (0, ts[0], ts[1], tuple(sorted(self.pts)))

    def __repr__(self):
        if self.is_full:
            return "Region.full"
        ts = self.t_range()
        return f"Region({len(self.pts)} pts, t in [{ts[0]},{ts[1]}])"


def bounded_spacetime(M: LatticeSpacetime,
                      extent: Iterable[Point]) -> LatticeSpacetime:
    """A sub-lattice spacetime whose physical points are ``extent``.

    The extent must be a causally convex subset of ``M``'s window; causal
    paths between its points then never leave it, so the induced causal
    structure is the restriction of the ambient one.
    """
    if M.extent is not None:
        raise GeometryError("cannot bound an already bounded spacetime")
    pts = frozenset(M.norm_point(p) for p in extent)
    sub = LatticeSpacetime(M.kind, M.window, M.circumference, pts)
    if not is_causally_convex(M, Region(M, "points", pts)):
        raise GeometryError("extent must be causally convex")
    return sub


def region_points(M: LatticeSpacetime, pts: Iterable[Point]) -> Region:
    norm = frozenset(M.norm_point(p) for p in pts)
    for p in norm:
        if not M.in_window(p):
            raise GeometryError(
                f"point {p} outside the window; widen spacetime.window "
                f"[{M.window[0]}, {M.window[1]}] or narrow universe.t_range")
        if M.extent is not None and p not in M.extent:
            raise GeometryError(f"point {p} outside bounded extent")
    return Region(M, "points", norm)


def region_full(M: LatticeSpacetime) -> Region:
    return Region(M, "full")


# ---------------------------------------------------------------------------
# row-mask grids
# ---------------------------------------------------------------------------


class _Grid:
    """Per-row bitmask workspace over rows ``t0..t1`` (inclusive).

    On the plane, bit ``i`` of a row mask is the site ``x = x0 + i``; the
    x-range is padded so that cones of the tracked seed set never reach the
    lateral boundary inside the row range.  On the cylinder each row has
    exactly ``circumference`` bits with wrap-around spreading.
    """

    def __init__(self, M: LatticeSpacetime, t0: int, t1: int,
                 seeds: Iterable[Point] = ()):
        self.M = M
        self.t0, self.t1 = t0, t1
        self.nrows = t1 - t0 + 1
        if M.kind == "cylinder":
            self.width = M.circumference
            self.x0 = 0
        else:
            xs = [x for (_, x) in seeds] or [0]
            pad = (t1 - t0) + 2
            self.x0 = min(xs) - pad
            self.width = (max(xs) - min(xs)) + 2 * pad + 1
        self.full = (1 << self.width) - 1

    def row_index(self, t: int) -> int:
        return t - self.t0

    def mask_rows(self, pts: Iterable[Point]) -> list[int]:
        rows = [0] * self.nrows
        for (t, x) in pts:
            if self.t0 <= t <= self.t1:
                x = self.M.norm_x(x)
                i = x - self.x0
                if not (0 <= i < self.width):
                    raise ModelError("grid x-range too narrow for seed")
                rows[t - self.t0] |= 1 << i
        return rows

    def pts_of(self, rows: list[int]) -> frozenset[Point]:
        out = []
        for r, m in enumerate(rows):
            if m:
                t = self.t0 + r
                for i in set_bits(m):
                    out.append((t, self.M.norm_x(self.x0 + i)))
        return frozenset(out)

    def spread(self, m: int) -> int:
        if self.M.kind == "cylinder":
            c = self.width
            left = ((m << 1) | (m >> (c - 1))) & self.full
            right = ((m >> 1) | ((m & 1) << (c - 1))) & self.full
            return m | left | right
        return (m | (m << 1) | (m >> 1)) & self.full

    # -- cones ------------------------------------------------------------

    def _order(self, up: bool) -> range:
        """Row indices in sweep order: upward, or downward."""
        return range(self.nrows) if up else range(self.nrows - 1, -1, -1)

    def cone(self, seed_rows: list[int], up: bool,
             strict: bool = False) -> list[int]:
        """Rows of J+ (``up``) or J- of the seed rows; I+ or I- when
        ``strict``.

        The sweep starts at the first seed row (the rows before it are
        empty) and stops at the first full row: ``spread(full) == full``,
        so every row after it is full whatever the seeds hold."""
        if strict:
            # I+(S) = J+ of the seeds shifted one step up (I- one step down)
            seed_rows = [0] + seed_rows[:-1] if up else seed_rows[1:] + [0]
        out = [0] * self.nrows
        order = self._order(up)
        prev = 0
        for k, r in enumerate(order):
            if prev or seed_rows[r]:
                prev = out[r] = seed_rows[r] | self.spread(prev)
                if prev == self.full:
                    for r in order[k + 1:]:
                        out[r] = self.full
                    break
        return out

    def both(self, seed_rows: list[int]) -> list[int]:
        f = self.cone(seed_rows, True)
        p = self.cone(seed_rows, False)
        return [a | b for a, b in zip(f, p)]

    # -- escape dynamic programming ----------------------------------------

    def escapes(self, blocker: list[int], up: bool,
                inside: Optional[list[int]] = None) -> list[int]:
        """Rows of points admitting a future-maximal (``up``) or past-maximal
        causal path avoiding ``blocker``.  With ``inside`` the path must stay
        in ``inside`` and is maximal there; otherwise paths are unbounded and
        escape past the last row in that direction (which must lie beyond
        the blocker).

        The sweep runs against the path direction.  Without ``inside``, the
        rows before the first blocker row are full, and after the last
        blocker row the sweep stops at the first full row, since
        ``spread(full) == full``."""
        order = self._order(not up)
        if inside is not None:
            out = [0] * self.nrows
            nxt = nxt_inside = 0
            for r in order:
                # a path inside may also end here: no step stays inside
                ok = inside[r] & (self.spread(nxt) |
                                  (self.full & ~self.spread(nxt_inside)))
                nxt_inside = inside[r]
                nxt = out[r] = ok & ~blocker[r]
            return out
        out = [self.full] * self.nrows
        hit = [k for k, r in enumerate(order) if blocker[r]]
        if not hit:
            return out
        nxt = self.full
        for k in range(hit[0], self.nrows):
            if k > hit[-1] and nxt == self.full:
                break
            r = order[k]
            nxt = out[r] = self.spread(nxt) & ~blocker[r]
        return out


# ---------------------------------------------------------------------------
# cones, hulls, convexity
# ---------------------------------------------------------------------------


def cone(M: LatticeSpacetime, S: Region, direction: str, strict: bool,
         horizon: int) -> Region:
    """J+/J-/I+/I- of ``S`` up to the time bound ``horizon``."""
    if direction not in ("future", "past"):
        raise GeometryError("direction must be 'future' or 'past'")
    if S.is_full and S.ambient.extent is None:
        return region_full(M)
    pts = S.points()
    tmin = min(t for (t, _) in pts)
    tmax = max(t for (t, _) in pts)
    t_lo, t_hi = M.window
    up = direction == "future"
    if up:
        if horizon > t_hi:
            raise WindowTooSmallError(
                f"horizon {horizon} beyond window top {t_hi}")
        g = _Grid(M, tmin, horizon, pts)
    else:
        if horizon < t_lo:
            raise WindowTooSmallError(
                f"horizon {horizon} below window bottom {t_lo}")
        g = _Grid(M, horizon, tmax, pts)
    out = g.pts_of(g.cone(g.mask_rows(pts), up, strict))
    if M.extent is not None:
        out = out & M.extent
    if not out:
        raise GeometryError("empty cone (horizon excludes the seed set)")
    return region_points(M, out)


def hull(M: LatticeSpacetime, S: Region) -> Region:
    """Causally convex hull J+(S) & J-(S).

    Confined to the time band of ``S``, so no stabilization is needed.
    """
    if S.is_full:
        return S
    pts = S.points()
    tmin = min(t for (t, _) in pts)
    tmax = max(t for (t, _) in pts)
    g = _Grid(M, tmin, tmax, pts)
    seed = g.mask_rows(pts)
    fut = g.cone(seed, True)
    pas = g.cone(seed, False)
    out = g.pts_of([a & b for a, b in zip(fut, pas)])
    if M.extent is not None:
        out = out & M.extent  # convex extent: paths between its points stay in
    return region_points(M, out)


def is_causally_convex(M: LatticeSpacetime, U: Region) -> bool:
    if U.is_full:
        return True
    return hull(M, U).pts == U.pts


def are_causally_disjoint(M: LatticeSpacetime, U1: Region, U2: Region) -> bool:
    """True iff no point of U1 is causally related to a point of U2."""
    if U1.is_full or U2.is_full:
        # the full region (the extent, when bounded) meets every cone
        return False
    p1, p2 = U1.pts, U2.pts
    ts = [t for (t, _) in p1 | p2]
    g = _Grid(M, min(ts), max(ts), p1 | p2)
    j1 = g.both(g.mask_rows(p1))
    m2 = g.mask_rows(p2)
    return all((a & b) == 0 for a, b in zip(j1, m2))


# ---------------------------------------------------------------------------
# Cauchy development and the double causal complement
# ---------------------------------------------------------------------------


def _margin_for(M: LatticeSpacetime, pts: frozenset[Point]) -> int:
    ts = [t for (t, _) in pts]
    span = max(ts) - min(ts) + 1
    if M.kind == "cylinder":
        sdiam = M.circumference
    else:
        xs = [x for (_, x) in pts]
        sdiam = max(xs) - min(xs) + 1
    return span + sdiam + 2


def _band(pts: frozenset[Point], pad: int) -> tuple[int, int]:
    """The rows of ``pts``, widened by ``pad`` on both sides."""
    ts = [t for (t, _) in pts]
    return min(ts) - pad, max(ts) + pad


def _blocks_every_path(g: _Grid, up: list[int], tmin: int) -> bool:
    """True iff every inextendible causal path meets the blocker whose
    upward escapes are ``up``: no site of the row below it escapes."""
    r = g.row_index(tmin) - 1
    if r < 0:
        raise ModelError("grid does not pad below the blocker")
    return up[r] == 0


def _windowed(M: LatticeSpacetime, result, exceeds: str) -> Region:
    """The region of a stable ('full' | 'points', pts) result; ``exceeds``
    is the error text when its points leave the window."""
    kind, pts = result
    if kind == "full":
        return region_full(M)
    t_lo, t_hi = M.window
    if any(not (t_lo <= t <= t_hi) for (t, _) in pts):
        raise WindowTooSmallError(f"{exceeds} the window {M.window}; "
                                  "enlarge it")
    return Region(M, "points", pts)


def _development_raw(M: LatticeSpacetime, pts: frozenset[Point],
                     t0: int, t1: int):
    """Cauchy development of an explicit set, materialized on rows t0..t1.

    Returns ('full', None) when the set blocks every inextendible path
    (possible on the cylinder only), else ('points', frozenset).
    """
    g = _Grid(M, t0, t1, pts)
    umask = g.mask_rows(pts)
    up = g.escapes(umask, True)
    if _blocks_every_path(g, up, min(t for (t, _) in pts)):
        if M.kind == "plane":
            raise ModelError("finite set cannot block the plane")
        return "full", None
    down = g.escapes(umask, False)
    dev = [u | (g.full & ~(a & b)) for u, a, b in zip(umask, up, down)]
    return "points", g.pts_of(dev)


def cauchy_development(M: LatticeSpacetime, U: Region) -> Region:
    """D(U): points through which every inextendible causal path meets U."""
    if U.is_full:
        return U
    if M.extent is not None:
        D = region_development(M, U, region_full(M))
        # the whole bounded spacetime, as apply_embedding names it
        return region_full(M) if D.pts == M.extent else D
    pts = U.pts
    memo = M._developments
    if pts in memo:
        dev = memo[pts]
        return region_full(M) if dev is None else Region(M, "points", dev)
    # the band holds D(U) and the row below U, so its result is exact
    # (docs/decisions.md, "Each probe sweeps its own band")
    dev = _development_raw(M, pts, *_band(pts, _margin_for(M, pts) + 1))
    D = _windowed(M, dev, "development exceeds")
    # a D-stable result keeps the key itself rather than a second copy
    memo[pts] = None if D.is_full else pts if D.pts == pts else D.pts
    return D


def region_development(M: LatticeSpacetime, U: Region, V: Region) -> Region:
    """D_V(U): development of U inside the sub-lattice V.

    Inextendible paths are paths in V that cannot be extended within V.
    """
    vpts = V.points()
    upts = U.points() & vpts
    if not upts:
        raise GeometryError("U must meet V")
    ts = [t for (t, _) in vpts]
    g = _Grid(M, min(ts), max(ts), vpts)
    vmask = g.mask_rows(vpts)
    umask = g.mask_rows(upts)
    up = g.escapes(umask, True, inside=vmask)
    down = g.escapes(umask, False, inside=vmask)
    dev = [(u | (v & ~(a & b))) & v
           for u, v, a, b in zip(umask, vmask, up, down)]
    return region_points(M, g.pts_of(dev))


def _double_complement_raw(M: LatticeSpacetime, pts: frozenset[Point],
                           t0: int, t1: int):
    """U'' of an explicit set, materialized on rows t0..t1.  The set must
    be causally convex, J+(U) & J-(U) = U; the two cones of J(U) test it."""
    g = _Grid(M, t0, t1, pts)
    umask = g.mask_rows(pts)
    fut = g.cone(umask, True)
    pas = g.cone(umask, False)
    if any((a & b) != u for a, b, u in zip(fut, pas, umask)):
        raise GeometryError("double_complement expects a causally convex "
                            "region")
    comp = [g.full & ~(a | b) for a, b in zip(fut, pas)]
    if all(m == 0 for m in comp):
        # J(U) covers the whole grid; top and bottom rows full means the
        # causal complement is globally empty, hence U'' is everything.
        return "full", None
    jcomp = g.both(comp)
    out = [g.full & ~m for m in jcomp]
    return "points", g.pts_of(out)


def double_complement(M: LatticeSpacetime, U: Region) -> Region:
    """U'': p is kept iff J(p) is contained in J(U).

    Computed via the complement identity: by symmetry of the causal relation,
    J(p) subset J(U) is equivalent to p not in J(U') where U' is the causal
    complement of U.  Lateral influence from outside the padded grid is
    dominated by the grid's own complement seeds.
    """
    if U.is_full:
        return U
    if M.extent is not None:
        raise GeometryError("double_complement is defined on unbounded "
                            "spacetimes; bounded models use developments")
    pts = U.pts
    # the band holds U'' and a complement point in the cone of each other
    # point, so its result is exact (docs/decisions.md, as above)
    dc = _double_complement_raw(M, pts, *_band(pts, _margin_for(M, pts)))
    return _windowed(M, dc, "double complement exceeds")


# ---------------------------------------------------------------------------
# predicate family
# ---------------------------------------------------------------------------


def is_D_stable(M: LatticeSpacetime, U: Region) -> bool:
    if U.is_full:
        return True
    D = cauchy_development(M, U)
    return (not D.is_full) and D.pts == U.pts


def is_cauchy_morphism(M: LatticeSpacetime, U: Region, V: Region) -> bool:
    """U <= V and D(U) = D(V)."""
    if not V.contains(U):
        return False
    DU = cauchy_development(M, U)
    DV = cauchy_development(M, V)
    return DU == DV


def contains_cauchy_surface_of(M: LatticeSpacetime, U: Region,
                               V: Region) -> bool:
    """D_V(U) = V, i.e. U meets every inextendible causal path of V."""
    if U.is_full:
        return True
    if V.is_full and V.ambient.extent is None and M.extent is None:
        # the rows above U are full, so U's rows +-1 decide the full case
        pts = U.pts
        lo, hi = _band(pts, 1)
        g = _Grid(M, lo, hi, pts)
        return _blocks_every_path(g, g.escapes(g.mask_rows(pts), True),
                                  lo + 1)
    dev = region_development(M, U, V)
    return dev.pts == V.points()


# ---------------------------------------------------------------------------
# diamonds and D-stable neighborhoods
# ---------------------------------------------------------------------------


def region_diamond(M: LatticeSpacetime, bottom: Point, top: Point) -> Region:
    bottom, top = M.norm_point(bottom), M.norm_point(top)
    base = region_points(M, [bottom, top])
    h = hull(M, base)
    return h


def region_strict_diamond(M: LatticeSpacetime, bottom: Point,
                          top: Point) -> Region:
    """I+(bottom) & I-(top); empty for time separation < 2."""
    bottom, top = M.norm_point(bottom), M.norm_point(top)
    t0, t1 = bottom[0], top[0]
    if t1 - t0 < 2:
        raise GeometryError("strict diamond needs time separation >= 2")
    g = _Grid(M, t0, t1, [bottom, top])
    fut = g.cone(g.mask_rows([bottom]), True, strict=True)
    pas = g.cone(g.mask_rows([top]), False, strict=True)
    pts = g.pts_of([a & b for a, b in zip(fut, pas)])
    if not pts:
        raise GeometryError("empty strict diamond")
    if M.extent is not None:
        pts = pts & M.extent
        if not pts:
            raise GeometryError("strict diamond misses the bounded extent")
    return region_points(M, pts)


def region_slab(M: LatticeSpacetime, t0: int, t1: int) -> Region:
    """All sites with t0 <= t <= t1.  Finite only on the cylinder."""
    if M.kind != "cylinder":
        raise GeometryError("slabs are infinite on the plane")
    if t0 > t1:
        raise GeometryError("empty slab")
    pts = [(t, x) for t in range(t0, t1 + 1)
           for x in range(M.circumference)]
    if M.extent is not None:
        pts = [p for p in pts if p in M.extent]
        if not pts:
            raise GeometryError("slab misses the bounded extent")
    return region_points(M, pts)


def find_D_stable_neighborhood(M: LatticeSpacetime, p: Point,
                               U: Region) -> Region:
    """A D-stable causally convex relatively compact V with p in V <= U.

    Strategy: the largest symmetric strict diamond around ``p`` that fits in
    ``U`` and verifies D-stable; the singleton ``{p}`` is the fallback.
    """
    p = M.norm_point(p)
    if not U.is_full and p not in U.pts:
        raise GeometryError("p must lie in U")
    if M.extent is not None and p not in M.extent:
        raise GeometryError("p outside bounded extent")
    t_lo, t_hi = M.window
    rmax = min(p[0] - t_lo, t_hi - p[0])
    if not U.is_full:
        a, b = U.t_range()
        rmax = min(rmax, p[0] - a, b - p[0])  # largest that can fit in U
    for r in range(rmax, 0, -1):
        try:
            V = region_strict_diamond(M, (p[0] - r, p[1]), (p[0] + r, p[1]))
        except GeometryError:
            continue
        if U.contains(V) and is_D_stable(M, V):
            return V
    V = region_points(M, [p])
    if not is_D_stable(M, V):
        raise ModelError("singleton is not D-stable; degenerate backend")
    return V


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeEmbedding:
    """An affine causal embedding: translation, or restriction of the
    identity to a causally convex sub-lattice (the source's extent), or a
    width-bounded wrap of a plane strip onto a cylinder."""

    source: LatticeSpacetime
    target: LatticeSpacetime
    dt: int = 0
    dx: int = 0

    def __post_init__(self):
        s, t = self.source, self.target
        if s.kind == t.kind:
            if s.circumference != t.circumference:
                raise GeometryError("circumference mismatch")
        elif s.kind == "plane" and t.kind == "cylinder":
            if s.extent is None:
                raise GeometryError("plane-to-cylinder embedding needs a "
                                    "bounded source")
            xs = [x for (_, x) in s.extent]
            width = max(xs) - min(xs)
            if width > t.circumference - 2:
                raise GeometryError(
                    "source strip too wide to embed injectively with "
                    "two-sided step preservation; raise "
                    f"spacetime.circumference {t.circumference} to at "
                    f"least {width + 2}")
        else:
            raise GeometryError(f"no embeddings {s.kind} -> {t.kind}")
        # windows are computation horizons; only physical extents get checked
        for p in s.extent or ():
            q = self.map_point(p)
            if not t.in_window(q):
                raise GeometryError(f"image point {q} outside target window")
            if t.extent is not None and q not in t.extent:
                raise GeometryError(f"image point {q} outside target extent")

    def map_point(self, p: Point) -> Point:
        return self.target.norm_point((p[0] + self.dt, p[1] + self.dx))

    def unmap_point(self, q: Point) -> Point:
        """The inverse translation; the inverse of ``map_point`` on the image
        of an unbounded source."""
        return self.source.norm_point((q[0] - self.dt, q[1] - self.dx))

    def image(self) -> Region:
        if self.source.extent is None:
            if self.source.kind == self.target.kind and \
                    self.target.extent is None:
                return region_full(self.target)
            raise GeometryError("unbounded source into bounded target")
        return region_points(self.target,
                             [self.map_point(p) for p in self.source.extent])


def apply_embedding(f: LatticeEmbedding, U: Region) -> Region:
    if U.is_full:
        out = f.image()
    else:
        if f.source.extent is not None and not (U.pts <= f.source.extent):
            raise GeometryError("region leaves the embedding's domain")
        out = region_points(f.target, [f.map_point(p) for p in U.pts])
    if f.target.extent is not None and not out.is_full and \
            out.pts == f.target.extent:
        return region_full(f.target)  # the whole bounded target
    return out


def preimage_region(f: LatticeEmbedding, V: Region) -> Optional[Region]:
    """f^{-1}(V) as a region of the source; None when empty."""
    if V.is_full:
        return region_full(f.source)
    pts = []
    if f.source.extent is not None:
        for p in f.source.extent:
            if f.map_point(p) in V.pts:
                pts.append(p)
    else:
        for q in V.pts:
            p = f.unmap_point(q)
            if f.source.in_window(p):
                pts.append(p)
    if not pts:
        return None
    return region_points(f.source, pts)


def check_loc_morphism(f: LatticeEmbedding) -> bool:
    """Injective, two-sided causal-step preserving, causally convex image."""
    try:
        img = f.image()
    except GeometryError:
        return False
    if img.is_full:
        return True
    if len(img.pts) != len(f.source.extent or img.pts):
        return False
    return is_causally_convex(f.target, img)


def development_restriction(f: LatticeEmbedding, U: Region) -> tuple[
        Optional[frozenset[Point]], Optional[frozenset[Point]],
        Optional[frozenset[Point]]]:
    """The two sides of f(D_src(U)) = D_tgt(f(U)) & f(source), and
    D_tgt(f(U)) itself, as point sets; ``None`` stands for the full region
    of an unbounded target.  The development is confined to the image,
    D_tgt(f(U)) inside f(source), iff the last two are equal."""
    def pts(R: Region):
        return None if R.is_full and R.ambient.extent is None else R.points()

    lhs = pts(apply_embedding(f, cauchy_development(f.source, U)))
    DV = pts(cauchy_development(f.target, apply_embedding(f, U)))
    img = pts(f.image())
    return lhs, img if DV is None else DV if img is None else DV & img, DV


# ---------------------------------------------------------------------------
# stabilization probe
# ---------------------------------------------------------------------------


def stabilization_check(M: LatticeSpacetime, op,
                        regions: Iterable[Region]) -> bool:
    """Recompute ``op(spacetime)`` with doubled window margins, the margin
    sized to the points of ``regions``.

    Returns True iff the first enlargement leaves the result unchanged.  A
    result still changing after the second doubling indicates a modeling bug
    and raises :class:`ModelError`.
    """
    pts = frozenset().union(*[r.points() for r in regions])
    m = _margin_for(M, pts)
    r0 = op(M)
    r1 = op(M.enlarged(m))
    if r0 == r1:
        return True
    r2 = op(M.enlarged(2 * m))
    if r1 != r2:
        raise ModelError("result keeps changing after two window doublings")
    return False
