"""Discrete 1+1D causal lattices and exact causality predicates.

Points are integer pairs ``(t, x)``.  A causal step goes from ``(t, x)`` to
``(t+1, x')`` with ``|x' - x| <= 1`` (distance taken modulo the circumference
on cylinders).  Chronological reachability additionally requires the time
offset to strictly exceed the spatial offset.

A :class:`Region` is its row masks: bit ``i`` of row ``k`` is the site
``(t0 + k, x0 + i)``, in a normal form that makes equal point sets equal
regions.  Cones and causal complements shift those rows into a padded grid,
run a handful of integer operations per row and trim the grid rows back into
a region; a Cauchy development sweeps only U's rows and the rows next to
them that it changes.  The point set is a derived view.
:func:`flat_grid` lays a site's regions over one shared grid as single ints.

A development, double complement or Cauchy-surface test is decided on a band
of rows around its region that provably holds the answer, and a result that
leaves the materialization window raises :class:`WindowTooSmallError`.
:func:`stabilization_check` recomputes a window-sensitive operation on
enlarged windows; a result that keeps changing indicates that the window is
too small.
"""

from __future__ import annotations

import functools
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


def flood_fill(seed: int, *rows, within: int = -1) -> int:
    """The bits reachable from ``seed`` along the bitset rows of every
    relation in ``rows``, never leaving ``within``; ``seed`` is included."""
    reach = frontier = seed
    while frontier:
        step = 0
        for rel in rows:
            for j in set_bits(frontier):
                step |= rel[j]
        frontier = step & within & ~reach
        reach |= frontier
    return reach


def weak_components(mask: int, *rows):
    """The components of ``mask`` under the relations ``rows``, lowest
    first.  They are weakly connected components when ``rows`` hold each
    relation's transpose too."""
    while mask:
        comp = flood_fill(mask & -mask, *rows, within=mask)
        yield comp
        mask &= ~comp


def transposed(rows, mask: int) -> tuple[int, ...]:
    """The transpose of the rows of ``mask``: row ``j`` holds ``i`` iff
    ``i`` is in ``mask`` and ``rows[i]`` holds ``j``."""
    out = [0] * len(rows)
    for i in set_bits(mask):
        for j in set_bits(rows[i]):
            out[j] |= 1 << i
    return tuple(out)


@dataclass(frozen=True)
class LatticeSpacetime:
    """A plane or cylinder causal lattice with a materialization window.

    ``window = (t_lo, t_hi)`` (inclusive) is a computation horizon only, never
    a physical boundary.  ``extent`` turns the spacetime into a bounded
    sub-lattice: the points of ``extent`` are the whole spacetime, inextendible
    causal paths are maximal paths inside it, and the symbolic full region
    denotes exactly this point set.

    ``_orbits`` memoizes the band sweeps of :func:`cauchy_development`,
    :func:`double_complement` and :func:`hull` on an unbounded spacetime
    by a region's shape: the key ``(op, rows)`` names the region's orbit
    under time shifts, and under x shifts on the plane, and a translation
    moves each sweep's result with its region.  The value is ``None`` for
    the full result, else the result's offset from the region and its
    rows, ``(dt, dx, rows)``.  It holds no :class:`Region` (a region holds
    its spacetime), takes no part in equality or hashing, and starts empty
    on every new spacetime.  The window is checked at the caller's
    position on every call, hit or miss.
    """

    kind: str  # "plane" | "cylinder"
    window: tuple[int, int]
    circumference: Optional[int] = None
    extent: Optional[frozenset[Point]] = None
    _orbits: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False, hash=False)

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
            raise GeometryError(
                f"spacetime.window [{t_lo}, {t_hi}] runs backwards; write "
                f"it as [{t_hi}, {t_lo}]")
        if self.extent is not None:
            if not self.extent:
                raise GeometryError("extent must be nonempty")
            for (t, x) in self.extent:
                if not (t_lo <= t <= t_hi):
                    raise GeometryError("extent exceeds window")

    @functools.cached_property
    def _extent_rows(self) -> tuple[int, int, tuple[int, ...]]:
        """The extent's ``(t0, x0, rows)``, held by the full region."""
        R = region_points(self.unbounded(), self.extent)
        return R.t0, R.x0, R.rows

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


@functools.lru_cache(maxsize=1024)
def _row_points(t: int, x0: int, m: int) -> tuple[Point, ...]:
    """The points of the row mask ``m`` at time ``t``, bit ``i`` at
    ``x0 + i``, in x order.  A site's objects and their translates share
    few distinct rows, so a region lists its points from this cache."""
    return tuple((t, x0 + i) for i in set_bits(m))


@dataclass(frozen=True, init=False)
class Region:
    """A finite explicit point set, or the symbolic full spacetime.

    A region is its rows: bit ``i`` of ``rows[k]`` is the site
    ``(t0 + k, x0 + i)``.  The normal form makes equal point sets equal
    regions: the first and last rows are nonzero, ``x0`` is 0 on the
    cylinder and the least x on the plane.  ``pts`` is the derived point
    set.  The full region is the only region that is not relatively
    compact; on a bounded spacetime it denotes the extent and holds its
    rows, on an unbounded one it holds none: there ``pts`` is empty and
    :meth:`points` refuses.
    """

    ambient: LatticeSpacetime
    kind: str  # "points" | "full"
    t0: int = 0
    x0: int = 0
    rows: tuple[int, ...] = ()

    def __init__(self, ambient: LatticeSpacetime, kind: str, t0: int = 0,
                 x0: int = 0, rows: tuple[int, ...] = ()):
        if kind not in ("points", "full"):
            raise GeometryError(f"unknown region kind {kind!r}")
        if kind == "points" and not rows:
            raise GeometryError("explicit region must be nonempty")
        # frozen: set once, through the instance dict
        self.__dict__.update(ambient=ambient, kind=kind, t0=t0, x0=x0,
                             rows=rows)

    def __hash__(self):
        return hash((self.t0, self.x0, self.rows))

    @property
    def is_full(self) -> bool:
        return self.kind == "full"

    @property
    def is_relatively_compact(self) -> bool:
        return self.kind == "points"

    @functools.cached_property
    def pts(self) -> frozenset[Point]:
        return frozenset(self.listed)

    def points(self) -> frozenset[Point]:
        if not self.rows:
            raise GeometryError("full region on unbounded spacetime has no "
                                "materialized point set")
        return self.pts

    @functools.cached_property
    def listed(self) -> tuple[Point, ...]:
        """The points in (t, x) order, joined row by row."""
        out = ()
        for t, m in enumerate(self.rows, self.t0):
            out += _row_points(t, self.x0, m)
        return out

    def _xs(self) -> tuple[int, int]:
        """The least and the greatest x of the rows."""
        width = functools.reduce(int.__or__, self.rows).bit_length()
        return self.x0, self.x0 + width - 1

    def t_range(self) -> tuple[int, int]:
        if not self.rows:
            self.points()  # refuses the full region of an unbounded M
        return self.t0, self.t0 + len(self.rows) - 1

    def contains(self, other: "Region") -> bool:
        """Subset inclusion: the other rows, aligned to these, add no
        bit."""
        rows, mine = other.rows, self.rows
        if not mine:
            return True  # the full region of an unbounded spacetime
        k, shift = other.t0 - self.t0, other.x0 - self.x0
        if not rows or k < 0 or k + len(rows) > len(mine) or shift < 0:
            return False
        return all(not m << shift & ~mine[k + j] for j, m in enumerate(rows))

    def sort_key(self):
        if self.is_full:
            return (1, 0, 0, ())
        ts = self.t_range()
        return (0, ts[0], ts[1], self.listed)

    def __repr__(self):
        if self.is_full:
            return "Region.full"
        ts = self.t_range()
        n = sum(m.bit_count() for m in self.rows)
        return f"Region({n} pts, t in [{ts[0]},{ts[1]}])"


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
    if not is_causally_convex(M, region_points(M, pts)):
        raise GeometryError("extent must be causally convex")
    return sub


def _checked(M: LatticeSpacetime, R: Region) -> Region:
    """``R``, refused when it leaves ``M``'s window or extent; the refusal
    names the least point outside."""
    (a, b), (t_lo, t_hi) = R.t_range(), M.window
    if a < t_lo or b > t_hi:
        p = next(p for p in R.listed if not t_lo <= p[0] <= t_hi)
        raise GeometryError(
            f"point {p} outside the window; widen spacetime.window "
            f"[{t_lo}, {t_hi}] or narrow universe.t_range")
    if M.extent is not None and not region_full(M).contains(R):
        p = next(p for p in R.listed if p not in M.extent)
        raise GeometryError(f"point {p} outside bounded extent")
    return R


def region_points(M: LatticeSpacetime, pts: Iterable[Point]) -> Region:
    c = M.circumference
    norm = [(t, x % c if c else x) for (t, x) in pts]
    if not norm:
        raise GeometryError("explicit region must be nonempty")
    ts = [t for (t, _) in norm]
    t0 = min(ts)
    x0 = 0 if c else min([x for (_, x) in norm])
    rows = [0] * (max(ts) - t0 + 1)
    for (t, x) in norm:
        rows[t - t0] |= 1 << x - x0
    return _checked(M, Region(M, "points", t0, x0, tuple(rows)))


def region_full(M: LatticeSpacetime) -> Region:
    return Region(M, "full", *(() if M.extent is None else M._extent_rows))


# ---------------------------------------------------------------------------
# row-mask grids
# ---------------------------------------------------------------------------


def _trimmed(M: LatticeSpacetime, t0: int, x0: int,
             rows: list[int]) -> Optional[Region]:
    """The region whose row ``k`` is ``rows[k]`` at time ``t0 + k``, bit
    ``i`` at ``x0 + i``, in normal form; None when the rows are empty."""
    held = [k for k, m in enumerate(rows) if m]
    if not held:
        return None
    rows = rows[held[0]:held[-1] + 1]
    if M.kind == "plane":
        low = functools.reduce(int.__or__, rows)
        shift = (low & -low).bit_length() - 1
        rows, x0 = [m >> shift for m in rows], x0 + shift
    return Region(M, "points", t0 + held[0], x0, tuple(rows))


def _spreader(full: int, c: Optional[int]):
    """The causal step on rows of ``full``'s width: a row mask to the sites
    that it reaches in one step, wrapping round a cylinder of circumference
    ``c`` and clipped to ``full`` on the plane (``c`` None)."""
    if c:
        return lambda m: (m | m << 1 | m >> 1 | m >> c - 1 | m << c - 1) & full
    return lambda m: (m | m << 1 | m >> 1) & full


class _Grid:
    """Per-row bitmask workspace over rows ``t0..t1`` (inclusive).

    On the plane, bit ``i`` of a row mask is the site ``x = x0 + i``; the
    x-range of ``regions`` is padded so that their cones never
    reach the lateral boundary inside the row range.  On the cylinder each
    row has exactly ``circumference`` bits with wrap-around spreading.
    """

    def __init__(self, M: LatticeSpacetime, t0: int, t1: int,
                 *regions: Region):
        self.M = M
        self.t0 = t0
        self.nrows = t1 - t0 + 1
        if M.kind == "cylinder":
            self.width = M.circumference
            self.x0 = 0
        else:
            xs = [x for R in regions for x in R._xs()] or [0]
            pad = (t1 - t0) + 2
            self.x0 = min(xs) - pad
            self.width = (max(xs) - min(xs)) + 2 * pad + 1
        self.full = (1 << self.width) - 1
        self.spread = _spreader(self.full, M.circumference)

    def rows(self, R: Region) -> list[int]:
        """The rows of ``R`` shifted into this grid, clipped to its rows
        and columns."""
        shift = R.x0 - self.x0
        out = [0] * self.nrows
        for k, m in enumerate(R.rows, R.t0 - self.t0):
            if 0 <= k < self.nrows:
                out[k] = (m << shift if shift >= 0 else m >> -shift) \
                    & self.full
        return out

    def trim(self, rows: list[int]) -> Optional[Region]:
        """The region of these grid rows in normal form; None when they
        are empty."""
        return _trimmed(self.M, self.t0, self.x0, rows)

    def flat(self, rows: list[int]) -> int:
        """The grid rows as one int, row ``k`` at bit ``k * width``."""
        v = 0
        for m in reversed(rows):
            v = v << self.width | m
        return v

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
                inside: list[int]) -> list[int]:
        """Rows of points admitting a future-maximal (``up``) or past-maximal
        causal path that avoids ``blocker`` and stays in ``inside``, maximal
        there.  The sweep runs against the path direction."""
        out = [0] * self.nrows
        nxt = nxt_inside = 0
        for r in self._order(not up):
            # a path inside may also end here: no step stays inside
            ok = inside[r] & (self.spread(nxt) |
                              (self.full & ~self.spread(nxt_inside)))
            nxt_inside = inside[r]
            nxt = out[r] = ok & ~blocker[r]
        return out


# ---------------------------------------------------------------------------
# cones, hulls, convexity
# ---------------------------------------------------------------------------


def _meet(a: list[int], b: list[int]) -> list[int]:
    return [x & y for x, y in zip(a, b)]


def _in_extent(M: LatticeSpacetime, g: _Grid, rows: list[int]) -> list[int]:
    """The grid rows kept inside a bounded ``M``'s extent."""
    return rows if M.extent is None else _meet(rows, g.rows(region_full(M)))


def cone(M: LatticeSpacetime, S: Region, direction: str, strict: bool,
         horizon: int) -> Region:
    """J+/J-/I+/I- of ``S`` up to the time bound ``horizon``."""
    if direction not in ("future", "past"):
        raise GeometryError("direction must be 'future' or 'past'")
    if S.is_full and S.ambient.extent is None:
        return region_full(M)
    tmin, tmax = S.t_range()
    t_lo, t_hi = M.window
    up = direction == "future"
    if up and horizon > t_hi or not up and horizon < t_lo:
        raise WindowTooSmallError(
            (f"horizon {horizon} beyond window top {t_hi}" if up else
             f"horizon {horizon} below window bottom {t_lo}") +
            f"; widen spacetime.window [{t_lo}, {t_hi}]")
    g = _Grid(M, tmin, horizon, S) if up else _Grid(M, horizon, tmax, S)
    out = g.trim(_in_extent(M, g, g.cone(g.rows(S), up, strict)))
    if out is None:
        raise GeometryError("empty cone (horizon excludes the seed set)")
    return out


def _by_orbit(M: LatticeSpacetime, op: str, U: Region, sweep) -> Region:
    """``sweep()``, the band sweep ``op`` of ``U``, run once per translation
    orbit of ``U``: the sweep's grid is placed relative to U and reads no
    window, so a translate's result is this one moved with it
    (docs/decisions.md, "Local covariance as the cache key")."""
    key = op, U.rows
    hit = M._orbits.get(key, False)
    if hit is None:
        return region_full(M)
    if hit:
        dt, dx, rows = hit
        return Region(M, "points", U.t0 + dt, U.x0 + dx, rows)
    R = sweep()
    M._orbits[key] = None if R.is_full else (R.t0 - U.t0, R.x0 - U.x0,
                                              R.rows)
    return R


def hull(M: LatticeSpacetime, S: Region) -> Region:
    """Causally convex hull J+(S) & J-(S).

    Confined to the time band of ``S``, so no stabilization is needed.
    """
    if S.is_full:
        return S

    def sweep():
        g = _Grid(M, *S.t_range(), S)
        seed = g.rows(S)
        # a convex extent: paths between its points stay in it
        return g.trim(_in_extent(M, g, _meet(g.cone(seed, True),
                                             g.cone(seed, False))))

    # the extent is not translation invariant
    return sweep() if M.extent is not None else _by_orbit(M, "hull", S, sweep)


def is_causally_convex(M: LatticeSpacetime, U: Region) -> bool:
    if U.is_full:
        return True
    return hull(M, U) == U


def are_causally_disjoint(M: LatticeSpacetime, U1: Region, U2: Region) -> bool:
    """True iff no point of U1 is causally related to a point of U2."""
    if U1.is_full or U2.is_full:
        # the full region (the extent, when bounded) meets every cone
        return False
    (a1, b1), (a2, b2) = U1.t_range(), U2.t_range()
    g = _Grid(M, min(a1, a2), max(b1, b2), U1, U2)
    return not any(_meet(g.both(g.rows(U1)), g.rows(U2)))


def flat_grid(M: LatticeSpacetime, regions: list[Region]):
    """One grid over the rows of ``regions``, row ``t`` laid at bit
    ``(t - t0) * width`` of one int, so that a grid position is a point's
    index.  Returns three things:

    - ``flat``, the int of any region clipped to the grid;
    - the int of each region (``None`` for the full region of an unbounded
      spacetime, which has no rows);
    - the ints of the future and past causal cones of each position that
      an explicit region holds, keyed by the position: one sweep each.

    A cone of a region is the OR of its points' cones.  The grid spans
    every region's rows and pads their columns on the plane, so these
    cones are exact on the grid's rows."""
    boxed = [R for R in regions if R.rows]
    g = _Grid(M, min((R.t0 for R in boxed), default=0),
              max((R.t_range()[1] for R in boxed), default=0), *boxed)

    def flat(R: Region) -> int:
        return g.flat(g.rows(R))

    masks = [flat(R) if R.rows else None for R in regions]
    held = 0
    for R, m in zip(regions, masks):
        if not R.is_full:
            held |= m
    cones = {}
    for b in set_bits(held):
        seed = [0] * g.nrows
        seed[b // g.width] = 1 << b % g.width
        cones[b] = tuple(g.flat(g.cone(seed, up)) for up in (True, False))
    return flat, masks, cones


# ---------------------------------------------------------------------------
# Cauchy development and the double causal complement
# ---------------------------------------------------------------------------


def _margin_for(M: LatticeSpacetime, *regions: Region) -> int:
    """The time span plus the spatial diameter of ``regions``, plus 2."""
    ts = [t for R in regions for t in R.t_range()]
    if M.kind == "cylinder":
        sdiam = M.circumference
    else:
        xs = [x for R in regions for x in R._xs()]
        sdiam = max(xs) - min(xs) + 1
    return max(ts) - min(ts) + 1 + sdiam + 2


def _band(U: Region, pad: int) -> tuple[int, int]:
    """The rows of ``U``, widened by ``pad`` on both sides."""
    t0, t1 = U.t_range()
    return t0 - pad, t1 + pad


def _windowed(M: LatticeSpacetime, R: Region, exceeds: str) -> Region:
    """``R``, a stable result; ``exceeds`` is the error text when it
    leaves the window."""
    t_lo, t_hi = M.window
    if not R.is_full and not t_lo <= R.t0 <= R.t_range()[1] <= t_hi:
        raise WindowTooSmallError(f"{exceeds} the window; widen "
                                  f"spacetime.window [{t_lo}, {t_hi}]")
    return R


def _development_raw(M: LatticeSpacetime, U: Region, t0: int,
                     t1: int) -> Region:
    """Cauchy development of an explicit set, materialized on rows t0..t1.

    The full region when the set blocks every inextendible path (possible
    on the cylinder only); the window is not checked.

    The escape sweeps run over U's rows, then on below U (upward escapes)
    and above it (downward ones) only until a row is full, since
    ``spread(full) == full`` makes every row beyond it full, or until the
    band ends.  On the plane one free column on each side of U escapes
    both ways, so the sweep needs no wider row (docs/decisions.md,
    "Developments sweep only the rows that change").
    """
    if U.t0 <= t0:
        raise ModelError("grid does not pad below the blocker")
    c = M.circumference
    if c:
        full, x0, rows = (1 << c) - 1, 0, U.rows[:t1 - U.t0 + 1]
    else:
        width = functools.reduce(int.__or__, U.rows).bit_length() + 2
        full, x0 = (1 << width) - 1, U.x0 - 1
        rows = [m << 1 for m in U.rows[:t1 - U.t0 + 1]]
    spread = _spreader(full, c)
    # upward escapes, from U's top row down; every row above it escapes
    up, nxt = [], full
    for m in reversed(rows):
        nxt = spread(nxt) & ~m
        up.append(nxt)
    up.reverse()
    nxt = spread(nxt)
    if not nxt:  # no site of the row below U escapes
        if not c:
            raise ModelError("finite set cannot block the plane")
        return region_full(M)
    below, t = [], U.t0 - 1
    while nxt != full and t >= t0:
        below.append(full & ~nxt)
        nxt, t = spread(nxt), t - 1
    # downward escapes, from U's bottom row up; a point of U's rows that
    # escapes both ways is dropped
    out, nxt = below[::-1], full
    for m, a in zip(rows, up):
        nxt = spread(nxt) & ~m
        out.append(m | full & ~(a & nxt))
    nxt, t = spread(nxt), U.t0 + len(rows)
    while nxt != full and t <= t1:
        out.append(full & ~nxt)
        nxt, t = spread(nxt), t + 1
    return _trimmed(M, U.t0 - len(below), x0, out)


def cauchy_development(M: LatticeSpacetime, U: Region) -> Region:
    """D(U): points through which every inextendible causal path meets U."""
    if U.is_full:
        return U
    if M.extent is not None:
        D = region_development(M, U, region_full(M))
        # the whole bounded spacetime, as apply_embedding names it
        return region_full(M) if D.contains(region_full(M)) else D
    # the band holds D(U) and the row below U, so its result is exact
    # (docs/decisions.md, "Each probe sweeps its own band")
    D = _by_orbit(M, "dev", U, lambda: _development_raw(
        M, U, *_band(U, _margin_for(M, U) + 1)))
    return _windowed(M, D, "development exceeds")


def region_development(M: LatticeSpacetime, U: Region, V: Region) -> Region:
    """D_V(U): development of U inside the sub-lattice V.

    Inextendible paths are paths in V that cannot be extended within V.
    """
    g = _Grid(M, *V.t_range(), V)
    vmask = g.rows(V)
    umask = _meet(g.rows(U), vmask)
    if not any(umask):
        raise GeometryError("U must meet V")
    up = g.escapes(umask, True, inside=vmask)
    down = g.escapes(umask, False, inside=vmask)
    return g.trim([(u | (v & ~(a & b))) & v
                   for u, v, a, b in zip(umask, vmask, up, down)])


def _double_complement_raw(M: LatticeSpacetime, U: Region, t0: int,
                           t1: int) -> Region:
    """U'' of an explicit set, materialized on rows t0..t1.  The set must
    be causally convex, J+(U) & J-(U) = U; the two cones of J(U) test it."""
    g = _Grid(M, t0, t1, U)
    umask = g.rows(U)
    fut = g.cone(umask, True)
    pas = g.cone(umask, False)
    if _meet(fut, pas) != umask:
        raise GeometryError("double_complement expects a causally convex "
                            "region")
    comp = [g.full & ~(a | b) for a, b in zip(fut, pas)]
    if not any(comp):
        # J(U) covers the whole grid; top and bottom rows full means the
        # causal complement is globally empty, hence U'' is everything.
        return region_full(M)
    return g.trim([g.full & ~m for m in g.both(comp)])


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
    # the band holds U'' and a complement point in the cone of each other
    # point, so its result is exact (docs/decisions.md, as above)
    dc = _by_orbit(M, "dc", U, lambda: _double_complement_raw(
        M, U, *_band(U, _margin_for(M, U))))
    return _windowed(M, dc, "double complement exceeds")


# ---------------------------------------------------------------------------
# predicate family
# ---------------------------------------------------------------------------


def is_D_stable(M: LatticeSpacetime, U: Region) -> bool:
    if U.is_full:
        return True
    D = cauchy_development(M, U)
    return D == U


def is_cauchy_morphism(M: LatticeSpacetime, U: Region, V: Region) -> bool:
    """U <= V and D(U) = D(V)."""
    return V.contains(U) and \
        cauchy_development(M, U) == cauchy_development(M, V)


def contains_cauchy_surface_of(M: LatticeSpacetime, U: Region,
                               V: Region) -> bool:
    """D_V(U) = V, i.e. U meets every inextendible causal path of V."""
    if U.is_full:
        return True
    if V.is_full and V.ambient.extent is None and M.extent is None:
        # U blocks every path iff no site of the row below it escapes up;
        # with every row inside, the bounded sweep over U's rows +-1 is the
        # unbounded one (docs/decisions.md, "One step rule, one escape
        # sweep per question")
        g = _Grid(M, *_band(U, 1), U)
        return not g.escapes(g.rows(U), True, [g.full] * g.nrows)[0]
    return region_development(M, U, V).contains(V)


# ---------------------------------------------------------------------------
# diamonds and D-stable neighborhoods
# ---------------------------------------------------------------------------


def region_diamond(M: LatticeSpacetime, bottom: Point, top: Point) -> Region:
    return hull(M, region_points(M, [bottom, top]))


def region_strict_diamond(M: LatticeSpacetime, bottom: Point,
                          top: Point) -> Region:
    """I+(bottom) & I-(top): the diamond of the inner tips, one row above
    ``bottom`` and one row below ``top`` (docs/decisions.md, "A strict
    diamond is the diamond of its inner tips").  Refused for time
    separation < 2, when empty, and, like :func:`region_diamond`, when an
    inner tip leaves the window or a bounded extent."""
    (t0, x0), (t1, x1) = bottom, top
    if t1 - t0 < 2:
        raise GeometryError("strict diamond needs time separation >= 2")
    if M.xdist(x0, x1) > t1 - t0 - 2:
        raise GeometryError("empty strict diamond")
    return region_diamond(M, (t0 + 1, x0), (t1 - 1, x1))


def region_slab(M: LatticeSpacetime, t0: int, t1: int) -> Region:
    """All sites with t0 <= t <= t1.  Finite only on the cylinder."""
    if M.kind != "cylinder":
        raise GeometryError("slabs are infinite on the plane")
    if t0 > t1:
        raise GeometryError("empty slab")
    g = _Grid(M, t0, t1)
    rows = _in_extent(M, g, [g.full] * g.nrows)
    if not any(rows):
        raise GeometryError("slab misses the bounded extent")
    return _checked(M, g.trim(rows))


def find_D_stable_neighborhood(M: LatticeSpacetime, p: Point,
                               U: Region) -> Region:
    """A D-stable causally convex relatively compact V with p in V <= U.

    Strategy: the largest symmetric strict diamond around ``p`` that fits in
    ``U`` and verifies D-stable; at ``r = 1`` it is the singleton ``{p}``.
    """
    p = M.norm_point(p)
    if not U.is_full and p not in U.pts:
        raise GeometryError("p must lie in U")
    if M.extent is not None and p not in M.extent:
        raise GeometryError("p outside bounded extent")
    t_lo, t_hi = M.window
    rmax = min(p[0] - t_lo, t_hi - p[0])
    if not U.is_full:
        # a strict diamond of radius r spans rows p[0] - r + 1 .. p[0] + r - 1
        a, b = U.t_range()
        rmax = min(rmax, p[0] - a + 1, b - p[0] + 1)
    for r in range(max(rmax, 1), 0, -1):
        try:
            V = region_strict_diamond(M, (p[0] - r, p[1]), (p[0] + r, p[1]))
        except GeometryError:
            continue  # an inner tip leaves a bounded extent
        if U.contains(V) and is_D_stable(M, V):
            return V
    raise ModelError("singleton is not D-stable; degenerate backend")


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
        if s.extent is not None:
            _moved(self, region_full(s))

    def map_point(self, p: Point) -> Point:
        return self.target.norm_point((p[0] + self.dt, p[1] + self.dx))

    def image(self) -> Region:
        if self.source.extent is None:
            if self.source.kind == self.target.kind and \
                    self.target.extent is None:
                return region_full(self.target)
            raise GeometryError("unbounded source into bounded target")
        return _moved(self, region_full(self.source))


def _moved(f: LatticeEmbedding, U: Region) -> Region:
    """The image of ``U``: its rows translated, rotated on a cylinder."""
    T, t0 = f.target, U.t0 + f.dt
    if T.kind == "plane":
        return _checked(T, Region(T, "points", t0, U.x0 + f.dx, U.rows))
    c, s = T.circumference, (U.x0 + f.dx) % T.circumference
    rows = tuple((m << s | m << s >> c) & (1 << c) - 1 for m in U.rows)
    return _checked(T, Region(T, "points", t0, 0, rows))


def apply_embedding(f: LatticeEmbedding, U: Region) -> Region:
    if U.is_full:
        out = f.image()
    elif f.source.extent is None and f.target.extent is None:
        # an unbounded source holds every region, and no image holds the
        # full region of an unbounded target
        return _moved(f, U)
    elif not region_full(f.source).contains(U):
        raise GeometryError("region leaves the embedding's domain")
    else:
        out = _moved(f, U)
    full = region_full(f.target)
    return full if out.contains(full) else out  # the whole bounded target


def preimage_region(f: LatticeEmbedding, V: Region) -> Optional[Region]:
    """f^{-1}(V) as a region of the source; None when empty.

    V's rows move back the way :func:`_moved` moves them forward, onto the
    extent's rows, or onto the window's rows of an unbounded source.  On a
    cylinder target a row is rotated so that bit ``i`` lands on the source
    column ``x0 + i``; a wrapped plane strip is narrower than the circle, so
    each of its columns has one cylinder column."""
    if V.is_full:
        return region_full(f.source)
    S, c = f.source, f.target.circumference
    if S.extent is not None:
        t0, x0, keep = S._extent_rows
    else:
        (t_lo, t_hi), (a, b) = S.window, V.t_range()
        t0, x0 = max(t_lo, a - f.dt), 0 if c else V.x0 - f.dx
        keep = [-1] * (min(t_hi, b - f.dt) - t0 + 1)
    # a rotation on a cylinder target, a shift on a plane one
    s = (x0 + f.dx) % c if c else V.x0 - f.dx - x0
    rows = []
    for k, e in enumerate(keep, t0 + f.dt - V.t0):
        m = V.rows[k] if 0 <= k < len(V.rows) else 0
        if c:
            m = (m >> s | m << c - s) & (1 << c) - 1
        else:
            m = m << s if s >= 0 else m >> -s
        rows.append(m & e)
    return _trimmed(S, t0, x0, rows)


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
        return R.pts if R.rows else None

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
    m = _margin_for(M, *regions)
    r0 = op(M)
    r1 = op(M.enlarged(m))
    if r0 == r1:
        return True
    r2 = op(M.enlarged(2 * m))
    if r1 != r2:
        raise ModelError("result keeps changing after two window doublings")
    return False
