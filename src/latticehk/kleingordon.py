"""Exact rational lattice Klein-Gordon field.

The field operator is ``(P phi)(t,x) = -(phi(t+1,x) - 2 phi(t,x) +
phi(t-1,x)) + (phi(t,x+1) - 2 phi(t,x) + phi(t,x-1)) + m^2 phi(t,x)`` with
the spatial neighbors taken modulo the circumference on cylinders.  Unit
lattice spacing puts the propagation speed at exactly one, so the analytic
support statements match the combinatorial cones on the nose.

Fields are finitely supported rational-valued functions carried as plain
``{(t, x): value}`` dicts with zero entries dropped.

The generator space of a causally convex region U is ``C_c(U)`` modulo the
relations ``P chi`` that stay supported inside U; staying inside is the
lattice substitute for the locality of the continuum operator, and it is
what makes extension-by-zero maps injective (a compactly supported preimage
under P is unique and supported in the causally convex hull of its image).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import LatticeSpacetime, ModelError, WindowTooSmallError
from .rational import (Mat, Q0, Q1, QQ, QuotientSpace, induced_quotient_map)


class KgError(Exception):
    pass


class TimesliceSkip(KgError):
    """No flat two-row cut fits inside the target region."""


@dataclass(frozen=True)
class KgConfig:
    ambient: LatticeSpacetime
    mass2: object = Q0

    def __post_init__(self):
        if QQ(self.mass2) < 0:
            raise KgError("mass2 must be nonnegative")


def _norm(M: LatticeSpacetime, t, x):
    return (t, M.norm_x(x))


def field_clean(f: dict) -> dict:
    return {p: v for p, v in f.items() if v != 0}


def field_add(f: dict, g: dict, scale=Q1) -> dict:
    out = dict(f)
    for p, v in g.items():
        out[p] = out.get(p, Q0) + scale * v
    return field_clean(out)


def _stencil(m2) -> tuple:
    """P as ``(dt, dx, coefficient)`` entries: m^2 at the centre, -1 at the
    two time neighbours and +1 at the two space neighbours."""
    return ((0, 0, m2), (1, 0, -Q1), (-1, 0, -Q1), (0, 1, Q1), (0, -1, Q1))


def _inside_margin(M: LatticeSpacetime, rows) -> None:
    """Refuse a field with a point on one of the window's edge rows, where
    the stencil would reach past the window."""
    t_lo, t_hi = M.window
    for t in rows:
        if not t_lo < t < t_hi:
            raise WindowTooSmallError(
                f"field touches the window margin at row {t}; widen "
                f"spacetime.window [{t_lo}, {t_hi}] or narrow "
                f"universe.t_range")


def apply_P(cfg: KgConfig, phi: dict) -> dict:
    """The Klein-Gordon stencil; support may grow by one step."""
    M = cfg.ambient
    phi = field_clean(phi)
    _inside_margin(M, (t for (t, _) in phi))
    stencil = _stencil(QQ(cfg.mass2))
    out: dict = {}
    for (t, x), v in phi.items():
        for dt, dx, c in stencil:
            q = _norm(M, t + dt, x + dx)
            out[q] = out.get(q, Q0) + c * v
    return field_clean(out)


def green(cfg: KgConfig, phi: dict, direction: str, t_stop: int) -> dict:
    """Retarded or advanced solve of ``P psi = phi``.

    The leapfrog recursion marches one row at a time from the quiet side,
    solving the stencil for its entry on the next row, so the answer is
    exact and supported in the corresponding causal cone of the source.
    ``t_stop`` bounds the marched rows.
    """
    M = cfg.ambient
    phi = field_clean(phi)
    if not phi:
        return {}
    ts = [t for (t, _) in phi]
    t_lo, t_hi = M.window
    if direction == "retarded":
        step, start = 1, min(ts)
        if t_stop > t_hi:
            raise WindowTooSmallError("green horizon beyond the window")
    elif direction == "advanced":
        step, start = -1, max(ts)
        if t_stop < t_lo:
            raise WindowTooSmallError("green horizon below the window")
    else:
        raise KgError("direction must be 'retarded' or 'advanced'")
    # phi and psi by row, {t: {x: value}}, nonzero values only
    src: dict = {}
    for (t, x), v in phi.items():
        src.setdefault(t, {})[M.norm_x(x)] = v
    rows: dict = {}
    stencil = _stencil(QQ(cfg.mass2))
    c_next = next(c for dt, dx, c in stencil if (dt, dx) == (step, 0))
    known = [e for e in stencil if e[:2] != (step, 0)]
    for t in range(start, t_stop, step):
        # c_next psi(t + step, x) = phi(t, x) - sum of the known entries
        # c psi(t + dt, x + dx), scattered from each nonzero psi
        acc = dict(src.get(t, {}))
        for dt, dx, c in known:
            for y, v in rows.get(t + dt, {}).items():
                x = M.norm_x(y - dx)
                acc[x] = acc.get(x, Q0) - c * v
        rows[t + step] = {x: v / c_next for x, v in acc.items() if v != 0}
    return {(t, x): v for t, row in rows.items() for x, v in row.items()}


def propagator(cfg: KgConfig, phi: dict, t_lo: int, t_hi: int) -> dict:
    """G phi = G+ phi - G- phi restricted to the rows that matter."""
    gp = green(cfg, phi, "retarded", t_stop=t_hi)
    gm = green(cfg, phi, "advanced", t_stop=t_lo)
    out = field_add(gp, gm, scale=QQ(-1))
    return {p: v for p, v in out.items() if t_lo <= p[0] <= t_hi}


# ---------------------------------------------------------------------------
# generator spaces
# ---------------------------------------------------------------------------


class GreenKernel:
    """K = G e_(0,0) on the relative rows -H..H, as ``{dt: {dx: value}}``
    without zeros, shared by a context and its spaces.

    P is the same stencil at every point and ``green`` commutes with shifts
    in t and x (mod the circumference), so the propagator of the unit field
    at q is K shifted by q: G e_q (t, x) = K(t - t_q, x - x_q).  One
    ``propagator`` call on a spacetime of the same kind and circumference
    whose window is -H..H solves it, and a request for more rows solves it
    again at the new height (docs/decisions.md, "P and G are the same at
    every point")."""

    __slots__ = ("cfg", "height", "rows")

    def __init__(self, cfg: KgConfig):
        self.cfg, self.height, self.rows = cfg, -1, {}

    def upto(self, height: int) -> dict:
        """The kernel's rows, holding at least the relative rows
        -height..height."""
        if height > self.height:
            M = self.cfg.ambient
            horizon = KgConfig(LatticeSpacetime(M.kind, (-height, height),
                                                M.circumference),
                               self.cfg.mass2)
            rows: dict = {}
            for (t, x), v in propagator(horizon, {(0, 0): Q1}, -height,
                                        height).items():
                rows.setdefault(t, {})[x] = v
            self.height, self.rows = height, rows
        return self.rows


def _green_columns(kernel: GreenKernel, pts: tuple, sources) -> list:
    """G e_q read on the points ``pts`` for each point q of ``sources``,
    as ``{index in pts: value}``: the kernel shifted by q."""
    by_row: dict = {}
    for i, (t, x) in enumerate(pts):
        by_row.setdefault(t, []).append((i, x))
    K = kernel.upto(max((abs(t - tq) for t in by_row for tq, _ in sources),
                        default=0))
    norm_x = kernel.cfg.ambient.norm_x
    cols = []
    for (tq, xq) in sources:
        col = {}
        for t, row in by_row.items():
            k = K.get(t - tq)
            if k:
                for i, x in row:
                    v = k.get(norm_x(x - xq))
                    if v is not None:
                        col[i] = v
        cols.append(col)
    return cols


def pairing(kernel: GreenKernel, phi: dict, psi: dict):
    """sigma(phi, psi) = sum phi(p) psi(q) K(p - q) over the Green kernel
    K, which is sum phi * (G psi); antisymmetric, P-degenerate, and zero on
    causally disjoint supports."""
    phi, psi = field_clean(phi), field_clean(psi)
    pts = tuple(phi)
    cols = _green_columns(kernel, pts, psi)
    return sum((v * phi[pts[i]] * g for v, col in zip(psi.values(), cols)
                for i, g in col.items()), Q0)


class KgSpace:
    """L(U) = C_c(U) / {P chi : chi in C_c(U), supp(P chi) in U}."""

    def __init__(self, kernel: GreenKernel, pts: frozenset):
        """One elimination: the rows P(e_p), one per point, with the
        outside coordinates as the leading columns.  The reduced rows that
        pivot inside have no outside entry; they are the reduced relations
        (docs/decisions.md, "A generator space is one elimination").  Each
        row is scattered from the stencil times the denominator of m^2, in
        integers, which leaves the reduced form as it is."""
        self.cfg = cfg = kernel.cfg
        self._kernel = kernel
        self.pts = pts = tuple(sorted(pts))
        self.index = index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        M = cfg.ambient
        if pts:
            _inside_margin(M, (pts[0][0], pts[-1][0]))
        m2 = QQ(cfg.mass2)
        den = m2.denominator
        stencil = [(dt, dx, c.numerator * (den // c.denominator))
                   for dt, dx, c in _stencil(m2) if c]
        # point q -> {row i: the entry at q of den * P(e_p) for p = pts[i]};
        # neighbours that coincide on a narrow cylinder add up
        cols: dict = {}
        for i, (t, x) in enumerate(pts):
            for dt, dx, c in stencil:
                col = cols.setdefault((t + dt, M.norm_x(x + dx)), {})
                col[i] = col.get(i, 0) + c
        outside = sorted(cols.keys() - index.keys())
        m = len(outside)
        red, pivots = Mat.from_columns(
            [cols[q] for q in outside] + [cols.get(p, {}) for p in pts],
            n).rref()
        k = sum(1 for c in pivots if c < m)   # rows pivoting outside
        sub = Mat.from_columns(
            [{r - k: v for r, v in col.items() if r >= k}
             for col in red.columns()[m:]], len(pivots) - k)
        self.quotient = QuotientSpace(sub, tuple(c - m for c in pivots[k:]))
        self.dim = self.quotient.dim
        self._sigma = None

    def coordinates(self, field: dict) -> dict:
        """The field as a sparse ambient vector ``{point index: value}``."""
        field = field_clean(field)
        if not all(p in self.index for p in field):
            raise KgError("field leaves the region")
        return {self.index[p]: v for p, v in field.items()}

    def sigma_reduced(self) -> Mat:
        """The pairing on quotient coordinates, computed once per space.
        The section sends them to the free coordinates of the point basis,
        so it is the pairing of the free points, read off the context's
        Green kernel.  Before that, the pairing on the whole point basis is
        verified to be antisymmetric and to vanish on the quotient
        relations."""
        if self._sigma is None:
            # column q is G e_q on the points
            cols = _green_columns(self._kernel, self.pts, self.pts)
            sig = Mat.from_columns(cols, len(self.pts))
            if sig.transpose() != -sig:
                raise ModelError("pairing failed antisymmetry")
            # by antisymmetry, r @ sig vanishes iff sig applied to r does
            if not self.quotient.sub_rref.annihilates(sig):
                raise KgError("pairing does not descend to the quotient")
            free = self.quotient.free
            pos = {i: k for k, i in enumerate(free)}
            self._sigma = Mat.from_columns(
                [{pos[i]: v for i, v in cols[j].items() if i in pos}
                 for j in free], len(free))
        return self._sigma


class KgContext:
    """A Klein-Gordon configuration with cached generator spaces."""

    def __init__(self, ambient: LatticeSpacetime, mass2=Q0):
        self.cfg = KgConfig(ambient, QQ(mass2))
        self.kernel = GreenKernel(self.cfg)
        self._spaces: dict[frozenset, KgSpace] = {}
        self._extensions: dict[tuple[KgSpace, KgSpace], Mat] = {}

    @property
    def ambient(self):
        return self.cfg.ambient

    def space(self, pts) -> KgSpace:
        """The generator space of a point set, built once."""
        pts = frozenset(pts)
        if pts not in self._spaces:
            self._spaces[pts] = KgSpace(self.kernel, pts)
        return self._spaces[pts]

    def extension(self, U, V) -> Mat:
        """Extension-by-zero on classes: the relabelling map along the
        identity, injective for causally convex nested point sets.  Cached
        by the two spaces, which :meth:`space` builds once per point set,
        so the key hashes by identity; callers share the map and never
        change its column dicts."""
        src, dst = self.space(U), self.space(V)
        key = (src, dst)
        if key not in self._extensions:
            if not src.index.keys() <= dst.index.keys():
                raise KgError("extension needs nested regions")
            self._extensions[key] = relabelling_map(src, dst, lambda p: p)
        return self._extensions[key]

    # -- time-slice maps ----------------------------------------------------

    def _band_ok(self, p, tstar: int, vpts: set) -> bool:
        (tp, xp) = p
        norm = self.ambient.norm_point
        return all(norm((row, xp + dx)) in vpts
                   for (row, reach) in ((tstar, abs(tstar + 1 - tp)),
                                        (tstar + 1, abs(tstar - tp)))
                   for dx in range(-reach, reach + 1))

    def timeslice_map(self, U, V) -> Mat:
        """[phi] -> [P(chi_+ G phi)] for a localized morphism U -> D(V)-side.

        chi_+ is the indicator of the rows above a flat cut t*; the image is
        then carried by the two cut rows only:
            w(t*, x)   = -(G phi)(t*+1, x)
            w(t*+1, x) =  (G phi)(t*,   x)
        The cut may vary per generator; all choices agree on classes, and the
        induced map is checked to kill the source relations.
        """
        src, dst = self.space(U), self.space(V)
        vpts = set(dst.pts)
        vrows = sorted({t for (t, _) in dst.pts})
        # the cut rows of V lie within this distance of each point of U
        kernel = self.kernel.upto(max(vrows[-1] - src.pts[0][0],
                                      src.pts[-1][0] - vrows[0]))
        norm_x = self.ambient.norm_x
        images = []
        for p in src.pts:
            tstar = None
            for t in vrows:
                if self._band_ok(p, t, vpts):
                    tstar = t
                    break
            if tstar is None:
                raise TimesliceSkip(f"no flat two-row cut inside the target "
                                    f"for generator at {p}")
            # the two cut rows of G e_p, from the kernel shifted by p
            (tp, xp) = p
            w = {(tstar, norm_x(xp + dx)): -v
                 for dx, v in kernel.get(tstar + 1 - tp, {}).items()}
            w.update({(tstar + 1, norm_x(xp + dx)): v
                      for dx, v in kernel.get(tstar - tp, {}).items()})
            images.append(dst.coordinates(w))
        return induced_quotient_map(src.quotient, dst.quotient, images)

    def transition(self, U: frozenset, V: frozenset, localized: bool) -> Mat:
        if U <= V:
            return self.extension(U, V)
        if not localized:
            raise KgError("plain transitions need nested regions")
        return self.timeslice_map(U, V)


def relabelling_map(src: KgSpace, dst: KgSpace, move) -> Mat:
    """The map L(U) -> L(V) that sends the class of each point p of U to
    the class of the point ``move(p)`` of V, each column read off V's
    reduced relations: extension-by-zero along the identity, the
    generator-space identification along an embedding's ``map_point``."""
    return induced_quotient_map(
        src.quotient, dst.quotient,
        [{dst.index[move(p)]: Q1} for p in src.pts])
