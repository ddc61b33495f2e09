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
from typing import Optional

from .geometry import LatticeSpacetime, Region, WindowTooSmallError
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


def apply_P(cfg: KgConfig, phi: dict) -> dict:
    """The Klein-Gordon stencil; support may grow by one step."""
    M = cfg.ambient
    t_lo, t_hi = M.window
    phi = field_clean(phi)
    for (t, _) in phi:
        if not (t_lo < t < t_hi):
            raise WindowTooSmallError("field touches the window margin")
    stencil = _stencil(QQ(cfg.mass2))
    out: dict = {}
    for (t, x), v in phi.items():
        for dt, dx, c in stencil:
            q = _norm(M, t + dt, x + dx)
            out[q] = out.get(q, Q0) + c * v
    return field_clean(out)


def green(cfg: KgConfig, phi: dict, direction: str,
          t_stop: Optional[int] = None) -> dict:
    """Retarded or advanced solve of ``P psi = phi``.

    The leapfrog recursion marches one row at a time from the quiet side,
    solving the stencil for its entry on the next row, so the answer is
    exact and supported in the corresponding causal cone of the source.
    ``t_stop`` bounds the marched rows (the window edge by default).
    """
    M = cfg.ambient
    phi = field_clean(phi)
    if not phi:
        return {}
    ts = [t for (t, _) in phi]
    t_lo, t_hi = M.window
    if direction == "retarded":
        step, start = 1, min(ts)
        stop = t_hi if t_stop is None else t_stop
        if stop > t_hi:
            raise WindowTooSmallError("green horizon beyond the window")
    elif direction == "advanced":
        step, start = -1, max(ts)
        stop = t_lo if t_stop is None else t_stop
        if stop < t_lo:
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
    for t in range(start, stop, step):
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


def pairing(cfg: KgConfig, phi: dict, psi: dict):
    """sigma(phi, psi) = sum phi * (G psi); antisymmetric, P-degenerate, and
    zero on causally disjoint supports."""
    phi, psi = field_clean(phi), field_clean(psi)
    if not phi or not psi:
        return Q0
    ts = [t for (t, _) in phi]
    g = propagator(cfg, psi, min(ts), max(ts))
    return sum((v * g.get(p, Q0) for p, v in phi.items()), Q0)


# ---------------------------------------------------------------------------
# generator spaces
# ---------------------------------------------------------------------------


class KgSpace:
    """L(U) = C_c(U) / {P chi : chi in C_c(U), supp(P chi) in U}."""

    def __init__(self, cfg: KgConfig, pts: frozenset):
        """One elimination: the rows P(e_p), one per point, with the
        outside coordinates as the leading columns.  The reduced rows that
        pivot inside have no outside entry; they are the reduced relations
        (docs/decisions.md, "A generator space is one elimination")."""
        self.cfg = cfg
        self.pts = tuple(sorted(pts))
        self.index = {p: i for i, p in enumerate(self.pts)}
        n = len(self.pts)
        images = [apply_P(cfg, {p: Q1}) for p in self.pts]
        outside = sorted({q for img in images for q in img} - set(self.pts))
        m = len(outside)
        column = {q: j for j, q in enumerate(outside + list(self.pts))}
        cols: list[dict] = [{} for _ in column]
        for i, img in enumerate(images):
            for q, v in img.items():
                cols[column[q]][i] = v
        red, pivots = Mat.from_columns(cols, n).rref()
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
        if not set(field) <= set(self.pts):
            raise KgError("field leaves the region")
        return {self.index[p]: v for p, v in field.items()}

    def sigma_reduced(self) -> Mat:
        """The pairing on quotient coordinates, computed once per space.
        The section sends them to the free coordinates of the point basis,
        so it is the pairing of the free points.  Before that, the pairing
        on the whole point basis is verified to be antisymmetric and to
        vanish on the quotient relations."""
        if self._sigma is None:
            ts = [t for (t, _) in self.pts]
            index = self.index
            cols = []
            for q in self.pts:
                g = propagator(self.cfg, {q: Q1}, min(ts), max(ts))
                cols.append({index[p]: v for p, v in g.items()
                             if p in index})
            sig = Mat.from_columns(cols, len(self.pts))
            if sig.transpose() != -sig:
                raise KgError("pairing failed antisymmetry (internal error)")
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
        self._spaces: dict[frozenset, KgSpace] = {}
        self._extensions: dict[tuple[frozenset, frozenset], Mat] = {}

    @property
    def ambient(self):
        return self.cfg.ambient

    def space(self, U) -> KgSpace:
        pts = U.points() if isinstance(U, Region) else frozenset(U)
        if pts not in self._spaces:
            self._spaces[pts] = KgSpace(self.cfg, pts)
        return self._spaces[pts]

    def extension(self, U, V) -> Mat:
        """Extension-by-zero on classes; injective for causally convex
        nested regions.  Each point keeps its label, so each column is read
        off the target's reduced relations.  Cached by the two point sets;
        callers share the map and never change its column dicts."""
        src, dst = self.space(U), self.space(V)
        key = (src.pts, dst.pts)
        if key not in self._extensions:
            if not src.index.keys() <= dst.index.keys():
                raise KgError("extension needs nested regions")
            self._extensions[key] = induced_quotient_map(
                src.quotient, dst.quotient,
                [{dst.index[p]: Q1} for p in src.pts])
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
            g = propagator(self.cfg, {p: Q1}, tstar, tstar + 1)
            w = {}
            for ((t, x), v) in g.items():
                if t == tstar + 1:
                    w[(tstar, x)] = w.get((tstar, x), Q0) - v
                if t == tstar:
                    w[(tstar + 1, x)] = w.get((tstar + 1, x), Q0) + v
            images.append(dst.coordinates(w))
        return induced_quotient_map(src.quotient, dst.quotient, images)

    def transition(self, U, V, localized: bool) -> Mat:
        upts = U.points() if isinstance(U, Region) else frozenset(U)
        vpts = V.points() if isinstance(V, Region) else frozenset(V)
        if upts <= vpts:
            return self.extension(upts, vpts)
        if not localized:
            raise KgError("plain transitions need nested regions")
        return self.timeslice_map(upts, vpts)


def pushforward_matrix(ctx_src: KgContext, ctx_tgt: KgContext, f,
                       U: Region, fU: Region) -> Mat:
    """Generator-space identification along an embedding: relabel the
    points of U into those of its image ``fU``, which the caller has
    already moved."""
    src = ctx_src.space(U)
    dst = ctx_tgt.space(fU)
    return induced_quotient_map(
        src.quotient, dst.quotient,
        [{dst.index[f.map_point(p)]: Q1} for p in src.pts])
