"""Brute-force oracles, the independent side of the checks that compare an
engine with enumeration: they work on point sets, one point or one path
step at a time, and never on a region's rows."""

from __future__ import annotations

from .geometry import Region


def brute_causal(M, p, q) -> bool:
    dt = abs(q[0] - p[0])
    return M.xdist(q[1], p[1]) <= dt


def brute_double_complement(M, upts: frozenset, box, points) -> frozenset:
    """The ``points`` that lie in U'' within ``box``: no q of the box
    causally related to p is causally related to no point of U."""
    unrelated = [q for q in box
                 if not any(brute_causal(M, q, u) for u in upts)]
    return frozenset(p for p in points
                     if not any(brute_causal(M, p, q) for q in unrelated))


def brute_escapes(M, upts: frozenset, t_lo: int, t_hi: int, p, up: bool,
                  memo: dict) -> bool:
    """Whether a causal path from ``p`` leaves the box rows [t_lo, t_hi]
    upward (``up``) or downward without meeting ``upts``; ``memo`` holds
    the points already decided."""
    key = (p, up)
    if key not in memo:
        if p in upts:
            memo[key] = False
        else:
            t, x = p
            if (up and t >= t_hi) or (not up and t <= t_lo):
                memo[key] = True
            else:
                step = 1 if up else -1
                memo[key] = any(
                    brute_escapes(M, upts, t_lo, t_hi,
                                  M.norm_point((t + step, x + dx)), up, memo)
                    for dx in (-1, 0, 1))
    return memo[key]


def brute_development(M, upts: frozenset, box) -> frozenset:
    t_hi = max(t for (t, _) in box)
    t_lo = min(t for (t, _) in box)
    memo: dict = {}

    def esc(p, up):
        return brute_escapes(M, upts, t_lo, t_hi, p, up, memo)

    return frozenset(p for p in box
                     if p in upts or not (esc(p, True) and esc(p, False)))


def brute_confirms(M, U: Region, D: Region, DC: Region) -> bool:
    """Whether the engines' D = D(U) and DC = U'' agree with the
    enumerators above at the window's points of a box around U: D on the
    whole box, DC on U's rows +-2, every row on the cylinder.  The box
    reaches U's row span + 3 beyond U's rows, and as many columns beyond
    U's columns on the plane; docs/decisions.md ("Neither engine is at
    fault") proves each enumerator exact where it is compared."""
    ts = [t for (t, _) in U.pts]
    lo, hi = min(ts), max(ts)
    pad = hi - lo + 3
    if M.kind == "cylinder":
        cols = range(M.circumference)
    else:
        xs = [x for (_, x) in U.pts]
        cols = range(min(xs) - pad, max(xs) + pad + 1)
    box = [(t, x) for t in range(lo - pad, hi + pad + 1) for x in cols]
    seen = frozenset(p for p in box if M.in_window(p))
    band = seen if M.kind == "cylinder" else \
        frozenset(p for p in seen if lo - 2 <= p[0] <= hi + 2)

    def on(R, pts):
        return pts if R.is_full else R.pts & pts

    return (on(D, seen) == brute_development(M, U.pts, box) & seen
            and on(DC, band) ==
            brute_double_complement(M, U.pts, box, band))
