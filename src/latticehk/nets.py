"""AQFT assignments over finite sites: indicator families, CCR families,
axiom checks, the additivity counit probe and natural-transformation counts.

An assignment pairs every object of a materialized site (or cover category)
with an algebra value and every morphism with transition data.  Indicator
families take a distinguished algebra on the objects of a support mask
and the initial algebra elsewhere, with all transitions forced.  CCR families
carry a generator quotient space per region and a linear map per morphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import INITIAL, AlgebraError, Initial, QPower, enumerate_homs
from .geometry import set_bits, transposed, weak_components
from .kleingordon import TimesliceSkip
from .rational import Mat, Q1
from .sites import SiteCategory


class AqftError(Exception):
    pass


# ---------------------------------------------------------------------------
# indicator families
# ---------------------------------------------------------------------------


@dataclass
class IndicatorAqft:
    """U |-> A on the objects of the support, the initial algebra
    elsewhere."""

    site: object  # SiteCategory or CoverCategory
    algebra: QPower
    support: int  # bit k: object k carries the algebra

    def value(self, k):
        """The algebra at object ``k``."""
        return self.algebra if self.support >> k & 1 else INITIAL


def build_indicator(site, support: int, A: QPower) -> IndicatorAqft:
    """Indicator assignment on the objects of ``support`` (bit k: object
    k), with forced transitions.

    Construction fails when the support is not upward closed along
    morphisms (no functor) or holds two causally disjoint objects (the
    guard the commutativity axiom asks for).
    """
    for a in set_bits(support):
        escape = site.hom[a] & ~support
        if escape:
            b = next(set_bits(escape))
            raise AqftError(
                f"support not upward closed along {site.region_of(a)} -> "
                f"{site.region_of(b)}; no indicator functor")
    if any(site.disjoint[a] & support for a in set_bits(support)):
        raise AqftError("support holds two causally disjoint objects")
    return IndicatorAqft(site, A, support)


def pullback_indicator(F, A: IndicatorAqft) -> IndicatorAqft:
    """Precompose with a site functor: the one an embedding induces, or the
    cover functor, which restricts a theory to a cover."""
    support = sum(1 << k for k in F.source.object_keys()
                  if A.support >> F.omap[k] & 1)
    return IndicatorAqft(F.source, A.algebra, support)


def epsilon_iso_check(A: IndicatorAqft, U_key) -> bool:
    """Compare the value at U with the colimit of the assignment over the
    relatively compact universe objects below U (the additivity counit).

    The colimit is Initial when no supported object lies below U, A when
    the supported ones below U form one weakly connected component, and the
    free product of k copies of A for k components.  So only k is counted,
    by flood fill over the plain rows and their transposes, masked to the
    supported objects below U."""
    site = A.site
    if not isinstance(site, SiteCategory) or site.localized:
        raise AqftError("the counit probe runs on a plain site")
    hom, inside, support = site.plain_hom, site.inside, A.support
    # every object but the full one
    below = inside[U_key] & ~(0 if site.full is None else 1 << site.full)
    rest = support & below
    if any(hom[a] & below & ~support for a in set_bits(rest)):
        raise AlgebraError("transition from the nontrivial value to "
                           "Initial is unsupported")
    k = sum(1 for _ in weak_components(rest, hom, inside))
    # Initial at U matches no component, A matches exactly one
    return k == (support >> U_key & 1)


def _b_transition(B: IndicatorAqft, a, b) -> Mat:
    """B's forced transition along a -> b."""
    va, vb = B.value(a), B.value(b)
    if isinstance(va, Initial):
        kb = 1 if isinstance(vb, Initial) else vb.k
        return Mat([[Q1] for _ in range(kb)], 1)
    if isinstance(vb, Initial):
        raise AqftError("B support not upward closed")
    return Mat.identity(vb.k)


def _count_assignments(A: IndicatorAqft, B: IndicatorAqft, nodes: list,
                       out_edges: dict, assigned: dict, new: list) -> int:
    """Number of component families on ``nodes`` that extend ``assigned``
    and commute with every (b, B-transition) of ``out_edges[a]``: values
    forced by the newly assigned nodes ``new`` propagate along their edges
    from a worklist, then the first open node branches over its homs.  Each
    edge is checked once, when its source is assigned, so the count does
    not depend on the order of propagation."""
    todo = list(new)
    while todo:
        a = todo.pop()
        for b, t in out_edges.get(a, ()):
            forced = t @ assigned[a]
            if b not in assigned:
                assigned[b] = forced
                todo.append(b)
            elif assigned[b] != forced:
                return 0
    n0 = next((n for n in nodes if n not in assigned), None)
    if n0 is None:
        return 1
    return sum(_count_assignments(A, B, nodes, out_edges,
                                  {**assigned, n0: h}, [n0])
               for h in enumerate_homs(A.algebra, B.value(n0)))


def count_nat_transforms(A: IndicatorAqft, B: IndicatorAqft) -> int:
    """Exact number of natural transformations A => B over the shared
    structure.  Components at initial-algebra objects are forced; on the
    support of A the components propagate along morphisms and are counted by
    exhaustive branching with constraint propagation, one weakly connected
    component of the support at a time."""
    site = A.site
    if B.site is not site:
        raise AqftError("assignments live on different structures")
    support = A.support
    if not support:
        return 1
    hom = site.hom
    if any(hom[a] & ~support for a in set_bits(support)):
        raise AqftError("support of A not upward closed")
    total = 1
    for comp in weak_components(support, hom, transposed(hom, support)):
        nodes = list(set_bits(comp))
        out_edges = {a: [(b, _b_transition(B, a, b))
                         for b in set_bits(hom[a] & ~(1 << a))]
                     for a in nodes}
        total *= _count_assignments(A, B, nodes, out_edges, {}, [])
    return total


# ---------------------------------------------------------------------------
# CCR families
# ---------------------------------------------------------------------------


@dataclass
class CcrAqft:
    """Generator quotient spaces per region with linear transitions."""

    site: SiteCategory
    spaces: dict
    transitions: dict  # (a, b) -> Mat
    skipped: tuple = ()


def build_kg_aqft(ctx, site: SiteCategory, check: bool = True) -> CcrAqft:
    """Assemble the lattice Klein-Gordon assignment over a site.

    Values are the generator quotient spaces, transitions the extension or
    flat-cut maps per flavor.  Commutativity on orthogonal pairs and the
    time-slice property on Cauchy pairs are verified at construction.
    """
    if site.compactness == "copen" and site.M.extent is None:
        raise AqftError("field assignments need materializable regions; "
                        "use an rc site or a bounded spacetime")
    pts = [site.region_of(k).points() for k in site.object_keys()]
    spaces = {k: ctx.space(p) for k, p in enumerate(pts)}
    transitions = {}
    skipped = []
    for a in site.object_keys():
        for b in set_bits(site.hom[a]):
            try:
                transitions[(a, b)] = ctx.transition(pts[a], pts[b],
                                                     site.localized)
            except TimesliceSkip as e:
                skipped.append(((a, b), str(e)))
    out = CcrAqft(site, spaces, transitions, tuple(skipped))
    if check:
        errs = check_kg_axioms(out)
        if errs:
            raise AqftError("; ".join(errs))
    return out


def functoriality_errors(A: CcrAqft) -> list[str]:
    """Composable pairs whose transitions do not compose."""
    T = A.transitions
    errs = []
    for (a, b) in T:
        for c in set_bits(A.site.hom[b]):
            if (b, c) in T and (a, c) in T and \
                    T[(b, c)] @ T[(a, b)] != T[(a, c)]:
                errs.append(f"composition fails {a}->{b}->{c}")
    return errs


def commutativity_errors(A: CcrAqft) -> list[str]:
    """Causally disjoint pairs whose images do not commute: the pairing of
    the common target must vanish between them.  T_ac^T sigma_c is formed
    once per (a, c) and paired with each T_bc through T_bc's sparse
    columns."""
    site, T = A.site, A.transitions
    paired: dict = {}   # (a, c) -> T_ac^T sigma_c
    errs = []
    for a in site.object_keys():
        for b in set_bits(site.disjoint[a] & ~((2 << a) - 1)):  # b > a
            for c in set_bits(site.hom[a] & site.hom[b]):
                if (a, c) not in T or (b, c) not in T:
                    continue
                if (a, c) not in paired:
                    paired[(a, c)] = T[(a, c)].transpose() @ \
                        A.spaces[c].sigma_reduced()
                if not paired[(a, c)].annihilates(T[(b, c)]):
                    errs.append(f"pairing does not vanish on the disjoint "
                                f"pair {a}, {b} inside {c}")
    return errs


def time_slice_errors(A: CcrAqft) -> list[str]:
    """Cauchy morphisms whose transitions are not isomorphisms."""
    errs = []
    for a in A.site.object_keys():
        for b in set_bits(A.site.cauchy[a]):
            t = A.transitions.get((a, b))
            if t is not None and not t.is_iso():
                errs.append(f"Cauchy morphism {a}->{b} not invertible")
    return errs


def check_kg_axioms(A: CcrAqft) -> list[str]:
    """Functoriality, commutativity and time-slice errors, in that order."""
    return functoriality_errors(A) + commutativity_errors(A) + \
        time_slice_errors(A)


def check_time_slice(A) -> bool:
    """An indicator net: whether each Cauchy row (which holds its own
    object) lies wholly inside or wholly outside the support.  A field net:
    whether every Cauchy transition is invertible."""
    if isinstance(A, IndicatorAqft):
        if not isinstance(A.site, SiteCategory):
            raise AqftError("time-slice check runs on a site")
        return all(row & A.support in (0, row) for row in A.site.cauchy)
    return not time_slice_errors(A)


# ---------------------------------------------------------------------------
# point families
# ---------------------------------------------------------------------------


@dataclass
class PointFamily:
    """A finite natural family: one assignment per spacetime and an
    isomorphism datum per embedding.

    ``members`` maps a label to (site, CCR assignment); ``arrows`` maps a
    label to (src, tgt, F, alpha) where F is the site functor the embedding
    induces from the src member's site into the tgt member's site and alpha
    maps source object keys to matrices; ``compositions`` lists (f, g, gf)
    label triples with gf = g after f.
    """

    members: dict
    arrows: dict
    compositions: tuple = ()


def verify_point(P: PointFamily) -> dict:
    """Coherence of a natural family.

    Checks, per arrow, that alpha is a natural isomorphism onto the pulled
    back assignment; per composition triple, that the pasting square
    commutes; and for identity arrows (the identity object map on one
    site), that alpha is the identity.  Returns a dict of named boolean
    verdicts.
    """
    out = {"natural_iso": True, "composition": True, "identity": True}
    for label, (sname, tname, F, alpha) in P.arrows.items():
        ssite, sA = P.members[sname]
        tsite, tA = P.members[tname]
        if F.source is not ssite or F.target is not tsite:
            raise AqftError(f"arrow {label} does not run from the site of "
                            f"{sname} to the site of {tname}")
        for a in ssite.object_keys():
            comp = alpha.get(a)
            if comp is None or not comp.is_iso():
                out["natural_iso"] = False
        for (a, b) in sA.transitions:
            fa = F.omap[a]
            fb = F.omap[b]
            if (fa, fb) not in tA.transitions:
                continue
            lhs = alpha[b] @ sA.transitions[(a, b)]
            rhs = tA.transitions[(fa, fb)] @ alpha[a]
            if lhs != rhs:
                out["natural_iso"] = False
    for (lf, lg, lgf) in P.compositions:
        sf, tf, Ff, alpha_f = P.arrows[lf]
        sg, tg, _, alpha_g = P.arrows[lg]
        sgf, tgf, _, alpha_gf = P.arrows[lgf]
        if sf != sgf or tg != tgf or tf != sg:
            raise AqftError("ill-typed composition triple")
        if alpha_f and alpha_g and alpha_gf:
            for a, fa in Ff.omap.items():
                lhs = alpha_g[fa] @ alpha_f[a]
                if lhs != alpha_gf[a]:
                    out["composition"] = False
    for (_, _, F, alpha) in P.arrows.values():
        if F.source is F.target and all(k == v for k, v in F.omap.items()):
            for m in alpha.values():
                if m != Mat.identity(m.nrows):
                    out["identity"] = False
    return out


def reconstruct_global(P: PointFamily) -> dict:
    """The terminal-evaluation round trip for members carrying the full
    region: per-arrow maps ``A(f) = transition(f(full) -> full) after
    alpha_f``."""
    full = {}
    for name, (site, _) in P.members.items():
        if site.full is None:
            raise AqftError(f"member {name} has no full object")
        full[name] = site.full
    maps = {}
    for label, (sname, tname, F, alpha) in P.arrows.items():
        img = F.omap[full[sname]]
        tA = P.members[tname][1]
        maps[label] = tA.transitions[(img, full[tname])] @ alpha[full[sname]]
    return maps
