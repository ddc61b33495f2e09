"""AQFT assignments over finite sites: indicator families, CCR families,
axiom checks, the additivity counit probe and natural-transformation counts.

An assignment pairs every object of a materialized site (or cover category)
with an algebra value and every morphism with transition data.  Indicator
families take a distinguished algebra on the objects satisfying a predicate
and the initial algebra elsewhere, with all transitions forced.  CCR families
carry a generator quotient space per region and a linear map per morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .algebra import (INITIAL, Initial, QPower, ThinDiagram,
                      enumerate_homs, two_valued_colimit)
from .geometry import (LatticeEmbedding, Region, apply_embedding,
                       contains_cauchy_surface_of, region_full, set_bits)
from .rational import Mat, Q1
from .sites import SiteCategory


class AqftError(Exception):
    pass


# ---------------------------------------------------------------------------
# indicator families
# ---------------------------------------------------------------------------


def make_predicate(name: str, site: SiteCategory,
                   data: Optional[Region] = None) -> Callable[[Region], bool]:
    M = site.M
    if name == "equals_full":
        return lambda U: U.is_full
    if name == "contains_cauchy_surface":
        full = region_full(M)
        return lambda U: contains_cauchy_surface_of(M, U, full)
    if name == "contains_image":
        if data is None:
            raise AqftError("contains_image needs the image region")
        return lambda U: U.contains(data)
    if name == "equals_region":
        # deliberately non-monotone negative control
        if data is None:
            raise AqftError("equals_region needs a region")
        return lambda U: U == data
    raise AqftError(f"unknown predicate {name!r}")


@dataclass
class IndicatorAqft:
    """U |-> A on predicate objects, the initial algebra elsewhere."""

    site: object  # SiteCategory or CoverCategory
    algebra: QPower
    values: dict
    label: str = "indicator"

    def value(self, k):
        return self.values[k]

    def support(self):
        return [k for k in self.site.object_keys()
                if not isinstance(self.values[k], Initial)]


def build_indicator(site, predicate, A: QPower,
                    label: str = "indicator",
                    check_functorial: bool = True) -> IndicatorAqft:
    """Indicator assignment with forced transitions.

    Construction fails when the predicate is not monotone along morphisms
    (no functor) or holds on two causally disjoint regions (the guard the
    commutativity axiom asks for).
    """
    values = {}
    for k in site.object_keys():
        values[k] = A if predicate(site.region_of(k)) else INITIAL
    out = IndicatorAqft(site, A, values, label)
    if check_functorial:
        keys = list(site.object_keys())
        for a in keys:
            for b in keys:
                if site.hom_k(a, b) and not isinstance(values[a], Initial) \
                        and isinstance(values[b], Initial):
                    raise AqftError(
                        f"predicate not monotone along {site.region_of(a)} -> "
                        f"{site.region_of(b)}; no indicator functor")
        sup = out.support()
        for a in sup:
            for b in sup:
                if a < b and site.disjoint_k(a, b):
                    raise AqftError("predicate holds on two causally "
                                    "disjoint regions")
    return out


def pullback_indicator(F, A: IndicatorAqft,
                       label: Optional[str] = None) -> IndicatorAqft:
    """Precompose with a site functor (e.g. the one an embedding induces)."""
    values = {k: A.values[F.omap[k]] for k in F.source.object_keys()}
    return IndicatorAqft(F.source, A.algebra, values,
                         label or f"pullback({A.label})")


def check_time_slice_indicator(A: IndicatorAqft) -> bool:
    site = A.site
    if not isinstance(site, SiteCategory):
        raise AqftError("time-slice check runs on a site")
    for a in site.object_keys():
        for b in set_bits(site.cauchy[a]):
            if type(A.values[a]) is not type(A.values[b]) or \
                    A.values[a] != A.values[b]:
                return False
    return True


def epsilon_iso_check(A: IndicatorAqft, U_key) -> bool:
    """Compare the value at U with the colimit of the assignment over the
    relatively compact universe objects below U (the additivity counit)."""
    site = A.site
    if not isinstance(site, SiteCategory) or site.localized:
        raise AqftError("the counit probe runs on a plain site")
    U = site.region_of(U_key)
    below = [k for k in site.object_keys()
             if site.region_of(k).is_relatively_compact
             and U.contains(site.region_of(k))]
    homs = frozenset((i, j) for i in range(len(below))
                     for j in range(len(below))
                     if i != j and site.hom_k(below[i], below[j]))
    diagram = ThinDiagram(len(below), homs)
    colim = two_valued_colimit(diagram, [A.values[k] for k in below])
    val = A.values[U_key]
    if isinstance(colim, Initial) and isinstance(val, Initial):
        return True
    return colim == val


def count_nat_transforms(A: IndicatorAqft, B: IndicatorAqft) -> int:
    """Exact number of natural transformations A => B over the shared
    structure.  Components at initial-algebra objects are forced; on the
    support of A the components propagate along morphisms and are counted by
    exhaustive branching with constraint propagation."""
    site = A.site
    if B.site is not site and B.site != site:
        raise AqftError("assignments live on different structures")
    sup = sorted(A.support())
    if not sup:
        return 1
    keys = set(sup)
    for a in sup:
        for b in site.object_keys():
            if site.hom_k(a, b) and b not in keys:
                raise AqftError("support of A not upward closed")
    # weakly connected components of the support diagram
    parent = {k: k for k in sup}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = [(a, b) for a in sup for b in sup
             if a != b and site.hom_k(a, b)]
    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict = {}
    for k in sup:
        comps.setdefault(find(k), []).append(k)

    def b_transition(a, b) -> Mat:
        va, vb = B.values[a], B.values[b]
        if isinstance(va, Initial):
            kb = 1 if isinstance(vb, Initial) else vb.k
            return Mat([[Q1] for _ in range(kb)], 1)
        if isinstance(vb, Initial):
            raise AqftError("B support not upward closed")
        return Mat.identity(vb.k)

    def hom_set(b_val):
        return enumerate_homs(A.algebra, b_val)

    total = 1
    for nodes in comps.values():
        nodes = sorted(nodes)
        cedges = [(a, b) for (a, b) in edges if a in nodes and b in nodes]

        def count_assignments(assigned):
            # propagate forced values
            assigned = dict(assigned)
            changed = True
            while changed:
                changed = False
                for (a, b) in cedges:
                    if a in assigned:
                        forced = b_transition(a, b) @ assigned[a]
                        if b in assigned:
                            if assigned[b] != forced:
                                return 0
                        else:
                            assigned[b] = forced
                            changed = True
            rest = [n for n in nodes if n not in assigned]
            if not rest:
                return 1
            n0 = rest[0]
            return sum(count_assignments({**assigned, n0: h})
                       for h in hom_set(B.values[n0]))

        total *= count_assignments({})
    return total


# ---------------------------------------------------------------------------
# CCR families
# ---------------------------------------------------------------------------


@dataclass
class CcrAqft:
    """Generator quotient spaces per region with linear transitions."""

    site: SiteCategory
    ctx: object  # KgContext
    spaces: dict
    transitions: dict  # (a, b) -> Mat
    skipped: tuple = ()
    label: str = "ccr"

    def transition(self, a, b) -> Mat:
        return self.transitions[(a, b)]


def build_kg_aqft(ctx, site: SiteCategory, check: bool = True) -> CcrAqft:
    """Assemble the lattice Klein-Gordon assignment over a site.

    Values are the generator quotient spaces, transitions the extension or
    flat-cut maps per flavor.  Commutativity on orthogonal pairs and the
    time-slice property on Cauchy pairs are verified at construction.
    """
    from .kleingordon import TimesliceSkip
    if site.compactness == "copen" and site.M.extent is None:
        raise AqftError("field assignments need materializable regions; "
                        "use an rc site or a bounded spacetime")
    spaces = {}
    for k in site.object_keys():
        spaces[k] = ctx.space(site.region_of(k))
    transitions = {}
    skipped = []
    keys = list(site.object_keys())
    for a in keys:
        for b in keys:
            if not site.hom_k(a, b):
                continue
            try:
                transitions[(a, b)] = ctx.transition(
                    site.region_of(a), site.region_of(b), site.localized)
            except TimesliceSkip as e:
                skipped.append(((a, b), str(e)))
    out = CcrAqft(site, ctx, spaces, transitions, tuple(skipped))
    if check:
        errs = check_kg_axioms(out)
        if errs:
            raise AqftError("; ".join(errs))
    return out


def check_kg_axioms(A: CcrAqft) -> list[str]:
    site = A.site
    errs = []
    keys = list(site.object_keys())
    # functoriality on composable pairs
    for (a, b) in A.transitions:
        for c in keys:
            if site.hom_k(b, c) and (b, c) in A.transitions:
                if (a, c) not in A.transitions:
                    continue
                if A.transitions[(b, c)] @ A.transitions[(a, b)] != \
                        A.transitions[(a, c)]:
                    errs.append(f"composition fails {a}->{b}->{c}")
    # commutativity: the pairing vanishes between causally disjoint images
    for a in keys:
        for b in keys:
            if a >= b or not site.disjoint_k(a, b):
                continue
            commons = [c for c in keys
                       if site.hom_k(a, c) and site.hom_k(b, c)
                       and (a, c) in A.transitions
                       and (b, c) in A.transitions]
            for c in commons:
                sig = A.spaces[c].sigma_reduced()
                ta = A.transitions[(a, c)]
                tb = A.transitions[(b, c)]
                if any(v != 0
                       for row in (ta.transpose() @ sig @ tb).data
                       for v in row):
                    errs.append(f"pairing does not vanish on the disjoint "
                                f"pair {a}, {b} inside {c}")
    # time-slice: Cauchy morphisms become isomorphisms
    for a in keys:
        for b in set_bits(site.cauchy[a]):
            if (a, b) in A.transitions:
                t = A.transitions[(a, b)]
                if t.nrows != t.ncols or t.rank() != t.nrows:
                    errs.append(f"Cauchy morphism {a}->{b} not invertible")
    return errs


def check_time_slice(A) -> bool:
    if isinstance(A, IndicatorAqft):
        return check_time_slice_indicator(A)
    return not [e for e in check_kg_axioms(A) if "Cauchy" in e]


# ---------------------------------------------------------------------------
# point families
# ---------------------------------------------------------------------------


@dataclass
class PointFamily:
    """A finite natural family: one assignment per spacetime and an
    isomorphism datum per embedding.

    ``members`` maps a label to (site, assignment); ``arrows`` maps a label
    to (src, tgt, embedding, alpha) where alpha maps source object keys to
    matrices (CCR) or None (indicator families, where components are forced);
    ``compositions`` lists (f, g, gf) label triples with gf = g after f.
    """

    members: dict
    arrows: dict
    compositions: tuple = ()


def _object_image(f: LatticeEmbedding, src_site, tgt_site, k):
    img = apply_embedding(f, src_site.region_of(k))
    if img not in tgt_site.index:
        raise AqftError("universe extension request: image region missing")
    return tgt_site.index[img]


def verify_point(P: PointFamily) -> dict:
    """Coherence of a natural family.

    Checks, per arrow, that alpha is a natural isomorphism onto the pulled
    back assignment; per composition triple, that the pasting square
    commutes; and for identity arrows, that alpha is the identity.
    Returns a dict of named boolean verdicts.
    """
    out = {"natural_iso": True, "composition": True, "identity": True}
    for label, (sname, tname, f, alpha) in P.arrows.items():
        ssite, sA = P.members[sname]
        tsite, tA = P.members[tname]
        for a in ssite.object_keys():
            fa = _object_image(f, ssite, tsite, a)
            if isinstance(sA, IndicatorAqft):
                va, vb = sA.values[a], tA.values[fa]
                if type(va) is not type(vb) or va != vb:
                    out["natural_iso"] = False
            else:
                comp = alpha.get(a)
                if comp is None or comp.nrows != comp.ncols or \
                        comp.rank() != comp.nrows:
                    out["natural_iso"] = False
        if isinstance(sA, IndicatorAqft):
            continue
        for (a, b) in sA.transitions:
            fa = _object_image(f, ssite, tsite, a)
            fb = _object_image(f, ssite, tsite, b)
            if (fa, fb) not in tA.transitions:
                continue
            lhs = alpha[b] @ sA.transitions[(a, b)]
            rhs = tA.transitions[(fa, fb)] @ alpha[a]
            if lhs != rhs:
                out["natural_iso"] = False
    for (lf, lg, lgf) in P.compositions:
        sf, tf, f, alpha_f = P.arrows[lf]
        sg, tg, g, alpha_g = P.arrows[lg]
        sgf, tgf, gf, alpha_gf = P.arrows[lgf]
        if sf != sgf or tg != tgf or tf != sg:
            raise AqftError("ill-typed composition triple")
        ssite = P.members[sf][0]
        msite = P.members[tf][0]
        if alpha_f and alpha_g and alpha_gf:
            for a in ssite.object_keys():
                fa = _object_image(f, ssite, msite, a)
                lhs = alpha_g[fa] @ alpha_f[a]
                if lhs != alpha_gf[a]:
                    out["composition"] = False
    for label, (sname, tname, f, alpha) in P.arrows.items():
        if sname == tname and f.dt == 0 and f.dx == 0 and \
                f.source == f.target:
            if alpha:
                for a, m in alpha.items():
                    if m != Mat.identity(m.nrows):
                        out["identity"] = False
    return out


def reconstruct_global(P: PointFamily, label_order: Iterable[str]) -> dict:
    """The terminal-evaluation round trip for members carrying the full
    region: values at full, and per-arrow maps
    ``A(f) = transition(f(full) -> full) after alpha_f``; functoriality over
    the declared composition triples is returned per triple."""
    values = {}
    for name in label_order:
        site, A = P.members[name]
        full = region_full(site.M)
        if full not in site.index:
            raise AqftError(f"member {name} has no full object")
        values[name] = site.index[full]
    maps = {}
    for label, (sname, tname, f, alpha) in P.arrows.items():
        ssite, sA = P.members[sname]
        tsite, tA = P.members[tname]
        kfull = values[sname]
        img = _object_image(f, ssite, tsite, kfull)
        tgt_full = values[tname]
        if isinstance(sA, IndicatorAqft):
            maps[label] = None
            continue
        ext = tA.transitions[(img, tgt_full)]
        maps[label] = ext @ alpha[kfull]
    verdicts = {}
    for (lf, lg, lgf) in P.compositions:
        if maps[lf] is None:
            verdicts[(lf, lg, lgf)] = True
            continue
        verdicts[(lf, lg, lgf)] = (maps[lg] @ maps[lf] == maps[lgf])
    return {"values": values, "maps": maps, "functorial": verdicts}
