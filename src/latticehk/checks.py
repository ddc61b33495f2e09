"""Check registry: every verification the workbench can run, keyed by a
stable id and bound to a claim label.

Each runner takes a resolved :class:`RunContext` plus per-check options and
returns a list of :class:`CheckRecord`.  A runner is declared once, by
:func:`register`, which also names the claim of each record it emits and
the default of each option it reads.  A check over drawn instances hands
them, with the test for one, to :meth:`RunContext.tally_over`; the drawers
live in :mod:`latticehk.instances` and the brute-force oracles in
:mod:`latticehk.oracles`.  Checks are pure; the CLI and the acceptance
suite execute them through the same registry, :func:`run_check`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

from . import geometry as geo
from .algebra import (INITIAL, QPower, ThinDiagram, TruncatedFreeAlgebra,
                      WedgeSpace, consistency_check, count_cocones,
                      count_homs, count_homs_from_value, relation_span,
                      two_valued_colimit)
from .descent import (generator_counit_check, prestack_failure_demo,
                      relation_counit_check)
from .geometry import (LatticeEmbedding, LatticeSpacetime, Region,
                       apply_embedding, are_causally_disjoint,
                       bounded_spacetime, cauchy_development, cone,
                       contains_cauchy_surface_of, double_complement,
                       find_D_stable_neighborhood, hull, is_causally_convex,
                       is_cauchy_morphism, is_D_stable, region_diamond,
                       region_full, region_points, region_slab,
                       region_strict_diamond, set_bits, check_loc_morphism,
                       development_restriction, WindowTooSmallError)
from .instances import (band_covers, bounded_embeddings, column_cover,
                        covers_for_site, descent_instances, diamond_source,
                        draw_half, draw_hull, draw_points, exhaustive_diamonds,
                        halves, largest_first, point_cover, refine_by_halves,
                        seeded_hulls, translation_embeddings)
from .kleingordon import (KgContext, KgError, apply_P, field_add,
                          field_clean, green, pairing, propagator,
                          relabelling_map)
from .nets import (AqftError, IndicatorAqft, build_indicator, build_kg_aqft,
                   check_time_slice, count_nat_transforms, epsilon_iso_check,
                   pullback_indicator, PointFamily, verify_point,
                   reconstruct_global)
from .oracles import brute_confirms
from .rational import Q1, QQ
from .sites import (Cover, CoverCategory, SiteCategory, SiteError,
                    SiteFunctor, check_cover_intersections,
                    check_localization_functor,
                    close_universe_for_localization, causal_pairs,
                    compare_localization_models, enumerate_universe,
                    j_functor, refinement_functor, extend_cover, base_points)


# the enumerate_universe keywords a scenario's "universe" block may set,
# besides "compactness"
UNIVERSE_KEYS = ("x_range", "t_range", "max_height", "min_slab_height", "cap")

# the verdict every record is expected to carry unless a scenario's "expect"
# block says otherwise; a skip is accepted in its place
EXPECTED = "pass"

# check id -> runner, filled by @register
REGISTRY: dict[str, Callable] = {}
# record id -> claim label, for every record a runner may emit
CLAIM_OF: dict[str, str] = {}
# check id -> {name: default} of the integer options its runner reads
OPTIONS: dict[str, dict] = {}


def register(check_id: str, claim: str, flavors: tuple = (),
             companions: Optional[dict] = None,
             options: Optional[dict] = None):
    """Register the decorated runner under ``check_id`` and return it
    unchanged.  The records ``check_id`` and ``check_id-<flavor>`` carry
    ``claim``; ``companions`` maps the ids of further records the runner
    emits to their own claims; ``options`` maps the integer options the
    runner reads, the only ones a scenario may set for it, to their
    defaults, which :func:`run_check` fills in."""
    def deco(runner: Callable) -> Callable:
        REGISTRY[check_id] = runner
        CLAIM_OF[check_id] = claim
        OPTIONS[check_id] = options or {}
        for flavor in flavors:
            CLAIM_OF[f"{check_id}-{flavor}"] = claim
        CLAIM_OF.update(companions or {})
        return runner
    return deco


@dataclass
class CheckRecord:
    """One verdict: a check id, the claim it instantiates, the inputs digest,
    pass/fail/skip, and an optional witness."""

    id: str
    claim: str
    verdict: str
    witness: Optional[dict] = None
    digest: str = ""

    def to_json(self) -> dict:
        out = {"id": self.id, "paper_ref": self.claim,
               "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        out["digest"] = self.digest
        return out


def make_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunContext:
    """Resolved scenario inputs shared by the check runners.  Each input
    has one reader: ``t_range`` and ``zone`` for the rows and columns,
    ``mass2`` and ``algebra`` for the assignment family."""

    M: LatticeSpacetime
    seed: int = 0
    universe_cfg: dict = field(default_factory=dict)
    aqft_cfg: dict = field(default_factory=dict)
    # sites built in this run, keyed by (M, compactness, frozenset(objects))
    sites: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    # universes enumerated in this run, keyed by compactness
    universes: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # Klein-Gordon contexts of this run, keyed by (M, mass2)
    kgs: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False)

    def rng(self, salt: str = "") -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    def digest(self, extra=None) -> str:
        payload = {"kind": self.M.kind, "c": self.M.circumference,
                   "window": self.M.window, "seed": self.seed,
                   "universe": self.universe_cfg, "extra": extra}
        return make_digest(payload)

    def record(self, rec_id: str, ok: bool, witness=None,
               extra=None) -> CheckRecord:
        """A ``pass`` or, unless ``ok``, ``fail`` record with its
        registered claim and this run's digest, salted by ``extra``."""
        return CheckRecord(rec_id, CLAIM_OF[rec_id], "pass" if ok else "fail",
                           witness, self.digest(extra))

    def skip(self, rec_id: str, reason: str, extra=None,
             **witness) -> CheckRecord:
        """A skipped record whose witness opens with the reason."""
        return CheckRecord(rec_id, CLAIM_OF[rec_id], "skip",
                           {"reason": reason, **witness}, self.digest(extra))

    def tally_over(self, rec_id: str, instances, test: Callable, reason: str,
                   witness: Optional[Callable] = None, extra=None,
                   beside: Callable = lambda: True) -> CheckRecord:
        """The verdict of a check over ``instances``, drawn lazily if need
        be: each is judged by ``test`` before the next is drawn, and then
        ``beside()``, a verdict that no instance carries, is taken.  The
        record skips with ``reason`` when no instance was found and that
        verdict holds, and else passes iff no instance was bad and it
        holds.  ``witness(found, bad)``, read last, gives the witness (a
        pass or fail may carry none), by default ``{"instances": found,
        "bad": bad}``; ``extra`` salts the digest."""
        found = bad = 0
        for instance in instances:
            found += 1
            bad += not test(instance)
        holds = beside()
        out = witness(found, bad) if witness else \
            {"instances": found, "bad": bad}
        if not found and holds:
            return self.skip(rec_id, reason, extra, **out)
        return self.record(rec_id, holds and not bad, out, extra)

    def universe(self, compactness: str) -> tuple[Region, ...]:
        """The configured universe, enumerated once per run and
        compactness."""
        if compactness not in self.universes:
            cfg = {k: self.universe_cfg[k] for k in UNIVERSE_KEYS
                   if k in self.universe_cfg}
            self.universes[compactness] = tuple(enumerate_universe(
                self.M, compactness=compactness, **cfg))
        return self.universes[compactness]

    def site(self, compactness=None, localized=False) -> SiteCategory:
        """The site over the configured universe."""
        comp = compactness or self.universe_cfg.get("compactness", "rc")
        return self.site_over(self.universe(comp), comp, localized)

    def site_over(self, objects, compactness: str = "rc",
                  localized: bool = False,
                  M: Optional[LatticeSpacetime] = None) -> SiteCategory:
        """The site over ``objects`` (regions of ``M``, the scenario's
        spacetime by default), built once per run; the other morphism rule
        is its relocalized twin."""
        M = self.M if M is None else M
        key = (M, compactness, frozenset(objects))
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = SiteCategory(M, key[2], compactness,
                                                  localized)
        return site.relocalized(localized)

    def embedded(self, f: LatticeEmbedding, site: SiteCategory,
                 around=()) -> SiteFunctor:
        """The functor ``f`` induces from ``site`` into the site over
        ``around`` and the images of its objects, under the source's
        morphism rule; the target is ``copen`` exactly when it holds the
        full region.  Each object is moved once, and the target holds every
        image, so the object map cannot miss."""
        images = [apply_embedding(f, U) for U in site.objects]
        objects = {*around, *images}
        target = self.site_over(
            objects, "copen" if any(U.is_full for U in objects) else "rc",
            site.localized, M=f.target)
        return SiteFunctor(site, target,
                           {k: target.index[U] for k, U in enumerate(images)})

    def kg(self, M: Optional[LatticeSpacetime] = None) -> KgContext:
        """The Klein-Gordon context over ``M`` (the scenario's spacetime by
        default) at the configured mass squared, built once per run so that
        the checks share its generator spaces."""
        key = (self.M if M is None else M, self.mass2)
        if key not in self.kgs:
            self.kgs[key] = KgContext(*key)
        return self.kgs[key]

    @property
    def t_range(self) -> tuple[int, int]:
        """The configured rows, the whole window by default."""
        return tuple(self.universe_cfg.get("t_range", self.M.window))

    def zone(self) -> Region:
        """The region the configured rows and columns span; every column of
        a cylinder."""
        return region_points(self.M, base_points(
            self.M, self.universe_cfg.get("x_range"), self.t_range))

    @property
    def mass2(self) -> QQ:
        """The configured mass squared, 1/4 by default."""
        literal = self.aqft_cfg.get("mass2", "1/4")
        try:
            return QQ(str(literal))
        except (ValueError, ZeroDivisionError):
            raise KgError(f"mass2 must be a rational, not {literal!r}")

    @property
    def algebra(self) -> QPower:
        """The configured indicator algebra, Q^2 by default."""
        literal = self.aqft_cfg.get("algebra", {"kind": "qpower", "k": 2})
        kind = literal.get("kind") if isinstance(literal, dict) else None
        if kind == "initial":
            return QPower(1)
        k = literal.get("k", 2) if kind == "qpower" else None
        # a bool is no integer, as in the scenario validator
        if not (type(k) is int and k >= 1):
            raise AqftError(f"unknown algebra literal {literal!r}")
        return QPower(k)


# ---------------------------------------------------------------------------
# causality checks
# ---------------------------------------------------------------------------


@register("causality.cone-lightcone", "unit-slope-lattice-lightcones")
def check_cone_examples(ctx: RunContext, opts) -> list[CheckRecord]:
    M = ctx.M
    xs = range(-4, 5) if M.kind == "plane" else range(M.circumference)
    # J+ of (0, 0) holds distance <= t at row t, I+ distance < t
    ok = all(cone(M, region_points(M, [(0, 0)]), "future", strict, 4).pts
             == {(t, x) for t in range(5) for x in xs
                 if M.xdist(x, 0) < t + (not strict)}
             for strict in (False, True))
    return [ctx.record("causality.cone-lightcone", ok)]


@register("causality.development-vs-double-complement",
          "development-equals-double-complement-for-rc-causally-convex",
          companions={
              "causality.development-inside-double-complement":
                  "development-inside-double-complement",
              "causality.divergence-brute-confirmed":
                  "double-complement-divergences-confirmed-by-path-"
                  "enumeration"}, options={"hulls": 50})
def check_development_vs_double_complement(ctx: RunContext, opts):
    M = ctx.M
    zone = ctx.zone().listed
    corpus = exhaustive_diamonds(M, zone)
    corpus += seeded_hulls(M, zone, ctx.rng("hulls"), opts["hulls"])
    mism = []

    def included(U):
        # keeps the regions whose development and double complement differ
        D, DC = cauchy_development(M, U), double_complement(M, U)
        if D != DC:
            mism.append((U, D, DC))
        return DC.contains(D)

    inside = ctx.tally_over(
        "causality.development-inside-double-complement", corpus, included,
        "no region in the corpus",
        lambda n, bad: {"violations": bad} if bad or not n else None)
    return [ctx.record(
        "causality.development-vs-double-complement", not mism,
        None if not mism else {
            "corpus": len(corpus), "mismatches": len(mism),
            "example": sorted(mism[0][0].pts)},
        {"corpus": len(corpus)}), inside,
        # brute-force confirmation on the first two divergent instances:
        # the divergence is a property of the lattice, not of the mask engine
        ctx.tally_over(
            "causality.divergence-brute-confirmed", mism[:2],
            lambda case: brute_confirms(M, *case),
            "no divergent instance brute-checked",
            lambda n, bad: {"divergent": len(mism), "brute_checked": n})]


@register("causality.development-props",
          "development-idempotent-monotone-hull-stable")
def check_development_properties(ctx: RunContext, opts):
    M = ctx.M
    rng = ctx.rng("devprops")

    def holds(U):
        D = cauchy_development(M, U)
        idem = mono = True
        if not D.is_full:
            idem = cauchy_development(M, D) == D
            Ds = cauchy_development(M, hull(M, draw_half(M, rng, U)))
            mono = Ds.is_full or D.contains(Ds)
        H = hull(M, U)
        return idem and mono and hull(M, H) == H and H.is_relatively_compact

    # every hull is drawn before the first test draws its half
    corpus = seeded_hulls(M, ctx.zone().listed, rng, 30)
    return [ctx.tally_over("causality.development-props", corpus, holds,
                           "no hull drawn",
                           lambda n, bad: None if n else {"count": 0})]


@register("causality.strict-diamonds-d-stable",
          "strict-diamonds-are-d-stable-causally-convex")
def check_strict_diamonds(ctx: RunContext, opts):
    M = ctx.M
    # the pairs whose strict diamond is nonempty
    diamonds = (region_strict_diamond(M, p, q)
                for p, q in causal_pairs(M, ctx.zone().listed)
                if M.xdist(q[1], p[1]) <= q[0] - p[0] - 2)
    return [ctx.tally_over(
        "causality.strict-diamonds-d-stable", diamonds,
        lambda V: is_causally_convex(M, V) and V.is_relatively_compact
        and is_D_stable(M, V), "no strict diamond in the zone",
        lambda n, bad: {"total": n, "bad": bad})]


@register("causality.disjointness-hereditary",
          "causal-disjointness-passes-to-subregions")
def check_disjointness_hereditary(ctx: RunContext, opts):
    M = ctx.M
    zone = ctx.zone().listed
    rng = ctx.rng("disj")

    def disjoint_pairs():
        for _ in range(400):
            U1 = draw_hull(M, rng, zone, 1, 3)
            U2 = draw_hull(M, rng, zone, 1, 3)
            if are_causally_disjoint(M, U1, U2):
                yield U1, U2

    return [ctx.tally_over(
        "causality.disjointness-hereditary",
        islice(disjoint_pairs(), 20),
        lambda pair: are_causally_disjoint(
            M, *[draw_half(M, rng, U) for U in pair]),
        "no disjoint pair drawn", lambda n, bad: {"instances": n})]


@register("causality.cauchy-union-property",
          "cauchy-extension-unions-stay-causally-convex")
def check_cauchy_union_property(ctx: RunContext, opts):
    """For a Cauchy inclusion U <= U' and any U <= V (all causally convex),
    the union U' | V is causally convex and V <= U' | V is Cauchy."""
    M = ctx.M
    zone = ctx.zone().listed
    rng = ctx.rng("s3")

    def extensions():
        for _ in range(600):
            U = draw_hull(M, rng, zone, 1, 3)
            Up = hull(M, region_points(
                M, sorted(U.pts) + draw_points(rng, zone, 1, 2)))
            if not is_cauchy_morphism(M, U, Up):
                continue
            V = hull(M, region_points(
                M, sorted(U.pts) + draw_points(rng, zone, 1, 2)))
            if V.contains(U):
                yield V, region_points(M, Up.pts | V.pts)

    # each instance is the inclusion V <= U' | V
    return [ctx.tally_over(
        "causality.cauchy-union-property",
        islice(extensions(), 15),
        lambda inclusion: is_causally_convex(M, inclusion[1])
        and is_cauchy_morphism(M, *inclusion), "no Cauchy inclusion drawn")]


@register("causality.d-stable-neighborhood-sweep",
          "d-stable-neighborhoods-exist-inside-any-region")
def check_d_stable_neighborhoods(ctx: RunContext, opts):
    M = ctx.M
    U = hull(M, ctx.zone())

    def holds(p):
        V = find_D_stable_neighborhood(M, p, U)
        return p in V.pts and U.contains(V) and is_D_stable(M, V) \
            and is_causally_convex(M, V)

    return [ctx.tally_over("causality.d-stable-neighborhood-sweep",
                           U.listed, holds, "no point in the zone",
                           lambda n, bad: {"points": n})]


@register("causality.embedding-development-lemmas",
          "development-commutes-with-embeddings-and-stays-in-d-stable-"
          "images")
def check_embedding_lemmas(ctx: RunContext, opts):
    """Development commutes with faithful (translation) embeddings exactly;
    for bounded sub-lattice sources only the outer bound survives (their
    reflecting boundary can enlarge intrinsic developments), and confinement
    in D-stable images holds throughout."""
    rng = ctx.rng("emb")
    n_eq = n_incl = n_d2 = 0

    def comparisons():
        """Whether each comparison holds, in drawing order; a failed
        morphism check counts as a found comparison that fails.  Six
        regions are drawn per embedding."""
        nonlocal n_eq, n_incl, n_d2
        # every translation maps ctx.M to itself
        t0, t1 = ctx.t_range
        zone = [(t, x) for t in range(t0, t1 + 1) for x in range(0, 3)]
        for f in translation_embeddings(ctx, 6):
            if not check_loc_morphism(f):
                yield False
                continue
            for _ in range(6):
                U = draw_hull(f.source, rng, zone, 1, 3)
                n_eq += 1
                lhs, rhs, _ = development_restriction(f, U)
                yield lhs == rhs
        for f in bounded_embeddings(ctx):
            if not check_loc_morphism(f):
                yield False
                continue
            src = f.source
            zone = sorted(src.extent)
            stable = is_D_stable(f.target, f.image())
            for _ in range(6):
                U = draw_hull(src, rng, zone, 1, 3)
                n_incl += 1
                lhs, rhs, DV = development_restriction(f, U)
                yield rhs <= lhs
                if stable:
                    # confinement: D_tgt(f(U)) lies inside f(source)
                    n_d2 += 1
                    yield rhs == DV

    return [ctx.tally_over(
        "causality.embedding-development-lemmas", comparisons(), bool,
        "no region drawn",
        lambda n, bad: {"equality_instances": n_eq,
                        "bounded_inclusion_instances": n_incl,
                        "confinement_instances": n_d2, "bad": bad})]


@register("causality.stabilization",
          "window-doubling-leaves-stable-results-unchanged")
def check_stabilization(ctx: RunContext, opts):
    """Window doubling leaves a stable development unchanged, and a
    development truncated by a two-row window is refused.

    The truncated control is a block three columns wide and two rows
    high.  On a cylinder of circumference 3 or less it wraps into a slab,
    which develops to everything and leaves no horizon to truncate, so
    that shape is a configuration error."""
    M = ctx.M
    if M.kind == "cylinder" and M.circumference < 4:
        raise geo.GeometryError(
            "the truncated-horizon control of causality.stabilization wraps "
            "into a slab; raise spacetime.circumference "
            f"{M.circumference} to at least 4")

    def dev_op(mx):
        d = cauchy_development(mx, region_points(mx, U.pts))
        return "full" if d.is_full else tuple(sorted(d.pts))

    U = hull(M, region_points(M, [(0, 0), (2, 0)]))
    ok = geo.stabilization_check(M, dev_op, regions=[U])
    # deliberately truncated horizon: the instability is detected, not hidden
    wide = region_points(M, [(0, x) for x in range(0, 3)]
                         + [(1, x) for x in range(0, 3)])
    tight = M.with_window(0, 1)
    caught = False
    try:
        cauchy_development(tight, region_points(tight, wide.pts))
    except WindowTooSmallError:
        caught = True
    return [ctx.record("causality.stabilization", ok and caught)]


@register("causality.cauchy-morphism-equivalence",
          "ambient-cauchy-morphisms-contain-intrinsic-cauchy-surfaces")
def check_cauchy_morphism_equivalence(ctx: RunContext, opts):
    """Ambient Cauchy morphisms always contain an intrinsic Cauchy surface
    of their codomain, and for the whole spacetime as codomain the two
    notions coincide.  (The converse fails for bounded codomains: a lattice
    region's own boundary funnels its maximal paths, so small sets near a
    vertex can meet all of them; the count of such instances is recorded.)
    """
    M = ctx.M
    zone = ctx.zone().listed
    rng = ctx.rng("cauchyeq")
    converse_gap = 0

    def nested_pairs():
        for _ in range(40):
            V = draw_hull(M, rng, zone, 2, 4)
            U = hull(M, draw_half(M, rng, V))
            if V.contains(U):
                yield U, V

    def holds(pair):
        nonlocal converse_gap
        lhs = is_cauchy_morphism(M, *pair)
        rhs = contains_cauchy_surface_of(M, *pair)
        converse_gap += rhs and not lhs
        return rhs or not lhs

    def whole_cylinder():
        # a slab and a diamond from each configured row
        if M.kind != "cylinder":
            return True
        full = region_full(M)
        t0, t1 = ctx.t_range
        return all(cauchy_development(M, U).is_full ==
                   contains_cauchy_surface_of(M, U, full)
                   for a in range(t0, t1)
                   for U in (region_slab(M, a, a + 1),
                             region_diamond(M, (a, 0), (a + 2, 0))))

    return [ctx.tally_over(
        "causality.cauchy-morphism-equivalence", nested_pairs(), holds,
        "no nested pair drawn",
        lambda n, bad: {"instances": n, "bad": bad,
                        "intrinsic_only": converse_gap},
        beside=whole_cylinder)]


# ---------------------------------------------------------------------------
# site checks
# ---------------------------------------------------------------------------


@register("site.localization-oracle",
          "localized-homs-match-zigzag-saturation",
          options={"universes": 5, "regions": 12})
def check_localization_oracle(ctx: RunContext, opts):
    """Closed-form localized morphisms against the zigzag-saturation oracle
    on seeded witness-closed universes.  With no universe to draw, or no
    region to seed one with, it skips."""
    M = ctx.M
    zone = ctx.zone().listed
    rng = ctx.rng("locoracle")
    per = opts["regions"]
    rounds = opts["universes"] if per else 0
    sizes = []
    mismatches = 0

    def universes():
        for _ in range(rounds):
            seeds = seeded_hulls(M, zone, rng, per)
            yield close_universe_for_localization(M, seeds, cap=1200)

    def agrees(closed):
        nonlocal mismatches
        sizes.append(len(closed))
        psite = ctx.site_over(closed, "rc")
        _, mism = compare_localization_models(psite)
        wrong = len(mism) + (not check_localization_functor(psite))
        mismatches += wrong
        return not wrong

    return [ctx.tally_over(
        "site.localization-oracle", universes(), agrees, "no universe drawn",
        lambda n, bad: {"universes": n, "sizes": sizes,
                        "mismatches": mismatches} if n else {"universes": 0},
        {"universes": rounds})]


@register("site.localized-embedding-functors",
          "localized-embedding-functors-fully-faithful-orthogonality-"
          "reflecting")
def check_localized_embedding_functors(ctx: RunContext, opts):
    """Embedding functors between localized sites are fully faithful and
    reflect orthogonality, over the faithful (translation) embeddings."""
    src_site = ctx.site("rc", localized=True)
    return [ctx.tally_over(
        "site.localized-embedding-functors",
        (ctx.embedded(f, src_site)
         for f in translation_embeddings(ctx, 12)
         if check_loc_morphism(f)),
        lambda F: F.fully_faithful() and F.preserves_orthogonality()
        and F.reflects_orthogonality(), "no embedding drawn",
        lambda n, bad: {"embeddings": n, "bad": bad})]


@register("site.precostack-instances",
          "cover-functors-fully-faithful-and-orthogonality-reflecting",
          companions={"site.localized-refusal":
                      "localized-cover-categories-refuse-non-d-stable-"
                      "covers"}, options={"count": 12})
def check_precostack_instances(ctx: RunContext, opts):
    """Cover functors are fully faithful and reflect orthogonality, plain
    flavor with arbitrary causally convex covers and localized flavor with
    D-stable covers."""
    results = {"plain": 0, "localized": 0}

    def covers():
        for localized in (False, True):
            site = ctx.site(localized=localized)
            for cov in covers_for_site(ctx, site, localized, opts["count"]):
                if localized and not cov.is_D_stable():
                    continue
                yield localized, site, cov

    def holds(case):
        # a refused build is bad, and counted in neither flavor
        localized, site, cov = case
        try:
            cc = CoverCategory(site, cov)
        except SiteError:
            return False
        jf = j_functor(cc)
        results["localized" if localized else "plain"] += 1
        return jf.fully_faithful() and jf.reflects_orthogonality() \
            and jf.preserves_orthogonality()

    rec = ctx.tally_over("site.precostack-instances", covers(), holds,
                         "no cover drawn",
                         lambda n, bad: {**results, "bad": bad})
    # engineered refusal: the localized build must refuse a causally convex
    # two-row, three-column rectangle
    refused = False
    site = ctx.site(localized=True)
    t0 = ctx.t_range[0]
    rect = region_points(ctx.M, [(t, x) for t in (t0, t0 + 1)
                                 for x in (0, 1, 2)])
    # never D-stable: every past path from (t0 + 2, 1) enters the rectangle
    try:
        CoverCategory(site, Cover(rect, (rect,)))
    except SiteError:
        refused = True
    return [rec, ctx.record("site.localized-refusal", refused)]


@register("site.refinement-functors", "refinement-functors-fully-faithful")
def check_refinements(ctx: RunContext, opts):
    site = ctx.site(localized=False)

    def refines(cov):
        fine, alpha = refine_by_halves(ctx.M, cov)
        F = refinement_functor(site, fine, cov, alpha)
        return F.is_functor() and F.fully_faithful() and \
            F.reflects_orthogonality()

    return [ctx.tally_over(
        "site.refinement-functors",
        (cov for cov in covers_for_site(ctx, site, False, 6)
         if cov.base.t_range()[1] - cov.base.t_range()[0] >= 3),
        refines, "no cover to refine")]


@register("site.extend-cover",
          "extended-covers-satisfy-the-restriction-property",
          options={"count": 10})
def check_cover_extension(ctx: RunContext, opts):
    M = ctx.M
    rng = ctx.rng("extend")
    tr = ctx.t_range
    count = opts["count"]
    if count and tr[1] - tr[0] < 2:
        raise SiteError(f"site.extend-cover draws two-row regions below the "
                        f"top row of the zone, so it needs 3 rows, not "
                        f"{tr[1] - tr[0] + 1}; widen t_range")
    zone = ctx.zone()
    xs = sorted({x for (_, x) in zone.pts})
    if M.kind == "cylinder":
        stable = column_cover(M, zone, step=1)
    else:
        w, xc = xs[-1] - xs[0], (xs[0] + xs[-1]) // 2
        zone = region_diamond(M, (tr[0] - w, xc), (tr[1] + w, xc))
        pieces = []
        covered = set()
        for p in sorted(zone.pts):
            if p in covered:
                continue
            up = (p[0] + 1, p[1])
            pc = [p, up] if up in zone.pts else [p]
            pieces.append(region_points(M, pc))
            covered.update(pc)
        stable = Cover(region_full(M), tuple(pieces), zone=zone)
    covers = {"plain": Cover(region_full(M),
                             halves(M, zone.pts, (tr[0] + tr[1]) // 2, 1),
                             zone=zone),
              "D_stable": stable}
    done = {"plain": 0, "D_stable": 0}
    embeddings = [LatticeEmbedding(M, M, 0, 0),
                  LatticeEmbedding(M, M, 1, 2)]

    def attempts():
        for mode, cov in covers.items():
            for f in embeddings:
                for _ in range(count):
                    t = rng.randint(tr[0], tr[1] - 2)
                    x = rng.choice(xs)
                    U = region_points(M, [(t, x), (t + 1, x)])
                    yield mode, cov, f, U

    def extends(attempt):
        mode, cov, f, U = attempt
        try:
            extend_cover(f, cov, U, mode=mode, zone=zone)
            done[mode] += 1
        except SiteError:
            return False
        return True

    # both modes make the same attempts, so no bad one means none is short
    return [ctx.tally_over("site.extend-cover", attempts(), extends,
                           "no region drawn",
                           lambda n, bad: {**done, "bad": bad})]


@register("site.cover-intersections",
          "overlaps-inherit-convexity-and-d-stability")
def check_cover_intersection_props(ctx: RunContext, opts):
    site = ctx.site(localized=False)
    covers = covers_for_site(ctx, site, False, 4)
    if ctx.M.kind == "cylinder":
        covers.append(column_cover(ctx.M, ctx.zone()))
    return [ctx.tally_over("site.cover-intersections", covers,
                           check_cover_intersections, "no cover built",
                           lambda n, bad: None if n else {"covers": 0})]


# ---------------------------------------------------------------------------
# algebra checks
# ---------------------------------------------------------------------------


@register("algebra.hom-counts", "split-table-hom-counts")
def check_hom_counts(ctx: RunContext, opts):
    got = (count_homs(INITIAL, INITIAL),
           count_homs(QPower(2), QPower(2)),
           count_homs(QPower(2), QPower(1)),
           count_homs(QPower(3), QPower(2)))
    ok = got == (1, 4, 2, 9)
    return [ctx.record("algebra.hom-counts", ok, {"counts": list(got)})]


@register("algebra.two-valued-colimit",
          "two-valued-colimits-satisfy-the-universal-property")
def check_two_valued_colimit(ctx: RunContext, opts):
    A = QPower(2)
    diagrams = [
        (ThinDiagram(3, frozenset({(0, 1), (1, 2)})),
         [INITIAL, INITIAL, INITIAL]),
        (ThinDiagram(3, frozenset({(0, 1), (1, 2)})), [INITIAL, A, A]),
        (ThinDiagram(4, frozenset({(0, 1), (2, 3)})), [A, A, A, A]),
        (ThinDiagram(5, frozenset({(0, 1), (2, 3), (4, 3)})),
         [A, A, A, A, INITIAL]),
        (ThinDiagram(2, frozenset()), [A, A]),
    ]

    def counts():
        for D, vals in diagrams:
            colim = two_valued_colimit(D, vals)
            for T in (QPower(1), QPower(2), QPower(3)):
                yield (count_cocones(D, vals, T),
                       count_homs_from_value(colim, T))

    return [ctx.tally_over(
        "algebra.two-valued-colimit", counts(),
        lambda both: both[0] == both[1], "no diagram",
        lambda n, bad: {"diagrams": len(diagrams), "bad": bad})]


@register("algebra.degree2-ideal-principle",
          "degree-two-ideal-membership-equals-span-membership")
def check_degree2_ideal_principle(ctx: RunContext, opts):
    """Span membership in the wedge+scalar calculus equals membership in the
    brute-force truncated two-sided ideal (degree 4 closure, n <= 3) for
    consistent presentations, those whose span holds no (0, c) with c != 0.
    An inconsistent one forces 1 = 0, so its truncated ideal holds every
    candidate while its span need not; those are counted, not compared."""
    rng = ctx.rng("pbw")
    inconsistent = 0

    def draw(n):
        u = [QQ(rng.randint(-2, 2)) for _ in range(n)]
        v = [QQ(rng.randint(-2, 2)) for _ in range(n)]
        return u, v, QQ(rng.randint(-2, 2))

    def memberships():
        """(in span, in ideal) of each candidate of each consistent
        presentation drawn."""
        nonlocal inconsistent
        for n in (2, 3):
            free = TruncatedFreeAlgebra(n, 4)
            w = WedgeSpace(n)
            for _ in range(6):
                triples = [draw(n) for _ in range(rng.randint(1, 3))]
                candidates = [draw(n) for _ in range(4)]
                span = relation_span(n, triples)
                if not consistency_check(span):
                    inconsistent += 1
                    continue
                ideal = free.ideal_span(triples)
                for (u, v, c) in candidates:
                    yield (span.contains(w.relation_vector(u, v, c)),
                           free.ideal_contains(ideal, u, v, c))

    return [ctx.tally_over(
        "algebra.degree2-ideal-principle", memberships(),
        lambda both: both[0] == both[1], "no consistent presentation drawn",
        lambda n, bad: {"trials": n, "bad": bad,
                        "inconsistent": inconsistent,
                        "note": "oracle-validated assumption"})]


# ---------------------------------------------------------------------------
# net checks
# ---------------------------------------------------------------------------


@register("net.indicator-time-slice",
          "cauchy-stable-predicates-satisfy-time-slice")
def check_indicator_time_slice(ctx: RunContext, opts):
    """The indicator net on the objects that contain a Cauchy surface of
    the spacetime satisfies the time-slice axiom; the net on one object
    with a Cauchy partner does not.

    The support is decided object by object with the geometric test, not
    read off the site's development rows: ``cauchy`` groups the objects by
    equal development, so a support read from those rows would be
    Cauchy-stable by construction and the verdict could not fail."""
    site = ctx.site(localized=False)
    algebra = ctx.algebra  # read before the skip, so a bad literal exits 2
    if not any(site.cauchy[k] & ~(1 << k) for k in site.object_keys()):
        return [ctx.skip("net.indicator-time-slice",
                         "no Cauchy pair in the universe", cauchy_pairs=0)]
    full = region_full(site.M)
    support = sum(1 << k for k, U in enumerate(site.objects)
                  if contains_cauchy_surface_of(site.M, U, full))
    ok = check_time_slice(build_indicator(site, support, algebra))
    # negative control: the net on the first proper object with a Cauchy
    # partner (on the plain site every Cauchy pair is a morphism) is not
    # upward closed, so it is built unchecked, and it is not stable
    target = next((k for k in site.object_keys()
                   if k != site.full and site.cauchy[k] & ~(1 << k)), None)
    negative_ok = target is None or \
        not check_time_slice(IndicatorAqft(site, QPower(2), 1 << target))
    return [ctx.record("net.indicator-time-slice", ok and negative_ok)]


@register("net.epsilon-iso-violation",
          "additivity-counit-not-stable-under-pullback")
def check_epsilon_iso(ctx: RunContext, opts):
    """The additivity-violation instance: a bounded diamond source included
    in the ambient spacetime, with the image-detecting indicator, pulled
    back into the site over the configured universe and the images."""
    Msrc = diamond_source(ctx.M)
    f = LatticeEmbedding(Msrc, ctx.M, 0, 0)
    img = f.image()
    siteM = ctx.site_over(enumerate_universe(Msrc, compactness="copen",
                                             cap=2000), "copen", M=Msrc)
    # the full source object carries the image itself into the target
    F = ctx.embedded(f, siteM, around=ctx.universe("copen"))
    siteN = F.target
    # the objects of siteN that contain the image
    A = build_indicator(siteN, siteN.plain_hom[siteN.index[img]], QPower(2))
    pass_on_N = all(epsilon_iso_check(A, k) for k in siteN.object_keys())
    pb = pullback_indicator(F, A)
    viol = not epsilon_iso_check(pb, siteM.full)
    expl_ok = not pb.support & ~(1 << siteM.full)
    const_A = build_indicator(siteN, 0, QPower(2))
    const_ok = all(epsilon_iso_check(const_A, k)
                   for k in siteN.object_keys())
    ok = pass_on_N and viol and expl_ok and const_ok
    return [ctx.record("net.epsilon-iso-violation", ok,
                       {"passes_on_ambient": pass_on_N,
                        "pullback_fails_at_full": viol,
                        "explicit_values_initial": expl_ok})]


@register("net.nat-transform-counts", "hom-counts-of-indicator-theories")
def check_nat_transform_counts(ctx: RunContext, opts):
    site = ctx.site(compactness="copen", localized=False)
    A = build_indicator(site, 1 << site.full, QPower(2))
    c1 = count_nat_transforms(A, A)
    Binit = build_indicator(site, 0, QPower(1))
    c2 = count_nat_transforms(A, Binit)
    Cinit = build_indicator(site, 0, QPower(2))
    c3 = count_nat_transforms(Cinit, Cinit)
    ok = (c1, c2, c3) == (4, 2, 1)
    return [ctx.record("net.nat-transform-counts", ok,
                       {"counts": [c1, c2, c3]})]


@register("net.pullback-functorial", "pullbacks-compose-on-the-nose")
def check_pullback_functorial(ctx: RunContext, opts):
    """(g after f)^* equals f^* after g^* on the nose, over the universe
    S0 and its images S1 = f(S0) and S2 = g(S1)."""
    M = ctx.M
    f = LatticeEmbedding(M, M, 1, 1)
    g = LatticeEmbedding(M, M, 1, -1)
    gf = LatticeEmbedding(M, M, 2, 0)
    s0 = ctx.site("copen")
    Ff = ctx.embedded(f, s0)
    Fg = ctx.embedded(g, Ff.target)
    s2 = Fg.target
    # its own object map, the one the test compares; images that leave S2
    # give it another target
    Fgf = ctx.embedded(gf, s0, around=s2.objects)
    A = build_indicator(s2, 1 << s2.full, QPower(2))
    rhs = pullback_indicator(Ff, pullback_indicator(Fg, A))
    ok = Fgf.target is s2 and \
        Fgf.omap == {k: Fg.omap[j] for k, j in Ff.omap.items()} and \
        pullback_indicator(Fgf, A).support == rhs.support
    return [ctx.record("net.pullback-functorial", ok)]


@register("net.point-family", "natural-families-cohere-and-reconstruct")
def check_point_family(ctx: RunContext, opts):
    """A natural field-assignment family over bounded sub-lattices with
    inclusion, translation and identity arrows; coherence and the
    terminal-evaluation round trip hold, and a sign-flipped datum fails.

    The members are slabs of the cylinder: every interior site keeps its
    full successor fan, so the bounded model has no path-funneling
    vertices.  The plane has no finite slab, and the bottom vertex of a
    bounded diamond funnels every past-maximal path, so {(0,0)} ->
    {(0,0),(1,-1)} is a Cauchy morphism between field spaces of dimension 1
    and 2; the check skips there."""
    N = ctx.M.unbounded() if ctx.M.extent else ctx.M
    if N.kind != "cylinder":
        return [ctx.skip("net.point-family",
                         "members must be cylinder slabs; bounded plane "
                         "diamonds funnel maximal paths at their vertices")]
    if N.circumference < 4:
        raise AqftError(
            "net.point-family: the waist of a height-2 diamond is a whole "
            "circle, a one-row Cauchy surface; "
            f"raise spacetime.circumference {N.circumference} to at least 4")
    M1 = bounded_spacetime(N, region_slab(N, 0, 3).pts)
    M2 = bounded_spacetime(N, region_slab(N, 1, 4).pts)
    spaces = {"M1": M1, "M2": M2, "N": N}
    # the composite i2 after g equals the translation M1 -> N by (1,1)
    legs = {"i1": ("M1", "N", LatticeEmbedding(M1, N, 0, 0)),
            "i2": ("M2", "N", LatticeEmbedding(M2, N, 0, 0)),
            "g": ("M1", "M2", LatticeEmbedding(M1, M2, 1, 1)),
            "i2g": ("M1", "N", LatticeEmbedding(M1, N, 1, 1)),
            "id": ("M1", "M1", LatticeEmbedding(M1, M1, 0, 0))}
    sites = {}
    for name in ("M1", "M2"):
        uni = enumerate_universe(spaces[name], compactness="copen",
                                 cap=2000, strict_diamonds=False)
        sites[name] = ctx.site_over(uni, "copen", M=spaces[name])
    # N's site holds the images of its three legs
    sites["N"] = ctx.site_over([apply_embedding(f, U)
                                for s, t, f in legs.values() if t == "N"
                                for U in sites[s].objects], "rc", M=N)
    members = {name: (site, build_kg_aqft(ctx.kg(spaces[name]), site))
               for name, site in sites.items()}
    arrows = {}
    for label, (s, t, f) in legs.items():
        F = ctx.embedded(f, sites[s], around=sites[t].objects)
        src, dst = ctx.kg(spaces[s]), ctx.kg(spaces[t])
        alpha = {k: relabelling_map(
                     src.space(U.points()),
                     dst.space(F.target.objects[F.omap[k]].points()),
                     f.map_point)
                 for k, U in enumerate(sites[s].objects)}
        arrows[label] = (s, t, F, alpha)
    fam = PointFamily(members, arrows, compositions=(("g", "i2", "i2g"),))
    verdicts = verify_point(fam)
    ok = all(verdicts.values())
    # round trip over the members carrying a full object
    fam_sub = PointFamily(
        members={"M1": members["M1"], "M2": members["M2"]},
        arrows={"g": arrows["g"]}, compositions=())
    rt_ok = reconstruct_global(fam_sub)["g"].is_iso()
    # negative control: flip one component's sign
    bad_alpha = dict(arrows["g"][3])
    some = sorted(bad_alpha)[0]
    bad_alpha[some] = -bad_alpha[some]
    fam_bad = PointFamily(
        members, {**arrows, "g": (*arrows["g"][:3], bad_alpha)},
        compositions=(("g", "i2", "i2g"),))
    bad_verdicts = verify_point(fam_bad)
    neg_ok = not all(bad_verdicts.values())
    return [ctx.record("net.point-family",
                       ok and rt_ok and neg_ok,
                       {"verdicts": verdicts, "round_trip_iso": rt_ok,
                        "negative_control": neg_ok})]


# ---------------------------------------------------------------------------
# field checks
# ---------------------------------------------------------------------------


@register("kg.field-identities",
          "green-operators-invert-the-field-operator-with-causal-supports",
          options={"count": 40})
def check_kg_field_identities(ctx: RunContext, opts):
    """P after G is the identity inside the horizon, supports stay in the
    cones, and the pairing is antisymmetric, degenerate on stencil images
    and zero on causally disjoint supports."""
    kg = ctx.kg()
    M = ctx.M
    rng = ctx.rng("kgfields")
    zone = ctx.zone().listed
    count = opts["count"]
    bad = {"green": 0, "support": 0, "antisym": 0, "degenerate": 0,
           "causal": 0}

    def fields():
        for _ in range(count):
            pts = draw_points(rng, zone, 1, 3)
            phi = {p: QQ(rng.randint(-3, 3)) for p in pts}
            phi = field_clean(phi)
            if phi:
                yield phi

    def holds(phi):
        """Counts each identity phi breaks into ``bad``, and whether it
        broke none; psi is drawn here, after phi."""
        before = sum(bad.values())
        top = max(t for (t, _) in phi)
        stop = min(M.window[1], top + 6)
        gp = green(kg.cfg, phi, "retarded", t_stop=stop)
        back = field_clean(apply_P(kg.cfg, gp))
        trimmed = {p: v for p, v in back.items() if p[0] < stop}
        if trimmed != {p: v for p, v in phi.items() if p[0] < stop}:
            bad["green"] += 1
        sup = region_points(M, phi)
        conep = cone(M, sup, "future", False, stop + 1)
        if not all((t, x) in conep.pts or t > stop for (t, x) in gp):
            bad["support"] += 1
        psi = field_clean({p: QQ(rng.randint(-3, 3))
                           for p in draw_points(rng, zone, 1, 3)})
        if psi:
            if pairing(kg.kernel, phi, psi) != \
                    -pairing(kg.kernel, psi, phi):
                bad["antisym"] += 1
            if pairing(kg.kernel, apply_P(kg.cfg, phi), psi) != 0:
                bad["degenerate"] += 1
            if are_causally_disjoint(M, region_points(M, phi),
                                     region_points(M, psi)):
                if pairing(kg.kernel, phi, psi) != 0:
                    bad["causal"] += 1
        return sum(bad.values()) == before

    return [ctx.tally_over(
        "kg.field-identities", fields(), holds, "no nonzero field drawn",
        lambda n, b: {"count": count, **bad} if n else {"count": count})]


@register("kg.generator-spaces", "generator-quotients-carry-cauchy-data")
def check_kg_generator_spaces(ctx: RunContext, opts):
    kg = ctx.kg()
    M = ctx.M
    ok = kg.space(region_points(M, [(0, 0)]).points()).dim == 1
    if M.kind == "cylinder":
        c = M.circumference
        s2 = kg.space(region_slab(M, 0, 1).points())
        s4 = kg.space(region_slab(M, 0, 3).points())
        ok = ok and s2.dim == 2 * c and s4.dim == 2 * c
        ext = kg.extension(region_slab(M, 0, 1).pts,
                           region_slab(M, 0, 3).pts)
        ok = ok and ext.rank() == 2 * c
    return [ctx.record("kg.generator-spaces", ok)]


@register("kg.time-slice", "cauchy-inclusions-induce-isomorphisms")
def check_kg_time_slice(ctx: RunContext, opts):
    """Extensions along Cauchy inclusions are isomorphisms; flat-cut maps
    agree with extension-by-zero on plain inclusions; the two half-cuts of
    a propagated field are the cut-row formula and its negative.

    A cylinder row is causally a Cauchy band but carries only half the
    leapfrog Cauchy data, so a universe holding one-row slabs is a
    configuration error (``KgError``); ``min_slab_height: 2`` excludes them.
    With no Cauchy pair in the universe (the plane) the check skips."""
    kg = ctx.kg()
    M = ctx.M
    site = ctx.site(compactness="rc", localized=False)
    if M.kind == "cylinder" and any(
            len(r.pts) == M.circumference and len({t for t, _ in r.pts}) == 1
            for r in site.objects):
        raise KgError("kg.time-slice needs a universe without one-row "
                      "slabs: a one-row slab carries half the leapfrog "
                      "Cauchy data; set universe.min_slab_height to 2")
    pairs = ((site.region_of(a).points(), site.region_of(b).points())
             for a in site.object_keys() for b in set_bits(site.cauchy[a])
             if a != b)
    bad_cut = 0

    def flat_cut():
        # the flat-cut reduction on a plain localized pair
        nonlocal bad_cut
        if M.kind != "cylinder":
            return True
        U = region_points(M, [(1, 0), (2, 0)])
        V = region_slab(M, 0, 3)
        try:
            cut = kg.timeslice_map(U.points(), V.points())
            ext = kg.extension(U.points(), V.points())
            if cut != ext:
                bad_cut += 1
        # the construction's refusals: TimesliceSkip is a KgError, and
        # induced_quotient_map raises ValueError
        except (KgError, ValueError):
            bad_cut += 1
        # cut G phi between rows t* and t*+1: P(chi+ G phi) is the cut-row
        # formula of timeslice_map, and P(chi- G phi) cancels it near the cut
        # (G phi is truncated to rows 0..6, so both also act at those edges)
        tstar = 2
        g = propagator(kg.cfg, {(1, 0): Q1}, 0, 6)
        plus = apply_P(kg.cfg, {p: v for p, v in g.items() if p[0] > tstar})
        minus = apply_P(kg.cfg, {p: v for p, v in g.items()
                                 if p[0] <= tstar})
        formula = field_clean(
            {**{(tstar, x): -v for (t, x), v in g.items() if t == tstar + 1},
             **{(tstar + 1, x): v for (t, x), v in g.items() if t == tstar}})

        def near(w):
            return {p: v for p, v in w.items()
                    if tstar - 1 <= p[0] <= tstar + 2}

        if near(plus) != formula or near(field_add(plus, minus)):
            bad_cut += 1
        return not bad_cut

    return [ctx.tally_over(
        "kg.time-slice", pairs,
        lambda pair: kg.extension(*pair).is_iso(),
        "no Cauchy pair in the universe",
        lambda n, bad: {"cauchy_pairs": n, "bad": bad, "cut_bad": bad_cut}
        if n else {"cauchy_pairs": 0}, beside=flat_cut)]


@register("kg.pullback-identification",
          "generator-spaces-identify-along-embeddings")
def check_kg_pullback(ctx: RunContext, opts):
    kg = ctx.kg()
    M = ctx.M
    f = LatticeEmbedding(M, M, 1, 1)
    rng = ctx.rng("kgpull")
    zone = ctx.zone().listed

    def identified(U):
        # the target carries the same configuration
        return relabelling_map(kg.space(U.points()),
                               kg.space(apply_embedding(f, U).points()),
                               f.map_point).is_iso()

    return [ctx.tally_over(
        "kg.pullback-identification",
        (draw_hull(M, rng, zone, 1, 3) for _ in range(8)),
        identified, "no region drawn",
        lambda n, bad: None if n else {"count": 0})]


# ---------------------------------------------------------------------------
# descent checks
# ---------------------------------------------------------------------------


@register("descent.kg-counit",
          "field-assignments-satisfy-both-counit-conditions",
          flavors=("plain", "localized"),
          companions={"descent.single-piece-trivial":
                      "the-coarsest-cover-always-descends"},
          options={"count": 8})
def check_kg_descent(ctx: RunContext, opts):
    """Generator and relation counit checks over seeded instances, plus the
    coarsest-cover triviality."""
    kg = ctx.kg()
    count = opts["count"]

    def flavor_record(localized):
        flavor = "localized" if localized else "plain"
        tally = {"instances": 0, "skipped": 0, "generator_failures": 0,
                 "relation_failures": 0,
                 "strategies": {"direct": 0, "adapted": 0}}

        def holds(instance):
            # the relation check runs where the generator check passes
            v, _ = generator_counit_check(kg, *instance, localized=localized)
            if v != "pass":
                tally["skipped" if v == "skip" else "generator_failures"] += 1
                return v == "skip"
            v, info = relation_counit_check(kg, *instance,
                                            localized=localized)
            tally["instances"] += 1
            tally["relation_failures"] += v == "fail"
            if v == "pass":
                tally["strategies"][info["strategy"]] += 1
            return v != "fail"

        # a flavor whose instances all skip fails
        return ctx.tally_over(
            f"descent.kg-counit-{flavor}",
            descent_instances(ctx, localized, count), holds,
            "no instance drawn",
            lambda n, bad: tally if n else {"instances": 0},
            {"flavor": flavor, "count": count},
            beside=lambda: tally["instances"] or not tally["skipped"])

    recs = [flavor_record(False), flavor_record(True)]
    # coarsest cover: trivial descent
    U = largest_first(ctx.site(compactness="rc"))[0]
    cov = Cover(U, (U,))
    v, _ = generator_counit_check(kg, cov, U)
    v2, _ = relation_counit_check(kg, cov, U)
    return recs + [ctx.record("descent.single-piece-trivial",
                              v == v2 == "pass")]


@register("descent.kg-negative-control",
          "withheld-commutation-relations-leave-a-strict-inclusion")
def check_kg_negative_control(ctx: RunContext, opts):
    """Withhold the vanishing-pairing relations on a cover with causally
    disjoint pieces: a strict inclusion witness must appear.  On a cylinder
    the pieces are two-row columns 0 and 3, or 0 and c // 2 where 3 is too
    close to 0; on c <= 3 no two such columns are causally disjoint."""
    kg = ctx.kg()
    M = ctx.M
    if M.kind == "cylinder":
        p1 = region_points(M, [(0, 0), (1, 0)])
        pieces = [region_points(M, [(0, x), (1, x)])
                  for x in (3, M.circumference // 2)]
        p2 = next((p for p in pieces if are_causally_disjoint(M, p1, p)),
                  None)
        if p2 is None:
            return [ctx.skip("descent.kg-negative-control",
                             "no two causally disjoint two-row pieces",
                             circumference=M.circumference)]
    else:
        p1 = region_points(M, [(0, -2), (1, -2)])
        p2 = region_points(M, [(0, 2), (1, 2)])
    U = region_points(M, p1.pts | p2.pts)
    ok_cc = is_causally_convex(M, U)
    cov = Cover(U, (p1, p2))
    v, info = relation_counit_check(kg, cov, U, include_perp=False)
    ok = ok_cc and v == "fail" and info.get("witness") is not None
    v2, _ = relation_counit_check(kg, cov, U, include_perp=True)
    return [ctx.record("descent.kg-negative-control",
                       ok and v2 == "pass",
                       {"without_perp": v, "with_perp": v2})]


@register("descent.finer-implies-coarser",
          "descent-on-finer-covers-implies-coarser", options={"count": 6})
def check_finer_coarser(ctx: RunContext, opts):
    """Across refinement pairs: a counit check passing on the finer cover
    must pass on the coarser one."""
    kg = ctx.kg()
    M = ctx.M
    regions = largest_first(ctx.site(compactness="rc"), 3)

    def comparisons():
        for U in regions[: opts["count"]]:
            coarse_list = band_covers(M, U, overlap=2)
            if not coarse_list:
                continue
            coarse = coarse_list[0]
            fine, _ = refine_by_halves(M, coarse)
            for check in (generator_counit_check, relation_counit_check):
                yield check, fine, coarse, U

    def holds(case):
        check, fine, coarse, U = case
        return (check(kg, fine, U)[0], check(kg, coarse, U)[0]) != \
            ("pass", "fail")

    return [ctx.tally_over(
        "descent.finer-implies-coarser", comparisons(), holds,
        "no refinement pair built",
        lambda n, bad: {"instances": n, "violations": bad})]


@register("descent.prestack-failure",
          "hk-style-assignments-are-not-a-prestack",
          flavors=("plain", "time-sliced", "rc", "rc-time-sliced"))
def check_prestack_demos(ctx: RunContext, opts):
    """The four no-prestack demonstrations with counts (4, 1), each on the
    objects that contain a Cauchy surface (on the plane, the full one)."""
    M = ctx.M
    cov = point_cover(M, ctx.zone())
    uni = ctx.universe("copen")
    # (flavor, compactness, localized, digest salt)
    variants = [("plain", "copen", False, None)] if M.kind == "plane" else [
        (name, comp, loc, {"v": name}) for name, comp, loc in (
            ("time-sliced", "copen", True), ("rc", "rc", False),
            ("rc-time-sliced", "rc", True))]
    recs = []
    for name, comp, loc, salt in variants:
        site = ctx.site_over(uni if comp == "copen" else
                             [u for u in uni if not u.is_full], comp, loc)
        r = prestack_failure_demo(site, cov, site.dev_full, QPower(2))
        recs.append(ctx.record(
            f"descent.prestack-failure-{name}",
            (r["global_count"], r["datum_count"]) == (4, 1), r, salt))
    return recs


@register("descent.indicator-datum-trivial",
          "full-supported-indicators-restrict-to-the-trivial-datum")
def check_indicator_datum(ctx: RunContext, opts):
    """An indicator theory supported at the full region pulls back to the
    constant-initial theory on the cover category of any proper cover."""
    M = ctx.M
    site = ctx.site("copen")
    A = build_indicator(site, 1 << site.full, QPower(2))
    cc = CoverCategory(site, point_cover(M, ctx.zone()))
    ok = not pullback_indicator(j_functor(cc), A).support
    return [ctx.record("descent.indicator-datum-trivial", ok)]


# every claim label a record may carry
CLAIMS = frozenset(CLAIM_OF.values())


def run_check(check_id: str, ctx: RunContext, opts: Optional[dict] = None):
    """The records of ``check_id`` on ``ctx``, with the options it leaves
    out at their declared defaults; an option it does not declare is
    refused."""
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check id {check_id!r}")
    for name in opts or {}:
        if name not in OPTIONS[check_id]:
            raise KeyError(f"{check_id} declares no option {name!r}")
    return REGISTRY[check_id](ctx, {**OPTIONS[check_id], **(opts or {})})
