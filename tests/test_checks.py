"""The check registry as a whole: every registered check on both backends,
and checks that find no instance."""

import hashlib
import inspect
import json
import re
from collections import Counter

import pytest

from latticehk.algebra import QPower
from latticehk.checks import (CLAIMS, OPTIONS, REGISTRY, RunContext,
                              run_check)
from latticehk import checks, geometry
from latticehk.geometry import (LatticeEmbedding, LatticeSpacetime, Region,
                                apply_embedding, development_restriction,
                                region_points, region_slab)
from latticehk.instances import translation_embeddings
from latticehk.kleingordon import KgError
from latticehk.nets import AqftError
from latticehk.rational import QQ
from latticehk.scenarios import ScenarioError, validate_scenario
from latticehk.sites import SiteCategory, SiteError

# the documented lattice divergence of criterion 1 (docs/decisions.md)
EXPECTED_FAIL = {"causality.development-vs-double-complement"}
# configuration errors: the cylinder fixture's universe holds one-row slabs
RAISES = {("cyl_ctx", "kg.time-slice"): KgError}

# sha256 of each check's record list, as JSON, on each fixture context; a
# change that moves a verdict, a witness or a digest moves one of these
PINNED_RECORDS = {
    ("cyl_ctx", "algebra.degree2-ideal-principle"):
        "7c7fa0220b295da5fa2c9eb92194712da32f72d88ec34ad681cc1bdad419eff2",
    ("plane_ctx", "algebra.degree2-ideal-principle"):
        "da9c10ff6885cb0316aeb48731bec1802db01ef8e09d3342616fccb18364da25",
    ("cyl_ctx", "algebra.hom-counts"):
        "2ae45499077828ac8f70e92242cd8fbcfcbeb869dfb3592243564a16b70d50ed",
    ("plane_ctx", "algebra.hom-counts"):
        "a10e6197ab58ae1a3d5fc1dc5700419f124c6fc7fe9c94bd0bdcd5992cfa24be",
    ("cyl_ctx", "algebra.two-valued-colimit"):
        "c3c727a84132caae2b8a2786cca0b5353c0d60c37dd2f5daca33bc7f3133ffeb",
    ("plane_ctx", "algebra.two-valued-colimit"):
        "52698b2deb6bfad133d5309b0183cf1b1d3162dc8d345909f767f97f237a1a28",
    ("cyl_ctx", "causality.cauchy-morphism-equivalence"):
        "168be6fdb9aaa19a621105599383997bb45bf80e478eafaba856d2b09c9506fe",
    ("plane_ctx", "causality.cauchy-morphism-equivalence"):
        "d2ba5f0559115377494641b8603171603ae6d6b45dbb09bb5191ac4e866db177",
    ("cyl_ctx", "causality.cauchy-union-property"):
        "4ca0f709bffd41cf85cf282a6dffb2e51aac641cce6abeca38da8a8a75663fe2",
    ("plane_ctx", "causality.cauchy-union-property"):
        "bea00db36d61f0353634089226d24ad65a3fc183fc02a372e7cd7b70aa8870f4",
    ("cyl_ctx", "causality.cone-lightcone"):
        "8093c21d7035f6e14ca81f41d9be863daa625f37ad0fa765fd9ebbfbd10d29ab",
    ("plane_ctx", "causality.cone-lightcone"):
        "3ecd5b9186bca8ab23ef81f51f8c738f78ab991aa8945311ebf116c7540f6cb5",
    ("cyl_ctx", "causality.d-stable-neighborhood-sweep"):
        "00981795d3574eb72c0e8528e8f40547b996beacb5e4b559662c5ada73267a32",
    ("plane_ctx", "causality.d-stable-neighborhood-sweep"):
        "113154f91884298a0565b9f15ffd7242fd24ef1d0486541820fb143274cda47e",
    ("cyl_ctx", "causality.development-props"):
        "e7ef9de68f96cf54fd35b2a81c980acbef908a0afc9b8ec0519d2d55c84e8e20",
    ("plane_ctx", "causality.development-props"):
        "c085dfb8ad3b8db972fd09a947a56d073cf4eb2093fad3ba57b62edb6d147a64",
    ("cyl_ctx", "causality.development-vs-double-complement"):
        "65c6e05d4e6377710aa13d668e440ef692845c84e4d45d5d71d33dfbfaaadcf4",
    ("plane_ctx", "causality.development-vs-double-complement"):
        "01068844f5da828ea89b7953698ff914944ca471a77d803cfbaf3b6a68f873ff",
    ("cyl_ctx", "causality.disjointness-hereditary"):
        "dea0c59e3c90109047958aa74195f48eed57b1c64660578e1b8ffe9e5fef1357",
    ("plane_ctx", "causality.disjointness-hereditary"):
        "92ba3e75013d85a4ae844531226315284b12c2dea472efbae1fbf89c2aed0e6c",
    ("cyl_ctx", "causality.embedding-development-lemmas"):
        "1665d71da1502accb34f28863c46fa3c319a6de6e4be69e4d1ac0ec89661e3ee",
    ("plane_ctx", "causality.embedding-development-lemmas"):
        "20b339938d456ce2589f762a3f77e661d51f84a1341b2e38a3bb6ae2cfb387e6",
    ("cyl_ctx", "causality.stabilization"):
        "3a0eeed941c9e0cbb98f4882d6c28c395605ade0ba475f12dae17f210e7c133f",
    ("plane_ctx", "causality.stabilization"):
        "bebe368eed5f7df86f11214b72297ba8aab8a101a96402732bc64c19d8fe37fe",
    ("cyl_ctx", "causality.strict-diamonds-d-stable"):
        "19c4ec50598335a25b0f009c3fbe388ed59a4c216bc6aaae0fcac999cf649b65",
    ("plane_ctx", "causality.strict-diamonds-d-stable"):
        "0493c0bc33458459ee5292688885496449cff83539b90cdf8bb485c2a7ce0b57",
    ("cyl_ctx", "descent.finer-implies-coarser"):
        "90e78fabe090bc36990d832be12eec7ac12c3fa926d1c010eb8225b3eb5be59b",
    ("plane_ctx", "descent.finer-implies-coarser"):
        "33de818e107daaaf65e7725d0dfd0e69e0e4247846f26b9f9dd26b5ff9b58bf4",
    ("cyl_ctx", "descent.indicator-datum-trivial"):
        "efee8a0c1c4cf08ab2da6293a249144c158b5135b78882bd24945980a5dc630f",
    ("plane_ctx", "descent.indicator-datum-trivial"):
        "a8aa643a3743dbdf41241a011534200b3945cb36528847af77e1a002062c103c",
    ("cyl_ctx", "descent.kg-counit"):
        "802cbaa517b78519725bc480a686f2b1ce66129956991052a07fb60598e8a58a",
    ("plane_ctx", "descent.kg-counit"):
        "3ba04993d8eb0f4f39155dd7548e76a22fc9e702c8c529c7be9d517f64b57615",
    ("cyl_ctx", "descent.kg-negative-control"):
        "a3212e5a33cbc3c3b0a7096b8d068f634e6c00d4096f52412afdd28b0200c723",
    ("plane_ctx", "descent.kg-negative-control"):
        "72aafdf18f951beb007043843a824a5698989dc2e28e9c6547b4685295de5fad",
    ("cyl_ctx", "descent.prestack-failure"):
        "7be7171cbca349c35d4610536c79816bbb373e54647b85c510eafaa928940d23",
    ("plane_ctx", "descent.prestack-failure"):
        "89c2d7f3bde619b3926c37cc1eb3af30dab5a603dedd9dc6ef004eb7b070d75f",
    ("cyl_ctx", "kg.field-identities"):
        "5f6eb6ff86e1f112f79599d792d4c4240c77a458f0661405fbd048ccfd1fe1a6",
    ("plane_ctx", "kg.field-identities"):
        "ea4155cb95a7936e80da488db8ce28019b10c90258317e4f062a718fd9fa332f",
    ("cyl_ctx", "kg.generator-spaces"):
        "483b781716c7a7c88a4786df8f9d0c5b03cc50b06dc2bbec6abdd21b8ddd2991",
    ("plane_ctx", "kg.generator-spaces"):
        "9408551d0197d70d950aec1eb5a8f32e22f9c9d068788b7dff7d76ff1fc4424c",
    ("cyl_ctx", "kg.pullback-identification"):
        "5e161eeb7944d281748337b93e43d3ea835239378064584d23b183cbd55b833c",
    ("plane_ctx", "kg.pullback-identification"):
        "51fcd6546c6267b1d8c61a2285b2e6552089ae2ab721dc5f55dbf7d3e4961fa3",
    ("plane_ctx", "kg.time-slice"):
        "a7f5ba2d01e1221d1081e65e74d662db436cdb102fc734d904e0787026b8c8b7",
    ("cyl_ctx", "net.epsilon-iso-violation"):
        "a31567db1194974d825a5bef32885861420a2c88426d84b6b66bec1e2414e93a",
    ("plane_ctx", "net.epsilon-iso-violation"):
        "f65561ed524a7f356345d14046c39ceb53831d952c4bb0f743ed815fd92af930",
    ("cyl_ctx", "net.indicator-time-slice"):
        "6c2f6eeb65bbd253999e7051c7fa1e06f700de817edfe2aea6847dec52f87240",
    ("plane_ctx", "net.indicator-time-slice"):
        "2f3372ade3cca1426881d44c6a78ef414a6b42722fe7b04e476a42abe218b440",
    ("cyl_ctx", "net.nat-transform-counts"):
        "69fce9be938c8d0af30a3b943e35abefafb3528a3c8b0c50e2d778aaceaa5e65",
    ("plane_ctx", "net.nat-transform-counts"):
        "a25e93cf5c6582b9687306c967f4ec6e2df1b85351e8aad1ac7cba0211c9411d",
    ("cyl_ctx", "net.point-family"):
        "59cc2ace514e3a8b4294a179d8840db6580bff1b1dbe79ebe3c9162aef3102df",
    ("plane_ctx", "net.point-family"):
        "9ba932866a1439348920b284be8fa2ed0974c530a3f8371ab3f734a844f228c4",
    ("cyl_ctx", "net.pullback-functorial"):
        "fbc75805ca98eceae56614fb79b6e5589280120d75251d6e776e6cc4a9922f9b",
    ("plane_ctx", "net.pullback-functorial"):
        "8b0c16daea57ec295cd9724b7103ff6c51f7b516042ad233ac438ea68910cac9",
    ("cyl_ctx", "site.cover-intersections"):
        "d2fa492a79b605a730938a2ba3815eaa5e1973681f80f5e7d07b7829f796119e",
    ("plane_ctx", "site.cover-intersections"):
        "e6fa52beced23577b3d236147e9c3e84db97e18b6d0200a33e8bac9c9bece781",
    ("cyl_ctx", "site.extend-cover"):
        "705c632822f5f321840e95a1830385b26358509d2f19f8d9abd9ed7071d321a4",
    ("plane_ctx", "site.extend-cover"):
        "1f981bda4340e65101eedbda11889782ceb1fd1fa54e53b4c25e3f36e27cad03",
    ("cyl_ctx", "site.localization-oracle"):
        "ba6d96ff85c796390930f8b672ca78d1aad31a23c9d513507f581f18e5f6a066",
    ("plane_ctx", "site.localization-oracle"):
        "f7c764a3bf114205104fc8563c2219451c4c76534aea4d14ff670f05af6cc5cf",
    ("cyl_ctx", "site.localized-embedding-functors"):
        "31adcf1f023dd7f3fdd3003ad699aba32f8cf6871ff15d53a6270863654355b5",
    ("plane_ctx", "site.localized-embedding-functors"):
        "006b2ddf923b27b64a1aa44afa60502a4ff7087f3f84589ac0822d46caa1b645",
    ("cyl_ctx", "site.precostack-instances"):
        "01c87307a7e8e590a0ed495ee60ceb0d23a8aae6da968d601dc5bf63c2e1e566",
    ("plane_ctx", "site.precostack-instances"):
        "7ef719b8c9ae1cb759033bc90e3aa241822410b07d689db37dc094962ead2a8d",
    ("cyl_ctx", "site.refinement-functors"):
        "605270d3291e549b30007ecb4fd9b6c6cca1c8724063fdc24fb31f1df7d11d41",
    ("plane_ctx", "site.refinement-functors"):
        "e37b499fc876284780b13cd79f762107bd33532fe1263d96f37ea6bcd4370de2",
}


@pytest.mark.parametrize("cid", sorted(REGISTRY))
@pytest.mark.parametrize("ctx_name", ["plane_ctx", "cyl_ctx"])
def test_every_check_runs_on_both_backends(ctx_name, cid, request):
    ctx = request.getfixturevalue(ctx_name)
    if (ctx_name, cid) in RAISES:
        with pytest.raises(RAISES[ctx_name, cid]):
            run_check(cid, ctx)
        return
    records = [r.to_json() for r in run_check(cid, ctx)]
    assert records
    for rec in records:
        assert rec["paper_ref"] in CLAIMS
        assert rec["verdict"] in ("pass", "skip") or \
            (rec["id"] in EXPECTED_FAIL and rec["verdict"] == "fail")
    digest = hashlib.sha256(json.dumps(records, default=str).encode())
    assert digest.hexdigest() == PINNED_RECORDS[ctx_name, cid]


@pytest.mark.parametrize("ctx_name,universe,cid,opts", [
    # the plane universe holds no Cauchy pair
    ("plane_ctx", {}, "kg.time-slice", {}),
    ("plane_ctx", {}, "net.point-family", {}),
    ("cyl_ctx", {}, "site.localization-oracle", {"universes": 0}),
    ("cyl_ctx", {}, "kg.field-identities", {"count": 0}),
    ("plane_ctx", {}, "net.indicator-time-slice", {}),
    # every region spans at most two rows, so no band cover exists
    ("plane_ctx", {"t_range": [0, 1]}, "site.cover-intersections", {}),
    # a cover is refined only when its base spans four rows
    ("cyl_ctx", {"t_range": [0, 1]}, "site.refinement-functors", {}),
    ("cyl_ctx", {}, "descent.finer-implies-coarser", {"count": 0}),
    ("cyl_ctx", {}, "site.extend-cover", {"count": 0}),
    ("cyl_ctx", {}, "site.precostack-instances", {"count": 0}),
    ("plane_ctx", {"t_range": [0, 1]}, "site.refinement-functors", {}),
    # one plane column: every two points are causally related
    ("plane_ctx", {"x_range": [0, 0], "t_range": [0, 2]},
     "causality.disjointness-hereditary", {}),
    ("cyl_ctx", {"t_range": [0, 0]}, "site.refinement-functors", {}),
    ("plane_ctx", {"x_range": [0, 0]}, "causality.disjointness-hereditary",
     {}),
    # both flavor records; the coarsest-cover record still runs
    ("cyl_ctx", {}, "descent.kg-counit", {"count": 0}),
    # a strict diamond spans at least three rows
    ("plane_ctx", {"t_range": [0, 1]}, "causality.strict-diamonds-d-stable",
     {}),
    ("cyl_ctx", {"t_range": [0, 1]}, "causality.strict-diamonds-d-stable",
     {}),
    # no region to seed a universe with
    ("cyl_ctx", {}, "site.localization-oracle", {"regions": 0}),
    ("plane_ctx", {}, "site.localization-oracle", {"regions": 0}),
])
def test_zero_instances_skip(ctx_name, universe, cid, opts, request):
    base = request.getfixturevalue(ctx_name)
    ctx = RunContext(M=base.M, seed=base.seed,
                     universe_cfg={**base.universe_cfg, **universe},
                     aqft_cfg=base.aqft_cfg) if universe else base
    # companion records (other ids) do not depend on the count
    recs = [r for r in run_check(cid, ctx, opts) if r.id.startswith(cid)]
    assert recs
    for rec in recs:
        assert rec.verdict == "skip" and rec.witness["reason"], rec.id


@pytest.mark.parametrize("instances,beside,verdict", [
    ([], True, "skip"),
    ([], False, "fail"),
    ([True, False], True, "fail"),
    ([True, True], False, "fail"),
    ([True, True], True, "pass"),
])
def test_tally_over_is_the_one_verdict_rule(plane_ctx, instances, beside,
                                            verdict):
    """A counted record skips only when it found nothing and the verdict
    beside the instances holds, and passes only when nothing was bad and
    it holds.  Each instance is tested before the next is drawn, the
    verdict beside is taken after the last and the witness is read last;
    the salt moves the digest."""
    log = []

    def drawn():
        for ok in instances:
            log.append("draw")
            yield ok

    def test(ok):
        log.append("test")
        return ok

    def witness(n, bad):
        log.append("witness")
        return {"instances": n, "bad": bad}

    def holds():
        log.append("beside")
        return beside

    rec = plane_ctx.tally_over("causality.cauchy-morphism-equivalence",
                               drawn(), test, "nothing drawn", witness,
                               {"salt": 1}, beside=holds)
    counted = {"instances": len(instances), "bad": instances.count(False)}
    assert rec.verdict == verdict
    assert rec.witness == ({"reason": "nothing drawn", **counted}
                           if verdict == "skip" else counted)
    assert rec.digest == plane_ctx.digest({"salt": 1}) != plane_ctx.digest()
    assert log == ["draw", "test"] * len(instances) + ["beside", "witness"]


def test_kg_counit_fails_a_flavor_whose_instances_all_skip(plane_ctx,
                                                         monkeypatch):
    """A flavor whose generator checks all skip has drawn instances but
    checked none, so it fails rather than skips."""
    monkeypatch.setattr(checks, "generator_counit_check",
                        lambda *args, **kwargs: ("skip", {}))
    recs = run_check("descent.kg-counit", plane_ctx, {"count": 3})
    flavors = [r for r in recs if r.id.startswith("descent.kg-counit-")]
    assert [(r.id, r.verdict) for r in flavors] == \
        [("descent.kg-counit-plain", "fail"),
         ("descent.kg-counit-localized", "fail")]
    for rec, flavor in zip(flavors, ("plain", "localized")):
        assert rec.witness == {
            "instances": 0, "skipped": 3, "generator_failures": 0,
            "relation_failures": 0,
            "strategies": {"direct": 0, "adapted": 0}}
        assert rec.digest == plane_ctx.digest({"flavor": flavor,
                                               "count": 3})


def test_indicator_time_slice_skips_without_cauchy_pairs(plane_ctx):
    """No object of the plane universe has a Cauchy partner besides itself;
    an unknown algebra literal is refused before the check skips."""
    rec, = run_check("net.indicator-time-slice", plane_ctx)
    assert (rec.verdict, rec.witness) == \
        ("skip", {"reason": "no Cauchy pair in the universe",
                  "cauchy_pairs": 0})
    ctx = RunContext(M=plane_ctx.M, universe_cfg=plane_ctx.universe_cfg,
                     aqft_cfg={"algebra": {"kind": "matrix"}})
    with pytest.raises(AqftError, match="unknown algebra literal"):
        run_check("net.indicator-time-slice", ctx)


@pytest.mark.parametrize("ctx_name,t_range,opts,divergent", [
    # one row: every development equals its double complement
    ("plane_ctx", [0, 0], {"hulls": 5}, 0),
    ("cyl_ctx", [0, 0], {}, 0),
])
def test_divergence_check_skips_when_it_checks_none(ctx_name, t_range, opts,
                                                    divergent, request):
    base = request.getfixturevalue(ctx_name)
    ctx = RunContext(M=base.M, seed=base.seed,
                     universe_cfg={**base.universe_cfg, "t_range": t_range})
    rec, = [r for r in run_check("causality.development-vs-double-complement",
                                 ctx, opts)
            if r.id == "causality.divergence-brute-confirmed"]
    assert (rec.verdict, rec.witness) == \
        ("skip", {"reason": "no divergent instance brute-checked",
                  "divergent": divergent, "brute_checked": 0})


def test_embedding_functors_move_each_object_once(cyl_ctx, monkeypatch):
    """Each translation moves each object of the source universe once: the
    target site and the object map read the same images."""
    import latticehk.checks as checks_mod
    import latticehk.sites as sites_mod
    moved = []
    for mod in (checks_mod, sites_mod):
        monkeypatch.setattr(mod, "apply_embedding",
                            lambda f, U, move=mod.apply_embedding:
                            moved.append((f.dt, f.dx)) or move(f, U))
    rec, = run_check("site.localized-embedding-functors", cyl_ctx)
    n = len(cyl_ctx.universe("rc"))
    assert rec.witness["embeddings"] == 12
    assert list(Counter(moved).values()) == [n] * 12


def test_a_moved_memo_hit_fails_the_covariance_check(plane_ctx,
                                                     monkeypatch):
    """A memo hit moved one row up makes the development-lemma check fail.
    Its translations target a fresh twin of the spacetime, so their image
    side is swept at the image's own position even when the spacetime's
    memo already holds the orbit: on the spacetime itself both sides would
    read the same moved entry and agree."""
    M = plane_ctx.M.with_window(*plane_ctx.M.window)  # an empty memo
    ctx = RunContext(M=M, seed=plane_ctx.seed,
                     universe_cfg=plane_ctx.universe_cfg,
                     aqft_cfg=plane_ctx.aqft_cfg)
    cid = "causality.embedding-development-lemmas"
    sweep_once = geometry._by_orbit

    def moved_up(M, op, U, sweep):
        hit = (op, U.rows) in M._orbits
        R = sweep_once(M, op, U, sweep)
        if not hit or R.is_full:
            return R
        return Region(M, "points", R.t0 + 1, R.x0, R.rows)

    monkeypatch.setattr(geometry, "_by_orbit", moved_up)
    assert [r.verdict for r in run_check(cid, ctx)] == ["fail"]
    U = region_points(M, [(1, 0), (2, 1)])
    geometry.cauchy_development(M, U)  # the orbit's entry
    for f in translation_embeddings(ctx, 6)[1:]:
        assert f.target == M and f.target is not M
        lhs, rhs, _ = development_restriction(f, U)
        assert lhs != rhs
        lhs, rhs, _ = development_restriction(
            LatticeEmbedding(M, M, f.dt, f.dx), U)
        assert lhs == rhs


def test_embedded_target_holds_images_and_around(cyl):
    """An embedding functor's target is the site over ``around`` and the
    images, under the source's rule; ``around`` equal to a built site's
    objects, with images inside it, returns that site."""
    M = cyl
    ctx = RunContext(M=M, universe_cfg={"t_range": [0, 1]})
    site = ctx.site("rc", localized=True)
    f = LatticeEmbedding(M, M, 1, 2)
    extra = region_slab(M, 4, 4)
    F = ctx.embedded(f, site, around=[extra])
    images = [apply_embedding(f, U) for U in site.objects]
    assert set(F.target.objects) == {*images, extra}
    assert (F.target.compactness, F.target.localized) == ("rc", True)
    assert [F.target.objects[F.omap[k]] for k in site.object_keys()] == \
        images
    turn = LatticeEmbedding(M, M, 0, 2)
    for s in (site, ctx.site("copen")):
        assert ctx.embedded(turn, s, around=s.objects).target is s
        assert ctx.embedded(f, s, around=s.objects).target is not s


def test_translation_targets_share_sites_by_object_set(monkeypatch):
    """A translation's target site is keyed by its object set, and a twin
    equals M, so one run of site.localized-embedding-functors on the
    benchmark shape builds the source site and 6 of its 12 targets: the
    images of (0, 0) and (0, +-1) are the source's own objects, and those
    of (1, +-2) and (2, 2) the objects built for (1, 0) and (2, -1)."""
    M = LatticeSpacetime("cylinder", (-14, 16), 5)
    ctx = RunContext(M=M, universe_cfg={"compactness": "rc",
                                        "t_range": [0, 3], "max_height": 3,
                                        "cap": 1600})
    built = []
    init = SiteCategory.__init__

    def counted(self, N, universe, *args, **kw):
        init(self, N, universe, *args, **kw)
        built.append(self)

    monkeypatch.setattr(SiteCategory, "__init__", counted)
    [rec] = run_check("site.localized-embedding-functors", ctx)
    assert (rec.verdict, rec.witness) == ("pass", {"embeddings": 12,
                                                   "bad": 0})
    assert len(built) == 7 and len(built[0].objects) == 150
    # one new target per time shift, in the order the shifts first come
    assert [min(U.t0 for U in site.objects) for site in built] == \
        [0, 1, 2, 3, -1, -2, 4]


# small universes; all but the c=4 cylinder's miss images of the diamond
# that net.epsilon-iso-violation embeds
_SMALL_SHAPES = {
    "cyl6-rows-0-0": ("cylinder", 6, {"t_range": [0, 0]}),
    "cyl6-rows-0-1": ("cylinder", 6, {"t_range": [0, 1]}),
    "cyl4-rows-0-3": ("cylinder", 4, {"t_range": [0, 3]}),
    "plane-rows-0-0": ("plane", None, {"t_range": [0, 0], "x_range": [0, 2]}),
    "plane-rows-0-3": ("plane", None,
                       {"t_range": [0, 3], "x_range": [-2, 2]}),
}


@pytest.mark.parametrize("cid", ["net.epsilon-iso-violation",
                                 "net.pullback-functorial"])
@pytest.mark.parametrize("shape", sorted(_SMALL_SHAPES))
def test_embedding_checks_pass_on_small_shapes(shape, cid):
    """The embedding functor's target holds the images, so the embedded
    diamond and the composite translation need no universe that holds
    them."""
    kind, c, universe = _SMALL_SHAPES[shape]
    ctx = RunContext(M=LatticeSpacetime(kind, (-14, 16), c), seed=3,
                     universe_cfg={"compactness": "rc", "max_height": 2,
                                   **universe})
    assert [r.verdict for r in run_check(cid, ctx)] == ["pass"]


@pytest.mark.parametrize("t_range", [[0, 0], [0, 1]])
def test_precostack_passes_when_one_flavor_finds_no_cover(cyl_ctx, t_range):
    """On one or two rows of a cylinder no region is tall enough for a band
    cover, so the plain flavor draws none; the localized covers still make
    instances, and with none of them bad the check passes."""
    ctx = RunContext(M=cyl_ctx.M, seed=cyl_ctx.seed,
                     universe_cfg={**cyl_ctx.universe_cfg,
                                   "t_range": t_range},
                     aqft_cfg=cyl_ctx.aqft_cfg)
    rec = run_check("site.precostack-instances", ctx)[0]
    assert (rec.verdict, rec.witness) == \
        ("pass", {"plain": 0, "localized": 3, "bad": 0})


def test_each_runner_declares_the_options_it_reads():
    """A scenario may set exactly the options a runner reads: the names it
    reads as ``opts["..."]`` are the ones its ``@register`` declares, with
    their defaults, and it reads no option any other way."""
    for cid, runner in REGISTRY.items():
        source = inspect.getsource(runner)
        read = re.findall(r'opts\["(\w+)"\]', source)
        assert set(read) == set(OPTIONS[cid]), cid
        assert source.count("opts") == len(read) + 1, cid


@pytest.mark.parametrize("cid,name", [
    # the per-check counts that are constants of their runners
    ("causality.development-vs-double-complement", "brute"),
    ("causality.development-props", "count"),
    ("causality.disjointness-hereditary", "count"),
    ("causality.cauchy-union-property", "count"),
    ("causality.embedding-development-lemmas", "per_embedding"),
    ("causality.cauchy-morphism-equivalence", "count"),
    ("site.localized-embedding-functors", "count"),
    ("site.refinement-functors", "count"),
    ("algebra.degree2-ideal-principle", "trials"),
    ("kg.pullback-identification", "count"),
    # a misspelt option
    ("site.extend-cover", "cuont"),
])
def test_an_undeclared_option_is_refused(cyl_ctx, cid, name):
    """An option a check does not declare is refused by name, by the
    scenario schema and by ``run_check``, rather than run at the check's
    constant."""
    scenario = {"schema": "latticehk-scenario/1",
                "spacetime": {"kind": "plane", "window": [0, 4]},
                "checks": [cid], "options": {cid: {name: 1}}}
    with pytest.raises(ScenarioError) as refused:
        validate_scenario(scenario)
    assert str(refused.value) == (f"invalid scenario: {name!r} is not one "
                                  f"of {list(OPTIONS[cid])!r} at "
                                  f"options/{cid}")
    with pytest.raises(KeyError, match=f"{cid} declares no option "
                                       f"'{name}'"):
        run_check(cid, cyl_ctx, {name: 1})


def test_run_context_reads_each_input_once(plane_ctx, cyl_ctx):
    """The readers' defaults and refusals: rows default to the window, a
    cylinder spans every column, and a plane without columns, rows outside
    the window, a mass squared that is no rational and an unknown algebra
    are configuration errors."""
    assert plane_ctx.t_range == (0, 4)
    assert {x for (_, x) in plane_ctx.zone().pts} == set(range(-2, 5))
    assert cyl_ctx.zone() == region_slab(cyl_ctx.M, 0, 4)
    assert len(plane_ctx.zone().pts) == 5 * 7
    bare = RunContext(M=plane_ctx.M)
    assert bare.t_range == plane_ctx.M.window
    with pytest.raises(SiteError, match="explicit x_range"):
        bare.zone()
    with pytest.raises(SiteError, match=r"universe.t_range \[0, 40\] "
                                        "leaves spacetime.window"):
        RunContext(M=cyl_ctx.M, universe_cfg={"t_range": [0, 40]}).zone()
    assert bare.mass2 == QQ(1, 4) and bare.algebra == QPower(2)
    assert RunContext(M=bare.M, aqft_cfg={"algebra": {"kind": "initial"}}
                      ).algebra == QPower(1)
    with pytest.raises(KgError, match="mass2"):
        RunContext(M=bare.M, aqft_cfg={"mass2": "1/0"}).mass2
    with pytest.raises(AqftError, match="algebra"):
        RunContext(M=bare.M, aqft_cfg={"algebra": {"kind": "qpower",
                                                   "k": 0}}).algebra


def test_digest_hashes_the_raw_universe_block(cyl_ctx):
    """Record digests hash the universe block as written, so a range left to
    its default and the same range written out give different digests."""
    written = RunContext(M=cyl_ctx.M, seed=cyl_ctx.seed,
                         universe_cfg={"t_range": list(cyl_ctx.M.window)})
    default = RunContext(M=cyl_ctx.M, seed=cyl_ctx.seed)
    assert written.t_range == default.t_range
    assert written.digest() != default.digest()


# the registry sweep's shapes: the small shapes above in the usual window,
# the narrowest cylinder, and a window only as tall as the zone
_SWEEP_SHAPES = {
    **{name: (kind, c, (-14, 16), universe)
       for name, (kind, c, universe) in _SMALL_SHAPES.items()},
    "cyl2-rows-0-3": ("cylinder", 2, (-14, 16), {"t_range": [0, 3]}),
    "cyl5-window-0-3": ("cylinder", 5, (0, 3), {}),
}
_SCENARIO_KEY = re.compile(r"\bspacetime\.\w|\buniverse\.\w|\b[tx]_range\b")


@pytest.mark.parametrize("shape", sorted(_SWEEP_SHAPES))
def test_registry_sweep_over_small_shapes(shape):
    """Every check on a small shape either gives records, failing only
    where docs/decisions.md documents a divergence, or refuses the scenario
    with a message that names the key to change; an engine fault
    (``ModelError``) or any other exception is neither."""
    kind, c, window, universe = _SWEEP_SHAPES[shape]
    ctx = RunContext(M=LatticeSpacetime(kind, window, c), seed=3,
                     universe_cfg={"compactness": "rc", "max_height": 2,
                                   **universe})
    for cid in sorted(REGISTRY):
        try:
            records = run_check(cid, ctx)
        except (geometry.GeometryError, SiteError, KgError, AqftError) as e:
            msg = str(e)
            assert not isinstance(e, geometry.ModelError), (cid, msg)
            assert _SCENARIO_KEY.search(msg) or any(
                re.search(rf"\b{name}\b", msg) for name in OPTIONS[cid]), \
                (cid, msg)
            continue
        for rec in records:
            assert rec.verdict != "fail" or rec.id in EXPECTED_FAIL, \
                (cid, rec.id, rec.witness)
