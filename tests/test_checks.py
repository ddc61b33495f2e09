"""The check registry as a whole: every registered check on both backends,
and checks that find no instance."""

import pytest

from latticehk.algebra import QPower
from latticehk.checks import CLAIMS, REGISTRY, RunContext, run_check
from latticehk.geometry import region_slab
from latticehk.kleingordon import KgError
from latticehk.nets import AqftError
from latticehk.rational import QQ
from latticehk.sites import SiteError

# the documented lattice divergence of criterion 1 (docs/decisions.md)
EXPECTED_FAIL = {"causality.development-vs-double-complement"}
# configuration errors: the cylinder fixture's universe holds one-row slabs
RAISES = {("cyl_ctx", "kg.time-slice"): KgError}


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


@pytest.mark.parametrize("ctx_name,universe,cid,opts", [
    ("cyl_ctx", {}, "kg.pullback-identification", {"count": 0}),
    ("cyl_ctx", {}, "causality.development-props", {"count": 0}),
    ("cyl_ctx", {}, "site.localization-oracle", {"universes": 0}),
    ("cyl_ctx", {}, "kg.field-identities", {"count": 0}),
    ("cyl_ctx", {}, "causality.embedding-development-lemmas",
     {"per_embedding": 0}),
    # every region spans at most two rows, so no band cover exists
    ("plane_ctx", {"t_range": [0, 1]}, "site.cover-intersections", {}),
    ("cyl_ctx", {}, "site.refinement-functors", {"count": 0}),
    ("cyl_ctx", {}, "descent.finer-implies-coarser", {"count": 0}),
    ("cyl_ctx", {}, "site.extend-cover", {"count": 0}),
    ("cyl_ctx", {}, "site.precostack-instances", {"count": 0}),
    ("cyl_ctx", {}, "site.localized-embedding-functors", {"count": 0}),
    ("cyl_ctx", {}, "causality.disjointness-hereditary", {"count": 0}),
    ("cyl_ctx", {}, "causality.cauchy-morphism-equivalence", {"count": 0}),
    ("cyl_ctx", {}, "causality.cauchy-union-property", {"count": 0}),
    # both flavor records; the coarsest-cover record still runs
    ("cyl_ctx", {}, "descent.kg-counit", {"count": 0}),
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


def test_embedding_functors_pass_below_ten_embeddings(cyl_ctx):
    recs = run_check("site.localized-embedding-functors", cyl_ctx,
                     {"count": 5})
    assert [(r.verdict, r.witness["embeddings"]) for r in recs] == \
        [("pass", 5)]


def test_run_context_reads_each_input_once(plane_ctx, cyl_ctx):
    """The readers' defaults and refusals: rows default to the window, a
    cylinder spans every column, and a plane without columns, a mass squared
    that is no rational and an unknown algebra are configuration errors."""
    assert plane_ctx.t_range == (0, 4) and plane_ctx.x_range == (-2, 4)
    assert cyl_ctx.x_range == (0, 5)
    assert cyl_ctx.zone() == region_slab(cyl_ctx.M, 0, 4)
    assert len(plane_ctx.zone().pts) == 5 * 7
    bare = RunContext(M=plane_ctx.M)
    assert bare.t_range == plane_ctx.M.window
    with pytest.raises(SiteError, match="explicit x_range"):
        bare.zone()
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
