"""The check registry as a whole: every registered check on both backends,
and checks that find no instance."""

import pytest

from latticehk.checks import CLAIMS, REGISTRY, RunContext, run_check
from latticehk.kleingordon import KgError

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
