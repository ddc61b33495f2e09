import random

import pytest

from latticehk.checks import RunContext, run_check
from latticehk.geometry import (LatticeEmbedding, LatticeSpacetime,
                                WindowTooSmallError, apply_embedding,
                                bounded_spacetime, cone, hull, region_diamond,
                                region_points, region_slab)
from latticehk import kleingordon
from latticehk.kleingordon import (GreenKernel, KgConfig, KgContext, KgError,
                                   KgSpace, TimesliceSkip, apply_P, field_add,
                                   field_clean, green, pairing, propagator,
                                   relabelling_map)
from latticehk.rational import Mat, QQ, Q0, Q1, induced_quotient_map
from latticehk.sites import enumerate_universe

from conftest import (dense_apply, dense_reduce, from_dense_columns,
                      propagator_pairing, two_elimination_relations)


def test_stencil_values(plane):
    out = apply_P(KgConfig(plane, 0), {(0, 0): Q1})
    assert out[(1, 0)] == -1 and out[(-1, 0)] == -1
    assert out[(0, 1)] == 1 and out[(0, -1)] == 1
    assert (0, 0) not in out
    m = apply_P(KgConfig(plane, QQ(1, 4)), {(0, 0): Q1})
    assert m[(0, 0)] == QQ(1, 4)


def test_stencil_symmetry(kg_plane):
    rng = random.Random(2)
    for _ in range(10):
        f = field_clean({(rng.randint(0, 3), rng.randint(-3, 3)):
                         QQ(rng.randint(-3, 3)) for _ in range(3)})
        g = field_clean({(rng.randint(0, 3), rng.randint(-3, 3)):
                         QQ(rng.randint(-3, 3)) for _ in range(3)})
        lhs = sum((v * g.get(p, Q0)
                   for p, v in apply_P(kg_plane.cfg, f).items()), Q0)
        rhs = sum((v * f.get(p, Q0)
                   for p, v in apply_P(kg_plane.cfg, g).items()), Q0)
        assert lhs == rhs


def test_green_inverse_and_uniqueness(kg_plane):
    phi = {(0, 0): Q1, (1, 2): QQ(-2)}
    gp = green(kg_plane.cfg, phi, "retarded", t_stop=12)
    back = field_clean(apply_P(kg_plane.cfg, gp))
    assert {p: v for p, v in back.items() if p[0] < 12} == phi
    gm = green(kg_plane.cfg, phi, "advanced", t_stop=-12)
    back2 = field_clean(apply_P(kg_plane.cfg, gm))
    assert {p: v for p, v in back2.items() if p[0] > -12} == phi
    # G+ after P is the identity on compactly supported fields
    gpp = green(kg_plane.cfg, field_clean(apply_P(kg_plane.cfg, phi)),
                "retarded", t_stop=12)
    assert {p: v for p, v in gpp.items() if p[0] < 11} == \
        {p: v for p, v in phi.items() if p[0] < 11}


@pytest.mark.parametrize("backend", ["kg_plane", "kg_cyl"])
def test_green_marches_past_a_quiet_row(backend, request):
    """P delta_(1,0) + delta_(2,0) makes G+ vanish on row 2 around x = 0 and
    not on row 1, so row 3 is read off the row before the quiet one."""
    cfg = request.getfixturevalue(backend).cfg
    phi = field_add(apply_P(cfg, {(1, 0): Q1}), {(2, 0): Q1})
    gp = green(cfg, phi, "retarded", t_stop=8)
    assert gp[(1, 0)] == 1 and gp[(3, 0)] == -1
    back = field_clean(apply_P(cfg, gp))
    assert {p: v for p, v in back.items() if p[0] < 8} == phi
    gm = green(cfg, phi, "advanced", t_stop=-6)
    back = field_clean(apply_P(cfg, gm))
    assert {p: v for p, v in back.items() if p[0] > -6} == phi


def test_green_support_in_cone(kg_plane, plane):
    gp = green(kg_plane.cfg, {(0, 0): Q1}, "retarded", t_stop=10)
    assert all(abs(x) <= t for (t, x) in gp)
    c = cone(plane, region_points(plane, [(0, 0)]), "future", False, 10)
    assert all(p in c.pts for p in gp)


def test_propagator_kills_P(kg_plane):
    phi = {(0, 0): Q1}
    g = propagator(kg_plane.cfg, phi, -6, 6)
    pg = apply_P(kg_plane.cfg,
                 {p: v for p, v in g.items() if -5 <= p[0] <= 5})
    inner = {p: v for p, v in field_clean(pg).items() if -4 <= p[0] <= 4}
    assert inner == {}


def test_pairing_properties(kg_cyl, cyl):
    rng = random.Random(4)
    for _ in range(15):
        f = field_clean({(rng.randint(0, 3), rng.randint(0, 5)):
                         QQ(rng.randint(-3, 3)) for _ in range(3)})
        g = field_clean({(rng.randint(0, 3), rng.randint(0, 5)):
                         QQ(rng.randint(-3, 3)) for _ in range(3)})
        if not f or not g:
            continue
        assert pairing(kg_cyl.kernel, f, f) == 0
        assert pairing(kg_cyl.kernel, f, g) == -pairing(kg_cyl.kernel, g, f)
        assert pairing(kg_cyl.kernel, apply_P(kg_cyl.cfg, f), g) == 0
    # spacelike separated deltas pair to zero
    assert pairing(kg_cyl.kernel, {(0, 0): Q1}, {(0, 3): Q1}) == 0
    # an empty or zero field pairs to zero
    assert pairing(kg_cyl.kernel, {}, {(0, 0): Q1}) == 0
    assert pairing(kg_cyl.kernel, {(0, 0): Q1}, {(1, 0): Q0}) == 0


@pytest.mark.parametrize("m2", [Q0, QQ(1, 4), QQ(2)])
def test_pairing_reads_the_green_kernel(m2):
    """The pairing read off the context's Green kernel is the one of the
    per-field propagator solves, on the plane and on cylinders of
    circumference 2 to 8.  The last pair spans more rows than the kernel
    holds, so the kernel grows."""
    rng = random.Random(31)

    def field(M, rows):
        return {M.norm_point((rng.randint(*rows), rng.randint(-2, 4))):
                QQ(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3)}

    for M in [LatticeSpacetime("plane", (-4, 12))] + \
            [LatticeSpacetime("cylinder", (-4, 12), c) for c in range(2, 9)]:
        kg = KgContext(M, m2)
        for rows in [(0, 2)] * 6 + [(5, 7)]:
            phi, psi = field(M, (0, 2)), field(M, rows)
            assert pairing(kg.kernel, phi, psi) == \
                propagator_pairing(kg.cfg, phi, psi), (M, m2, phi, psi)
            assert kg.kernel.height <= 2 or rows == (5, 7)
        assert kg.kernel.height >= 3


def test_generator_space_dims(kg_plane, kg_cyl, plane, cyl):
    assert kg_plane.space(region_points(plane, [(0, 0)]).points()).dim == 1
    s2 = kg_cyl.space(region_slab(cyl, 0, 1).points())
    s4 = kg_cyl.space(region_slab(cyl, 0, 3).points())
    assert s2.dim == 12 and s4.dim == 12  # two rows of Cauchy data
    dia = kg_plane.space(region_diamond(plane, (0, 0), (6, 0)).points())
    assert dia.dim == 12


def test_extension_injective_and_cauchy_iso(kg_cyl, cyl):
    s01 = region_slab(cyl, 0, 1)
    s03 = region_slab(cyl, 0, 3)
    ext = kg_cyl.extension(s01.points(), s03.points())
    assert ext.rank() == 12  # injective and onto: the time-slice iso
    dia_small = region_diamond(cyl, (1, 0), (3, 0))
    dia_big = region_diamond(cyl, (0, 0), (4, 0))
    ext2 = kg_cyl.extension(dia_small.points(), dia_big.points())
    assert ext2.rank() == kg_cyl.space(dia_small.points()).dim


def test_extension_cache(cyl):
    kg = KgContext(cyl, QQ(1, 4))
    small = region_diamond(cyl, (1, 0), (3, 0)).points()
    big = region_diamond(cyl, (0, 0), (4, 0)).points()
    ext = kg.extension(small, big)
    assert kg.extension(set(small), big) is ext
    for _ in range(2):  # a refusal is never cached
        with pytest.raises(KgError, match="extension needs nested regions"):
            kg.extension(big, small)


def _section(q, coords) -> tuple:
    """The ambient representative of quotient coordinates: coordinate j
    sits at the free column ``q.free[j]``."""
    v = [Q0] * q.ambient_dim
    for c, val in zip(q.free, coords):
        v[c] = val
    return tuple(v)


def _sigma_ambient(space) -> Mat:
    """The pairing on the point basis of C_c(U): column q is the propagator
    of the unit field at q, read on the points of U."""
    ts = [t for (t, _) in space.pts]
    cols = [propagator(space.cfg, {q: Q1}, min(ts), max(ts))
            for q in space.pts]
    return from_dense_columns([[g.get(p, Q0) for p in space.pts]
                               for g in cols], len(space.pts))


def test_sigma_descends(kg_cyl, cyl, kg_plane, plane):
    s = kg_cyl.space(region_slab(cyl, 0, 2).points())
    sig = s.sigma_reduced()
    assert sig.transpose() == -sig
    assert any(v != 0 for row in sig.data for v in row)
    # sigma_reduced reads the free rows and columns of the ambient pairing;
    # the reference is S^T sigma S with S the section of the unit vectors
    for kg, M in ((kg_cyl, cyl), (kg_plane, plane)):
        rng = random.Random(2)
        zone = [(t, x) for t in range(0, 4) for x in range(0, 4)]
        # the plane has no finite slabs; a three-row strip stands in
        slab = region_slab(M, 0, 2) if M.kind == "cylinder" else \
            hull(M, region_points(M, [(t, x) for t in range(3)
                                      for x in range(5)]))
        for U in (slab, region_diamond(M, (0, 1), (4, 1)),
                  hull(M, region_points(M, rng.sample(zone, 3)))):
            space = kg.space(U.points())
            q = space.quotient
            assert 0 < q.dim < q.ambient_dim  # S selects a proper subset
            S = from_dense_columns([_section(q, [Q1 if i == j else Q0
                                                 for i in range(q.dim)])
                                    for j in range(q.dim)], q.ambient_dim)
            ref = S.transpose() @ _sigma_ambient(space) @ S
            sel = space.sigma_reduced()
            assert sel == ref
            assert [[type(v) for v in r] for r in sel.data] == \
                [[type(v) for v in r] for r in ref.data]


def test_sigma_ambient_refuses_a_non_degenerate_relation(kg_cyl, cyl):
    pts = region_slab(cyl, 0, 2).points()
    # a space of its own, so that the context's cached one stays intact
    space = KgSpace(GreenKernel(kg_cyl.cfg), pts)
    sig = _sigma_ambient(space)
    q = space.quotient
    assert q.sub_rref.nrows > 0
    # add a unit vector the pairing does not annihilate to one relation row
    i = next(i for i, row in enumerate(sig.data) if any(row))
    rows = [list(r) for r in q.sub_rref.data]
    rows[0][i] += Q1
    q.sub_rref = Mat(rows, q.ambient_dim)
    with pytest.raises(KgError, match="does not descend"):
        space.sigma_reduced()


def test_timeslice_flat_cut(kg_cyl, cyl):
    U = region_points(cyl, [(1, 0), (2, 0)])
    V = region_slab(cyl, 0, 3)
    cut = kg_cyl.timeslice_map(U.points(), V.points())
    ext = kg_cyl.extension(U.points(), V.points())
    assert cut == ext  # plain inclusions reduce to extension by zero


def test_timeslice_proper_localized_morphism(kg_cyl, cyl):
    # U inside the development of V but not inside V
    U = region_slab(cyl, 2, 3)
    V = region_slab(cyl, 0, 1)
    cut = kg_cyl.timeslice_map(U.points(), V.points())
    assert cut.nrows == cut.ncols == 12
    assert cut.rank() == 12  # Cauchy-type morphism: an isomorphism
    # composing back is the identity on classes
    back = kg_cyl.timeslice_map(V.points(), U.points())
    assert back @ cut == Mat.identity(12)


def test_timeslice_skip(kg_cyl, cyl):
    U = region_slab(cyl, 0, 1)
    V = region_points(cyl, [(3, 0), (4, 0)])  # too small for any flat cut
    with pytest.raises(TimesliceSkip):
        kg_cyl.timeslice_map(U.points(), V.points())


def test_half_cuts_cancel(kg_cyl):
    # P(chi+ G phi) + P(chi- G phi) = P(G phi) = 0 exactly
    phi = {(1, 0): Q1}
    g = propagator(kg_cyl.cfg, phi, 2, 3)
    w_plus, w_minus = {}, {}
    for ((t, x), v) in g.items():
        if t == 3:
            w_plus[(2, x)] = w_plus.get((2, x), Q0) - v
            w_minus[(2, x)] = w_minus.get((2, x), Q0) + v
        if t == 2:
            w_plus[(3, x)] = w_plus.get((3, x), Q0) + v
            w_minus[(3, x)] = w_minus.get((3, x), Q0) - v
    assert field_clean(field_add(w_plus, w_minus)) == {}


def test_pushforward_identification(kg_plane, plane):
    f = LatticeEmbedding(plane, plane, 2, -1)

    def moved(U):
        return relabelling_map(kg_plane.space(U.points()),
                               kg_plane.space(apply_embedding(f, U).points()),
                               f.map_point)

    U = region_diamond(plane, (0, 0), (4, 0))
    m = moved(U)
    assert m.nrows == m.ncols and m.rank() == m.nrows
    # naturality with extensions
    V = region_diamond(plane, (0, 0), (6, 0))
    mV = moved(V)
    lhs = mV @ kg_plane.extension(U.points(), V.points())
    rhs = kg_plane.extension(apply_embedding(f, U).points(),
                             apply_embedding(f, V).points()) @ m
    assert lhs == rhs


def _generator_space_cases(masses=(QQ(1, 4), Q0), per=12, bounded=10,
                           seed=23):
    """(spacetime, mass squared, point sets): ``per`` seeded universe
    regions on the plane and on cylinders of circumference 2 to 8 at each
    mass squared, and ``bounded`` of the bounded slabs of the point family
    at mass squared 1/4."""
    rng = random.Random(seed)
    plane = LatticeSpacetime("plane", (-4, 8))
    cases = []
    for M in [plane] + [LatticeSpacetime("cylinder", (-4, 8), c)
                        for c in range(2, 9)]:
        uni = enumerate_universe(M, t_range=(0, 3), max_height=3,
                                 x_range=(-2, 3) if M.kind == "plane"
                                 else None, cap=2000)
        for m2 in masses:
            cases.append((M, m2, [U.points() for U in
                                  rng.sample(uni, min(len(uni), per))]))
    N = LatticeSpacetime("cylinder", (-4, 8), 6)
    for t0, t1 in ((0, 3), (1, 4)):
        B = bounded_spacetime(N, region_slab(N, t0, t1).pts)
        uni = enumerate_universe(B, compactness="copen", cap=2000,
                                 strict_diamonds=False)
        cases.append((B, QQ(1, 4), [U.points() for U in
                                    rng.sample(uni, bounded)]))
    return cases


def test_generator_space_matches_two_eliminations():
    """One elimination of the stencil images gives the reduced relations,
    pivots and free coordinates that the constraint kernel, P applied again
    and a second elimination give; on the window's edge rows both raise."""
    built = 0
    for M, m2, regions in _generator_space_cases():
        kg = KgContext(M, m2)
        for pts in regions:
            q = kg.space(pts).quotient
            sub, pivots = two_elimination_relations(kg.cfg, pts)
            assert (q.sub_rref, q.pivots) == (sub, pivots), (M, pts)
            assert q.free == tuple(c for c in range(len(pts))
                                   if c not in pivots)
            built += 1
    assert built > 150
    M = LatticeSpacetime("cylinder", (-4, 8), 3)
    kg = KgContext(M, QQ(1, 4))
    for pts in (region_slab(M, 7, 8).points(), region_slab(M, -4, -3).points(),
                region_points(M, [(8, 0)]).points()):
        with pytest.raises(WindowTooSmallError):
            two_elimination_relations(kg.cfg, pts)
        with pytest.raises(WindowTooSmallError):
            kg.space(pts)


def test_generator_space_is_one_elimination(cyl, monkeypatch):
    """A build eliminates once and scatters the stencil itself: it applies
    no field operator and solves no propagator."""
    calls = []
    rref = Mat.rref
    monkeypatch.setattr(Mat, "rref", lambda m: calls.append("rref") or
                        rref(m))
    monkeypatch.setattr(Mat, "nullspace",
                        lambda m: calls.append("nullspace"))
    for name in ("apply_P", "propagator"):
        monkeypatch.setattr(kleingordon, name,
                            lambda *a, name=name: calls.append(name))
    KgSpace(GreenKernel(KgConfig(cyl, QQ(1, 4))),
            region_diamond(cyl, (0, 0), (4, 0)).points())
    assert calls == ["rref"]


def _free_block(space, sig: Mat) -> Mat:
    """The rows and columns of the free points of the point-basis pairing
    ``sig``: what the section reads on quotient coordinates."""
    free = space.quotient.free
    pos = {i: k for k, i in enumerate(free)}
    return Mat.from_columns([{pos[i]: v for i, v in sig.columns()[j].items()
                              if i in pos} for j in free], len(free))


def test_sigma_reads_the_green_kernel():
    """The pairing read off the context's Green kernel is the one of the
    per-point propagator solves, on the plane, on cylinders of
    circumference 2 to 8 at mass squared 0, 1/4 and 2, and on the bounded
    slabs of the point family.  Each context takes its regions in seeded
    order, so the kernel both grows and serves shorter spaces."""
    built = 0
    for M, m2, regions in _generator_space_cases(
            masses=(Q0, QQ(1, 4), QQ(2)), per=5, bounded=6, seed=29):
        kg = KgContext(M, m2)
        for pts in regions:
            space = kg.space(pts)
            assert space.sigma_reduced() == \
                _free_block(space, _sigma_ambient(space)), (M, m2, pts)
            assert kg.kernel.height >= max(t for t, _ in pts) - \
                min(t for t, _ in pts)
            built += 1
    assert built > 100


@pytest.mark.parametrize("m2", [Q0, QQ(1, 4), QQ(2)])
def test_green_kernel_grows_for_a_taller_space(cyl, m2):
    """A short space sets the kernel's height, a taller one grows it, and
    both pairings, and the short one's read again from the grown kernel,
    are the per-point ones."""
    kg = KgContext(cyl, m2)
    short = kg.space(region_slab(cyl, 0, 1).points())
    assert short.sigma_reduced() == _free_block(short, _sigma_ambient(short))
    assert kg.kernel.height == 1
    tall = kg.space(region_diamond(cyl, (0, 0), (6, 0)).points())
    assert tall.sigma_reduced() == _free_block(tall, _sigma_ambient(tall))
    assert kg.kernel.height == 6
    again = KgSpace(kg.kernel, region_slab(cyl, 2, 3).points())
    assert again.sigma_reduced() == short.sigma_reduced()
    assert kg.kernel.height == 6


def test_generator_space_scatters_the_integer_stencil():
    """Coincident neighbours on a circumference-2 cylinder add up, at mass
    squared 0 no centre entry is eliminated, and a numerator other than 1
    scales the centre: the relations are the two-elimination ones, and so
    is the pairing."""
    M = LatticeSpacetime("cylinder", (-4, 8), 2)
    for m2 in (Q0, QQ(1, 4), QQ(2), QQ(3, 7)):
        kg = KgContext(M, m2)
        for pts in (region_slab(M, 0, 0).points(),
                    region_slab(M, 0, 2).points(),
                    region_points(M, [(1, 0)]).points()):
            space = kg.space(pts)
            assert (space.quotient.sub_rref, space.quotient.pivots) == \
                two_elimination_relations(kg.cfg, pts)
            assert space.sigma_reduced() == \
                _free_block(space, _sigma_ambient(space))


def _timeslice_regions(M):
    """The time-slice test regions: slabs, Cauchy pairs and the two-point
    columns of a localized slab site."""
    c = M.circumference
    return [region_slab(M, 0, 1), region_slab(M, 2, 3), region_slab(M, 0, 3),
            region_slab(M, 1, 2), region_slab(M, 2, 5),
            region_points(M, [(0, 0), (1, 0)]),
            region_points(M, [(1, 0), (2, 0)]),
            region_points(M, [(0, c // 2), (1, c // 2)])]


@pytest.mark.parametrize("c,m2", [(2, QQ(1, 4)), (3, QQ(1, 4)),
                                  (6, QQ(1, 4)), (8, QQ(1, 4)), (6, Q0),
                                  (6, QQ(2))])
def test_timeslice_map_matches_the_per_point_propagator(c, m2):
    """Every flat-cut map between the time-slice regions is the one of the
    per-point propagator solves; a refusal is the oracle's."""
    M = LatticeSpacetime("cylinder", (-4, 10), c)
    kg = KgContext(M, m2)
    regions = _timeslice_regions(M)
    compared = 0
    for U in regions:
        for V in regions:
            src, dst = kg.space(U.points()), kg.space(V.points())
            try:
                ref = _dense_timeslice(kg, src, dst)
            except (TimesliceSkip, ValueError) as e:
                with pytest.raises(type(e)):
                    kg.timeslice_map(U.points(), V.points())
                continue
            assert kg.timeslice_map(U.points(), V.points()) == ref, (U, V)
            compared += 1
    assert compared >= 20


def test_mass_zero_cylinder_injectivity(cyl):
    kg0 = KgContext(cyl, 0)
    s = kg0.space(region_slab(cyl, 0, 2).points())
    assert s.dim == 12  # the operator stays injective at zero mass


def test_cauchy_pair_cut_inverts_extension(kg_cyl, cyl):
    # for a Cauchy inclusion, the flat-cut map back inverts extension by zero
    small = region_slab(cyl, 1, 2)
    big = region_slab(cyl, 0, 3)
    ext = kg_cyl.extension(small.points(), big.points())
    back = kg_cyl.timeslice_map(big.points(), small.points())
    assert back @ ext == Mat.identity(12)
    assert ext @ back == Mat.identity(12)


def test_timeslice_cut_position_independent(kg_cyl, cyl):
    # two admissible flat cuts induce the same map on classes
    U = region_points(cyl, [(0, 0), (1, 0)])
    V = region_slab(cyl, 0, 5)
    m1 = kg_cyl.timeslice_map(U.points(), V.points())
    tall = region_slab(cyl, 2, 5)
    m2 = kg_cyl.timeslice_map(U.points(), tall.points())
    ext_back = kg_cyl.extension(tall.points(), V.points())
    assert ext_back @ m2 == m1


def test_time_slice_check_needs_two_row_slabs(cyl_ctx, cyl):
    """A one-row cylinder slab carries half the leapfrog Cauchy data: with
    the default min_slab_height the check refuses the universe; with two-row
    slabs every Cauchy pair gives an isomorphism."""
    with pytest.raises(KgError, match="min_slab_height"):
        run_check("kg.time-slice", cyl_ctx)
    ctx = RunContext(M=cyl, seed=7,
                     universe_cfg={**cyl_ctx.universe_cfg,
                                   "min_slab_height": 2},
                     aqft_cfg=cyl_ctx.aqft_cfg)
    rec = run_check("kg.time-slice", ctx)[0]
    assert rec.verdict == "pass" and rec.witness["cauchy_pairs"] == 31


def test_time_slice_check_lets_a_bug_propagate(cyl, cyl_ctx, monkeypatch):
    """Only the flat-cut construction's own refusals count as a bad cut; any
    other exception is a bug and leaves the check."""
    def broken(self, U, V):
        raise RuntimeError("not a refusal")

    monkeypatch.setattr(KgContext, "timeslice_map", broken)
    ctx = RunContext(M=cyl, seed=7,
                     universe_cfg={**cyl_ctx.universe_cfg,
                                   "min_slab_height": 2},
                     aqft_cfg=cyl_ctx.aqft_cfg)
    with pytest.raises(RuntimeError, match="not a refusal"):
        run_check("kg.time-slice", ctx)


def test_time_slice_check_skips_without_cauchy_pairs(plane_ctx):
    rec = run_check("kg.time-slice", plane_ctx)[0]
    assert rec.verdict == "skip" and rec.witness["cauchy_pairs"] == 0
    assert rec.witness["reason"]


# -- the maps against their dense-product definition --------------------------


def _dense_induced(src, dst, amb: Mat) -> Mat:
    """The induced map as a product: the section of each quotient unit
    vector, the ambient matrix, then the target reduction."""
    for row in src.quotient.sub_rref.data:
        if any(dense_reduce(dst.quotient, dense_apply(amb, row))):
            raise ValueError("map not defined on quotient")
    cols = []
    for j in range(src.dim):
        e = _section(src.quotient, [Q1 if i == j else Q0
                                    for i in range(src.dim)])
        cols.append(dense_reduce(dst.quotient, dense_apply(amb, e)))
    return from_dense_columns(cols, dst.dim)


def _relabel(src, dst, f) -> Mat:
    """The dense 0/1 matrix sending point p of src to point f(p) of dst."""
    return Mat([[Q1 if q == f(p) else Q0 for p in src.pts]
                for q in dst.pts], len(src.pts))


def _dense_timeslice(kg, src, dst) -> Mat:
    vpts = set(dst.pts)
    rows = sorted({t for (t, _) in dst.pts})
    cols = []
    for p in src.pts:
        tstar = next((t for t in rows if kg._band_ok(p, t, vpts)), None)
        if tstar is None:
            raise TimesliceSkip("no cut")
        g = propagator(kg.cfg, {p: Q1}, tstar, tstar + 1)
        w = {}
        for ((t, x), v) in g.items():
            if t == tstar + 1:
                w[(tstar, x)] = w.get((tstar, x), Q0) - v
            if t == tstar:
                w[(tstar + 1, x)] = w.get((tstar + 1, x), Q0) + v
        cols.append([w.get(q, Q0) for q in dst.pts])
    return _dense_induced(src, dst, from_dense_columns(cols, len(dst.pts)))


def _nested_pairs(M, seed):
    """Seeded pairs U <= V of causally convex regions in a small zone; half
    of the U are hulls of interior points of V, so that a flat cut fits."""
    rng = random.Random(seed)
    zone = [(t, x) for t in range(0, 5) for x in range(0, 5)]
    pairs = []
    while len(pairs) < 8:
        big = sorted(rng.sample(zone, 2))
        V = hull(M, region_points(M, big)) if rng.random() < 0.5 else \
            region_diamond(M, (0, 2), (6, 2))
        inner = [(t, x) for (t, x) in sorted(V.pts)
                 if all(M.norm_point(q) in V.pts for q in
                        ((t - 1, x), (t + 1, x), (t, x - 1), (t, x + 1)))]
        pool = inner if inner and len(pairs) % 2 else sorted(V.pts)
        U = hull(M, region_points(M, rng.sample(pool, min(len(pool),
                                                          rng.randint(1, 3)))))
        if U.pts <= V.pts:
            pairs.append((U, V))
    return pairs


@pytest.mark.parametrize("backend", ["plane", "cyl"])
def test_maps_match_the_dense_product(backend, request):
    M = request.getfixturevalue(backend)
    kg = request.getfixturevalue(f"kg_{backend}")
    checked = {"extension": 0, "timeslice": 0, "pushforward": 0}
    for U, V in _nested_pairs(M, 5):
        src, dst = kg.space(U.points()), kg.space(V.points())
        got = kg.extension(U.points(), V.points())
        assert got == _dense_induced(src, dst, _relabel(src, dst,
                                                        lambda p: p))
        checked["extension"] += 1
        for a, b in ((U, V), (V, U)):
            sa, sb = kg.space(a.points()), kg.space(b.points())
            try:
                ref = _dense_timeslice(kg, sa, sb)
            except (TimesliceSkip, ValueError) as e:
                with pytest.raises(type(e)):
                    kg.timeslice_map(a.points(), b.points())
                continue
            assert kg.timeslice_map(a.points(), b.points()) == ref
            checked["timeslice"] += 1
        f = LatticeEmbedding(M, M, 1, -2)
        fV = apply_embedding(f, V)
        img = kg.space(fV.points())
        assert relabelling_map(dst, img, f.map_point) == \
            _dense_induced(dst, img, _relabel(dst, img, f.map_point))
        checked["pushforward"] += 1
    assert all(checked.values()), checked


def _old_extension(kg, U, V) -> Mat:
    """Extension-by-zero with each point keeping its label, each column
    read off the target's reduced relations."""
    src, dst = kg.space(U), kg.space(V)
    return induced_quotient_map(src.quotient, dst.quotient,
                                [{dst.index[p]: Q1} for p in src.pts])


def _old_pushforward(kg_src, kg_tgt, f, U, fU) -> Mat:
    """The identification along an embedding f: each point of U relabelled
    into its image fU."""
    src, dst = kg_src.space(U.points()), kg_tgt.space(fU.points())
    return induced_quotient_map(
        src.quotient, dst.quotient,
        [{dst.index[f.map_point(p)]: Q1} for p in src.pts])


@pytest.mark.parametrize("backend", ["plane", "cyl"])
def test_relabelling_map_is_the_extension_and_the_identification(backend,
                                                                 request):
    """Along the identity the relabelling map is extension-by-zero; along a
    translation, within one context or from a bounded slab's context into
    the cylinder's, it is the generator-space identification."""
    M = request.getfixturevalue(backend)
    kg = request.getfixturevalue(f"kg_{backend}")
    f = LatticeEmbedding(M, M, 1, -2)
    for U, V in _nested_pairs(M, 7):
        src, dst = kg.space(U.points()), kg.space(V.points())
        assert relabelling_map(src, dst, lambda p: p) == \
            _old_extension(kg, U.points(), V.points()) == \
            kg.extension(U.points(), V.points())
        fV = apply_embedding(f, V)
        assert relabelling_map(dst, kg.space(fV.points()), f.map_point) == \
            _old_pushforward(kg, kg, f, V, fV)
    if backend == "cyl":
        B = bounded_spacetime(M, region_slab(M, 0, 3).pts)
        g = LatticeEmbedding(B, M, 1, 1)
        kgB = KgContext(B, QQ(1, 4))
        uni = enumerate_universe(B, compactness="copen", cap=2000,
                                 strict_diamonds=False)
        for U in random.Random(8).sample(uni, 12):
            gU = apply_embedding(g, U)
            assert relabelling_map(kgB.space(U.points()),
                                   kg.space(gU.points()), g.map_point) == \
                _old_pushforward(kgB, kg, g, U, gU)


def test_built_maps_keep_the_columns_of_their_rows(cyl):
    """An extension, a time-slice map and the reduced pairing are built from
    their sparse columns and keep them as they are: the columns are what
    their dense rows give, with no zero entry."""
    kg = KgContext(cyl, QQ(1, 4))
    small = region_slab(cyl, 1, 2).points()
    big = region_slab(cyl, 0, 3).points()
    maps = (kg.extension(small, big), kg.timeslice_map(big, small),
            kg.space(big).sigma_reduced())
    for m in maps:
        cols = [dict(c) for c in m.columns()]
        assert cols == [dict(c) for c in Mat(m.data, m.ncols).columns()]
        assert all(type(v) is QQ and v for c in cols for v in c.values())
    assert any(v not in (0, 1) for m in maps for row in m.data for v in row)
