import random

import pytest
from hypothesis import given, settings, strategies as st

from latticehk.rational import (ForkError, Mat, QQ, Q0, Q1, QuotientSpace,
                                induced_quotient_map, is_exact_coequalizer)

from conftest import (dense_apply, dense_rank, dense_reduce,
                      from_dense_columns)


def fraction_rref(m: Mat):
    """Gauss-Jordan elimination over Fractions: the reference that
    ``Mat.rref`` (integer elimination) must reproduce entry for entry."""
    rows = [list(r) for r in m.data]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        hit = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != 0:
                hit = i
                break
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        inv = rows[pr][pc]
        rows[pr] = [v / inv for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return Mat(rows[:pr], m.ncols), tuple(pivots)


def _oracle_matrices():
    """Seeded matrices: empty, all-zero, rank-deficient and full-rank, with
    entries over denominators 1, 2, 3 and 4."""
    rng = random.Random(11)
    out = [Mat([], 0), Mat([], 3), Mat([[], []]), Mat([[0] * 4] * 3),
           Mat.identity(4)]
    for den in (1, 2, 3, 4):
        for _ in range(12):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[QQ(rng.randint(-5, 5), rng.choice((1, den)))
                     for _ in range(ncols)] for _ in range(nrows)]
            out.append(Mat(rows, ncols))
            # rank-deficient: repeat combinations of the first rows
            k = rng.randint(1, nrows)
            extra = [[sum((QQ(rng.randint(-2, 2), den) * rows[i][c]
                           for i in range(k)), Q0) for c in range(ncols)]
                     for _ in range(2)]
            out.append(Mat(rows[:k] + extra, ncols))
        # full rank: an upper unitriangular matrix with its rows mixed
        n = rng.randint(2, 5)
        tri = [[QQ(1) if c == r else
                QQ(rng.randint(-3, 3), den) if c > r else Q0
                for c in range(n)] for r in range(n)]
        out.append(Mat(tri[::-1], n))
    return out


def test_rref_rank_nullspace_match_fraction_elimination():
    kinds = set()
    for m in _oracle_matrices():
        red, piv = m.rref()
        ref_red, ref_piv = fraction_rref(m)
        assert (red, piv) == (ref_red, ref_piv)
        assert all(type(v) is QQ for row in red.data for v in row)
        assert m.rank() == ref_red.nrows
        ref_null = []
        for fc in (c for c in range(m.ncols) if c not in ref_piv):
            v = [Q0] * m.ncols
            v[fc] = Q1
            for row, pc in zip(ref_red.data, ref_piv):
                v[pc] = -row[fc]
            ref_null.append(tuple(v))
        assert m.nullspace() == ref_null
        rank = ref_red.nrows
        kinds.add("empty" if not m.nrows * m.ncols else
                  "zero" if rank == 0 else
                  "full" if rank == min(m.nrows, m.ncols) else "deficient")
    assert kinds == {"empty", "zero", "full", "deficient"}


def test_a_matrix_keeps_only_its_sparse_columns():
    """Built from rows or from columns, a matrix stores its columns without
    zeros and nothing else; its dense rows, transpose, negation, action
    and equality are those of the dense oracle."""
    assert Mat.__slots__ == ("_columns", "nrows", "ncols")
    cases = [([], 3), ([[], []], 0), ([[0, 0, 0], [0, 0, 0]], 3),
             ([[1, 0, 0], [0, 0, 1]], 3),
             ([["1/2", 0], [0, "-2/3"], [3, "4/6"]], 2),
             # entries that cancel to zero, and a fraction not in lowest
             # terms
             ([[QQ(1, 3) - QQ(1, 3), 2], [QQ(2, 4), QQ(1, 2) - QQ(2, 4)]], 2)]
    for rows, ncols in cases:
        dense = tuple(tuple(QQ(v) for v in r) for r in rows)
        cols = [{i: r[j] for i, r in enumerate(dense) if r[j]}
                for j in range(ncols)]
        vec = [QQ(j + 1, 2) for j in range(ncols)]
        for m in (Mat(rows, ncols), Mat.from_columns(cols, len(rows))):
            assert (m.nrows, m.ncols) == (len(rows), ncols)
            assert m.columns() == tuple(cols)
            assert m.data == dense
            assert all(type(v) is QQ for r in m.data for v in r)
            assert m.transpose().data == tuple(
                tuple(r[j] for r in dense) for j in range(ncols))
            assert (-m).data == tuple(tuple(-v for v in r) for r in dense)
            assert dense_apply(m, vec) == tuple(
                sum((a * b for a, b in zip(r, vec)), Q0) for r in dense)
        assert Mat(rows, ncols) == Mat.from_columns(cols, len(rows))
    assert Mat([[1, 0]]) != Mat([[1, 0], [0, 0]])
    assert Mat([], 2) != Mat([], 3)


def test_echelon_contains_and_is_iso_match_the_rank_oracle():
    """A span eliminated once answers membership of Fraction vectors as
    the rank oracle does, and ``is_iso`` is square with full rank."""
    rng = random.Random(8)
    seen = set()
    for m in _oracle_matrices():
        rows, n = [list(r) for r in m.data], m.ncols
        ech = m.echelon()
        rank = dense_rank(rows, n)
        assert ech.rank == rank
        combo = [sum((QQ(rng.randint(-2, 2), 3) * r[c] for r in rows), Q0)
                 for c in range(n)]
        drawn = [[QQ(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                  for _ in range(n)] for _ in range(3)]
        for vec in [[Q0] * n, combo] + rows[:2] + drawn:
            want = dense_rank(rows + [vec], n) == rank
            assert ech.contains(vec) == want
            seen.add(want)
        iso = m.nrows == m.ncols and rank == m.nrows
        assert m.is_iso() == iso
        seen.add(("iso", iso))
    assert seen == {True, False, ("iso", True), ("iso", False)}


def test_basic_ops():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert (a @ b).data == ((QQ(2), QQ(1)), (QQ(4), QQ(3)))
    assert a.transpose().transpose() == a
    assert Mat.identity(3).rank() == 3
    assert Mat([[0] * 3] * 2).rank() == 0
    assert dense_apply(a, [1, 0]) == (QQ(1), QQ(3))


def test_rref_and_nullspace():
    m = Mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, piv = m.rref()
    assert piv == (0, 1)
    assert m.rank() == 2
    ns = m.nullspace()
    assert len(ns) == 1
    assert all(sum((a * b for a, b in zip(row, ns[0])), Q0) == 0
               for row in m.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = Mat([[rng.randint(-3, 3) for _ in range(cols)]
             for _ in range(rows)])
    assert m.rank() + len(m.nullspace()) == cols


def test_fractions_exact():
    m = Mat([["1/3", "1/7"], ["2/3", "2/7"]])
    assert m.rank() == 1


def _product_factors():
    """Seeded factor pairs: 0xn and nx0 shapes, all-zero columns, unit
    columns (selections), negative and fractional entries, and columns
    that cancel; the last pairs use one matrix as both factors."""
    rng = random.Random(5)

    def draw(nrows, ncols, kind):
        if kind == "unit":   # each column zero or a unit vector
            rows = [[Q0] * ncols for _ in range(nrows)]
            for j in range(ncols):
                if nrows and rng.random() < 0.8:
                    rows[rng.randrange(nrows)][j] = Q1
            return Mat(rows, ncols)
        zero_cols = {j for j in range(ncols) if rng.random() < 0.3}
        return Mat([[Q0 if j in zero_cols or rng.random() < 0.4 else
                     QQ(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                     for j in range(ncols)] for _ in range(nrows)], ncols)

    pairs = [(Mat([], 3), Mat([[1, 2]] * 3)), (Mat([[], []]), Mat([], 4)),
             (Mat([[1, 2]] * 3), Mat([[], []])),
             (Mat([[1], [2]]), Mat([[]], 0)),
             # the two columns cancel: the product is zero
             (Mat([[1, "1/2"], [2, 1]]), Mat([[1, 0], [-2, 0]]))]
    for _ in range(40):
        m, k, n = (rng.randint(0, 5) for _ in range(3))
        pairs.append((draw(m, k, rng.choice(("unit", "dense"))),
                      draw(k, n, rng.choice(("unit", "dense")))))
    for _ in range(6):
        n = rng.randint(1, 5)
        sq = draw(n, n, rng.choice(("unit", "dense")))
        pairs.append((sq, sq))
    return pairs


def _snapshot(m: Mat):
    return [dict(col) for col in m.columns()]


def test_sparse_product_matches_the_dense_oracle(dense_matmul):
    kinds = set()
    for a, b in _product_factors():
        ref = dense_matmul(a, b)
        got = a @ b
        assert got == ref and (got.nrows, got.ncols) == (ref.nrows,
                                                         ref.ncols)
        assert all(type(v) is QQ for row in got.data for v in row)
        # the product's column cache is what its rows give
        assert _snapshot(got) == _snapshot(Mat(got.data, got.ncols))
        assert a.annihilates(b) == (not any(v for row in ref.data
                                            for v in row))
        kinds.add("empty" if not (a.nrows * a.ncols * b.ncols) else
                  "same" if a is b else
                  "unit" if all(len(c) <= 1 and all(v == 1 for v in
                                                     c.values())
                                for c in b.columns()) else "general")
    assert kinds == {"empty", "same", "unit", "general"}
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.identity(2) @ Mat.identity(3)


def test_products_leave_the_factor_caches_alone():
    """A unit column of the product is a copy of the left factor's column:
    changing the product's cache, or forming more products, leaves both
    factors' caches as they were."""
    for a, b in _product_factors():
        before = (_snapshot(a), _snapshot(b))
        prod = a @ b
        prod2 = b @ a if b.ncols == a.nrows else prod
        a.annihilates(b)
        for col in prod.columns() + prod2.columns():
            col.clear()
        assert (_snapshot(a), _snapshot(b)) == before
        assert _snapshot(a) == _snapshot(Mat(a.data, a.ncols))


def _reduce(q: QuotientSpace, vec) -> dict:
    return q.reduce_sparse({i: QQ(v) for i, v in enumerate(vec) if v})


def _section(q: QuotientSpace, coords: dict) -> tuple:
    """The ambient representative: quotient coordinate j at free[j]."""
    v = [Q0] * q.ambient_dim
    for j, val in coords.items():
        v[q.free[j]] = val
    return tuple(v)


def _quotient(rows, n: int) -> QuotientSpace:
    """Q^n modulo the span of ``rows``, reduced once."""
    return QuotientSpace(*Mat(rows, n).rref())


def test_quotient_space():
    # ambient Q^3 modulo span{(1,1,0)}
    q = _quotient([[1, 1, 0]], 3)
    assert q.dim == 2
    assert _reduce(q, [1, 1, 0]) == {}
    assert _reduce(q, [1, 0, 0]) != {}
    v = _section(q, _reduce(q, [0, 1, 2]))
    assert _reduce(q, v) == _reduce(q, [0, 1, 2])
    assert _quotient([], 3).dim == 3
    assert _quotient([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3).dim == 0


def test_reduce_sparse_returns_no_zeros():
    """The reduction is the dense one without its zero entries; terms that
    cancel leave no entry behind."""
    rng = random.Random(4)
    q = _quotient([[1, 1, 0, 0], [0, 0, 1, "1/2"]], 4)
    # (1, 1, 0, 0) and (0, 0, 2, 1) cancel entirely, (1, 1, 2, 0) in part
    cases = [[1, 1, 0, 0], [0, 0, 2, 1], [1, 1, 2, 0], [0, 0, 0, 0]]
    cases += [[rng.randint(-2, 2) for _ in range(4)] for _ in range(30)]
    for vec in cases:
        got = _reduce(q, vec)
        assert all(type(v) is QQ and v for v in got.values())
        assert got == {j: v for j, v in enumerate(dense_reduce(q, vec))
                       if v}
    assert _reduce(q, [1, 1, 0, 0]) == _reduce(q, [0, 0, 2, 1]) == {}
    assert _reduce(q, [1, 1, 2, 0]) == {1: QQ(-1)}


def test_induced_quotient_map():
    src = _quotient([[1, -1]], 2)
    dst = _quotient([[1, -1]], 2)
    swap = [{1: 1}, {0: 1}]   # the images of the two source coordinates
    ind = induced_quotient_map(src, dst, swap)
    assert ind == Mat.identity(1)
    bad_dst = _quotient([], 2)
    with pytest.raises(ValueError):
        induced_quotient_map(src, bad_dst, swap)


def _diff(r1: Mat, r2: Mat) -> Mat:
    """r1 - r2, entry by entry."""
    return Mat([[a - b for a, b in zip(x, y)]
                for x, y in zip(r1.data, r2.data)], r1.ncols)


def test_coequalizer_trivial():
    r = Mat.identity(2)
    ok, w = is_exact_coequalizer(_diff(r, r), Mat.identity(2))
    assert ok and w is None


def test_coequalizer_kernel_witness():
    # r1 = r2 = 0, q a projection with kernel: the kernel is not generated
    r1 = Mat([[0], [0]])
    r2 = Mat([[0], [0]])
    q = Mat([[1, 0]])
    ok, w = is_exact_coequalizer(_diff(r1, r2), q)
    assert not ok and w == {"kind": "kernel", "vector": (Q0, Q1)}


def test_coequalizer_cokernel_witness():
    r1 = Mat([[], []])
    r2 = Mat([[], []])
    q = Mat([[1, 0], [0, 0]])
    ok, w = is_exact_coequalizer(_diff(r1, r2), q)
    assert not ok and w == {"kind": "cokernel", "functional": (Q0, Q1)}


def test_coequalizer_fork_error():
    r1 = Mat([[1], [0]])
    r2 = Mat([[0], [1]])
    q = Mat([[1, 0]])
    with pytest.raises(ForkError):
        is_exact_coequalizer(_diff(r1, r2), q)


def test_coequalizer_exactness_basis_invariant():
    # a genuine coequalizer: B = Q^3, A = Q^1 glued, C = Q^2
    rng = random.Random(3)
    r1 = Mat([[1], [0], [0]])
    r2 = Mat([[0], [0], [1]])
    q = Mat([[1, 0, 1], [0, 1, 0]])
    ok, _ = is_exact_coequalizer(_diff(r1, r2), q)
    assert ok
    for _ in range(5):
        # conjugate by a random invertible change of basis on B
        while True:
            g = Mat([[rng.randint(-2, 2) for _ in range(3)]
                     for _ in range(3)])
            if g.rank() == 3:
                break
        ginv_cols = []
        for j in range(3):
            e = [Q1 if i == j else Q0 for i in range(3)]
            aug = Mat([list(row) + [e[i]]
                       for i, row in enumerate(g.data)])
            red, piv = aug.rref()
            sol = [Q0] * 3
            for row, pc in zip(red.data, piv):
                sol[pc] = row[-1]
            ginv_cols.append(sol)
        ginv = from_dense_columns(ginv_cols, 3)
        ok2, _ = is_exact_coequalizer(_diff(g @ r1, g @ r2), q @ ginv)
        assert ok2
