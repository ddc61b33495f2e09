import random
from itertools import product

import pytest

from latticehk.algebra import (AlgebraError, FreeProduct, INITIAL, Initial,
                               QPower, ThinDiagram, TruncatedFreeAlgebra,
                               WedgeSpace, _is_unital_mult, consistency_check,
                               count_cocones, count_homs,
                               count_homs_from_value, enumerate_homs,
                               relation_span, two_valued_colimit)
from latticehk.checks import run_check
from latticehk.rational import IntegerEchelon, Mat, QQ, Q0, Q1

from conftest import dense_apply, row_space, span_consistent


def _dense_unital_mult(m: Mat, a: int, b: int) -> bool:
    """Whether m sends 1 to 1 and e_i e_j to m(e_i) m(e_j), each side
    applied as a dense vector: the reference for the column test of
    ``enumerate_homs``."""
    if dense_apply(m, [Q1] * a) != tuple([Q1] * b):
        return False
    for i in range(a):
        for j in range(a):
            ei = [Q1 if c == i else Q0 for c in range(a)]
            ej = [Q1 if c == j else Q0 for c in range(a)]
            lhs = dense_apply(m, [x * y for x, y in zip(ei, ej)])
            rhs = tuple(x * y for x, y in zip(dense_apply(m, ei),
                                               dense_apply(m, ej)))
            if lhs != rhs:
                return False
    return True


def test_hom_counts_and_brute_force():
    assert count_homs(INITIAL, QPower(5)) == 1
    assert count_homs(QPower(1), QPower(1)) == 1
    assert count_homs(QPower(2), QPower(2)) == 4
    assert count_homs(QPower(2), QPower(1)) == 2
    # brute force: all 0/1 matrices that are unital and multiplicative
    a, b = 2, 2
    brute = sum(_dense_unital_mult(
        Mat([[bits[r * a + c] for c in range(a)] for r in range(b)]), a, b)
        for bits in product([0, 1], repeat=a * b))
    assert brute == 4


def test_enumerate_homs_match_the_dense_construction():
    """The homs built from their unit columns are the dense 0/1 matrices
    of the partitions, in the same order, and each passes the dense
    check."""
    for a in range(1, 5):
        for b in range(1, 5):
            dense = [Mat([[Q1 if assign[r] == c else Q0 for c in range(a)]
                          for r in range(b)], a)
                     for assign in product(range(a), repeat=b)]
            homs = enumerate_homs(QPower(a), QPower(b))
            assert homs == dense
            assert all(_dense_unital_mult(m, a, b) for m in homs)


def test_unital_mult_refuses_bad_columns():
    good = [{0: Q1}, {1: Q1, 2: Q1}]
    bad = [[{0: Q1, 1: Q1}, {1: Q1, 2: Q1}],   # row 1 covered twice
           [{0: QQ(2)}, {1: Q1, 2: Q1}],       # an entry 2
           [{0: Q1}, {2: Q1}]]                 # row 1 left uncovered
    assert _is_unital_mult(good, 3)
    assert _dense_unital_mult(Mat.from_columns(good, 3), 2, 3)
    for cols in bad:
        assert not _is_unital_mult(cols, 3)
        assert not _dense_unital_mult(Mat.from_columns(cols, 3), 2, 3)


def test_hom_enumeration_guardrails():
    with pytest.raises(AlgebraError):
        enumerate_homs(QPower(7), QPower(2))


def test_two_valued_colimit_cases():
    A = QPower(2)
    D = ThinDiagram(3, frozenset({(0, 1), (1, 2)}))
    assert isinstance(two_valued_colimit(D, [INITIAL] * 3), Initial)
    assert two_valued_colimit(D, [INITIAL, A, A]) == A
    D2 = ThinDiagram(4, frozenset({(0, 1), (2, 3)}))
    out = two_valued_colimit(D2, [A, A, A, A])
    assert out == FreeProduct(A, 2)
    with pytest.raises(AlgebraError):
        two_valued_colimit(ThinDiagram(2, frozenset({(0, 1)})), [A, INITIAL])


def test_two_valued_colimit_universal_property():
    A = QPower(2)
    diagrams = [
        (ThinDiagram(4, frozenset({(0, 1), (2, 3)})), [A, A, A, A]),
        (ThinDiagram(5, frozenset({(0, 1), (2, 3), (4, 3)})),
         [A, A, A, A, INITIAL]),
        (ThinDiagram(3, frozenset({(0, 2), (1, 2)})), [A, A, A]),
        (ThinDiagram(2, frozenset()), [A, A]),
    ]
    for D, vals in diagrams:
        colim = two_valued_colimit(D, vals)
        for T in (QPower(1), QPower(2), QPower(3)):
            assert count_cocones(D, vals, T) == \
                count_homs_from_value(colim, T)


def _in_span(span: Mat, vec) -> bool:
    """Whether ``vec`` lies in the row space: adding it keeps the rank."""
    return Mat(list(span.data) + [vec], span.ncols).rank() == span.rank()


def test_relation_span_properties():
    w = WedgeSpace(3)
    assert relation_span(3, []).rank == 0
    sigma = Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    graph = w.graph_of(sigma)
    assert graph.nrows == len(w.pairs)
    assert consistency_check(graph.echelon())
    # a relation forcing 1 = 0: [e1, e2] = 1 and [e1, e2] = 0 together
    bad = relation_span(3, [([1, 0, 0], [0, 1, 0], 1),
                            ([1, 0, 0], [0, 1, 0], 0)])
    assert not consistency_check(bad)
    # monotone in the input
    small = relation_span(3, [([1, 0, 0], [0, 1, 0], 1)])
    assert small.rank <= bad.rank


def test_relation_span_basis_independent():
    rng = random.Random(5)
    triples = [([1, 0, 0], [0, 1, 0], QQ(2)),
               ([0, 1, 0], [0, 0, 1], QQ(0))]
    base = relation_span(3, triples)
    for _ in range(4):
        # rewrite each (u, v) pair by an invertible 2x2 combination
        a, b, c, d = (rng.choice([-1, 1, 2]) for _ in range(4))
        if a * d - b * c == 0:
            continue
        changed = []
        for (u, v, s) in triples:
            u2 = [a * QQ(x) + b * QQ(y) for x, y in zip(u, v)]
            v2 = [c * QQ(x) + d * QQ(y) for x, y in zip(u, v)]
            s2 = (a * d - b * c) * QQ(s)
            changed.append((u2, v2, s2))
        got = relation_span(3, changed)
        assert got.rank == base.rank
        assert all(base.contains(row) for row in got.rows.values())
        assert all(got.contains(row) for row in base.rows.values())


def _draw(rng, n):
    u = [QQ(rng.randint(-2, 2)) for _ in range(n)]
    v = [QQ(rng.randint(-2, 2)) for _ in range(n)]
    return u, v, QQ(rng.randint(-2, 2))


def test_relation_span_echelon_matches_the_reduced_row_space():
    """The consistency verdict read off the echelon's scalar pivot, and
    membership queried on the echelon, agree with the ranks of the reduced
    row space, on consistent and inconsistent presentations alike."""
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 4)
        w = WedgeSpace(n)
        triples = [_draw(rng, n) for _ in range(rng.randint(1, 4))]
        span = relation_span(n, triples)
        dense = row_space([w.relation_vector(*t) for t in triples], w.dim)
        assert span.rank == dense.nrows
        consistent = consistency_check(span)
        assert consistent == span_consistent(dense)
        seen[consistent] += 1
        for (u, v, c) in [_draw(rng, n) for _ in range(3)] + triples[:1]:
            cand = w.relation_vector(u, v, c)
            assert span.contains(cand) == _in_span(dense, cand)
    assert min(seen.values()) > 30, seen


def test_degree2_ideal_principle_oracle():
    rng = random.Random(11)
    for n in (2, 3):
        free = TruncatedFreeAlgebra(n, 4)
        w = WedgeSpace(n)
        for _ in range(4):
            triples = []
            for _ in range(rng.randint(1, 2)):
                u = [QQ(rng.randint(-2, 2)) for _ in range(n)]
                v = [QQ(rng.randint(-2, 2)) for _ in range(n)]
                triples.append((u, v, QQ(rng.randint(-2, 2))))
            span = row_space([w.relation_vector(*t) for t in triples],
                             w.dim)
            ideal = free.ideal_span(triples)
            for _ in range(4):
                u = [QQ(rng.randint(-2, 2)) for _ in range(n)]
                v = [QQ(rng.randint(-2, 2)) for _ in range(n)]
                c = QQ(rng.randint(-2, 2))
                cand = w.relation_vector(u, v, c)
                if span.nrows:
                    in_span = _in_span(span, cand)
                else:
                    in_span = all(x == 0 for x in cand)
                assert in_span == free.ideal_contains(ideal, u, v, c)


def test_degree2_check_compares_consistent_presentations(plane_ctx):
    # seed 7 draws inconsistent presentations (1 = 0), where the truncated
    # ideal holds every candidate and the span does not
    rec, = run_check("algebra.degree2-ideal-principle", plane_ctx)
    assert rec.verdict == "pass", rec.witness
    assert rec.witness["inconsistent"] > 0 and rec.witness["trials"] > 0


def test_degree2_trial_eliminates_its_span_once(plane_ctx, monkeypatch):
    """Each drawn presentation's relation span is one echelon, read for
    consistency and queried for membership; the truncated ideal is the only
    other elimination, one per consistent presentation."""
    import latticehk.checks as checks_mod
    count = {"echelon": 0, "span": 0, "ideal": 0}

    def counted(name, fn):
        def run(*args):
            count[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(IntegerEchelon, "__init__",
                        counted("echelon", IntegerEchelon.__init__))
    monkeypatch.setattr(checks_mod, "relation_span",
                        counted("span", checks_mod.relation_span))
    monkeypatch.setattr(TruncatedFreeAlgebra, "ideal_span",
                        counted("ideal", TruncatedFreeAlgebra.ideal_span))
    monkeypatch.setattr(Mat, "rref", None)
    rec, = run_check("algebra.degree2-ideal-principle", plane_ctx)
    assert rec.verdict == "pass"
    assert count["span"] == rec.witness["inconsistent"] + count["ideal"] > 0
    assert count["echelon"] == count["span"] + count["ideal"]
