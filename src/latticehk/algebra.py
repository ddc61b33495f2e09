"""Algebra presentations: the initial algebra, split tables Q^k, symbolic
free products, and the degree-two relation calculus for CCR presentations.

A CCR-style relation ``[a, b] = c * 1`` is carried as the pair
``(a wedge b, -c)`` living in the exterior square of the generator space
extended by a scalar line.  For consistent presentations whose relations all
have this shape, membership in the two-sided ideal truncated at filtration
degree two coincides with membership in the linear span of the relation
vectors.  Consistent means the span holds no vector (0, c) with c nonzero
(``consistency_check``); otherwise the relations force 1 = 0, the ideal holds
everything and the span need not.  The principle is validated against a
brute-force truncated ideal closure in the test suite and is flagged in
reports as an oracle-validated assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .geometry import weak_components
from .rational import IntegerEchelon, Mat, Q0, Q1, QQ


class AlgebraError(Exception):
    pass


@dataclass(frozen=True)
class Initial:
    """The initial unital algebra (the ground field with its unit)."""

    def __repr__(self):
        return "Initial"


INITIAL = Initial()


@dataclass(frozen=True)
class QPower:
    """The split commutative table algebra Q^k with idempotent basis."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise AlgebraError("QPower needs k >= 1")

    def __repr__(self):
        return f"QPower({self.k})"


@dataclass(frozen=True)
class FreeProduct:
    """Symbolic free product of ``copies`` copies of ``base``; compared by
    shape only, which is all the two-valued colimit evaluator needs."""

    base: object
    copies: int

    def __repr__(self):
        return f"FreeProduct({self.base!r}, {self.copies})"


# ---------------------------------------------------------------------------
# hom enumeration for split tables
# ---------------------------------------------------------------------------


def _as_qpower(alg) -> QPower:
    if isinstance(alg, Initial):
        return QPower(1)
    if isinstance(alg, QPower):
        return alg
    raise AlgebraError(f"hom enumeration supports split tables Q^k only, "
                       f"got {alg!r}")


def enumerate_homs(A, B) -> list[Mat]:
    """All unital algebra maps Q^a -> Q^b.

    A map is determined by a partition of the b primitive idempotents among
    the a source idempotents; there are a^b of them.  Column c, the image
    of the source idempotent e_c, is the unit vector of its part.  Each
    candidate is re-verified to be unital and multiplicative on the basis.
    """
    a, b = _as_qpower(A).k, _as_qpower(B).k
    if max(a, b) > 6:
        raise AlgebraError("hom enumeration capped at dimension 6")
    out = []
    for assign in product(range(a), repeat=b):
        cols = [{r: Q1 for r in range(b) if assign[r] == c}
                for c in range(a)]
        if not _is_unital_mult(cols, b):
            raise AlgebraError("enumerated candidate fails verification")
        out.append(Mat.from_columns(cols, b))
    return out


def _is_unital_mult(cols: Sequence[dict], b: int) -> bool:
    """Whether the columns ``c_i = m(e_i)`` (``{row: value}``, no zeros)
    give a unital multiplicative map into Q^b.  With e_i e_j = delta_ij e_i
    and 1 = sum e_i, multiplicativity asks c_i c_j = delta_ij c_i
    entrywise, so every entry is 1 and the supports are pairwise disjoint,
    and unitality asks sum c_i = 1, so together they cover all b rows."""
    covered: set = set()
    for col in cols:
        if any(v != 1 for v in col.values()) or not covered.isdisjoint(col):
            return False
        covered.update(col)
    return covered == set(range(b))


def count_homs(A, B) -> int:
    if isinstance(A, Initial):
        return 1
    return len(enumerate_homs(A, B))


# ---------------------------------------------------------------------------
# the two-valued diagram colimit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinDiagram:
    """A finite thin diagram: objects 0..n-1 and a hom relation."""

    n: int
    homs: frozenset[tuple[int, int]]


def two_valued_colimit(D: ThinDiagram, values: Sequence):
    """Colimit of a diagram valued in {Initial, A} with forced transitions.

    Initial contributes nothing; the A-objects glue along identities, one
    free factor per weakly connected component of the A-subdiagram.
    """
    a_objs = [i for i in range(D.n) if not isinstance(values[i], Initial)]
    bases = {repr(values[i]) for i in a_objs}
    if len(bases) > 1:
        raise AlgebraError("two-valued colimit needs a single nontrivial "
                           "value")
    for (a, b) in D.homs:
        va, vb = values[a], values[b]
        if not isinstance(va, Initial) and isinstance(vb, Initial):
            raise AlgebraError("transition from the nontrivial value to "
                               "Initial is unsupported")
    if not a_objs:
        return INITIAL
    # the A-objects and the homs between them, both ways round
    rows = [0] * D.n
    for (a, b) in D.homs:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    k = sum(1 for _ in weak_components(sum(1 << i for i in a_objs), rows))
    A = values[a_objs[0]]
    return A if k == 1 else FreeProduct(A, k)


def count_cocones(D: ThinDiagram, values: Sequence, T) -> int:
    """Brute-force count of cocones from the diagram into the test algebra
    ``T``; used as the universal-property oracle for the colimit above."""
    legs = []
    for i in range(D.n):
        v = values[i]
        legs.append([None] if isinstance(v, Initial) else enumerate_homs(v, T))
    count = 0
    for choice in product(*[range(len(l)) for l in legs]):
        ok = True
        for (a, b) in D.homs:
            la = legs[a][choice[a]]
            lb = legs[b][choice[b]]
            if la is None:
                continue  # legs out of Initial are unique, always compatible
            if lb is None:
                ok = False  # A-object mapping through Initial target
                break
            if la != lb:
                ok = False
                break
        if ok:
            count += 1
    return count


def count_homs_from_value(value, T) -> int:
    if isinstance(value, Initial):
        return 1
    if isinstance(value, FreeProduct):
        return count_homs(value.base, T) ** value.copies
    return count_homs(value, T)


# ---------------------------------------------------------------------------
# the wedge + scalar relation calculus
# ---------------------------------------------------------------------------


class WedgeSpace:
    """Coordinates for Lambda^2(Q^n) + Q: pairs (i < j) then the scalar."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.dim = len(self.pairs) + 1

    def wedge(self, u: Sequence, v: Sequence) -> list:
        """The coordinates of u wedge v, in the arithmetic of the entries
        (integers stay integers)."""
        return [u[i] * v[j] - u[j] * v[i] for (i, j) in self.pairs]

    def relation_vector(self, u: Sequence, v: Sequence, c) -> tuple:
        """(u wedge v, -c) for the relation [u, v] = c * 1."""
        u = [QQ(x) for x in u]
        v = [QQ(x) for x in v]
        return tuple(self.wedge(u, v)) + (-QQ(c),)

    def graph_of(self, sigma: Mat) -> Mat:
        """Span of all relations [e_i, e_j] = sigma(i,j) * 1.  Its rows
        (e_k, -sigma_k), one per pair k = (i, j), are already reduced."""
        cols = sigma.columns()
        scalar = {k: -cols[j][i] for k, (i, j) in enumerate(self.pairs)
                  if i in cols[j]}
        return Mat.from_columns([{k: Q1} for k in range(len(self.pairs))] +
                                [scalar], len(self.pairs))


def relation_span(n: int, triples: Iterable[tuple]) -> IntegerEchelon:
    """The relation vectors of ``(u, v, c)`` triples, eliminated once: the
    echelon that ``consistency_check`` reads and ``contains`` queries."""
    w = WedgeSpace(n)
    return Mat([w.relation_vector(u, v, c) for (u, v, c) in triples],
               w.dim).echelon()


def consistency_check(span: IntegerEchelon) -> bool:
    """True iff the span contains no (0, c) with c nonzero, i.e. the
    relations do not force 1 = 0: no basis row pivots on the scalar (last)
    column."""
    return span.ncols - 1 not in span.rows


# ---------------------------------------------------------------------------
# brute-force truncated ideal closure (oracle for the degree-2 principle)
# ---------------------------------------------------------------------------


class TruncatedFreeAlgebra:
    """The free algebra on n generators truncated at total degree d, as a
    plain coordinate space over words."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.words = [()]
        frontier = [()]
        for _ in range(d):
            nxt = []
            for w in frontier:
                for g in range(n):
                    nxt.append(w + (g,))
            self.words.extend(nxt)
            frontier = nxt
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)

    def zero(self):
        return [Q0] * self.dim

    def word_mul(self, w1, w2):
        w = w1 + w2
        return w if len(w) <= self.d else None

    def mul(self, v1, v2):
        out = self.zero()
        for i, a in enumerate(v1):
            if a == 0:
                continue
            for j, b in enumerate(v2):
                if b == 0:
                    continue
                w = self.word_mul(self.words[i], self.words[j])
                if w is not None:
                    out[self.index[w]] += a * b
        return out

    def element_of_relation(self, u, v, c):
        """u v - v u - c * 1 as a coordinate vector."""
        vu = self.vec_of_linear(u)
        vv = self.vec_of_linear(v)
        out = [a - b for a, b in zip(self.mul(vu, vv), self.mul(vv, vu))]
        out[self.index[()]] -= QQ(c)
        return out

    def vec_of_linear(self, coeffs):
        v = self.zero()
        for i, c in enumerate(coeffs):
            if c != 0:
                v[self.index[(i,)]] += QQ(c)
        return v

    def ideal_span(self, triples):
        """Span of x * rho * y over monomial sandwiches within the
        truncation, for the relation elements rho of the given triples, as
        the echelon that ``ideal_contains`` queries."""
        rows = []
        rhos = [self.element_of_relation(u, v, c) for (u, v, c) in triples]
        sandwiches = [w for w in self.words if len(w) <= self.d - 2]
        for rho in rhos:
            for wl in sandwiches:
                for wr in sandwiches:
                    if len(wl) + len(wr) > self.d - 2:
                        continue
                    vl = self.zero()
                    vl[self.index[wl]] = Q1
                    vr = self.zero()
                    vr[self.index[wr]] = Q1
                    rows.append(self.mul(self.mul(vl, rho), vr))
        return Mat(rows, self.dim).echelon()

    def ideal_contains(self, span: IntegerEchelon, u, v, c) -> bool:
        return span.contains(self.element_of_relation(u, v, c))
