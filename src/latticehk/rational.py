"""Exact rational matrices, quotient spaces, and the coequalizer test.

Entries are exact rationals, ``fractions.Fraction`` (exported as ``QQ``), and
a matrix keeps them in one form, its sparse columns.  There is one
elimination routine: sparse rows are cleared of denominators
(:func:`primitive_integer`) and eliminated over the integers by the
fraction-free step of :class:`IntegerEchelon`; ``Mat.rref`` adds a
back-substitution with the same step and divides each pivot row by its
pivot once, back into Fractions.  The reduced row echelon form is unique,
so the result does not depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .geometry import ModelError

Q0 = QQ(0)
Q1 = QQ(1)


class Mat:
    """Exact-rational matrix, immutable by convention.

    A matrix keeps one form, its columns: column j holds its nonzero entries
    as ``{row: Fraction}``.  Products, equality and elimination read them.
    ``data``, the dense rows as tuples, is derived on each read, for the
    boundary: witness strings, digests and tests.
    """

    __slots__ = ("_columns", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence], ncols: Optional[int] = None):
        rows = [[v if type(v) is QQ else QQ(v) for v in r] for r in rows]
        width = len(rows[0]) if rows else ncols or 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if ncols is not None and ncols != width:
            raise ValueError("ncols mismatch")
        self._columns = tuple({i: r[j] for i, r in enumerate(rows) if r[j]}
                              for j in range(width))
        self.nrows, self.ncols = len(rows), width

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.from_columns([{j: Q1} for j in range(n)], n)

    @staticmethod
    def from_columns(cols: Sequence[dict], nrows: int) -> "Mat":
        """The matrix whose column j has the nonzero entries ``cols[j]``
        (``{row: Fraction}``, no zeros; ints for a matrix that is only
        eliminated), which it keeps as they are: from then on nothing may
        change those dicts."""
        m = Mat.__new__(Mat)
        m._columns, m.nrows, m.ncols = tuple(cols), nrows, len(cols)
        return m

    def columns(self) -> tuple[dict, ...]:
        """Each column's nonzero entries as ``{row: value}``.  The dicts are
        the matrix itself: callers read them and never change them."""
        return self._columns

    def _rows(self) -> list[dict]:
        """Each row's nonzero entries as ``{column: value}``."""
        rows: list[dict] = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    @property
    def data(self) -> tuple[tuple, ...]:
        """The dense rows as tuples of Fractions, derived on each read."""
        return tuple(tuple(row.get(j, Q0) for j in range(self.ncols))
                     for row in self._rows())

    def transpose(self) -> "Mat":
        return Mat.from_columns(self._rows(), self.ncols)

    def _product_columns(self, other: "Mat"):
        """The columns of ``self @ other`` as ``{row: value}``, one at a
        time: column j combines this matrix's columns by the nonzero entries
        of ``other``'s column j, so a unit column is a selection and a zero
        column costs nothing."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        return (_combine(self._columns, col) for col in other._columns)

    def __matmul__(self, other: "Mat") -> "Mat":
        return Mat.from_columns(list(self._product_columns(other)),
                                self.nrows)

    def annihilates(self, other: "Mat") -> bool:
        """Whether ``self @ other`` is zero, read column by column without
        forming the product; the first nonzero column settles it."""
        return not any(self._product_columns(other))

    def __neg__(self) -> "Mat":
        return Mat.from_columns([{i: -v for i, v in col.items()}
                                 for col in self._columns], self.nrows)

    def __eq__(self, other) -> bool:
        """Same shape and entries.  No zero is stored, so equal matrices
        have equal column dicts, and as many of them as columns."""
        return isinstance(other, Mat) and self.nrows == other.nrows and \
            self._columns == other._columns

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"

    # -- elimination -------------------------------------------------------

    def echelon(self) -> "IntegerEchelon":
        """The integer echelon of the row space, built from the sparse rows'
        primitive integer multiples."""
        ech = IntegerEchelon(self.ncols)
        for row in self._rows():
            ech.add(primitive_integer(row, self.ncols))
        return ech

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns: the integer echelon,
        back-substitution with the same step, then one division per row."""
        rows = self.echelon().rows
        pivots = sorted(rows)
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            for d in pivots[:k]:
                if rows[d][c]:
                    rows[d] = _eliminate(rows[d], rows[c], c)
        # the reduced rows are the columns of the transpose
        return Mat.from_columns(
            [{j: QQ(x, rows[c][c]) for j, x in enumerate(rows[c]) if x}
             for c in pivots], self.ncols).transpose(), tuple(pivots)

    def rank(self) -> int:
        return self.echelon().rank

    def is_iso(self) -> bool:
        """Whether the matrix is square and invertible."""
        return self.nrows == self.ncols and self.rank() == self.nrows

    def nullspace(self) -> list[tuple]:
        """Basis of the right kernel, one vector per free column."""
        red, pivots = self.rref()
        basis = []
        for fc, col in enumerate(red.columns()):
            if fc in pivots:
                continue
            v = [Q0] * self.ncols
            v[fc] = Q1
            for r, a in col.items():
                v[pivots[r]] = -a
            basis.append(tuple(v))
        return basis


def _combine(cols: Sequence[dict], coeffs: dict) -> dict:
    """The sum of ``v * cols[k]`` over ``{k: v}`` in ``coeffs``, as
    ``{row: value}`` without zeros.  A unit coefficient selects its column
    with no multiplication; alone, it is copied with no Fraction arithmetic
    at all."""
    if len(coeffs) == 1:
        (k, v), = coeffs.items()
        if v == 1:
            return dict(cols[k])
        return {i: a * v for i, a in cols[k].items()}
    acc: dict = {}
    for k, v in coeffs.items():
        unit = v == 1
        for i, a in cols[k].items():
            if not unit:
                a = a * v
            acc[i] = acc[i] + a if i in acc else a
    return {i: x for i, x in acc.items() if x}


def primitive_integer(vec: dict, n: int) -> list[int]:
    """The dense integer vector of length n on the line of the sparse vector
    ``{index: value}`` (nonzero ints or Fractions), with coprime entries.
    The empty vector gives the zero vector."""
    den = lcm(*(v.denominator for v in vec.values()))
    ints = {i: v.numerator * (den // v.denominator) for i, v in vec.items()}
    g = gcd(*ints.values()) or 1
    out = [0] * n
    for i, x in ints.items():
        out[i] = x // g
    return out


def _eliminate(row: list[int], b: list[int], c: int) -> list[int]:
    """The fraction-free combination of ``row`` and ``b`` (with b[c] != 0)
    whose entry in column c is zero, divided by the gcd of its entries so
    that they stay small (E. H. Bareiss, Math. Comp. 22 (1968))."""
    g = gcd(row[c], b[c])
    fa, fb = b[c] // g, row[c] // g
    row = [fa * x - fb * y for x, y in zip(row, b)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class IntegerEchelon:
    """Echelon basis over the integers of a span that grows row by row.

    ``add`` reduces an integer row against the basis with
    :func:`_eliminate` and keeps what is left when it is nonzero.  Once the
    rank equals the number of columns every row lies in the span, so
    ``add`` returns at once.  A span is eliminated once and then queried
    by ``contains``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, list[int]] = {}   # pivot column -> basis row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: Sequence[int]):
        """(pivot column, row) of the reduced row; the pivot is None when
        the row lies in the span."""
        row = list(row)
        for c in range(self.ncols):
            if not row[c]:
                continue
            b = self.rows.get(c)
            if b is None:
                return c, row
            row = _eliminate(row, b, c)
        return None, row

    def add(self, row: Sequence[int]) -> None:
        if len(self.rows) == self.ncols:
            return
        c, reduced = self._reduce(row)
        if c is not None:
            self.rows[c] = reduced

    def contains(self, vec: Sequence) -> bool:
        """Whether the vector of ints or Fractions lies in the span."""
        row = primitive_integer({i: v for i, v in enumerate(vec) if v},
                                self.ncols)
        return self._reduce(row)[0] is None


class QuotientSpace:
    """ambient Q^n modulo the row space of a subspace, given as its reduced
    row echelon form and pivot columns (what ``Mat.rref`` returns), which
    it keeps as they are and never eliminates again.

    The chosen complement basis is the set of pivot-free coordinates of the
    reduced subspace; ``reduce_sparse`` rewrites a vector in those
    coordinates, and the section sends quotient coordinate j to the unit
    vector of ambient coordinate ``free[j]``.
    """

    def __init__(self, sub_rref: Mat, pivots: Sequence[int]):
        self.ambient_dim = ambient_dim = sub_rref.ncols
        self.sub_rref, self.pivots = sub_rref, tuple(pivots)
        self.free = tuple(c for c in range(ambient_dim)
                          if c not in self.pivots)
        self.dim = len(self.free)
        # the class of each ambient unit vector on the free columns, sparse:
        # a free coordinate is its own class, a pivot coordinate is minus
        # its relation row
        self._classes: list[dict] = [{} for _ in range(ambient_dim)]
        cols = sub_rref.columns()
        for j, c in enumerate(self.free):
            self._classes[c][j] = Q1
            for r, v in cols[c].items():
                self._classes[self.pivots[r]][j] = -v

    def reduce_sparse(self, vec: dict) -> dict:
        """Quotient coordinates ``{j: value}``, without zeros, of the vector
        ``{ambient index: value}``: the combination of the classes of its
        coordinates.  A unit vector selects its class."""
        return _combine(self._classes, vec)


def induced_quotient_map(src: QuotientSpace, dst: QuotientSpace,
                         images: Sequence[dict]) -> Mat:
    """The map on quotients that sends source coordinate i to the sparse
    target vector ``images[i]`` (``{target index: value}``).

    Column j is the reduction of the image of free coordinate j.  The map
    is defined when every source relation lands in the target relations,
    that is, when the reduced image of each pivot coordinate is the map
    applied to that coordinate's class; otherwise it raises with the
    relation row as witness.
    """
    if len(images) != src.ambient_dim:
        raise ValueError("one image per source coordinate is needed")
    reduced = [dst.reduce_sparse(img) for img in images]
    cols = [reduced[c] for c in src.free]
    for r, pc in enumerate(src.pivots):
        if reduced[pc] != _combine(cols, src._classes[pc]):
            raise ValueError("map not defined on quotient; witness "
                             f"{src.sub_rref.data[r]}")
    return Mat.from_columns(cols, dst.dim)


def is_exact_coequalizer(d: Mat, q: Mat):
    """Check that ``q`` coequalizes ``r1, r2 : A -> B`` exactly, given their
    difference ``d = r1 - r2``.

    Returns ``(True, None)`` when q is surjective and ker(q) = im(d);
    otherwise ``(False, witness)`` where the witness names either a cokernel
    functional or a kernel vector missed by the image.
    Raises :class:`~latticehk.geometry.ModelError` when q.d != 0: every
    caller builds q to coequalize the pair, so a broken fork is a bug.
    """
    if q.ncols != d.nrows:
        raise ValueError("q domain mismatch")
    if not q.annihilates(d):
        raise ModelError("q does not coequalize the pair")
    rank = q.rank()
    if rank != q.nrows:   # q is not onto; a cokernel vector is nonzero
        return False, {"kind": "cokernel",
                       "functional": q.transpose().nullspace()[0]}
    image = d.transpose().echelon()   # im(d), eliminated once
    if image.rank == q.ncols - rank:   # im(d) lies in ker(q): equal dims
        return True, None
    # im(d) is a proper subspace of ker(q), so a basis vector lies outside
    return False, {"kind": "kernel",
                   "vector": next(k for k in q.nullspace()
                                  if not image.contains(k))}
