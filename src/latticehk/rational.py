"""Exact rational matrices, quotient spaces, and the coequalizer test.

Entries are exact rationals, ``fractions.Fraction`` (exported as ``QQ``).
There is one elimination routine: rows are cleared of denominators
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

Q0 = QQ(0)
Q1 = QQ(1)


class ForkError(ValueError):
    """The two parallel maps do not form a fork with the candidate quotient."""


class Mat:
    """Exact-rational matrix, immutable by convention.

    ``data`` holds the rows as tuples: the canonical dense form, which
    equality, hashing and elimination read.  ``columns()`` holds each
    column's nonzero entries as ``{row: value}``; it is filled once per
    matrix, which is safe because the rows are tuples, and products read it.
    A map built column by column comes from ``from_columns``, which keeps
    the given columns as that cache.
    """

    __slots__ = ("data", "nrows", "ncols", "_cols")

    def __init__(self, rows: Iterable[Sequence], ncols: Optional[int] = None):
        data = tuple(tuple(v if type(v) is QQ else QQ(v) for v in row)
                     for row in rows)
        self.data = data
        self.nrows = len(data)
        self._cols = None
        if data:
            self.ncols = len(data[0])
            if any(len(r) != self.ncols for r in data):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            self.ncols = 0 if ncols is None else ncols

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Q1 if i == j else Q0 for j in range(n)]
                    for i in range(n)], n)

    @staticmethod
    def from_columns(cols: Sequence[dict], nrows: int) -> "Mat":
        """The matrix whose column j has the nonzero entries ``cols[j]``
        (``{row: Fraction}``), which it keeps as its column cache; so the
        dicts must be new ones, owned by no other matrix.  Its values are
        Fractions already, so none is normalised again."""
        rows = [[Q0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i][j] = v
        m = Mat.__new__(Mat)
        m.data = tuple(map(tuple, rows))
        m.nrows, m.ncols, m._cols = nrows, len(cols), tuple(cols)
        return m

    def columns(self) -> tuple[dict, ...]:
        """Each column's nonzero entries as ``{row: value}``, computed once.
        The dicts are shared: callers read them and never change them."""
        if self._cols is None:
            cols = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.data):
                for j, v in enumerate(row):
                    if v:
                        cols[j][i] = v
            self._cols = tuple(cols)
        return self._cols

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.nrows)]
                    for j in range(self.ncols)], self.nrows)

    def _product_columns(self, other: "Mat"):
        """The columns of ``self @ other`` as ``{row: value}``, one at a
        time: column j combines this matrix's columns by the nonzero entries
        of ``other``'s column j, so a unit column is a selection and a zero
        column costs nothing."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        left = self.columns()
        return (_combine(left, col) for col in other.columns())

    def __matmul__(self, other: "Mat") -> "Mat":
        return Mat.from_columns(list(self._product_columns(other)),
                                self.nrows)

    def annihilates(self, other: "Mat") -> bool:
        """Whether ``self @ other`` is zero, read column by column without
        forming the product; the first nonzero column settles it."""
        return not any(self._product_columns(other))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, vec)), Q0)
                     for row in self.data)

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.data], self.ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.ncols == other.ncols and \
            self.data == other.data

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"

    # -- elimination -------------------------------------------------------

    def _echelon(self) -> "IntegerEchelon":
        ech = IntegerEchelon(self.ncols)
        for row in self.data:
            ech.add(primitive_integer(row))
        return ech

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns: the integer echelon,
        back-substitution with the same step, then one division per row."""
        rows = self._echelon().rows
        pivots = sorted(rows)
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            for d in pivots[:k]:
                if rows[d][c]:
                    rows[d] = _eliminate(rows[d], rows[c], c)
        return Mat([[QQ(x, rows[c][c]) for x in rows[c]] for c in pivots],
                   self.ncols), tuple(pivots)

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self) -> list[tuple]:
        """Basis of the right kernel, one vector per free column."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Q0] * self.ncols
            v[fc] = Q1
            for row, pc in zip(red.data, pivots):
                v[pc] = -row[fc]
            basis.append(tuple(v))
        return basis

    def column_space_contains(self, vec: Sequence) -> bool:
        if len(vec) != self.nrows:
            raise ValueError("vector length mismatch")
        aug = Mat([row + (v,) for row, v in zip(self.data, vec)],
                  self.ncols + 1)
        return aug.rank() == self.rank()


def _combine(cols: Sequence[dict], coeffs: dict) -> dict:
    """The sum of ``v * cols[k]`` over ``{k: v}`` in ``coeffs``, as
    ``{row: value}`` without zeros.  One unit coefficient selects a column,
    which is copied with no Fraction arithmetic."""
    if len(coeffs) == 1:
        (k, v), = coeffs.items()
        if v == 1:
            return dict(cols[k])
        return {i: a * v for i, a in cols[k].items()}
    acc: dict = {}
    for k, v in coeffs.items():
        for i, a in cols[k].items():
            acc[i] = acc[i] + a * v if i in acc else a * v
    return {i: x for i, x in acc.items() if x}


def primitive_integer(vec: Sequence) -> list[int]:
    """The integer multiple of a vector of ints or Fractions whose entries
    are coprime; it spans the same line.  The zero vector stays zero."""
    den = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


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

    ``add`` reduces a row against the basis with :func:`_eliminate` and
    keeps what is left when it is nonzero.  Once the rank equals the number
    of columns every row lies in the span, so ``add`` returns at once.
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

    def contains(self, row: Sequence[int]) -> bool:
        return self._reduce(row)[0] is None


def row_space(rows: Iterable[Sequence], ncols: int) -> Mat:
    """Reduced row basis of the span of the given vectors."""
    m = Mat(list(rows), ncols)
    return m.rref()[0]


class QuotientSpace:
    """ambient Q^n modulo the row space of a subspace matrix.

    The chosen complement basis is the set of pivot-free coordinates of the
    reduced subspace; ``reduce_sparse`` rewrites a vector in those
    coordinates, and the section sends quotient coordinate j to the unit
    vector of ambient coordinate ``free[j]``.
    """

    def __init__(self, ambient_dim: int, subspace_rows: Iterable[Sequence]):
        self.ambient_dim = ambient_dim
        sub = Mat(list(subspace_rows), ambient_dim)
        self.sub_rref, self.pivots = sub.rref()
        self.free = tuple(c for c in range(ambient_dim)
                          if c not in self.pivots)
        self.dim = len(self.free)
        self._free_pos = {c: j for j, c in enumerate(self.free)}
        # pivot column -> its relation row on the free columns, sparse
        self._relations = {pc: {j: row[c] for j, c in enumerate(self.free)
                                if row[c]}
                           for row, pc in zip(self.sub_rref.data,
                                              self.pivots)}

    def reduce_sparse(self, vec: dict) -> dict:
        """Quotient coordinates ``{j: value}``, without zeros, of the vector
        ``{ambient index: value}``: a free coordinate is its own class, and
        a pivot coordinate is minus its relation row on the free columns."""
        out: dict = {}
        for i, v in vec.items():
            j = self._free_pos.get(i)
            if j is not None:
                out[j] = out.get(j, Q0) + v
                continue
            for k, r in self._relations[i].items():
                out[k] = out.get(k, Q0) - v * r
        return {j: x for j, x in out.items() if x}


def induced_quotient_map(src: QuotientSpace, dst: QuotientSpace,
                         images: Sequence[dict]) -> Mat:
    """The map on quotients that sends source coordinate i to the sparse
    target vector ``images[i]`` (``{target index: value}``).

    Column j is the reduction of the image of free coordinate j.  Raises
    with a witness when a source relation does not land in the target
    relations.
    """
    if len(images) != src.ambient_dim:
        raise ValueError("one image per source coordinate is needed")
    for row in src.sub_rref.data:
        img: dict = {}
        for a, image in zip(row, images):
            if a:
                for k, v in image.items():
                    img[k] = img.get(k, Q0) + a * v
        if dst.reduce_sparse(img):
            raise ValueError(f"map not defined on quotient; witness {row}")
    return Mat.from_columns([dst.reduce_sparse(images[c]) for c in src.free],
                            dst.dim)


def is_exact_coequalizer(d: Mat, q: Mat):
    """Check that ``q`` coequalizes ``r1, r2 : A -> B`` exactly, given their
    difference ``d = r1 - r2``.

    Returns ``(True, None)`` when q is surjective and ker(q) = im(d);
    otherwise ``(False, witness)`` where the witness names either a cokernel
    functional or a kernel vector missed by the image.
    Raises :class:`ForkError` when q.d != 0.
    """
    if q.ncols != d.nrows:
        raise ValueError("q domain mismatch")
    if not q.annihilates(d):
        raise ForkError("q does not coequalize the pair")
    rank = q.rank()
    if rank != q.nrows:   # q is not onto; a cokernel vector is nonzero
        return False, {"kind": "cokernel",
                       "functional": q.transpose().nullspace()[0]}
    if d.rank() == q.ncols - rank:   # im(d) lies in ker(q): equal dims
        return True, None
    # im(d) is a proper subspace of ker(q), so a basis vector lies outside
    return False, {"kind": "kernel",
                   "vector": next(k for k in q.nullspace()
                                  if not d.column_space_contains(k))}
