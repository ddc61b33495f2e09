"""Exact rational matrices, quotient spaces, and the coequalizer test.

All arithmetic is exact, over ``fractions.Fraction`` (exported as ``QQ``),
except in :class:`IntegerEchelon`, which eliminates over the integers.
Elimination uses a fixed pivoting order (first nonzero entry in column
order), so every reduction is deterministic.
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
    """Dense exact-rational matrix; rows of tuples, immutable by convention."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence], ncols: Optional[int] = None):
        data = tuple(tuple(v if type(v) is QQ else QQ(v) for v in row)
                     for row in rows)
        self.data = data
        self.nrows = len(data)
        if data:
            self.ncols = len(data[0])
            if any(len(r) != self.ncols for r in data):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            self.ncols = 0 if ncols is None else ncols

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        return Mat([[Q0] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Q1 if i == j else Q0 for j in range(n)]
                    for i in range(n)], n)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int) -> "Mat":
        return Mat([[col[i] for col in cols] for i in range(nrows)],
                   len(cols))

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def cols(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        return Mat([[self.data[i][j] for i in range(self.nrows)]
                    for j in range(self.ncols)], self.nrows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        cols = other.cols()
        out = []
        for row in self.data:
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            out.append([sum((a * col[k] for k, a in nonzero if col[k]), Q0)
                        for col in cols])
        return Mat(out, other.ncols)

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, vec)), Q0)
                     for row in self.data)

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)], self.ncols)

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)], self.ncols)

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

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        rows = [list(r) for r in self.data]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
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
        return Mat(rows[:pr], self.ncols), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].nrows

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


def primitive_integer(vec: Sequence) -> list[int]:
    """The integer multiple of a vector of ints or Fractions whose entries
    are coprime; it spans the same line.  The zero vector stays zero."""
    den = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


class IntegerEchelon:
    """Echelon basis over the integers of a span that grows row by row.

    ``add`` reduces a row against the basis by fraction-free row
    combination (E. H. Bareiss, Math. Comp. 22 (1968)), dividing by the gcd
    of the entries after each step so that they stay small, and keeps what
    is left when it is nonzero.  Once the rank equals the number of columns
    every row lies in the span, so ``add`` returns at once.
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
            a = row[c]
            if not a:
                continue
            b = self.rows.get(c)
            if b is None:
                return c, row
            g = gcd(a, b[c])
            fa, fb = b[c] // g, a // g
            row = [fa * x - fb * y for x, y in zip(row, b)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
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


def same_row_space(a: Mat, b: Mat) -> bool:
    if a.ncols != b.ncols:
        return False
    ra = a.rref()[0]
    rb = b.rref()[0]
    return ra.data == rb.data


class QuotientSpace:
    """ambient Q^n modulo the row space of a subspace matrix.

    The chosen complement basis is the set of pivot-free coordinates of the
    reduced subspace; ``reduce`` rewrites a vector in those coordinates and
    ``section`` embeds quotient coordinates back as ambient representatives.
    """

    def __init__(self, ambient_dim: int, subspace_rows: Iterable[Sequence]):
        self.ambient_dim = ambient_dim
        sub = Mat(list(subspace_rows), ambient_dim)
        self.sub_rref, self.pivots = sub.rref()
        self.free = tuple(c for c in range(ambient_dim)
                          if c not in self.pivots)
        self.dim = len(self.free)

    def reduce(self, vec: Sequence) -> tuple:
        v = [QQ(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row, pc in zip(self.sub_rref.data, self.pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v[c] for c in self.free)

    def section(self, coords: Sequence) -> tuple:
        v = [Q0] * self.ambient_dim
        for c, val in zip(self.free, coords):
            v[c] = QQ(val)
        return tuple(v)

    def is_zero_class(self, vec: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vec))


def induced_quotient_map(src: QuotientSpace, dst: QuotientSpace,
                         ambient_map: Mat) -> Mat:
    """The map on quotients induced by ``ambient_map``; raises with a witness
    vector when the map does not send the source subspace into the target
    subspace."""
    if ambient_map.ncols != src.ambient_dim or \
            ambient_map.nrows != dst.ambient_dim:
        raise ValueError("ambient map shape mismatch")
    for row in src.sub_rref.data:
        img = ambient_map.apply(row)
        if not dst.is_zero_class(img):
            raise ValueError(f"map not defined on quotient; witness {row}")
    cols = []
    for j in range(src.dim):
        e = src.section([Q1 if i == j else Q0 for i in range(src.dim)])
        cols.append(dst.reduce(ambient_map.apply(e)))
    return Mat.from_cols(cols, dst.dim)


def is_exact_coequalizer(r1: Mat, r2: Mat, q: Mat):
    """Check that ``q`` coequalizes ``r1, r2 : A -> B`` exactly.

    Returns ``(True, None)`` when q is surjective and ker(q) = im(r1 - r2);
    otherwise ``(False, witness)`` where the witness names either a cokernel
    functional or a kernel vector missed by the image.
    Raises :class:`ForkError` when q.r1 != q.r2.
    """
    if r1.nrows != r2.nrows or r1.ncols != r2.ncols:
        raise ValueError("parallel maps must share shape")
    if q.ncols != r1.nrows:
        raise ValueError("q domain mismatch")
    d = r1 - r2
    if any(v for row in (q @ d).data for v in row):
        raise ForkError("q does not coequalize the pair")
    kernel = q.nullspace()
    ker_dim = len(kernel)
    if q.ncols - ker_dim != q.nrows:   # the rank of q: q is not onto
        for y in q.transpose().nullspace():
            if any(v != 0 for v in y):
                return False, {"kind": "cokernel", "functional": y}
        return False, {"kind": "cokernel", "functional": None}
    im_rank = d.rank()
    if im_rank == ker_dim:
        return True, None
    for k in kernel:
        if not _in_colspace(d, k):
            return False, {"kind": "kernel", "vector": k}
    return False, {"kind": "kernel", "vector": None}


def _in_colspace(m: Mat, vec: Sequence) -> bool:
    if m.ncols == 0:
        return all(v == 0 for v in vec)
    return m.column_space_contains(vec)
