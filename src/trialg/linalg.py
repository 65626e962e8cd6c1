"""Deterministic exact linear algebra over Q and F_p.

Matrices are dense tuples of exact scalars; elimination runs on sparse rows.
Every reduction in this module -- ``rref``, ``kernel``, subspace spans,
``complement_in`` and ``reduce_vector`` -- goes through one loop,
``_eliminate``: a row held as a ``{column: nonzero}`` dict is cleared of the
pivot columns of an echelon map ``pivot column -> normalised row``.  The
constraint systems this package builds are well under 1 % nonzero, so the
work follows the nonzeros instead of rows x columns.

The outputs are canonical: a subspace is stored as the unique RREF basis of
its row space, so two subspaces are equal as sets exactly when their stored
bases are identical entry-wise, and ``rref`` returns the unique RREF of the
row space with its pivot columns.  Because that RREF depends on the row
space alone, the order in which rows are eliminated cannot change it; the
forward pass takes the rows in input order, and a back-substitution pass
then reduces every echelon row against the pivots to its right.  Everything
downstream leans on that canonicity for exact equality tests.

``Matrix(field, data)`` coerces every entry into the field.  Matrices built
inside the package from scalars that are already field elements (elimination
results, subspace bases, transposes, stacks, products) skip that step.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .fields import Field, check_same_field

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "rank",
    "kernel",
    "inverse",
    "solve_right",
    "random_invertible",
    "ContainmentError",
    "SingularMatrixError",
    "InconsistentSystemError",
]


class ContainmentError(ValueError):
    """A subspace operation required a containment that does not hold."""


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    pass


class Matrix:
    """Immutable dense matrix over one exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Iterable[Iterable], cols: int | None = None):
        coerce = field.coerce
        tup = tuple(tuple(coerce(x) for x in row) for row in data)
        nrows = len(tup)
        if nrows:
            width = len(tup[0])
            if any(len(r) != width for r in tup):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.field = field
        self.rows = nrows
        self.cols = cols
        self.data = tup

    @classmethod
    def _trusted(cls, field: Field, data: tuple[tuple, ...], cols: int) -> "Matrix":
        """Package-internal constructor: ``data`` is a tuple of ``cols``-long
        tuples of scalars that are already elements of ``field``, so nothing
        is coerced or checked."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(data)
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._trusted(
            field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._trusted(field, ((field.zero,) * cols,) * rows, cols)

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def column_select(self, cols: Sequence[int]) -> "Matrix":
        return Matrix._trusted(
            self.field, tuple(tuple(r[c] for c in cols) for r in self.data), len(cols)
        )

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._trusted(self.field, data, self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._trusted(
            self.field,
            tuple(a + b for a, b in zip(self.data, other.data)),
            self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix._trusted(self.field, self.data + other.data, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        ot = other.data
        out = []
        for arow in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = ot[k]
                    acc = [add(x, mul(a, b)) for x, b in zip(acc, brow)]
            out.append(tuple(acc))
        return Matrix._trusted(f, tuple(out), other.cols)

    def matvec(self, v: Sequence) -> tuple:
        """Column-vector action ``M v``; skips zero entries of ``v``."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        acc = [zero] * self.rows
        for j, x in enumerate(v):
            if x:
                for i in range(self.rows):
                    e = self.data[i][j]
                    if e:
                        acc[i] = add(acc[i], mul(e, x))
        return tuple(acc)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"


# ------------------------------------------------------- sparse elimination
#
# An echelon map sends each pivot column p to the tail of its row: a dict of
# the nonzero entries right of p, the entry at p itself being an implicit 1.


def _sparse(row: Sequence, zero) -> dict:
    # The identity test skips the field's shared zero object cheaply; only
    # other entries pay for a truth test, a Python call for a Fraction.
    return {j: x for j, x in enumerate(row) if x is not zero and x}


def _eliminate(row: dict, echelon: dict, field: Field) -> dict:
    """Clear every pivot column of ``echelon`` from the sparse ``row``, in
    place, and return it.

    A tail has no entries left of its pivot, so subtracting one only touches
    columns right of the one it clears: clearing pivots in ascending order
    visits each at most once.
    """
    todo = [c for c in row if c in echelon]
    if not todo:
        return row
    heapify(todo)
    sub, mul, neg = field.sub, field.mul, field.neg
    while todo:
        c = heappop(todo)
        t = row.pop(c, None)
        if t is None:  # cancelled, or a repeated heap entry
            continue
        for j, e in echelon[c].items():
            x = row.get(j)
            if x is None:
                row[j] = neg(mul(t, e))
                if j in echelon:
                    heappush(todo, j)
            else:
                x = sub(x, mul(t, e))
                if x:
                    row[j] = x
                else:
                    del row[j]
    return row


def _insert(row: dict, echelon: dict, field: Field) -> bool:
    """Reduce ``row`` against ``echelon`` and, if anything is left, add it as
    a new pivot row; returns whether it was added."""
    _eliminate(row, echelon, field)
    if not row:
        return False
    p = min(row)
    s = field.inv(row.pop(p))
    if s != field.one:
        mul = field.mul
        row = {j: mul(s, x) for j, x in row.items()}
    echelon[p] = row
    return True


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row-echelon form with its pivot columns.

    The result has ``m.rows`` rows: the nonzero rows in pivot order, then
    zero rows.  The forward pass inserts the rows in order into an echelon
    map; the backward pass, from the rightmost pivot down, clears each tail
    of the pivots to its right, whose rows are final by then.
    """
    f = m.field
    zero, one = f.zero, f.one
    echelon: dict = {}
    for row in m.data:
        _insert(_sparse(row, zero), echelon, f)
    final: dict = {}
    for p in sorted(echelon, reverse=True):
        final[p] = _eliminate(echelon[p], final, f)
    pivots = tuple(sorted(final))
    out = []
    for p in pivots:
        row = [zero] * m.cols
        row[p] = one
        for j, x in final[p].items():
            row[j] = x
        out.append(tuple(row))
    out += [(zero,) * m.cols] * (m.rows - len(pivots))
    return Matrix._trusted(f, tuple(out), m.cols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space of ``m``."""
    f = m.field
    neg, zero = f.neg, f.zero
    red, pivots = rref(m)
    pivot_rows = list(zip(pivots, red.data))
    basis = []
    for fc in sorted(set(range(m.cols)) - set(pivots)):
        v = [zero] * m.cols
        v[fc] = f.one
        for pc, row in pivot_rows:
            e = row[fc]
            if e is not zero:  # rref fills every zero entry with this object
                v[pc] = neg(e)
        basis.append(tuple(v))
    return Subspace._span(Matrix._trusted(f, tuple(basis), m.cols))


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    n = m.rows
    red, pivots = rref(m.hstack(Matrix.identity(m.field, n)))
    if pivots != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix._trusted(m.field, tuple(row[n:] for row in red.data), n)


def solve_right(a: Matrix, b: Matrix) -> Matrix:
    """Deterministic particular solution ``X`` of ``A X = B`` (free vars 0)."""
    check_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    red, pivots = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        raise InconsistentSystemError("system has no solution")
    f = a.field
    out = [(f.zero,) * b.cols] * a.cols
    for r, pc in enumerate(pivots):
        out[pc] = red.data[r][a.cols :]
    return Matrix._trusted(f, tuple(out), b.cols)


def random_invertible(rng, n: int, field: Field) -> Matrix:
    """Seeded random invertible matrix with small entries."""
    while True:
        m = Matrix(field, [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)], cols=n)
        if rank(m) == n:
            return m


class Subspace:
    """Linear subspace of F^n held as its canonical RREF basis.

    Invariants: the basis matrix is in reduced row-echelon form with no
    zero rows, the pivot list is ascending, and dim == number of rows ==
    number of pivots.  Equality of ``Subspace`` values is equality of the
    underlying sets.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_echelon")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._echelon = None

    @classmethod
    def _span(cls, m: Matrix) -> "Subspace":
        """Row space of ``m``."""
        red, pivots = rref(m)
        basis = Matrix._trusted(m.field, red.data[: len(pivots)], m.cols)
        return cls(m.field, m.cols, basis, pivots)

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        return cls._span(Matrix(field, rows, cols=ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def _tails(self) -> dict:
        """The basis as an echelon map; its tails are shared, never modified."""
        if self._echelon is None:
            zero = self.field.zero
            echelon = {}
            for p, row in zip(self.pivots, self.basis.data):
                echelon[p] = tail = _sparse(row, zero)
                del tail[p]
            self._echelon = echelon
        return self._echelon

    def _residual(self, v: Sequence) -> dict:
        coerce = self.field.coerce
        w = [coerce(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return _eliminate(_sparse(w, self.field.zero), self._tails(), self.field)

    def reduce_vector(self, v: Sequence) -> tuple:
        """Residual of ``v`` after eliminating this subspace's pivots."""
        w = [self.field.zero] * self.ambient_dim
        for j, x in self._residual(v).items():
            w[j] = x
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return not self._residual(v)

    def coordinates(self, v: Sequence) -> tuple:
        """Coefficients of ``v`` in the canonical basis; errors if outside."""
        coords = tuple(self.field.coerce(v[pc]) for pc in self.pivots)
        if self._residual(v):
            raise ValueError("vector is not in the subspace")
        return coords

    def contains(self, other: "Subspace") -> bool:
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(row) for row in other.basis.data)

    def plus(self, other: "Subspace") -> "Subspace":
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace._span(self.basis.vstack(other.basis))

    def annihilator(self) -> "Subspace":
        """Kernel of the basis matrix: functionals vanishing on the space."""
        return kernel(self.basis) if self.dim else Subspace.full(self.field, self.ambient_dim)

    def intersection(self, other: "Subspace") -> "Subspace":
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        ann = self.annihilator().plus(other.annihilator())
        if ann.dim == 0:
            return Subspace.full(self.field, self.ambient_dim)
        return kernel(ann.basis)

    def complement_in(self, sup: "Subspace") -> "Subspace":
        """Deterministic complement: complete this space's pivots with the
        enclosing basis rows, taken in pivot order.

        Each row of ``sup`` is reduced once against an echelon map that
        grows by the rows kept so far.  The kept rows are rows of an RREF
        basis, so they are already the RREF basis of their own span.
        """
        if not sup.contains(self):
            raise ContainmentError("complement requires containment in the larger space")
        echelon = dict(self._tails())
        one = self.field.one
        kept = [
            r
            for r, (p, tail) in enumerate(sup._tails().items())
            if _insert({p: one, **tail}, echelon, self.field)
        ]
        basis = tuple(sup.basis.data[r] for r in kept)
        return Subspace(
            self.field,
            self.ambient_dim,
            Matrix._trusted(self.field, basis, self.ambient_dim),
            tuple(sup.pivots[r] for r in kept),
        )

    def quotient_map(self, sup: "Subspace") -> Matrix:
        """Matrix sending ``x`` in ``sup`` to its coordinates in ``sup/self``.

        Coordinates are taken against the pivot-completion complement, so
        the map is canonical given the two spaces.
        """
        comp = self.complement_in(sup)
        f = self.field
        stacked = self.basis.data + comp.basis.data
        q = comp.dim
        if q == 0:
            return Matrix.zeros(f, 0, self.ambient_dim)
        t = Matrix._trusted(f, tuple(tuple(row[pc] for pc in sup.pivots) for row in stacked), sup.dim)
        w = inverse(t.transpose())
        out = [[f.zero] * self.ambient_dim for _ in range(q)]
        for r in range(q):
            wrow = w.data[self.dim + r]
            for j, pc in enumerate(sup.pivots):
                out[r][pc] = wrow[j]
        return Matrix._trusted(f, tuple(tuple(row) for row in out), self.ambient_dim)

    def basis_rows(self) -> tuple[tuple, ...]:
        return self.basis.data

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.data == other.basis.data
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis.data))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field.name}^{self.ambient_dim})"
