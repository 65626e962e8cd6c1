"""Deterministic exact linear algebra over Q and F_p.

A ``Matrix`` holds each row as a ``{column: int}`` dict of its nonzero
entries with a denominator.  ``Matrix(field, data)`` coerces dense rows of
scalars and converts them to that form once; products, transposes,
stacks, differences and elimination all work on the int rows.  The dense
``Matrix.data`` and ``Subspace.basis_rows()`` are read-only views, built on
each read for output and tests.  So the constraint systems this package
assembles (cocycle, coboundary, center and derived systems, well under
1 % nonzero) never pay for their zero cells.

Every reduction in this module -- ``rref``, ``kernel``, subspace spans,
``contains``, ``complement_in`` and ``reduce_vector`` -- goes through one
loop, ``_eliminate``: a row held as a ``{column: int}`` dict is cleared of
the pivot columns of an echelon map ``pivot column -> (lead, tail)``.
Vectors given as dense rows are converted by ``_int_row``.

Over Q each dense row is multiplied by the lcm of its denominators and
elimination is fraction-free (Bareiss 1968): clearing a pivot scales the row
by ``lead / gcd(t, lead)`` instead of dividing, and every stored echelon row
is divided by its content, so no ``Fraction`` arithmetic runs in the loop.
Over F_p the same loop runs with every lead normalised to 1; entries are
reduced mod p only when read as a pivot entry and once at the end of a row.

The outputs are canonical: a subspace is stored as the echelon map of the
unique RREF basis of its row space, in ascending pivot order, so two
subspaces are equal as sets exactly when their maps are identical.  Its
``basis`` matrix is a view of that map, built once on first read, and
``rref`` pads a span's basis with zero rows.  Because that RREF depends on
the row space alone, neither the order in which rows are eliminated nor the
integer multiples they are held as can change it.  Spans and ``kernel``
share one insertion loop, ``_echelon``, which keeps its echelon map fully
reduced as rows arrive in input order from any iterable, so the cocycle
system is streamed into it, never held.  A basis row is its ints over its
lead, whose dense form reads ``x / lead``.  So a constraint system may be
handed over as D times its rows, for the common denominator D of an
algebra's structure constants, with no change to any result.  Everything
downstream leans on that canonicity for exact equality tests.

This module is also the one home of coordinates and seeded combinations.
Coset coordinates modulo a subspace -- ``Subspace.quotient_map``, the
projection of a quotient algebra, H^2 class coordinates -- all come from
``_complement_coordinates``, given the complement the caller already
holds.  Every seeded random combination of rows comes from
``random_combination`` and every seeded change of basis from
``random_invertible``, so a seed fixes the same ``random_scalar`` draws
everywhere.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import Field, PrimeField, check_same_field

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "rank",
    "kernel",
    "inverse",
    "solve_right",
    "random_invertible",
    "random_combination",
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
    """Immutable matrix over one exact field, held as sparse int rows.

    ``_sparse`` holds a ``({column: int}, d)`` pair per row: a dict of the
    row's nonzero entries as ints and a denominator ``d > 0``, the row
    being the ints divided by ``d``.  Over F_p the ints are residues in
    ``[1, p)`` and ``d`` is 1.  Over Q a row may be held at any int
    scaling; equality and hashing compare the scalars, so they do not see
    it.  ``data`` is a read-only dense view for output and tests: a tuple
    of row tuples of field scalars, built on each read.
    """

    __slots__ = ("field", "rows", "cols", "_sparse")

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
        zero, mod = field.zero, _modulus(field)
        self.field = field
        self.rows = nrows
        self.cols = cols
        self._sparse = tuple(_int_row(row, zero, mod) for row in tup)

    @classmethod
    def _from_ints(cls, field: Field, rows: tuple[tuple[dict, int], ...], cols: int) -> "Matrix":
        """Package-internal constructor: ``rows`` holds a ``({column: int},
        denominator)`` pair per row, as described on the class.  The dicts
        are shared, never modified."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = cols
        m._sparse = rows
        return m

    @classmethod
    def _from_scalars(cls, field: Field, rows: Iterable[dict], cols: int) -> "Matrix":
        """Package-internal constructor from ``{column: scalar}`` dicts of
        each row's nonzero field scalars."""
        mod = _modulus(field)
        return cls._from_ints(field, tuple(_ints(row, mod) for row in rows), cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._from_ints(field, tuple(({i: 1}, 1) for i in range(n)), n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._from_ints(field, (({}, 1),) * rows, cols)

    @property
    def data(self) -> tuple[tuple, ...]:
        return tuple(map(self.row, range(self.rows)))

    def row(self, i: int) -> tuple:
        """Row ``i`` as a dense tuple of field scalars."""
        dense = [self.field.zero] * self.cols
        row, d = self._sparse[i]
        for j, x in _scalars(row, d, _modulus(self.field)).items():
            dense[j] = x
        return tuple(dense)

    def column(self, j: int) -> tuple:
        return self.transpose().row(j)

    def transpose(self) -> "Matrix":
        """Column j becomes row j, over the lcm of the denominators it meets."""
        cols: list[dict] = [{} for _ in range(self.cols)]
        for i, (row, d) in enumerate(self._sparse):
            for j, x in row.items():
                cols[j][i] = (x, d)
        out = []
        for col in cols:
            e = lcm(*[d for _, d in col.values()])
            out.append(({i: x * (e // d) for i, (x, d) in col.items()}, e))
        return Matrix._from_ints(self.field, tuple(out), self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        n = self.cols
        out = []
        for (a, da), (b, db) in zip(self._sparse, other._sparse):
            d = lcm(da, db)
            row = {j: x * (d // da) for j, x in a.items()}
            row.update({n + j: x * (d // db) for j, x in b.items()})
            out.append((row, d))
        return Matrix._from_ints(self.field, tuple(out), n + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix._from_ints(self.field, self._sparse + other._sparse, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product sums ``a * row k of other`` over the nonzero
        entries a = self[i][k], over a common denominator."""
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        mod = _modulus(self.field)
        right = other._sparse
        out = []
        for row, d in self._sparse:
            e = lcm(*[right[k][1] for k in row])
            acc: dict = {}
            for k, a in row.items():
                brow, db = right[k]
                a *= e // db
                for j, b in brow.items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_row(acc, d * e, mod))
        return Matrix._from_ints(self.field, tuple(out), other.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        mod = _modulus(self.field)
        out = []
        for (a, da), (b, db) in zip(self._sparse, other._sparse):
            d = lcm(da, db)
            acc = {j: x * (d // da) for j, x in a.items()}
            for j, x in b.items():
                acc[j] = acc.get(j, 0) - x * (d // db)
            out.append(_row(acc, d, mod))
        return Matrix._from_ints(self.field, tuple(out), self.cols)

    def matvec(self, v: Sequence) -> tuple:
        """Column-vector action ``M v``, as the row ``v @ M^T``."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (Matrix(self.field, [v]) @ self.transpose()).row(0)

    def is_zero(self) -> bool:
        return not any(row for row, _ in self._sparse)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and _scalar_rows(self) == _scalar_rows(other)
        )

    def __hash__(self):
        return hash((self.field, self.cols, tuple(frozenset(r.items()) for r in _scalar_rows(self))))

    def __repr__(self):
        return f"Matrix({self.field.name}, {self.rows}x{self.cols})"


# ------------------------------------------------------- sparse elimination
#
# A row is a ``{column: int}`` dict of its nonzero entries.  An echelon map
# sends each pivot column p to ``(lead, tail)``: the row's entry at p and a
# dict of its entries right of p.  Over Q every stored row is primitive
# (content 1) with a positive lead; over F_p every lead is 1.  Clearing
# pivot c from a row whose entry there is t is fraction-free:
# ``row <- (lead/g) row - (t/g) tail`` for ``g = gcd(t, lead)``, which over
# F_p is ``row <- row - t tail``.


def _modulus(field: Field) -> int:
    """p over F_p, 0 over Q."""
    return field.p if isinstance(field, PrimeField) else 0


def _ints(entries: dict, mod: int) -> tuple[dict, int]:
    """A ``{column: scalar}`` dict of nonzero field scalars as ints, with the
    factor they were scaled by: the lcm of the denominators over Q, 1 over
    F_p (where the residues are the ints, and the dict is returned as it
    is)."""
    if mod:
        return entries, 1
    d = lcm(*[x.denominator for x in entries.values()])
    if d == 1:
        return {j: x.numerator for j, x in entries.items()}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in entries.items()}, d


def _int_row(row: Sequence, zero, mod: int) -> tuple[dict, int]:
    """The nonzero entries of a dense row of field scalars as ints, with the
    factor they were scaled by (see :func:`_ints`)."""
    if mod:  # residues are ints, whose truth test compress runs in C
        return {j: row[j] for j in compress(range(len(row)), row)}, 1
    # The identity test skips the field's shared zero object cheaply; only
    # other entries pay for a truth test, a Python call for a Fraction.
    return _ints({j: x for j, x in enumerate(row) if x is not zero and x}, mod)


def _int_rows(m: Matrix):
    """Each row of ``m`` as a fresh ``({column: int}, denominator)`` pair
    that the caller may modify."""
    return ((dict(row), d) for row, d in m._sparse)


def _row(acc: dict, d: int, mod: int) -> tuple[dict, int]:
    """An accumulated int row over ``d`` without its zero entries: over F_p
    as residues over 1."""
    if mod:
        return _residues(acc, mod), 1
    return {j: x for j, x in acc.items() if x}, d


def _scalars(row: dict, d: int, mod: int) -> dict:
    """The field scalars ``x / d`` of an int row; over F_p the residues,
    which are the row itself."""
    if mod:
        return row
    if d == 1:
        return {j: Fraction(x) for j, x in row.items()}
    return {j: Fraction(x, d) for j, x in row.items()}


def _scalar_rows(m: Matrix) -> list[dict]:
    """Each row of ``m`` as a ``{column: scalar}`` dict of its nonzero
    entries; over F_p these are the matrix's own dicts, never to be
    modified."""
    mod = _modulus(m.field)
    return [_scalars(row, d, mod) for row, d in m._sparse]


def _residues(row: dict, mod: int) -> dict:
    return {j: r for j, x in row.items() if (r := x % mod)}


def _normal(lead: int, tail: dict, mod: int) -> tuple[int, dict]:
    """The stored form of a pivot row: over Q divided by its content and
    signed so that the lead is positive, over F_p scaled to lead 1."""
    if mod:
        if lead == 1:
            return 1, tail
        s = pow(lead, -1, mod)
        return 1, {j: x * s % mod for j, x in tail.items()}
    g = gcd(lead, *tail.values())
    if lead < 0:
        g = -g
    if g == 1:
        return lead, tail
    return lead // g, {j: x // g for j, x in tail.items()}


def _eliminate(row: dict, echelon: dict, mod: int) -> tuple[dict, int]:
    """Clear every pivot column of ``echelon`` from the integer ``row``,
    which it consumes.  Returns the cleared row, as residues over F_p, and
    the factor ``s`` it was scaled by: the result is ``s * row`` minus a
    combination of echelon rows (over F_p, s is 1).  A row that meets no
    pivot is returned as it is.

    A tail has no entries left of its pivot, so subtracting one only touches
    columns right of the one it clears: clearing pivots in ascending order
    visits each at most once.
    """
    todo = [c for c in row if c in echelon]
    if not todo:
        return row, 1
    heapify(todo)
    scale = 1
    get, pop = row.get, row.pop
    while todo:
        c = heappop(todo)
        t = pop(c, None)
        if t is None:  # cancelled, or a repeated heap entry
            continue
        if mod:
            t %= mod
            if not t:
                continue
        lead, tail = echelon[c]
        if lead != 1:
            g = gcd(t, lead)
            if g != lead:
                a = lead // g
                for j, x in row.items():
                    row[j] = x * a
                scale *= a
            t //= g
        for j, e in tail.items():
            x = get(j)
            if x is None:
                row[j] = -t * e
                if j in echelon:
                    heappush(todo, j)
            else:
                x -= t * e
                if x:
                    row[j] = x
                else:
                    del row[j]
    return (_residues(row, mod) if mod else row), scale


def _insert(row: dict, echelon: dict, mod: int) -> int | None:
    """Reduce ``row`` against ``echelon`` and, if anything is left, add it as
    a new pivot row; returns its pivot column, or None.  Over F_p rows come
    in as residues, so a row that meets no pivot is stored as it is."""
    row = _eliminate(row, echelon, mod)[0]
    if not row:
        return None
    p = min(row)
    echelon[p] = _normal(row.pop(p), row, mod)
    return p


def _echelon(rows: Iterable[dict], mod: int) -> dict:
    """The RREF of the span of ``rows`` as an echelon map, pivots in
    insertion order.  ``rows`` are fresh int rows (residues over F_p), taken
    one at a time, so a caller may stream rows that are never held.  Each is
    cleared of the pivots so far, and its own pivot is then cleared from the
    earlier rows that hold it.  So tails hold non-pivot columns only, and a
    row costs one step per pivot column it touches (most rows of a cocycle
    system reduce to zero).
    """
    echelon: dict = {}
    holders: dict = {}  # column -> pivots whose tail may hold it (stale ones included)
    for row in rows:
        p = _insert(row, echelon, mod)
        if p is None:
            continue
        new = {p: echelon[p]}
        cols = echelon[p][1].keys()
        for q in holders.pop(p, ()):
            lead, tail = echelon[q]
            if p in tail:
                tail, s = _eliminate(tail, new, mod)
                echelon[q] = _normal(lead * s, tail, mod)
                for j in cols:
                    holders.setdefault(j, []).append(q)
        for j in cols:
            holders.setdefault(j, []).append(p)
    return echelon


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row-echelon form with its pivot columns.

    The result has ``m.rows`` rows: the basis rows of the span of ``m``, each
    over its lead so that its pivot entry reads 1, then zero rows.
    """
    span = Subspace._span(m)
    out = span.basis._sparse + (({}, 1),) * (m.rows - span.dim)
    return Matrix._from_ints(m.field, out, m.cols), span.pivots


def rank(m: Matrix) -> int:
    return Subspace._span(m).dim


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space of ``m``."""
    return _kernel(m.field, (row for row, _ in _int_rows(m)), m.cols)


def _kernel(field: Field, rows: Iterable[dict], cols: int) -> "Subspace":
    """Canonical basis of the null space of the rows of ``rows``, which
    :func:`_echelon` takes.  Free column c gives the vector with 1 at c and
    ``-tail[c] / lead`` at the pivot of each echelon row; over Q it is held
    as ints over the lcm of those rows' leads.
    """
    mod = _modulus(field)
    echelon = _echelon(rows, mod)
    column: dict = {}  # column -> (pivot, entry, lead) of the echelon rows holding it
    for p, (lead, tail) in sorted(echelon.items()):
        for j, x in tail.items():
            column.setdefault(j, []).append((p, x, lead))
    basis = []
    for c in (c for c in range(cols) if c not in echelon):  # the free columns, in order
        held = column.get(c, ())
        if mod:
            basis.append(({c: 1, **{p: mod - x for p, x, _ in held}}, 1))
        else:
            d = lcm(*[lead for _, _, lead in held])
            basis.append(({c: d, **{p: -x * (d // lead) for p, x, lead in held}}, d))
    return Subspace._span(Matrix._from_ints(field, tuple(basis), cols))


def inverse(m: Matrix) -> Matrix:
    """The solution X of ``m X = I``, which has one exactly when m is invertible."""
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    try:
        return solve_right(m, Matrix.identity(m.field, m.rows))
    except InconsistentSystemError:
        raise SingularMatrixError("matrix is singular") from None


def solve_right(a: Matrix, b: Matrix) -> Matrix:
    """Deterministic particular solution ``X`` of ``A X = B`` (free vars 0)."""
    check_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    red, pivots = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        raise InconsistentSystemError("system has no solution")
    out = [({}, 1)] * a.cols
    for pc, (row, d) in zip(pivots, red._sparse):
        out[pc] = ({j - a.cols: x for j, x in row.items() if j >= a.cols}, d)
    return Matrix._from_ints(a.field, tuple(out), b.cols)


def random_invertible(rng, n: int, field: Field) -> Matrix:
    """Seeded random invertible matrix with small entries."""
    while True:
        m = Matrix(field, [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)], cols=n)
        if rank(m) == n:
            return m


def random_combination(rng, rows: Matrix) -> Matrix | None:
    """Seeded random combination of the rows of ``rows``: one
    ``random_scalar`` draw per row, in order, as its coefficient.  A one-row
    matrix, or None when every coefficient drawn is zero."""
    f = rows.field
    coeffs = [f.random_scalar(rng) for _ in range(rows.rows)]
    if not any(coeffs):
        return None
    return Matrix._from_ints(f, (_int_row(coeffs, f.zero, _modulus(f)),), rows.rows) @ rows


class Subspace:
    """Linear subspace of F^n held as the echelon map of its canonical RREF
    basis.

    ``_echelon`` sends each pivot column, in ascending order, to ``(lead,
    tail)`` in the form :func:`_echelon` stores (over Q primitive with a
    positive lead, over F_p with lead 1); its tails are shared, never
    modified.  ``pivots`` is the tuple of its keys and dim their number.
    ``basis`` is a read-only view of the map as a matrix, the row of pivot p
    being ``{p: lead, **tail}`` over ``lead``, built on first read and kept.
    Equality of ``Subspace`` values is equality of the underlying sets, and
    so of the maps.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_echelon", "_basis")

    def __init__(self, field: Field, ambient_dim: int, echelon: dict):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = tuple(echelon)
        self._echelon = echelon
        self._basis = None

    @property
    def basis(self) -> Matrix:
        if self._basis is None:
            rows = tuple(({p: lead, **tail}, lead) for p, (lead, tail) in self._echelon.items())
            self._basis = Matrix._from_ints(self.field, rows, self.ambient_dim)
        return self._basis

    @classmethod
    def _span(cls, m: Matrix) -> "Subspace":
        """Row space of ``m``."""
        echelon = _echelon((row for row, _ in _int_rows(m)), _modulus(m.field))
        return cls(m.field, m.cols, dict(sorted(echelon.items())))

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows: Iterable[Iterable]) -> "Subspace":
        return cls._span(Matrix(field, rows, cols=ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {i: (1, {}) for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def _as_row(self, v: Iterable) -> Matrix:
        """``v``, checked against the ambient dimension, as a one-row matrix."""
        row = tuple(v)
        if len(row) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Matrix(self.field, [row])

    def _residual(self, v: Sequence) -> tuple[dict, int]:
        """The residual of ``v`` after eliminating this subspace's pivots, as
        nonzero ints and the factor they are scaled by."""
        (row, d), = _int_rows(self._as_row(v))
        row, s = _eliminate(row, self._echelon, _modulus(self.field))
        return row, d * s

    def reduce_vector(self, v: Sequence) -> tuple:
        """Residual of ``v`` after eliminating this subspace's pivots."""
        return Matrix._from_ints(self.field, (self._residual(v),), self.ambient_dim).row(0)

    def contains_vector(self, v: Sequence) -> bool:
        return not self._residual(v)[0]

    def coordinates(self, v: Sequence) -> tuple:
        """Coefficients of ``v`` in the canonical basis; errors if outside."""
        return self._coordinates_of(self._as_row(v)).row(0)

    def _coordinates_of(self, m: Matrix) -> Matrix:
        """The coefficients in the canonical basis of each row of ``m``, as
        the rows of a matrix; errors if a row is outside.  The basis row of
        pivot p is the only one nonzero at p, where it reads 1, so a row's
        coefficients are its entries at the pivots."""
        if m.cols != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        mod = _modulus(self.field)
        out = []
        for row, d in _int_rows(m):
            out.append(({c: row[p] for c, p in enumerate(self.pivots) if p in row}, d))
            if _eliminate(row, self._echelon, mod)[0]:
                raise ValueError("vector is not in the subspace")
        return Matrix._from_ints(self.field, tuple(out), self.dim)

    def contains(self, other: "Subspace") -> bool:
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        mod = _modulus(self.field)
        for p, (lead, tail) in other._echelon.items():
            if _eliminate({p: lead, **tail}, self._echelon, mod)[0]:
                return False
        return True

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
        echelon = dict(self._echelon)
        mod = _modulus(self.field)
        kept = {
            p: (lead, tail)
            for p, (lead, tail) in sup._echelon.items()
            if _insert({p: lead, **tail}, echelon, mod) is not None
        }
        return Subspace(self.field, self.ambient_dim, kept)

    def quotient_map(self, sup: "Subspace") -> Matrix:
        """Matrix sending ``x`` in ``sup`` to its coordinates in ``sup/self``.

        Coordinates are taken against the pivot-completion complement, so
        the map is canonical given the two spaces.
        """
        return _complement_coordinates(self, self.complement_in(sup), sup).transpose()

    def basis_rows(self) -> tuple[tuple, ...]:
        """The canonical basis as dense rows: an output view, like
        ``Matrix.data``."""
        return self.basis.data

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._echelon == other._echelon
        )

    def __hash__(self):
        rows = tuple((p, lead, frozenset(tail.items())) for p, (lead, tail) in self._echelon.items())
        return hash((self.field, self.ambient_dim, rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field.name}^{self.ambient_dim})"


def _complement_coordinates(sub: Subspace, comp: Subspace, sup: Subspace) -> Matrix:
    """Transposed coordinates against ``comp``, a complement of ``sub`` in
    ``sup``: for ``x`` in ``sup``, ``x @ map`` holds the coefficients of the
    ``comp`` rows when ``x`` is written in the basis of ``sub`` then ``comp``.

    A vector of ``sup`` is fixed by its entries at ``sup.pivots``, so the
    stacked basis restricted to those columns, S, is invertible.  The map's
    row at ``sup.pivots[c]`` is row c of S^-1 from column ``sub.dim`` on.
    """
    f, s = sub.field, sub.dim
    at = {pc: c for c, pc in enumerate(sup.pivots)}
    units = tuple(({at[j]: 1} if j in at else {}, 1) for j in range(sub.ambient_dim))
    inv = inverse(sub.basis.vstack(comp.basis) @ Matrix._from_ints(f, units, sup.dim))
    part = [({j - s: x for j, x in row.items() if j >= s}, d) for row, d in inv._sparse]
    rows = tuple(part[at[j]] if j in at else ({}, 1) for j in range(sub.ambient_dim))
    return Matrix._from_ints(f, rows, comp.dim)
