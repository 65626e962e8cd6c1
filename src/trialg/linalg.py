"""Deterministic exact linear algebra over Q and F_p.

A ``Matrix`` is held in one of two forms.  The dense form, ``data``, is a
tuple of row tuples of exact scalars; every matrix built from outside the
package has it.  The sparse form holds each row as a ``{column: int}`` dict
of its nonzero entries with a denominator.  Elimination results and the
constraint systems this package assembles (cocycle, coboundary, center and
derived systems, well under 1 % nonzero) are made in the sparse form, and
``data`` is built from it only when something reads it, so they never pay
for their zero cells.

Every reduction in this module -- ``rref``, ``kernel``, subspace spans,
``contains``, ``complement_in`` and ``reduce_vector`` -- goes through one
loop, ``_eliminate``: a row held as a ``{column: int}`` dict is cleared of
the pivot columns of an echelon map ``pivot column -> (lead, tail)``.
Sparse rows enter it as they are; dense rows are converted by ``_int_row``.

Over Q each dense row is multiplied by the lcm of its denominators and
elimination is fraction-free (Bareiss 1968): clearing a pivot scales the row
by ``lead / gcd(t, lead)`` instead of dividing, and every stored echelon row
is divided by its content, so no ``Fraction`` arithmetic runs in the loop.
Over F_p the same loop runs with every lead normalised to 1; entries are
reduced mod p only when read as a pivot entry and once at the end of a row.

The outputs are canonical: a subspace is stored as the unique RREF basis of
its row space, so two subspaces are equal as sets exactly when their stored
bases are identical entry-wise, and ``rref`` returns the unique RREF of the
row space with its pivot columns.  Because that RREF depends on the row
space alone, neither the order in which rows are eliminated nor the integer
multiples they are held as can change it: ``rref`` keeps its echelon map
fully reduced while it inserts the rows in input order, and returns each
row as its ints over its lead, whose dense form reads ``x / lead``.  So a
constraint system may be handed over as D times its rows, for the common
denominator D of an algebra's structure constants, with no change to any
result.  Everything downstream leans on that canonicity for exact equality
tests.

This module is also the one home of coordinates and seeded combinations.
Coset coordinates modulo a subspace -- ``Subspace.quotient_map``, the
projection of a quotient algebra, H^2 class coordinates -- all come from
``_complement_coordinates``, given the complement the caller already
holds.  Every seeded random combination of rows comes from
``random_combination`` and every seeded change of basis from
``random_invertible``, so a seed fixes the same ``random_scalar`` draws
everywhere.

``Matrix(field, data)`` coerces every entry into the field.  Matrices built
inside the package from scalars that are already field elements (elimination
results, subspace bases, transposes, stacks, products) skip that step.

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
    """Immutable matrix over one exact field.

    ``data`` is the dense form: a tuple of row tuples of field scalars.
    Matrices built inside the package from elimination results and sparse
    constraint systems are held in the sparse form ``_sparse`` instead: for
    each row, a ``{column: int}`` dict of its nonzero entries and a
    denominator ``d``, the row being the ints divided by ``d``.  Over F_p the
    ints are residues in ``[1, p)`` and ``d`` is 1.  A sparse matrix builds
    ``data`` the first time it is read; a dense one has ``_sparse`` None.
    """

    __slots__ = ("field", "rows", "cols", "data", "_sparse")

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
        self._sparse = None

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
        m._sparse = None
        return m

    @classmethod
    def _from_ints(cls, field: Field, rows: tuple[tuple[dict, int], ...], cols: int) -> "Matrix":
        """Package-internal constructor of the sparse form: ``rows`` holds a
        ``({column: int}, denominator)`` pair per row, as described on the
        class.  The dicts are shared, never modified."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = cols
        m._sparse = rows
        return m

    def __getattr__(self, name):
        # Called only when normal lookup fails, as for the unset ``data``
        # slot of a sparse matrix, which is built here once.
        if name != "data":
            raise AttributeError(name)
        zero = self.field.zero
        mod = _modulus(self.field)
        out = []
        for row, d in self._sparse:
            dense = [zero] * self.cols
            for j, x in _scalars(row, d, mod).items():
                dense[j] = x
            out.append(tuple(dense))
        self.data = data = tuple(out)
        return data

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


def _int_row(row: Sequence, zero, mod: int) -> tuple[dict, int]:
    """The nonzero entries of a row of field scalars as ints, with the
    factor they were scaled by: the lcm of the denominators over Q, 1 over
    F_p."""
    if mod:  # residues are ints, whose truth test compress runs in C
        return {j: row[j] for j in compress(range(len(row)), row)}, 1
    # The identity test skips the field's shared zero object cheaply; only
    # other entries pay for a truth test, a Python call for a Fraction.
    r = {j: x for j, x in enumerate(row) if x is not zero and x}
    if not r:
        return r, 1
    d = lcm(*[x.denominator for x in r.values()])
    if d == 1:
        return {j: x.numerator for j, x in r.items()}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in r.items()}, d


def _int_rows(m: Matrix):
    """Each row of ``m`` as a fresh ``({column: int}, denominator)`` pair
    that the caller may modify: copies of the sparse form, or dense rows
    converted by :func:`_int_row`."""
    if m._sparse is not None:
        return ((dict(row), d) for row, d in m._sparse)
    zero, mod = m.field.zero, _modulus(m.field)
    return (_int_row(row, zero, mod) for row in m.data)


def _scalars(row: dict, d: int, mod: int) -> dict:
    """The field scalars ``x / d`` of an int row; over F_p the residues."""
    if mod:
        return row
    if d == 1:
        return {j: Fraction(x) for j, x in row.items()}
    return {j: Fraction(x, d) for j, x in row.items()}


def _scalar_rows(m: Matrix) -> list[dict]:
    """Each row of ``m`` as a ``{column: scalar}`` dict of its nonzero entries."""
    mod = _modulus(m.field)
    return [_scalars(row, d, mod) for row, d in _int_rows(m)]


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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row-echelon form with its pivot columns.

    The result has ``m.rows`` rows: the nonzero rows in pivot order, then
    zero rows.  The rows are inserted in order into an echelon map that is
    kept fully reduced: a new row is cleared of the pivots so far, and its
    own pivot is then cleared from the earlier rows that hold it.  So tails
    hold non-pivot columns only, a row costs one step per pivot column it
    touches (most rows of a cocycle system reduce to zero), and the map
    ends as the RREF.  It is returned in the sparse form, each row with its
    lead as denominator, so its pivot entry reads 1.
    """
    mod = _modulus(m.field)
    echelon: dict = {}
    holders: dict = {}  # column -> pivots whose tail may hold it (stale ones included)
    for row, _ in _int_rows(m):
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
    out = [({p: lead, **tail}, lead) for p, (lead, tail) in sorted(echelon.items())]
    out += [({}, 1)] * (m.rows - len(echelon))
    return Matrix._from_ints(m.field, tuple(out), m.cols), tuple(sorted(echelon))


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space of ``m``.

    Free column c gives the vector with 1 at c and ``-row[c]`` at the pivot
    of each RREF row; over Q it is held as ints over the lcm of those rows'
    leads.
    """
    mod = _modulus(m.field)
    red, pivots = rref(m)
    column: dict = {}  # column -> (pivot, entry, lead) of the RREF rows holding it
    for p, (row, lead) in zip(pivots, red._sparse):
        for j, x in row.items():
            if j != p:
                column.setdefault(j, []).append((p, x, lead))
    basis = []
    for c in sorted(set(range(m.cols)) - set(pivots)):
        held = column.get(c, ())
        if mod:
            basis.append(({c: 1, **{p: mod - x for p, x, _ in held}}, 1))
        else:
            d = lcm(*[lead for _, _, lead in held])
            basis.append(({c: d, **{p: -x * (d // lead) for p, x, lead in held}}, d))
    return Subspace._span(Matrix._from_ints(m.field, tuple(basis), m.cols))


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


def random_combination(rng, field: Field, rows: Sequence[Sequence], width: int) -> tuple | None:
    """Seeded random combination of ``width``-long ``rows``: one
    ``random_scalar`` draw per row, in order, as its coefficient.  None when
    every coefficient drawn is zero."""
    coeffs = tuple(field.random_scalar(rng) for _ in rows)
    if not any(coeffs):
        return None
    combo = Matrix._trusted(field, (coeffs,), len(coeffs)) @ Matrix._trusted(field, tuple(rows), width)
    return combo.data[0]


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
        basis = Matrix._from_ints(m.field, red._sparse[: len(pivots)], m.cols)
        return cls(m.field, m.cols, basis, pivots)

    @classmethod
    def _from_echelon(cls, field: Field, ambient_dim: int, echelon: dict) -> "Subspace":
        """The subspace whose RREF basis is the echelon map ``echelon``,
        given in ascending pivot order; its tails become shared."""
        rows = tuple(({p: lead, **tail}, lead) for p, (lead, tail) in echelon.items())
        sub = cls(field, ambient_dim, Matrix._from_ints(field, rows, ambient_dim), tuple(echelon))
        sub._echelon = echelon
        return sub

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
            echelon = {}
            for p, (tail, _) in zip(self.pivots, _int_rows(self.basis)):
                echelon[p] = (tail.pop(p), tail)
            self._echelon = echelon
        return self._echelon

    def _residual(self, v: Sequence) -> tuple[dict, int]:
        """The residual of ``v`` after eliminating this subspace's pivots, as
        nonzero ints and the factor they are scaled by."""
        coerce = self.field.coerce
        w = [coerce(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        mod = _modulus(self.field)
        row, d = _int_row(w, self.field.zero, mod)
        row, s = _eliminate(row, self._tails(), mod)
        return row, d * s

    def reduce_vector(self, v: Sequence) -> tuple:
        """Residual of ``v`` after eliminating this subspace's pivots."""
        row, d = self._residual(v)
        mod = _modulus(self.field)
        w = [self.field.zero] * self.ambient_dim
        for j, x in row.items():
            w[j] = x if mod else Fraction(x, d)
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return not self._residual(v)[0]

    def coordinates(self, v: Sequence) -> tuple:
        """Coefficients of ``v`` in the canonical basis; errors if outside."""
        if self._residual(v)[0]:
            raise ValueError("vector is not in the subspace")
        return tuple(self.field.coerce(v[pc]) for pc in self.pivots)

    def contains(self, other: "Subspace") -> bool:
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        tails = self._tails()
        mod = _modulus(self.field)
        for p, (lead, tail) in other._tails().items():
            if _eliminate({p: lead, **tail}, tails, mod)[0]:
                return False
        return True

    def plus(self, other: "Subspace") -> "Subspace":
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        rows = tuple(
            ({p: lead, **tail}, lead) for s in (self, other) for p, (lead, tail) in s._tails().items()
        )
        return Subspace._span(Matrix._from_ints(self.field, rows, self.ambient_dim))

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
        mod = _modulus(self.field)
        kept = {
            p: (lead, tail)
            for p, (lead, tail) in sup._tails().items()
            if _insert({p: lead, **tail}, echelon, mod) is not None
        }
        return Subspace._from_echelon(self.field, self.ambient_dim, kept)

    def quotient_map(self, sup: "Subspace") -> Matrix:
        """Matrix sending ``x`` in ``sup`` to its coordinates in ``sup/self``.

        Coordinates are taken against the pivot-completion complement, so
        the map is canonical given the two spaces.
        """
        return _complement_coordinates(self, self.complement_in(sup), sup)

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


def _complement_coordinates(sub: Subspace, comp: Subspace, sup: Subspace) -> Matrix:
    """Matrix sending ``x`` in ``sup`` to its coordinates against ``comp``,
    a complement of ``sub`` in ``sup``: the coefficients of the ``comp``
    rows when ``x`` is written in the basis of ``sub`` followed by ``comp``.

    A vector of ``sup`` is fixed by its entries at ``sup.pivots``, so the
    stacked basis restricted to those columns is invertible, and the map
    reads those columns only.
    """
    f = sub.field
    n = sub.ambient_dim
    if comp.dim == 0:
        return Matrix.zeros(f, 0, n)
    stacked = sub.basis.data + comp.basis.data
    t = Matrix._trusted(f, tuple(tuple(row[pc] for pc in sup.pivots) for row in stacked), sup.dim)
    out = []
    for wrow in inverse(t.transpose()).data[sub.dim :]:
        row = [f.zero] * n
        for pc, x in zip(sup.pivots, wrow):
            row[pc] = x
        out.append(tuple(row))
    return Matrix._trusted(f, tuple(out), n)
