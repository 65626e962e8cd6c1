"""Second cohomology with trivial coefficients in the ground field F.

A 2-cochain on an algebra B is a triple of bilinear forms B x B -> F^k,
one per operation.  Cocycles are the triples satisfying the eleven
constraint families obtained from the defining identities (family i comes
from identity i, so a violated constraint row names the identity an
extension built from the triple would break).  Coboundaries are the
triples of the form (x, y) -> -eps(x * y) for a linear map eps: B -> F^k.

The axiom report, ``cocycle_defects`` and the Z^2 constraint system are
three calls of the one identity sweep in the algebra module: products
against products, against a cochain, and against the universal cochain,
whose value at (op, i, j) is the unknown of that column.  A defect is
linear in the cochain, so the universal cochain's defect at (family,
triple) is that constraint's row, and no other module knows how families
map to columns.  The sweep reads its right-hand side through one
by-first-index function, ``right(op, i)``, the values at the pairs (i, j):
an index of a cochain's table, or for the universal cochain a nested
function that builds the n unit rows of (op, i) when asked, so no table
of 3n^2 values is held.  The sweep yields one (family, i) block at a
time, and the Z^2 system goes from it into the elimination one row at a
time; no constraint matrix is built.

An F^k-valued cochain is stored as its k coordinate cochains, the rows
of a k x 3n^2 ``Matrix``; Z^2, B^2 and H^2 live in F^(3 n^2), so a basis
row of those spaces is an F-valued cochain as it stands.  A row is indexed
by operation ("vdash", "dashv", "perp"), then the basis pair (i, j)
row-major, so (op o, i, j) sits at (o n + i) n + j.  Only the dense edge,
``from_vector`` and ``vectorize``, interleaves the coordinates: (op o, i,
j, t) at ((o n + i) n + j) k + t.  The values are read in one place,
``_cochain_tables``, as int tables like the cleared products: the defect
sweep, the forced extension and ``extensions.z_star`` read through it, and
the pull-back ``_pullback`` evaluates F-valued cochain rows at pairs of
vectors with the kernel that multiplies vectors (the dense evaluation is
a test oracle).

Z^2, B^2 and H^2 are built over F only, once per algebra.  Two F-valued
cocycles f, g are cohomologous exactly when
``b2_space(b).contains_vector(f.sub(g).vectorize())``.  The constraint
system splits per coefficient coordinate, so H^2(B, F^k) is k copies of
H^2(B, F): an F^k-valued cochain is a cocycle (a coboundary) exactly when
each of its k coordinate cochains is.  ``CochainTriple.stack`` takes the
components' rows as the coordinate cochains, and a section cocycle is the
transposed matrix of the kernel coordinates of its values.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, Mapping, NamedTuple, Sequence

from .algebra import OPS, TriAlgebra, _identity_defects, _product_matrix, _reader
from .fields import check_same_field
from .linalg import Matrix, Subspace, _complement_coordinates, _kernel

__all__ = [
    "CochainTriple",
    "CocycleViolation",
    "NotACocycleError",
    "NotASectionError",
    "cocycle_defects",
    "z2_space",
    "b2_space",
    "h2",
    "CohomologyResult",
    "section_cocycle",
]


class NotACocycleError(ValueError):
    """Raised when a triple violates the cocycle constraints.

    Carries the violations, whose identity indices callers can match
    against an axiom report of the corresponding raw extension.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        axioms = sorted({v.axiom for v in self.violations})
        super().__init__(f"triple violates cocycle constraint families {axioms}")


class NotASectionError(ValueError):
    pass


class CocycleViolation(NamedTuple):
    axiom: int
    triple: tuple[int, int, int]
    defect: tuple  # length-k coefficient vector


class CochainTriple:
    """Three F^k-valued bilinear forms on a base algebra, held as their k
    coordinate cochains: ``_rows``, a k x 3n^2 ``Matrix`` whose row t is
    the F-valued cochain of coordinate t (see the module docstring)."""

    __slots__ = ("base", "coeff_dim", "_rows", "_forms")

    def __init__(
        self,
        base: TriAlgebra,
        coeff_dim: int,
        forms: Mapping[str, Mapping[tuple[int, int], Sequence]] | None = None,
    ):
        if coeff_dim < 0:
            raise ValueError("coefficient dimension must be >= 0")
        n = base.dim
        coerce = base.field.coerce
        rows: list[dict] = [{} for _ in range(coeff_dim)]
        for op, table in (forms or {}).items():
            if op not in OPS:
                raise ValueError(f"unknown operation {op!r}")
            o = OPS.index(op)
            for key, val in table.items():
                i, j = key
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"basis pair {key} out of range")
                vec = [coerce(x) for x in val]
                if len(vec) != coeff_dim:
                    raise ValueError(
                        f"value at {op}{key} has length {len(vec)}, expected {coeff_dim}"
                    )
                c = (o * n + i) * n + j
                for row, x in zip(rows, vec):
                    if x:
                        row[c] = x
        self.base = base
        self.coeff_dim = coeff_dim
        self._rows = Matrix._from_scalars(base.field, rows, 3 * n * n)
        self._forms = None

    @classmethod
    def _from_rows(cls, base: TriAlgebra, m: Matrix) -> "CochainTriple":
        """The cochain whose coordinate cochains are the rows of ``m``; the
        matrix is shared."""
        c = object.__new__(cls)
        c.base = base
        c.coeff_dim = m.rows
        c._rows = m
        c._forms = None
        return c

    @classmethod
    def from_vector(cls, base: TriAlgebra, coeff_dim: int, vec: Sequence) -> "CochainTriple":
        if coeff_dim < 0:
            raise ValueError("coefficient dimension must be >= 0")
        n = base.dim
        if len(vec) != 3 * n * n * coeff_dim:
            raise ValueError("vector length does not match 3*n^2*k")
        return cls._from_rows(base, Matrix(base.field, [vec[t::coeff_dim] for t in range(coeff_dim)], 3 * n * n))

    @classmethod
    def stack(cls, base: TriAlgebra, components: Sequence["CochainTriple"]) -> "CochainTriple":
        """Combine k scalar-valued cochains into one F^k-valued cochain,
        component t its coordinate t."""
        for c in components:
            if c.base != base or c.coeff_dim != 1:
                raise ValueError("stack expects scalar cochains on the same base")
        rows = tuple(c._rows._sparse[0] for c in components)
        return cls._from_rows(base, Matrix._from_ints(base.field, rows, 3 * base.dim**2))

    @property
    def forms(self) -> dict:
        """The forms as ``{op: {(i, j): value}}``: every operation in ``OPS``
        order, each table sorted by basis pair and holding the nonzero
        values as ``coeff_dim``-tuples.  Built on first read."""
        if self._forms is None:
            field, k = self.base.field, self.coeff_dim
            e, tables = _cochain_tables(self._rows, self.base.dim)
            self._forms = {op: {key: Matrix._from_ints(field, ((slot, e),), k).row(0) for key, slot in table.items()}
                           for op, table in tables.items()}
        return self._forms

    def vectorize(self) -> tuple:
        return tuple(x for xs in zip(*self._rows.data) for x in xs)

    def sub(self, other: "CochainTriple") -> "CochainTriple":
        if self.base != other.base or self.coeff_dim != other.coeff_dim:
            raise ValueError("cochains live on different bases")
        return CochainTriple._from_rows(self.base, self._rows - other._rows)

    def __eq__(self, other):
        return (
            isinstance(other, CochainTriple)
            and self.base == other.base
            and self.coeff_dim == other.coeff_dim
            and self._rows == other._rows
        )

    __hash__ = None

    def __repr__(self):
        nnz = sum(len(self.forms[op]) for op in OPS)
        return f"CochainTriple(base dim {self.base.dim}, k={self.coeff_dim}, {nnz} entries)"


def _cochain_tables(m: Matrix, n: int) -> tuple[int, dict]:
    """The F-valued cochain rows of ``m``, on a base of dimension ``n``, as
    one bilinear map into F^rows: int tables ``{op: {(i, j): {r: int}}}``
    over one denominator, every operation in ``OPS`` order, each table
    sorted by basis pair.  The one reader of cochain values."""
    e = lcm(*[d for _, d in m._sparse])
    tables: dict = {op: {} for op in OPS}
    for idx, r, x in sorted((idx, r, x * (e // d)) for r, (row, d) in enumerate(m._sparse) for idx, x in row.items()):
        o, ij = divmod(idx, n * n)
        tables[OPS[o]].setdefault(divmod(ij, n), {})[r] = x
    return e, tables


def _pullback(cochains: Matrix, pairs: Sequence[tuple[Matrix, Matrix]]) -> Matrix:
    """Each F-valued cochain row f of ``cochains`` at the pairs of rows
    (u_a, v_b) of each ``(us, vs)`` in ``pairs``: per operation one block
    per pair, in list order, with f(op, u_a, v_b) at a |vs| + b.  The rows
    are one bilinear map into F^rows, which the product kernel evaluates
    at each pair; its (op, a, b) rows go in (op, pair) order, transposed."""
    tables = _cochain_tables(cochains, pairs[0][0].cols)
    blocks = [(_product_matrix(tables, cochains.rows, us, vs)._sparse, us.rows * vs.rows) for us, vs in pairs]
    rows = tuple(row for o in range(len(OPS)) for m, w in blocks for row in m[o * w : (o + 1) * w])
    return Matrix._from_ints(cochains.field, rows, cochains.rows).transpose()


def cocycle_defects(f: CochainTriple) -> list[CocycleViolation]:
    """Defects of the eleven constraint families, evaluated sparsely.

    Family i instantiated on the basis triple (x, y, z) reads
    f_B(x A y, z) - f_C(x, y D z) for identity i = (A, B, C, D); a triple
    is a cocycle exactly when every defect vanishes.
    """
    base = f.base
    d, products = base._cleared_products()
    e, forms = _cochain_tables(f._rows, base.dim)
    return [
        CocycleViolation(idx, triple, Matrix._from_ints(base.field, ((slot, d * e),), f.coeff_dim).row(0))
        for idx, triple, slot in _identity_defects(base.field, base.dim, products, _reader(forms))
    ]


def _cocycle_rows(b: TriAlgebra) -> Iterator[dict]:
    """The rows of the cocycle system of Z^2(B, F), as a stream of int rows.

    The rows are the defects of the universal cochain, whose value at
    (op, i, j) is the unknown at column (o*n + i)*n + j: its defect at a
    (family, triple) is that constraint's row.  The sweep reads that
    cochain through ``universal``, which builds the unit rows of one (op, i)
    on demand, so no table of 3n^2 values is held.  The rows come ordered by
    (family index, basis triple), zero rows left out, summed as ints from
    the algebra's denominator-cleared products: D times the true
    constraints, which span the same space.
    """
    n = b.dim
    d, products = b._cleared_products()
    start = {op: o * n * n for o, op in enumerate(OPS)}

    def universal(op: str, i: int) -> list:
        c = start[op] + i * n
        return [(j, {c + j: 1}) for j in range(n)]

    return (slot for _, _, slot in _identity_defects(b.field, n, products, universal))


def z2_space(b: TriAlgebra) -> Subspace:
    """Canonical basis of the cocycle space Z^2(B, F), built once per
    algebra and memoised on it."""
    b.require_valid()
    n = b.dim
    return b._memo("z2", lambda: _kernel(b.field, _cocycle_rows(b), 3 * n * n))


def _product_table(b: TriAlgebra) -> Matrix:
    """The 3n^2 x n matrix whose row (op, i, j) is e_i op e_j, from the
    cleared tables; built once per algebra and memoised on it."""

    def build():
        n, (d, products), empty = b.dim, b._cleared_products(), ({}, 1)
        rows = {(o * n + i) * n + j: (vec, d) for o, op in enumerate(OPS) for (i, j), vec in products[op].items()}
        return Matrix._from_ints(b.field, tuple(rows.get(c, empty) for c in range(3 * n * n)), n)

    return b._memo("product_table", build)


def b2_space(b: TriAlgebra) -> Subspace:
    """Coboundary space: image of eps -> (-eps(x*y)) over linear eps, spanned
    by the rows of the transposed product table (the sign does not matter)."""
    return b._memo("b2", lambda: Subspace._span(_product_table(b).transpose()))


class CohomologyResult:
    """Z^2, B^2, and a canonical set of H^2 class representatives.

    Representatives are the rows of ``complement``, the pivot-completion
    complement of B^2 inside Z^2, so repeated runs always pick the same
    cochains.  ``class_coordinates`` returns coordinates of a cocycle's
    class against that complement.
    """

    __slots__ = ("base", "z2", "b2", "h2_reps", "_complement", "_coords")

    def __init__(self, base, z2, b2, complement):
        self.base = base
        self.z2 = z2
        self.b2 = b2
        rows = complement.basis
        self.h2_reps = tuple(CochainTriple._from_rows(base, Matrix._from_ints(base.field, (row,), rows.cols))
                             for row in rows._sparse)
        self._complement = complement
        self._coords = None

    @property
    def h2_dim(self) -> int:
        return self.z2.dim - self.b2.dim

    def _classes(self, m: Matrix) -> Matrix:
        """The class coordinates of each cocycle row of ``m``, as the rows of
        a matrix; raises ValueError if a row is outside Z^2."""
        self.z2._coordinates_of(m)  # the membership check
        if not m.rows:  # no cochains, so no coset map to build
            return Matrix.zeros(m.field, 0, self.h2_dim)
        if self._coords is None:  # transposed, so the rows' coordinates are one product
            self._coords = _complement_coordinates(self.b2, self._complement, self.z2)
        return m @ self._coords

    def class_coordinates(self, vec: Sequence) -> tuple:
        """Coset coordinates of a cocycle vector relative to the stored
        complement of B^2 in Z^2; raises ValueError outside Z^2."""
        return self._classes(self.z2._as_row(vec)).row(0)

    def class_of(self, cochain: CochainTriple) -> tuple:
        """Class coordinates of an F-valued cocycle; ValueError otherwise."""
        if cochain.coeff_dim != 1:
            raise ValueError(f"class_of takes an F-valued cochain, not k = {cochain.coeff_dim}")
        return self._classes(cochain._rows).row(0)


def h2(b: TriAlgebra) -> CohomologyResult:
    """Second cohomology H^2(B, F), computed once per algebra and memoised
    on it.  H^2(B, F^k) is its k-fold copy (see the module docstring)."""

    def build():
        z2, b2 = z2_space(b), b2_space(b)
        return CohomologyResult(b, z2, b2, b2.complement_in(z2))

    return b._memo("h2", build)


def section_cocycle(
    total: TriAlgebra, base: TriAlgebra, projection: Matrix, kernel_space: Subspace, section: Matrix
) -> CochainTriple:
    """Cocycle induced by a section of a central extension.

    For basis vectors x, y of the base the value is
    mu(x) * mu(y) - mu(x * y), expressed in the kernel's canonical basis:
    the values' coordinates, one row per (op, i, j), transposed into the k
    coordinate cochains.  Raises ``NotASectionError`` unless projection @
    section is the identity.
    """
    check_same_field(total.field, base.field)
    if projection @ section != Matrix.identity(base.field, base.dim):
        raise NotASectionError("map is not a right inverse of the projection")
    mu = section.transpose()  # row i: mu(e_i)
    defects = _product_matrix(total._cleared_products(), total.dim, mu, mu) - _product_table(base) @ mu
    try:
        coords = kernel_space._coordinates_of(defects)
    except ValueError:
        raise NotASectionError(
            "section defect escapes the kernel; extension is not central over this kernel"
        ) from None
    return CochainTriple._from_rows(base, coords.transpose())
