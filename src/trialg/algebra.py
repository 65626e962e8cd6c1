"""Structure-constant triassociative algebras.

An algebra of dimension n over an exact field is stored as three sparse
product tables, one per operation ("vdash", "dashv", "perp"), mapping a
basis pair (i, j) to the nonzero coordinates of e_i * e_j.  The eleven
defining identities are checked on basis triples only, which suffices by
trilinearity.  One kernel, ``_product_matrix``, evaluates a bilinear map
held as int tables over a denominator at every pair of rows of two
matrices: the products, from the denominator-cleared tables, and the
cochains of the cohomology module.  The dense evaluation is a test oracle.
A subspace of an algebra (its center, L', an ideal) is a plain
``Subspace`` of F^n; ``as_subspace`` checks one that a caller passes in.

Identity indexing is fixed once and for all (reading order of the usual
two-column display, 1-based):

     1  (x |- y) |- z  =  x |- (y |- z)
     2  (x -| y) -| z  =  x -| (y -| z)
     3  (x -| y) |- z  =  x |- (y |- z)
     4  (x -| y) -| z  =  x -| (y |- z)
     5  (x |- y) -| z  =  x |- (y -| z)
     6  (x _|_ y) |- z  =  x |- (y |- z)
     7  (x -| y) -| z  =  x -| (y _|_ z)
     8  (x |- y) _|_ z  =  x |- (y _|_ z)
     9  (x _|_ y) -| z  =  x _|_ (y -| z)
    10  (x -| y) _|_ z  =  x _|_ (y |- z)
    11  (x _|_ y) _|_ z  =  x _|_ (y _|_ z)

Violation reports cite these indices; the cocycle constraint families of
the cohomology module are aligned with them row by row.  Both come from
one sweep, ``_identity_defects``, which reads the left-hand products from
the algebra's tables and the right-hand values through one by-first-index
function ``right(op, i)``, and accumulates one (identity, i) block of
triples (i, j, l) at a time.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fields import Field, QQ, check_same_field
from .linalg import (
    Matrix, Subspace, _complement_coordinates, _kernel, _modulus, _residues, _row, _scalar_rows, inverse
)

__all__ = [
    "VDASH",
    "DASHV",
    "PERP",
    "OPS",
    "IDENTITIES",
    "identity_str",
    "TriAlgebra",
    "AxiomViolation",
    "AxiomReport",
    "MalformedAlgebraError",
    "InvalidAlgebraError",
    "NotAnIdealError",
    "NotCentralIdealError",
    "product_subspace",
    "is_ideal",
    "quotient_algebra",
    "QuotientAlgebra",
    "hom_to_field",
    "check_dim_bounds",
    "BoundReport",
    "dimension_bound_table",
    "BOUND_FORMULAS",
    "change_basis",
    "as_subspace",
]

VDASH = "vdash"  # |-
DASHV = "dashv"  # -|
PERP = "perp"    # _|_
OPS = (VDASH, DASHV, PERP)

_OP_SYMBOL = {VDASH: "|-", DASHV: "-|", PERP: "_|_"}

# Each identity reads (x A y) B z = x C (y D z), stored as (A, B, C, D).
IDENTITIES = (
    (VDASH, VDASH, VDASH, VDASH),
    (DASHV, DASHV, DASHV, DASHV),
    (DASHV, VDASH, VDASH, VDASH),
    (DASHV, DASHV, DASHV, VDASH),
    (VDASH, DASHV, VDASH, DASHV),
    (PERP, VDASH, VDASH, VDASH),
    (DASHV, DASHV, DASHV, PERP),
    (VDASH, PERP, VDASH, PERP),
    (PERP, DASHV, PERP, DASHV),
    (DASHV, PERP, PERP, VDASH),
    (PERP, PERP, PERP, PERP),
)


def identity_str(index: int) -> str:
    """Human-readable form of identity ``index`` (1-based)."""
    a, b, c, d = IDENTITIES[index - 1]
    return (
        f"(x {_OP_SYMBOL[a]} y) {_OP_SYMBOL[b]} z = "
        f"x {_OP_SYMBOL[c]} (y {_OP_SYMBOL[d]} z)"
    )


class MalformedAlgebraError(ValueError):
    """Structure-constant data with inconsistent shapes or indices."""


class InvalidAlgebraError(ValueError):
    """An operation required a validated algebra but the axioms fail."""


class NotAnIdealError(ValueError):
    pass


class NotCentralIdealError(ValueError):
    """A subspace given as a central ideal is not inside the center."""


class NoCocyclesError(ValueError):
    """The base algebra has no nonzero cocycle to extend it by."""


class AxiomViolation(NamedTuple):
    axiom: int                      # 1..11
    triple: tuple[int, int, int]    # 0-based basis indices (x, y, z)
    defect: tuple                   # lhs - rhs as a dense vector

    def __str__(self):
        i, j, l = self.triple
        return f"axiom {self.axiom} [{identity_str(self.axiom)}] fails on (e{i}, e{j}, e{l})"


class AxiomReport(NamedTuple):
    ok: bool
    violations: tuple[AxiomViolation, ...]


def _cleared(field: Field, tables: Mapping[str, Mapping]) -> tuple[int, dict]:
    """Sparse tables ``{op: {(i, j): {k: scalar}}}`` as ints, with the factor
    they are scaled by: the lcm of all denominators over Q, 1 over F_p."""
    if _modulus(field):
        return 1, tables
    d = lcm(*[x.denominator for t in tables.values() for vec in t.values() for x in vec.values()])
    return d, {
        op: {
            key: {k: x.numerator * (d // x.denominator) for k, x in vec.items()}
            for key, vec in t.items()
        }
        for op, t in tables.items()
    }


def _by_first(table: Mapping) -> dict:
    """The entries of a table ``{(i, j): vec}`` by first index: ``{i: [(j, vec)]}``."""
    out: dict = {}
    for (i, j), vec in table.items():
        out.setdefault(i, []).append((j, vec))
    return out


def _reader(tables: Mapping) -> Callable:
    """``right(op, i)`` of :func:`_identity_defects` for tables ``{op: {(i, j): vec}}``."""
    index = {op: _by_first(tables[op]) for op in OPS}
    return lambda op, i: index[op].get(i, ())


def _identity_defects(field: Field, n: int, left: dict, right: Callable) -> Iterator[tuple]:
    """One sweep over the eleven identities on integer tables.

    ``left`` holds the products of an algebra of dimension ``n`` as ``{op:
    {(i, j): {k: int}}}`` from :func:`_cleared`.  The right-hand side is read
    through one by-first-index function: ``right(op, i)`` lists ``(j, vec)``
    for the basis pairs (i, j) where it has a nonzero value, ``vec`` a
    ``{k: int}`` that is never modified.  For identity (A, B, C, D) on the
    triple (i, j, l) the defect is

        sum_m left_A[i, j][m] right_B[m, l] - sum_m left_D[j, l][m] right_C[i, m],

    which is (e_i A e_j) B e_l - e_i C (e_j D e_l) when ``right`` reads
    ``left``, and the cocycle constraint family when it reads a cochain.
    The D products are indexed by coordinate, so the sweep accumulates one
    (family, i) block at a time and visits only the triples that touch a
    nonzero entry of ``left``.  Yields ``(identity index, triple, slot)``
    for each nonzero defect in (family, i, j, l) order, the slot a fresh
    ``{k: int}`` of its nonzero coordinates: residues over F_p, and over Q
    the ints still scaled by the product of the two tables' factors.
    """
    mod = _modulus(field)
    firsts = {op: _by_first(left[op]) for op in OPS}
    for idx, (op_a, op_b, op_c, op_d) in enumerate(IDENTITIES, start=1):
        by_coord: dict = {}  # m -> [(j, l, coordinate m of e_j D e_l)]
        for (j, l), vec in left[op_d].items():  # noqa: E741
            for m, s in vec.items():
                by_coord.setdefault(m, []).append((j, l, s))
        first_a = firsts[op_a]
        for i in range(n):
            acc: dict[tuple[int, int], dict[int, int]] = {}
            for j, vec_a in first_a.get(i, ()):
                for m, s in vec_a.items():
                    for l, vec in right(op_b, m):  # noqa: E741
                        slot = acc.get((j, l))
                        if slot is None:
                            slot = acc[(j, l)] = {}
                        for k, v in vec.items():
                            slot[k] = slot.get(k, 0) + s * v
            for m, vec in right(op_c, i):
                for j, l, s in by_coord.get(m, ()):  # noqa: E741
                    slot = acc.get((j, l))
                    if slot is None:
                        slot = acc[(j, l)] = {}
                    for k, v in vec.items():
                        slot[k] = slot.get(k, 0) - s * v
            for j, l in sorted(acc):  # noqa: E741
                slot = acc[(j, l)]
                slot = _residues(slot, mod) if mod else {k: v for k, v in slot.items() if v}
                if slot:
                    yield idx, (i, j, l), slot


class TriAlgebra:
    """Finite-dimensional algebra with three bilinear products.

    ``products[op][(i, j)]`` is a sparse vector {k: scalar} giving the
    nonzero coordinates of e_i op e_j.  Instances are immutable, so every
    invariant -- the axiom report, center, derived subalgebra and its
    complement, H^2, cover, Z* and the analysis of each central ideal -- is
    computed once and kept in the one memo ``_cache`` (see :meth:`_memo`).
    """

    __slots__ = ("dim", "field", "products", "name", "_cache")

    def __init__(
        self,
        dim: int,
        field: Field = QQ,
        products: Mapping[str, Mapping[tuple[int, int], Mapping[int, object] | Sequence]] | None = None,
        name: str | None = None,
    ):
        if not isinstance(dim, int) or dim < 0:
            raise MalformedAlgebraError(f"bad dimension {dim!r}")
        self.dim = dim
        self.field = field
        self.name = name
        norm: dict[str, dict[tuple[int, int], dict[int, object]]] = {op: {} for op in OPS}
        coerce = field.coerce
        for op, table in (products or {}).items():
            if op not in OPS:
                raise MalformedAlgebraError(f"unknown operation {op!r}")
            for key, vec in table.items():
                i, j = key
                if not (0 <= i < dim and 0 <= j < dim):
                    raise MalformedAlgebraError(f"basis pair {key} out of range for dim {dim}")
                if isinstance(vec, Mapping):
                    entries = vec.items()
                    for k, _ in entries:
                        if not (0 <= k < dim):
                            raise MalformedAlgebraError(
                                f"product coordinate {k} out of range for dim {dim}"
                            )
                    sparse = {k: coerce(v) for k, v in sorted(vec.items())}
                else:
                    seq = list(vec)
                    if len(seq) != dim:
                        raise MalformedAlgebraError(
                            f"product vector for {op}{key} has length {len(seq)}, expected {dim}"
                        )
                    sparse = {k: coerce(v) for k, v in enumerate(seq)}
                sparse = {k: v for k, v in sparse.items() if v}
                if sparse:
                    norm[op][(i, j)] = sparse
        self.products = {op: dict(sorted(norm[op].items())) for op in OPS}
        self._cache = {}

    def _memo(self, key, build):
        """``build()``, run the first time ``key`` is asked for and kept in
        the memo; a build that raises stores nothing."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def _cleared_products(self) -> tuple[int, dict]:
        """The product tables as ints, with the factor they are scaled by."""
        return self._memo("cleared_products", lambda: _cleared(self.field, self.products))

    def axiom_report(self) -> AxiomReport:
        """Check all eleven identities on every basis triple.

        Only triples that touch a nonzero product can produce a nonzero
        defect, so the sweep runs over the sparse tables.
        """

        def build():
            d, table = self._cleared_products()
            violations = tuple(
                AxiomViolation(idx, triple, Matrix._from_ints(self.field, ((slot, d * d),), self.dim).row(0))
                for idx, triple, slot in _identity_defects(self.field, self.dim, table, _reader(table))
            )
            return AxiomReport(ok=not violations, violations=violations)

        return self._memo("axiom_report", build)

    def require_valid(self) -> None:
        report = self.axiom_report()
        if not report.ok:
            first = report.violations[0]
            raise InvalidAlgebraError(
                f"algebra fails {len(report.violations)} identity instance(s); first: {first}"
            )

    # subspaces ---------------------------------------------------------

    def derived(self) -> Subspace:
        """Span of all products of basis pairs, over all three operations."""

        def build():
            d, products = self._cleared_products()
            rows = tuple((vec, d) for op in OPS for vec in products[op].values())
            return Subspace._span(Matrix._from_ints(self.field, rows, self.dim))

        return self._memo("derived", build)

    def center(self) -> Subspace:
        """Elements z with z * x = x * z = 0 for all x and all products: the
        null space of the :func:`_annihilator_rows` of the cleared products."""
        return self._memo(
            "center", lambda: _kernel(self.field, _annihilator_rows(self._cleared_products()[1]), self.dim)
        )

    def __eq__(self, other):
        return (
            isinstance(other, TriAlgebra)
            and self.dim == other.dim
            and self.field == other.field
            and self.products == other.products
        )

    __hash__ = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"TriAlgebra(dim {self.dim} over {self.field.name}{label})"


def _annihilator_rows(tables: Mapping[str, Mapping]) -> Iterable[dict]:
    """The two-sided annihilator constraints of a bilinear map f held as int
    tables ``{op: {(i, j): {k: int}}}``, as fresh int rows: row (op, left,
    j, k) holds the coordinate k of f(op, e_i, e_j) at column i, and (op,
    right, i, k) that of f(op, e_i, e_j) at column j, each entry from one
    table value.  Their null space is the z with f(op, z, y) = f(op, y, z)
    = 0 for every op and y: Z(a) for the products of a."""
    rows: dict[tuple, dict] = {}
    for op, table in tables.items():
        for (i, j), vec in table.items():
            for k, s in vec.items():
                rows.setdefault((op, 0, j, k), {})[i] = s
                rows.setdefault((op, 1, i, k), {})[j] = s
    return rows.values()


def as_subspace(a: TriAlgebra, z) -> Subspace:
    """``z``, checked to be a ``Subspace`` of F^dim over the field of ``a``;
    each function here and in ``sequences`` that takes a caller's subspace runs this.
    A ``Subspace`` names no algebra: one of another algebra of this dimension and field passes."""
    if not isinstance(z, Subspace):
        raise TypeError(f"expected a Subspace, got {type(z).__name__}")
    if z.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension differs from the algebra")
    check_same_field(z.field, a.field)
    return z


def _product_matrix(cleared: tuple[int, dict], cols: int, us: Matrix, vs: Matrix) -> Matrix:
    """The matrix whose row (op, r, s), in that order, is f(op, u_r, v_s)
    for the rows u_r of ``us``, v_s of ``vs`` and the bilinear map f into
    F^cols held as ``cleared``, int tables (d, {op: {(i, j): {k: int}}})
    over d: each table summed over the products of nonzero row entries."""
    d, table = cleared
    mod = _modulus(us.field)
    rows = []
    for op in OPS:
        by_first = _by_first(table[op])  # i -> [(j, f(op, e_i, e_j))]
        for u, du in us._sparse:
            pairs = [(x, j, vec) for i, x in u.items() for j, vec in by_first.get(i, ())]
            for v, dv in vs._sparse:
                acc: dict = {}
                for x, j, vec in pairs:
                    if j in v:
                        c = x * v[j]
                        for k, z in vec.items():
                            acc[k] = acc.get(k, 0) + c * z
                rows.append(_row(acc, du * dv * d, mod))
    return Matrix._from_ints(us.field, tuple(rows), cols)


def product_subspace(a: TriAlgebra, s: Subspace, t: Subspace) -> Subspace:
    """Span of all products of ``s`` by ``t`` in ``a`` under the three operations."""
    us, vs = as_subspace(a, s).basis, as_subspace(a, t).basis
    return Subspace._span(_product_matrix(a._cleared_products(), a.dim, us, vs))


def is_ideal(a: TriAlgebra, s: Subspace) -> bool:
    s, full = as_subspace(a, s), Subspace.full(a.field, a.dim)
    return all(s.contains(product_subspace(a, x, y)) for x, y in ((full, s), (s, full)))


class QuotientAlgebra(NamedTuple):
    """Quotient by an ideal with its projection and a canonical section.

    ``projection`` maps parent coordinates to quotient coordinates;
    ``section`` embeds the quotient back along the pivot-completion
    complement, so ``projection @ section`` is the identity.
    """

    algebra: TriAlgebra
    projection: Matrix
    section: Matrix


def quotient_algebra(a: TriAlgebra, ideal) -> QuotientAlgebra:
    space = as_subspace(a, ideal)
    if not is_ideal(a, space):
        raise NotAnIdealError("subspace is not an ideal of the algebra")
    full = Subspace.full(a.field, a.dim)
    comp = space.complement_in(full)
    coords = _complement_coordinates(space, comp, full)
    quot = _transport(a, comp.basis, coords, None)
    return QuotientAlgebra(quot, coords.transpose(), comp.basis.transpose())


def _transport(a: TriAlgebra, rows: Matrix, to_coords: Matrix, name: str | None) -> TriAlgebra:
    """The algebra whose basis vector r stands for row r of ``rows``, a
    vector of ``a``: e_r op e_s has the coordinates ``(row r op row s) @
    to_coords``."""
    n = rows.rows
    coords = _scalar_rows(_product_matrix(a._cleared_products(), a.dim, rows, rows) @ to_coords)
    products = {op: {} for op in OPS}
    for idx, entries in enumerate(coords):
        o, rs = divmod(idx, n * n)
        products[OPS[o]][divmod(rs, n)] = entries
    return TriAlgebra(n, a.field, products, name=name)


def hom_to_field(a: TriAlgebra) -> Subspace:
    """Hom(L, F): the linear forms on L that vanish on the derived
    subalgebra, as the annihilator of L'; memoised on the algebra."""
    return a._memo("hom_to_field", lambda: a.derived().annihilator())


class BoundReport(NamedTuple):
    """Dimension-bound check for an algebra, optionally as part of a
    defining pair (total algebra, central kernel inside the derived
    subalgebra)."""

    dim: int
    central_quotient_dim: int
    derived_dim: int
    derived_bound: int
    derived_ok: bool
    pair_base_dim: int | None = None
    total_bound: int | None = None
    total_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.derived_ok and (self.total_ok is not False)


def check_dim_bounds(a: TriAlgebra, pair_kernel=None) -> BoundReport:
    """Check dim L' <= 3 m^2 for m = dim(L/Z(L)); with a recorded defining
    pair kernel, also check dim L <= d(3d+1) for d the base dimension."""
    m = a.dim - a.center().dim
    derived_dim = a.derived().dim
    derived_bound = 3 * m * m
    pair_base_dim = None
    total_bound = None
    total_ok = None
    if pair_kernel is not None:
        ker = as_subspace(a, pair_kernel)
        pair_base_dim = a.dim - ker.dim
        total_bound = pair_base_dim * (3 * pair_base_dim + 1)
        total_ok = a.dim <= total_bound
    return BoundReport(
        dim=a.dim,
        central_quotient_dim=m,
        derived_dim=derived_dim,
        derived_bound=derived_bound,
        derived_ok=derived_dim <= derived_bound,
        pair_base_dim=pair_base_dim,
        total_bound=total_bound,
        total_ok=total_ok,
    )


BOUND_FORMULAS = (
    ("lie", lambda n: n * (n - 1) // 2, lambda n: n * (n + 1) // 2),
    ("leibniz", lambda n: n * n, lambda n: n * (n + 1)),
    ("associative", lambda n: n * n, lambda n: n * (n + 1)),
    ("diassociative", lambda n: 2 * n * n, lambda n: n * (2 * n + 1)),
    ("triassociative", lambda n: 3 * n * n, lambda n: n * (3 * n + 1)),
)


def dimension_bound_table(n_max: int) -> list[tuple[str, int, int, int]]:
    """Rows (class, n, derived bound, defining-pair bound) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for cls_name, d_formula, k_formula in BOUND_FORMULAS:
        for n in range(1, n_max + 1):
            rows.append((cls_name, n, d_formula(n), k_formula(n)))
    return rows


def change_basis(a: TriAlgebra, p: Matrix) -> TriAlgebra:
    """Re-express the algebra in the basis whose i-th vector is row i of ``p``."""
    if p.rows != a.dim or p.cols != a.dim:
        raise ValueError("basis matrix must be square of the algebra dimension")
    check_same_field(p.field, a.field)
    return _transport(a, p, inverse(p), a.name)  # a row x of old coordinates is x @ p^-1 in new ones
