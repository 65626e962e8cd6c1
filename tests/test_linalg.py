import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg.fields import GF, QQ, FieldMismatchError
from trialg.linalg import (
    ContainmentError,
    Matrix,
    Subspace,
    inverse,
    kernel,
    random_combination,
    rank,
    rref,
    solve_right,
)

from oracles import (
    dense_complement,
    dense_kernel,
    dense_matmul,
    dense_matvec,
    dense_residual,
    dense_rref,
    dense_span,
    oracle_rank,
)


def mk(rows, field=QQ):
    return Matrix(field, rows)


# ---------------------------------------------------------------- rref


def test_rref_identity_already_reduced():
    m = Matrix.identity(QQ, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_single_dependent_row():
    red, pivots = rref(mk([[2, 4], [1, 2]]))
    assert red.data == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))
    assert pivots == (0,)


def test_rref_rank_matches_fraction_free_oracle():
    rng = random.Random(7)
    for trial in range(25):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)] for _ in range(5)]
        m = mk(rows)
        assert rank(m) == oracle_rank(QQ, rows), f"trial {trial}"


def test_rref_rank_matches_oracle_mod_p():
    f5 = GF(5)
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randrange(5) for _ in range(6)] for _ in range(4)]
        m = Matrix(f5, rows)
        assert rank(m) == oracle_rank(f5, rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rref_idempotent(rows):
    m = mk(rows)
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red2 == red
    assert pivots2 == pivots


def test_field_mismatch_rejected():
    a = Matrix(QQ, [[1, 0]])
    b = Matrix(GF(5), [[1, 0]])
    with pytest.raises(FieldMismatchError):
        a.vstack(b)
    with pytest.raises(FieldMismatchError):
        a @ b.transpose()


# ---------------------------------------------------------------- kernel


def test_kernel_zero_matrix_is_full_space():
    ker = kernel(Matrix.zeros(QQ, 2, 3))
    assert ker == Subspace.full(QQ, 3)


def test_kernel_identity_is_zero_space():
    for n in (1, 2, 4):
        assert kernel(Matrix.identity(QQ, n)) == Subspace.zero(QQ, n)


def test_kernel_multiply_back_and_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(6)]
        m = mk(rows)
        ker = kernel(m)
        assert ker.dim == 4 - rank(m)
        for v in ker.basis_rows():
            assert all(not x for x in m.matvec(v))


# ------------------------------------------------------------- subspaces


def test_subspace_canonicity_under_row_mixing():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        s = Subspace.from_rows(QQ, 5, rows)
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i == j:
                continue
            c = Fraction(rng.randint(-2, 2))
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        assert Subspace.from_rows(QQ, 5, mixed) == s


def test_complement_of_line_is_forced():
    e2 = Subspace.from_rows(QQ, 2, [[0, 1]])
    comp = e2.complement_in(Subspace.full(QQ, 2))
    assert comp == Subspace.from_rows(QQ, 2, [[1, 0]])


def test_intersection_of_skew_lines_is_zero():
    a = Subspace.from_rows(QQ, 2, [[1, 1]])
    b = Subspace.from_rows(QQ, 2, [[1, 0]])
    assert a.intersection(b) == Subspace.zero(QQ, 2)


def test_dimension_formula_random_sweep():
    rng = random.Random(4)
    for _ in range(30):
        ra = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(rng.randint(0, 3))]
        rb = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(rng.randint(0, 3))]
        a = Subspace.from_rows(QQ, 4, ra)
        b = Subspace.from_rows(QQ, 4, rb)
        joint = oracle_rank(QQ, ra + rb) if ra + rb else 0
        assert a.plus(b).dim == joint
        assert a.dim + b.dim == a.plus(b).dim + a.intersection(b).dim


def test_complement_gives_direct_sum():
    rng = random.Random(9)
    for _ in range(20):
        rows_b = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)]
        b = Subspace.from_rows(QQ, 5, rows_b)
        if b.dim == 0:
            continue
        take = rng.randint(0, b.dim)
        a = Subspace.from_rows(QQ, 5, b.basis.data[:take])
        comp = a.complement_in(b)
        assert a.plus(comp) == b
        assert a.intersection(comp) == Subspace.zero(QQ, 5)


def test_complement_requires_containment():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(QQ, 2, [[0, 1]])
    with pytest.raises(ContainmentError):
        a.complement_in(b)


def test_quotient_coordinates_kill_exactly_the_subspace():
    rng = random.Random(17)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
        a = Subspace.from_rows(QQ, 4, rows)
        full = Subspace.full(QQ, 4)
        q = a.quotient_map(full)
        assert q.rows == 4 - a.dim
        for v in a.basis_rows():
            assert all(not x for x in q.matvec(v))
        assert rank(q) == q.rows


def test_coordinates_roundtrip():
    s = Subspace.from_rows(QQ, 3, [[1, 2, 0], [0, 0, 1]])
    v = (Fraction(2), Fraction(4), Fraction(-1))
    coords = s.coordinates(v)
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coords, s.basis_rows()):
        rebuilt = [r + c * x for r, x in zip(rebuilt, row)]
    assert tuple(rebuilt) == v
    with pytest.raises(ValueError):
        s.coordinates((1, 0, 0))


@pytest.mark.parametrize("v", [(1, 2), (1, 2, 0, 0)])
def test_vectors_of_the_wrong_length_are_rejected_alike(v):
    s = Subspace.from_rows(QQ, 3, [[1, 2, 0], [0, 0, 1]])
    for method in (s.coordinates, s.reduce_vector, s.contains_vector):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            method(v)


# ------------------------------------------------------------- solvers


def test_inverse_and_solve():
    m = mk([[2, 1], [1, 1]])
    inv = inverse(m)
    assert m @ inv == Matrix.identity(QQ, 2)
    rhs = mk([[1], [0]])
    x = solve_right(m, rhs)
    assert m @ x == rhs


def test_subspace_ops_over_prime_field():
    f5 = GF(5)
    a = Subspace.from_rows(f5, 3, [[1, 2, 0], [0, 1, 4]])
    b = Subspace.from_rows(f5, 3, [[1, 0, 0]])
    total = a.plus(b)
    inter = a.intersection(b)
    assert a.dim + b.dim == total.dim + inter.dim
    comp = b.complement_in(total) if total.contains(b) else None
    if comp is not None:
        assert b.plus(comp) == total


# ------------------------------------- sparse kernel vs dense reference


SMALL_SCALARS = {
    QQ: st.fractions(min_value=-3, max_value=3, max_denominator=3),
    GF(7): st.integers(0, 6),
}

# Numerators up to 10^6 over denominators up to 97, and a 61-bit prime:
# negative leads, row contents above 1 and coefficient growth.
MERSENNE_61 = GF(2**61 - 1)
WIDE_SCALARS = {
    QQ: st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97)),
    MERSENNE_61: st.integers(0, 2**61 - 2),
}


@st.composite
def field_matrices(draw, scalars=SMALL_SCALARS):
    """A field, a column count and coerced rows: dense or sparse, with zero
    rows and columns, empty shapes, and rows that are combinations of others."""
    field = draw(st.sampled_from(list(scalars)))
    ncols = draw(st.integers(0, 8))
    nrows = draw(st.integers(0, 7))
    scalar = scalars[field]
    rows = [[field.zero] * ncols for _ in range(nrows)]
    if draw(st.booleans()):
        for row in rows:
            row[:] = [field.coerce(x) for x in draw(st.lists(scalar, min_size=ncols, max_size=ncols))]
    elif nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), scalar)
        for i, j, x in draw(st.lists(cells, max_size=2 * ncols)):
            rows[i][j] = field.coerce(x)
    if nrows:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            c = field.coerce(draw(scalar))
            rows.append([field.coerce(x + c * y) for x, y in zip(rows[a], rows[b])])
    return field, ncols, rows


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_sparse_rref_and_kernel_match_dense_reference(case):
    field, ncols, rows = case
    m = Matrix(field, rows, cols=ncols)
    red, pivots = rref(m)
    assert (red.data, pivots) == dense_rref(field, rows, ncols)
    assert red.rows == m.rows and red.cols == ncols
    span = Subspace.from_rows(field, ncols, rows)
    assert (span.basis.data, span.pivots) == dense_span(field, rows, ncols)
    ker = kernel(m)
    assert (ker.basis.data, ker.pivots) == dense_kernel(field, rows, ncols)
    for v in rows + [list(r) for r in ker.basis_rows()]:
        assert span.reduce_vector(v) == dense_residual(field, span.basis.data, span.pivots, v)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.data())
def test_complement_matches_repeated_span_definition(case, data):
    field, ncols, rows = case
    sup = Subspace.from_rows(field, ncols, rows)
    coeffs = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=sup.dim, max_size=sup.dim),
                                max_size=3))
    sub_rows = [
        [field.coerce(sum(field.coerce(c) * r[j] for c, r in zip(cs, sup.basis_rows())))
         for j in range(ncols)]
        for cs in coeffs
    ]
    sub = Subspace.from_rows(field, ncols, sub_rows)
    comp = sub.complement_in(sup)
    assert (comp.basis.data, comp.pivots) == dense_complement(
        field, sub.basis_rows(), sup.basis_rows(), ncols
    )
    assert comp == Subspace.from_rows(field, ncols, comp.basis_rows())
    assert sub.plus(comp) == sup


@settings(max_examples=150, deadline=None)
@given(field_matrices(WIDE_SCALARS), st.data())
def test_wide_coefficients_match_dense_reference(case, data):
    field, ncols, rows = case
    scalar = WIDE_SCALARS[field]
    m = Matrix(field, rows, cols=ncols)
    red, pivots = rref(m)
    assert (red.data, pivots) == dense_rref(field, rows, ncols)
    ker = kernel(m)
    assert (ker.basis.data, ker.pivots) == dense_kernel(field, rows, ncols)
    sup = Subspace.from_rows(field, ncols, rows)
    probes = [[field.coerce(data.draw(scalar)) for _ in range(ncols)] for _ in range(2)]
    for v in rows + probes:
        assert sup.reduce_vector(v) == dense_residual(field, sup.basis.data, sup.pivots, v)
    coeffs = data.draw(st.lists(st.lists(scalar, min_size=sup.dim, max_size=sup.dim), max_size=3))
    sub_rows = [
        [field.coerce(sum(field.coerce(c) * r[j] for c, r in zip(cs, sup.basis_rows())))
         for j in range(ncols)]
        for cs in coeffs
    ]
    sub = Subspace.from_rows(field, ncols, sub_rows)
    comp = sub.complement_in(sup)
    assert (comp.basis.data, comp.pivots) == dense_complement(
        field, sub.basis_rows(), sup.basis_rows(), ncols
    )


def _sparse_twin(field, rows, ncols, scale):
    """The same matrix in the package's sparse form: each row's nonzero
    entries as ints over a denominator, here ``scale`` times the lcm of
    their denominators over Q (1 over F_p, residues as they are)."""
    out = []
    for row in rows:
        entries = {j: x for j, x in enumerate(row) if x}
        if isinstance(field.zero, Fraction):
            d = scale * lcm(*[x.denominator for x in entries.values()])
            entries = {j: int(x * d) for j, x in entries.items()}
        else:
            d = 1
        out.append((entries, d))
    return Matrix._from_ints(field, tuple(out), ncols)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.integers(1, 6), st.integers(1, 6), st.booleans())
def test_sparse_matrix_behaves_like_its_dense_twin(case, scale, other_scale, zero_row):
    field, ncols, rows = case
    if zero_row:
        rows = rows + [[field.zero] * ncols]
    data = tuple(map(tuple, rows))
    columns = tuple(zip(*data)) if data else ((),) * ncols
    dense = Matrix(field, rows, cols=ncols)
    sparse = _sparse_twin(field, rows, ncols, scale)
    twin = _sparse_twin(field, rows, ncols, other_scale)
    assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols)
    assert hash(sparse) == hash(dense) == hash(twin)
    assert sparse == dense and dense == sparse and sparse == twin
    assert sparse.data == dense.data == data
    assert [sparse.row(i) for i in range(len(rows))] == list(data)
    assert [sparse.column(j) for j in range(ncols)] == list(columns)
    assert sparse.is_zero() == (not any(x for row in rows for x in row))
    assert sparse.transpose() == dense.transpose() and sparse.transpose().data == columns
    assert (sparse @ twin.transpose()).data == dense_matmul(field, data, columns, len(rows))
    assert (twin.transpose() @ sparse).data == dense_matmul(field, columns, data, ncols)
    for v in data:
        assert sparse.matvec(v) == dense_matvec(field, data, v)
    assert sparse.hstack(twin).data == tuple(row + row for row in data)
    assert sparse.vstack(twin).data == data + data
    assert sparse.vstack(twin) == dense.vstack(dense)
    assert rref(_sparse_twin(field, rows, ncols, scale)) == rref(dense)
    ker, dense_ker = kernel(_sparse_twin(field, rows, ncols, scale)), kernel(dense)
    assert (ker.basis.data, ker.pivots) == (dense_ker.basis.data, dense_ker.pivots)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.data())
def test_subspace_equality_is_equality_of_spans(case, data):
    field, ncols, rows = case
    a = Subspace.from_rows(field, ncols, rows)
    # The same span from negated basis rows in reverse order.
    negated = [[field.coerce(-x) for x in row] for row in reversed(a.basis_rows())]
    same = Subspace.from_rows(field, ncols, negated)
    assert same == a and hash(same) == hash(a)
    part = Subspace.from_rows(field, ncols, rows[: data.draw(st.integers(0, len(rows)))])
    assert (part == a) == (part.dim == a.dim)
    # A different span with the same pivots: move the first basis row at a
    # free column right of its pivot.
    free = [j for j in range(ncols) if j not in a.pivots]
    if a.dim and free and free[-1] > a.pivots[0]:
        moved = [list(row) for row in a.basis_rows()]
        moved[0][free[-1]] = field.coerce(moved[0][free[-1]] + 1)
        other = Subspace.from_rows(field, ncols, moved)
        assert other.pivots == a.pivots and other != a and a != other
    # Every constructor stores the same echelon map as a span of its rows.
    full = Subspace.full(field, ncols)
    identity = [[field.one if i == j else field.zero for j in range(ncols)] for i in range(ncols)]
    built = [
        (full, Subspace.from_rows(field, ncols, identity)),
        (Subspace.zero(field, ncols), Subspace.from_rows(field, ncols, [])),
    ]
    for sub in (a.complement_in(full), kernel(Matrix(field, rows, cols=ncols))):
        built.append((sub, Subspace.from_rows(field, ncols, sub.basis_rows())))
    for sub, span in built:
        assert sub == span and span == sub and hash(sub) == hash(span)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.integers(0, 2**32))
def test_random_combination_draws_one_scalar_per_row(case, seed):
    field, ncols, rows = case
    rng = random.Random(seed)
    combo = random_combination(rng, Matrix(field, rows, cols=ncols))
    replay = random.Random(seed)
    coeffs = [field.random_scalar(replay) for _ in rows]
    assert rng.getstate() == replay.getstate()
    if not any(coeffs):
        assert combo is None
    else:
        expected = [field.zero] * ncols
        for c, row in zip(coeffs, rows):
            expected = [field.coerce(a + c * x) for a, x in zip(expected, row)]
        assert combo.data == (tuple(expected),)


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.data())
def test_plus_is_span_of_stacked_bases(case, data):
    field, ncols, rows = case
    cut = data.draw(st.integers(0, len(rows)))
    kinds = st.sampled_from(["rows", "full", "zero"])

    def operand(kind, part):
        if kind == "full":
            return Subspace.full(field, ncols)
        if kind == "zero":
            return Subspace.zero(field, ncols)
        return Subspace.from_rows(field, ncols, part)

    a = operand(data.draw(kinds), rows[:cut])
    b = operand(data.draw(kinds), rows[cut:])
    total = a.plus(b)
    expected = Subspace.from_rows(field, ncols, list(a.basis_rows()) + list(b.basis_rows()))
    assert total == expected
    assert total.pivots == expected.pivots
