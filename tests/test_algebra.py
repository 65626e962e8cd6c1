import random
from fractions import Fraction

import pytest

from trialg.algebra import (
    AlgSubspace,
    DASHV,
    IDENTITIES,
    MalformedAlgebraError,
    NotAnIdealError,
    OPS,
    PERP,
    TriAlgebra,
    VDASH,
    _product_matrix,
    change_basis,
    check_dim_bounds,
    dimension_bound_table,
    hom_to_field,
    is_ideal,
    product_subspace,
    quotient_algebra,
)
from trialg.cohomology import h2
from trialg.extensions import cover
from trialg.fields import GF, QQ
from trialg.generators import (
    abelian,
    cover_abelian,
    dim2_single_product,
    random_extension,
    unital_dim1,
)
from trialg.linalg import Matrix, Subspace, random_invertible

from oracles import (
    dense_change_basis,
    dense_kernel,
    dense_product_subspace,
    dense_quotient_algebra,
    direct_identity_defects,
    from_tensors,
    multiply,
    product_vector,
    random_valid_algebra,
    tensor,
    unit_vector,
)


# ------------------------------------------------------------ validation


def test_identity_table_shape():
    assert len(IDENTITIES) == 11
    assert IDENTITIES[0] == (VDASH, VDASH, VDASH, VDASH)
    assert IDENTITIES[10] == (PERP, PERP, PERP, PERP)


def test_abelian_passes(small_corpus):
    assert abelian(3).axiom_report().ok


def test_example_cover_passes(example_cover_1):
    # dim 4: x with x|-x, x-|x, x_|_x hitting three central generators
    report = example_cover_1.axiom_report()
    assert report.ok
    assert example_cover_1.dim == 4


def test_single_vdash_product_fails_axiom_1():
    # e0 |- e1 = e0 breaks (x |- y) |- z = x |- (y |- z) at (e0, e1, e1)
    a = TriAlgebra(2, QQ, {VDASH: {(0, 1): {0: 1}}})
    report = a.axiom_report()
    assert not report.ok
    assert 1 in {v.axiom for v in report.violations}
    v = next(v for v in report.violations if v.axiom == 1)
    assert v.triple == (0, 1, 1)
    assert v.defect == (Fraction(1), Fraction(0))


def test_axiom_report_matches_direct_evaluation_oracle(random_corpus):
    rng = random.Random(99)
    algebras = list(random_corpus)
    # adversarial non-algebras as well
    for _ in range(6):
        n = rng.randint(1, 3)
        products = {}
        for op in OPS:
            table = {}
            for _ in range(rng.randint(0, 3)):
                i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                table[(i, j)] = {k: Fraction(rng.randint(-2, 2))}
            products[op] = table
        algebras.append(TriAlgebra(n, QQ, products))
    for alg in algebras:
        expected = {(v_idx, triple) for v_idx, triple, _ in direct_identity_defects(alg)}
        got = {(v.axiom, v.triple) for v in alg.axiom_report().violations}
        assert got == expected


@pytest.mark.parametrize("field", [QQ, GF(11)])
def test_axiom_defect_values_match_direct_evaluation(field):
    """Full defect vectors, not just their positions, on constants with
    denominators 2..9: random non-algebras and rebased valid algebras, each
    also with one constant perturbed."""
    rng = random.Random(2718)
    algebras = []
    for _ in range(6):
        n = rng.randint(1, 3)
        products = {
            op: {
                (rng.randrange(n), rng.randrange(n)): {
                    rng.randrange(n): field.from_quotient(rng.choice([-7, -3, -1, 1, 2, 5]),
                                                          rng.choice([2, 3, 4, 9]))
                }
                for _ in range(rng.randint(0, 3))
            }
            for op in OPS
        }
        algebras.append(TriAlgebra(n, field, products))
    for _ in range(4):
        alg = random_valid_algebra(rng, field, max_dim=4)
        alg = change_basis(alg, random_invertible(rng, alg.dim, field))
        algebras.append(alg)
        products = {op: {key: dict(vec) for key, vec in alg.products[op].items()} for op in OPS}
        vec = products[VDASH].setdefault((0, 0), {})
        vec[0] = field.coerce(vec.get(0, field.zero) + field.from_quotient(1, 3))
        algebras.append(TriAlgebra(alg.dim, field, products))
    fractional = 0
    for alg in algebras:
        got = [(v.axiom, v.triple, v.defect) for v in alg.axiom_report().violations]
        assert got == direct_identity_defects(alg)
        fractional += sum(1 for _, _, d in got for x in d if field is QQ and x.denominator > 1)
    assert fractional > 0 or field is not QQ


def test_malformed_rejected():
    with pytest.raises(MalformedAlgebraError):
        TriAlgebra(2, QQ, {VDASH: {(0, 2): {0: 1}}})
    with pytest.raises(MalformedAlgebraError):
        TriAlgebra(2, QQ, {VDASH: {(0, 0): [1, 2, 3]}})
    with pytest.raises(MalformedAlgebraError):
        TriAlgebra(2, QQ, {"star": {(0, 0): {0: 1}}})


def test_from_tensors_roundtrip(dim2):
    tensors = {op: tensor(dim2, op) for op in OPS}
    rebuilt = from_tensors(QQ, tensors)
    assert rebuilt == dim2


# ------------------------------------------------------------ multiply


def test_multiply_abelian_is_zero():
    a = abelian(3)
    x = (Fraction(1), Fraction(2), Fraction(3))
    for op in OPS:
        assert multiply(a, x, x, op) == (Fraction(0),) * 3


def test_multiply_example_cover(example_cover_1):
    x = unit_vector(QQ, 4, 0)
    assert multiply(example_cover_1, x, x, VDASH) == unit_vector(QQ, 4, 1)
    assert multiply(example_cover_1, x, x, DASHV) == unit_vector(QQ, 4, 2)
    assert multiply(example_cover_1, x, x, PERP) == unit_vector(QQ, 4, 3)


def test_multiply_bilinear(dim2):
    f = QQ
    x = (Fraction(2), Fraction(1))
    y = (Fraction(1), Fraction(-1))
    z = (Fraction(3), Fraction(5))
    for op in OPS:
        two_x = tuple(f.coerce(2 * c) for c in x)
        y_plus_z = tuple(f.coerce(a + b) for a, b in zip(y, z))
        left = multiply(dim2, two_x, y_plus_z, op)
        right = tuple(f.coerce(2 * a + 2 * b) for a, b in zip(multiply(dim2, x, y, op), multiply(dim2, x, z, op)))
        assert left == right


# ----------------------------------------------------- derived / center


def test_product_subspace_examples(dim2, example_cover_1):
    zero = AlgSubspace(dim2, Subspace.zero(QQ, 2))
    assert product_subspace(zero, dim2.full_subspace()).dim == 0

    full_k = example_cover_1.full_subspace()
    kk = product_subspace(full_k, full_k)
    assert kk.space == Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    dd = product_subspace(dim2.full_subspace(), dim2.full_subspace())
    assert dd.space == Subspace.from_rows(QQ, 2, [[0, 1]])


def test_derived_enumeration_oracle(dim2):
    # enumerate all 3 * n^2 basis products by hand
    rows = []
    for op in OPS:
        for i in range(2):
            for j in range(2):
                rows.append(
                    multiply(dim2, unit_vector(QQ, 2, i), unit_vector(QQ, 2, j), op)
                )
    assert dim2.derived().space == Subspace.from_rows(QQ, 2, rows)


def test_center_examples(dim2, example_cover_1):
    assert abelian(3).center().space == Subspace.full(QQ, 3)
    assert example_cover_1.center().dim == 3
    assert example_cover_1.center().space == example_cover_1.derived().space
    assert dim2.center().space == Subspace.from_rows(QQ, 2, [[0, 1]])
    assert unital_dim1().center().dim == 0


def test_derived_in_kernel_for_central_extension_of_abelian():
    from trialg.generators import random_extension

    ext = random_extension(abelian(2), 2, seed=5)
    kernel_space = ext.kernel.space
    assert kernel_space.contains(ext.total.derived().space)


def test_is_ideal(dim2, small_corpus):
    assert is_ideal(AlgSubspace(dim2, Subspace.from_rows(QQ, 2, [[0, 1]])))
    assert not is_ideal(AlgSubspace(dim2, Subspace.from_rows(QQ, 2, [[1, 0]])))
    for alg in small_corpus:
        assert is_ideal(alg.center())
        assert is_ideal(alg.derived())


def test_alg_subspace_replace_checks_like_the_constructor(dim2, example_cover_1):
    z = dim2.center()
    assert z._replace(space=dim2.full_subspace().space).dim == 2
    with pytest.raises(ValueError, match="ambient dimension"):
        z._replace(parent=example_cover_1)


def test_product_subspace_monotone(random_corpus):
    rng = random.Random(31)
    for alg in random_corpus[:6]:
        n = alg.dim
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(2)]
        small = AlgSubspace(alg, Subspace.from_rows(QQ, n, rows[:1]))
        big = AlgSubspace(alg, Subspace.from_rows(QQ, n, rows))
        lhs = product_subspace(small, small)
        rhs = product_subspace(big, big)
        assert rhs.space.contains(lhs.space)


# ------------------------------------------------------------ quotients


def test_quotient_example_cover_by_kernel(example_cover_1):
    ideal = AlgSubspace(example_cover_1, Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    quot = quotient_algebra(example_cover_1, ideal)
    assert quot.algebra.dim == 1
    assert all(not quot.algebra.products[op] for op in OPS)
    assert quot.algebra.axiom_report().ok


def test_quotient_by_zero_ideal_is_same_algebra(dim2):
    quot = quotient_algebra(dim2, Subspace.zero(QQ, 2))
    assert quot.algebra == dim2


def test_quotient_dim2_by_derived(dim2):
    quot = quotient_algebra(dim2, dim2.derived())
    assert quot.algebra.dim == 1
    assert all(not quot.algebra.products[op] for op in OPS)


def test_quotient_requires_ideal(dim2):
    with pytest.raises(NotAnIdealError):
        quotient_algebra(dim2, Subspace.from_rows(QQ, 2, [[1, 0]]))


def test_quotient_projection_section_consistency(random_corpus):
    for alg in random_corpus[:6]:
        ideal = alg.center()
        quot = quotient_algebra(alg, ideal)
        q = quot.algebra.dim
        prod = quot.projection @ quot.section
        from trialg.linalg import Matrix

        assert prod == Matrix.identity(QQ, q)
        assert quot.algebra.axiom_report().ok


# ---------------------------------------------------------------- homs


def test_hom_to_field_dims(dim2, example_cover_1):
    assert hom_to_field(abelian(4)).dim == 4
    assert hom_to_field(abelian(2)).dim == 2
    assert hom_to_field(dim2).dim == 1
    assert hom_to_field(example_cover_1).dim == 1


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_hom_to_field_is_span_of_block_rows(field):
    """Hom(L, F) is the one block of forms that vanish on every product
    e_i op e_j, in canonical form, and is memoised."""
    rng = random.Random(5)
    corpus = [random_valid_algebra(rng, field, max_dim=5) for _ in range(4)] + [abelian(2, field)]
    for alg in corpus:
        n = alg.dim
        products = [product_vector(alg, op, i, j) for op in OPS for i in range(n) for j in range(n)]
        hom = hom_to_field(alg)
        assert (hom.basis.data, hom.pivots) == dense_kernel(field, products, n)
        assert hom.dim == n - alg.derived().space.dim
        assert hom_to_field(alg) is hom


# --------------------------------------------------------------- bounds


def test_bounds_tight_on_example_cover(example_cover_1):
    rep = check_dim_bounds(example_cover_1)
    assert rep.central_quotient_dim == 1
    assert rep.derived_dim == 3 == rep.derived_bound
    assert rep.ok
    kernel = AlgSubspace(example_cover_1, Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    rep2 = check_dim_bounds(example_cover_1, pair_kernel=kernel)
    assert rep2.pair_base_dim == 1
    assert rep2.total_bound == 4 == example_cover_1.dim
    assert rep2.ok


def test_bounds_abelian():
    rep = check_dim_bounds(abelian(3))
    assert rep.central_quotient_dim == 0
    assert rep.derived_dim == 0 == rep.derived_bound
    assert rep.ok


def test_bounds_random_sweep(random_corpus):
    for alg in random_corpus:
        assert check_dim_bounds(alg).ok


def test_bound_table_values():
    rows = {(cls, n): (d, k) for cls, n, d, k in dimension_bound_table(2)}
    assert rows[("triassociative", 1)] == (3, 4)
    assert rows[("triassociative", 2)] == (12, 14)
    assert rows[("lie", 1)] == (0, 1)
    assert rows[("diassociative", 2)] == (8, 10)
    assert rows[("leibniz", 2)] == rows[("associative", 2)] == (4, 6)


# ----------------------------------------------- structural invariants


def _associativity_defects(alg, op):
    n = alg.dim
    basis = [unit_vector(alg.field, n, i) for i in range(n)]
    bad = []
    for i in range(n):
        for j in range(n):
            for l in range(n):  # noqa: E741
                lhs = multiply(alg, multiply(alg, basis[i], basis[j], op), basis[l], op)
                rhs = multiply(alg, basis[i], multiply(alg, basis[j], basis[l], op), op)
                if lhs != rhs:
                    bad.append((i, j, l))
    return bad


def test_each_product_is_associative_and_pair_is_diassociative(random_corpus):
    # the first five identities are exactly the two-product (|-, -|) axioms
    dialg_identities = IDENTITIES[:5]
    assert all(PERP not in ident for ident in dialg_identities)
    for alg in random_corpus:
        for op in OPS:
            assert not _associativity_defects(alg, op)


def test_basis_change_invariance(dim2, example_cover_1):
    rng = random.Random(23)
    for alg in (dim2, example_cover_1):
        p = random_invertible(rng, alg.dim, QQ)
        moved = change_basis(alg, p)
        assert moved.axiom_report().ok
        assert moved.center().dim == alg.center().dim
        assert moved.derived().dim == alg.derived().dim
        assert h2(moved).h2_dim == h2(alg).h2_dim


def test_basis_change_over_prime_field():
    f5 = GF(5)
    alg = dim2_single_product(f5)
    rng = random.Random(29)
    p = random_invertible(rng, 2, f5)
    moved = change_basis(alg, p)
    assert moved.axiom_report().ok
    assert moved.derived().dim == 1


def test_random_valid_algebra_sweep():
    rng = random.Random(77)
    for _ in range(10):
        alg = random_valid_algebra(rng, QQ, max_dim=6)
        assert alg.axiom_report().ok
        assert alg.dim <= 6


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_product_matrix_rows_are_the_dense_products(field):
    """Row (op, r, s) of the bilinear kernel at an algebra's cleared tables
    is ``multiply(a, u_r, v_s, op)``, on the algebras of the pull-back test:
    random rebasing rows (one of them zero), the unit rows, a side with no
    rows, and the images of the basis in the quotient by the center."""
    rng = random.Random(32)
    ext = random_extension(abelian(2, field), 2, seed=5).total
    rebased = change_basis(ext, random_invertible(rng, ext.dim, field))
    if field == QQ:
        assert rebased._cleared_products()[0] > 1
    checked = 0
    for a in (cover_abelian(1, field), ext, rebased):
        n = a.dim
        rebase = random_invertible(rng, n, field)
        with_zero = rebase.vstack(Matrix.zeros(field, 1, n))
        none = Matrix.zeros(field, 0, n)
        quot = quotient_algebra(a, a.center().space)
        images = quot.projection.transpose()  # row i: P e_i, on the quotient
        cases = [
            (a, with_zero, rebase),
            (a, rebase, Matrix.identity(field, n)),
            (a, none, with_zero),
            (a, with_zero, none),
            (quot.algebra, images, images),
        ]
        for b, us, vs in cases:
            got = _product_matrix(b._cleared_products(), b.dim, us, vs)
            assert (got.rows, got.cols) == (len(OPS) * us.rows * vs.rows, b.dim)
            assert got.data == tuple(multiply(b, u, v, op) for op in OPS for u in us.data for v in vs.data)
            checked += not got.is_zero()
    assert checked >= 6


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_products_quotients_and_rebasing_match_the_dense_constructions(field):
    """product_subspace, quotient_algebra and change_basis, built from the
    sparse product tables, equal the dense constructions through
    ``multiply`` on random valid, rebased and cover algebras."""
    rng = random.Random(31)
    valid = [random_valid_algebra(rng, field, max_dim=5) for _ in range(4)]
    valid.append(random_extension(abelian(2, field), 2, seed=3).total)
    rebased = [change_basis(a, random_invertible(rng, a.dim, field)) for a in valid[-3:]]
    covers = [cover(a).extension.total for a in (abelian(1, field), dim2_single_product(field))]
    quotients = 0
    for a in valid + rebased + covers:
        row = [field.coerce(rng.randint(-2, 2)) for _ in range(a.dim)]
        line = AlgSubspace(a, Subspace.from_rows(field, a.dim, [row]))
        spaces = [a.full_subspace(), AlgSubspace(a, Subspace.zero(field, a.dim)), a.derived(), a.center(), line]
        for s in spaces:
            for t in spaces:
                got, ref = product_subspace(s, t).space, dense_product_subspace(s, t)
                assert (got.basis.data, got.pivots) == (ref.basis.data, ref.pivots)
                assert got == ref
        for ideal in spaces:
            if not is_ideal(ideal):
                continue
            quot = quotient_algebra(a, ideal)
            ref_alg, ref_proj, ref_section = dense_quotient_algebra(a, ideal.space)
            assert quot.algebra == ref_alg and quot.algebra.name is None
            assert quot.projection.data == ref_proj
            assert quot.section.data == ref_section
            quotients += 1
        p = random_invertible(rng, a.dim, field)
        rebuilt, ref = change_basis(a, p), dense_change_basis(a, p.data)
        assert rebuilt == ref and rebuilt.name == a.name
    assert quotients >= 3 * len(valid + rebased + covers)
