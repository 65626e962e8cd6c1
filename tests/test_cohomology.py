import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg.algebra import DASHV, OPS, PERP, TriAlgebra, VDASH, change_basis, quotient_algebra
from trialg.cohomology import (
    CochainTriple,
    NotASectionError,
    _cocycle_rows,
    _pullback,
    b2_space,
    cocycle_defects,
    h2,
    section_cocycle,
    z2_space,
)
from trialg.extensions import build_central_extension, extension_algebra
from trialg.fields import GF, QQ
from trialg.generators import (
    abelian,
    cover_abelian,
    dim2_single_product,
    random_extension,
    unital_dim1,
)
from trialg.linalg import Matrix, Subspace, random_combination, random_invertible

from oracles import (
    canonical_section,
    dense_center_rows,
    dense_cocycle_defects,
    dense_cocycle_rows,
    dense_kernel,
    dense_matvec,
    dense_z2_dim,
    evaluate,
    random_valid_algebra,
    section_cocycle_of,
)


def random_cochain(base, k, rng, density=0.5):
    forms = {}
    for op in OPS:
        table = {}
        for i in range(base.dim):
            for j in range(base.dim):
                if rng.random() < density:
                    vec = [base.field.random_scalar(rng) for _ in range(k)]
                    if any(vec):
                        table[(i, j)] = vec
        forms[op] = table
    return CochainTriple(base, k, forms)


# ------------------------------------------------------------ z2 / b2


def test_z2_abelian_is_everything():
    for n in (1, 2, 3):
        assert z2_space(abelian(n)).dim == 3 * n * n
    assert 2 * z2_space(abelian(2)).dim == 24


def test_z2_dim2_hand_solved(dim2):
    # 12 unknowns; the system forces every value off (e0, e0) to vanish
    z2 = z2_space(dim2)
    assert z2.dim == 3
    expected = Subspace.from_rows(
        QQ,
        12,
        [
            [1 if c == 0 else 0 for c in range(12)],
            [1 if c == 4 else 0 for c in range(12)],
            [1 if c == 8 else 0 for c in range(12)],
        ],
    )
    assert z2 == expected


def test_z2_matches_dense_oracle(dim2, example_cover_1, random_corpus):
    for alg in [dim2, unital_dim1(), example_cover_1] + random_corpus[:4]:
        assert z2_space(alg).dim == dense_z2_dim(alg, 1)


def test_z2_coefficient_expansion_matches_dense_oracle(dim2):
    """Z^2(B, F^k) is k copies of Z^2(B, F), the fact ``h2 -k`` prints."""
    for alg in (dim2, unital_dim1()):
        for k in (2, 3):
            assert k * z2_space(alg).dim == dense_z2_dim(alg, k)


def test_z2_refuses_invalid_algebra():
    bad = TriAlgebra(2, QQ, {VDASH: {(0, 1): {0: 1}}})
    with pytest.raises(Exception):
        z2_space(bad)


def test_b2_examples(dim2):
    assert b2_space(abelian(2)).dim == 0
    b2 = b2_space(dim2)
    assert b2.dim == 1
    assert b2 == Subspace.from_rows(QQ, 12, [[1 if c == 0 else 0 for c in range(12)]])


def test_b2_contained_in_z2():
    rng = random.Random(808)
    for _ in range(50):
        alg = random_valid_algebra(rng, QQ, max_dim=5)
        assert z2_space(alg).contains(b2_space(alg))


# ------------------------------------------------------------------ h2


def test_h2_dims(dim2):
    assert h2(abelian(1)).h2_dim == 3
    for n in (1, 2, 3):
        assert h2(abelian(n)).h2_dim == 3 * n * n
    assert 2 * h2(abelian(2)).h2_dim == 24
    assert h2(dim2).h2_dim == 2
    assert h2(unital_dim1()).h2_dim == 0


def test_h2_reps_are_independent_mod_b2(dim2):
    res = h2(dim2)
    f, g = res.h2_reps
    assert not res.b2.contains_vector(f.sub(g).vectorize())
    assert res.b2.contains(res.z2) is False
    assert res.z2.contains(res.b2)


def test_h2_result_invariants(random_corpus):
    for alg in random_corpus[:6]:
        res = h2(alg)
        assert res.h2_dim == res.z2.dim - res.b2.dim
        assert len(res.h2_reps) == res.h2_dim
        for rep in res.h2_reps:
            vec = rep.vectorize()
            assert res.z2.contains_vector(vec)
            assert not res.b2.contains_vector(vec) or not any(vec)


def test_class_coordinates_vanish_on_coboundaries(dim2):
    res = h2(dim2)
    for row in res.b2.basis_rows():
        assert all(not c for c in res.class_coordinates(row))
    for idx, rep in enumerate(res.h2_reps):
        coords = res.class_coordinates(rep.vectorize())
        assert coords == tuple(
            QQ.one if t == idx else QQ.zero for t in range(res.h2_dim)
        )


def _combine(field, coeffs, rows, width):
    acc = [field.zero] * width
    for c, row in zip(coeffs, rows):
        acc = [field.coerce(a + c * x) for a, x in zip(acc, row)]
    return acc


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("k", [1])  # F-valued classes only; the cases keep their k = 1 ids
def test_class_coordinates_recover_representative_combinations(field, k):
    rng = random.Random(31 + k)
    corpus = [random_valid_algebra(rng, field, max_dim=4) for _ in range(4)]
    for alg in corpus + _rebased_extensions(field, 13)[:2]:
        res = h2(alg)
        width = res.z2.ambient_dim
        reps = [r.vectorize() for r in res.h2_reps]
        quotient = res.b2.quotient_map(res.z2)
        for _ in range(3):
            coeffs = tuple(field.random_scalar(rng) for _ in reps)
            shift = [field.random_scalar(rng) for _ in range(res.b2.dim)]
            vec = _combine(field, coeffs + tuple(shift), reps + list(res.b2.basis_rows()), width)
            assert res.class_coordinates(vec) == coeffs
            assert dense_matvec(field, quotient.data, vec) == coeffs
        outside = next((e for e in Matrix.identity(field, width).data
                        if not res.z2.contains_vector(e)), None)
        if outside is not None:
            with pytest.raises(ValueError):
                res.class_coordinates(outside)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("k", [1])  # F-valued classes only; the cases keep their k = 1 ids
def test_classes_of_sparse_rows_agree_with_class_of(field, k):
    """The sequence maps hand ``_classes`` a matrix of cochain rows, and
    ``class_of`` hands it one cochain's row.  They agree with each other
    and with ``class_coordinates`` of the dense vector on random cocycles,
    and all reject a cochain outside Z^2."""
    rng = random.Random(47 + k)
    corpus = [random_valid_algebra(rng, field, max_dim=3) for _ in range(2)]
    for alg in corpus + _rebased_extensions(field, 29):
        res = h2(alg)
        width = res.z2.ambient_dim
        cocycles = [CochainTriple(alg, k, {}), *res.h2_reps]
        for _ in range(4):
            combo = random_combination(rng, res.z2.basis)
            if combo is not None:
                cocycles.append(CochainTriple.from_vector(alg, k, combo.row(0)))
        classes = res._classes(reduce(Matrix.vstack, [c._rows for c in cocycles]))
        assert [classes.row(i) for i in range(len(cocycles))] == [res.class_of(c) for c in cocycles]
        assert all(res.class_coordinates(c.vectorize()) == res.class_of(c) for c in cocycles)
        if res.z2.dim == width:
            continue
        c = random_cochain(alg, k, rng)
        while res.z2.contains_vector(c.vectorize()):
            c = random_cochain(alg, k, rng)
        with pytest.raises(ValueError):
            res._classes(cocycles[-1]._rows.vstack(c._rows))
        with pytest.raises(ValueError):
            res.class_of(c)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("k", [1])  # F-valued classes only; the cases keep their k = 1 ids
def test_class_of_and_is_cohomologous_eliminate_on_rows(monkeypatch, field, k):
    """``class_of`` works on the cochains' rows: with the dense vector and
    the coercing ``Matrix`` constructor refused, it still places every
    representative and its coboundary shift in its class, and two cochains
    are cohomologous exactly when the class of their difference is zero."""
    alg = random_extension(abelian(2, field), 2, seed=3).total
    res = h2(alg)
    assert res.h2_dim >= 2 and res.b2.dim >= 1
    units = Matrix.identity(field, res.h2_dim).data
    b2_rows = res.b2.basis_rows()
    shifts = [  # rep + 2 b, for a coboundary row b
        CochainTriple.from_vector(alg, k, [x + 2 * y for x, y in zip(rep.vectorize(), b2_rows[i % len(b2_rows)])])
        for i, rep in enumerate(res.h2_reps)
    ]
    zero = CochainTriple(alg, k, {})

    def cohomologous(f, g):
        return not any(res.class_of(f.sub(g)))

    def refuse(*args, **kwargs):
        raise AssertionError("dense cochain path taken")

    monkeypatch.setattr(CochainTriple, "vectorize", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    for i, (rep, shift) in enumerate(zip(res.h2_reps, shifts)):
        assert res.class_of(rep) == res.class_of(shift) == units[i]
        assert cohomologous(rep, shift) and cohomologous(shift, rep)
        assert not cohomologous(shift, zero)
        assert not cohomologous(rep, res.h2_reps[i - 1])
    assert res.class_of(zero) == (field.zero,) * res.h2_dim
    assert cohomologous(shifts[0].sub(res.h2_reps[0]), zero)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("k", [0, 2, 3])
def test_class_of_refuses_a_cochain_that_is_not_f_valued(field, k):
    """H^2 classes are F-valued: a stack of k copies of a representative,
    each row a cocycle, has no class, not even that of its first row."""
    alg = dim2_single_product(field)
    res = h2(alg)
    with pytest.raises(ValueError):
        res.class_of(CochainTriple.stack(alg, [res.h2_reps[0]] * k))


# --------------------------------------------------------- the keystone


def test_cocycle_membership_iff_extension_validates(dim2, example_cover_1):
    rng = random.Random(12)
    for base in (abelian(2), dim2, example_cover_1):
        z2 = z2_space(base)
        checked_valid = 0
        checked_invalid = 0
        for trial in range(100):
            if trial % 3 == 0:
                vec = [QQ.zero] * z2.ambient_dim
                for row in z2.basis_rows():
                    c = QQ.random_scalar(rng)
                    if c:
                        vec = [a + c * b for a, b in zip(vec, row)]
                f = CochainTriple.from_vector(base, 1, vec)
            else:
                f = random_cochain(base, 1, rng)
            in_z2 = z2.contains_vector(f.vectorize())
            raw = extension_algebra(base, f)
            report = raw.axiom_report()
            assert in_z2 == report.ok
            defects = cocycle_defects(f)
            assert (not defects) == in_z2
            if in_z2:
                checked_valid += 1
            else:
                checked_invalid += 1
                assert {v.axiom for v in defects} == {v.axiom for v in report.violations}
                assert {(v.axiom, v.triple) for v in defects} == {
                    (v.axiom, v.triple) for v in report.violations
                }
        assert checked_valid > 5
        if base.products[VDASH] or base.products[DASHV] or base.products[PERP]:
            assert checked_invalid > 5


@pytest.mark.parametrize("field", [QQ, GF(11)])
def test_cocycle_defect_values_match_dense_rows(field):
    """Defect vectors of fractional cochains on rebased (dense, fractional)
    bases against the dense constraint rows times the cochain vector."""
    rng = random.Random(31)
    nonzero = 0
    for _ in range(8):
        base = random_valid_algebra(rng, field, max_dim=4)
        base = change_basis(base, random_invertible(rng, base.dim, field))
        k = rng.randint(1, 2)
        vec = [field.from_quotient(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
               for _ in range(3 * base.dim * base.dim * k)]
        f = CochainTriple.from_vector(base, k, vec)
        got = [(v.axiom, v.triple, v.defect) for v in cocycle_defects(f)]
        assert got == dense_cocycle_defects(f)
        nonzero += len(got)
    assert nonzero > 0


@pytest.mark.parametrize("k", [1, 2])
def test_fractional_cochain_defects_match_the_forced_extension(k):
    """Over Q, a cochain with non-unit denominators on a rebased base: its
    forced extension holds its vector in the last k coordinates, and its
    defects are the last k coordinates of that extension's violations, at
    the same (identity, triple), in the same order."""
    rng = random.Random(35)
    nonzero = 0
    for base in _rebased_extensions(QQ, 5)[:3]:
        vec = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7])) for _ in range(3 * base.dim**2 * k)]
        f = CochainTriple.from_vector(base, k, vec)
        assert f._rows._sparse[0][1] > 1
        total, n = extension_algebra(base, f), base.dim
        assert [total.products[op].get((i, j), {}).get(n + t, 0)
                for op in OPS for i in range(n) for j in range(n) for t in range(k)] == list(f.vectorize())
        report = total.axiom_report()
        got = [(v.axiom, v.triple, v.defect) for v in cocycle_defects(f)]
        assert got == [(v.axiom, v.triple, v.defect[n:]) for v in report.violations]
        nonzero += len(got)
    assert nonzero > 0


# ------------------------------------------------------ section cocycles


def _split_extension(base, k):
    zero = CochainTriple(base, k, {})
    return build_central_extension(base, k, zero)


def test_split_extension_subalgebra_section_gives_zero(dim2):
    ext = _split_extension(dim2, 2)
    mu = canonical_section(ext)
    f = section_cocycle(ext.total, dim2, ext.projection, ext.kernel, mu)
    assert all(not f.forms[op] for op in OPS)


def test_example_cover_pivot_section_values(example_cover_1):
    base = abelian(1)
    proj = Matrix(QQ, [[1, 0, 0, 0]])
    ker = Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    mu = Matrix(QQ, [[1], [0], [0], [0]])
    f = section_cocycle(example_cover_1, base, proj, ker, mu)
    assert f.forms[VDASH][(0, 0)] == (Fraction(1), Fraction(0), Fraction(0))
    assert f.forms[DASHV][(0, 0)] == (Fraction(0), Fraction(1), Fraction(0))
    assert f.forms[PERP][(0, 0)] == (Fraction(0), Fraction(0), Fraction(1))


def test_two_sections_differ_by_coboundary(dim2):
    rng = random.Random(8)
    res = h2(dim2)
    rep = res.h2_reps[0]
    ext = build_central_extension(dim2, 1, rep)
    mu = canonical_section(ext)
    f1 = section_cocycle_of(ext, mu)
    # shift the section by a random map into the kernel
    shift = Matrix(
        QQ,
        [
            [mu.data[r][c] + (Fraction(rng.randint(-2, 2)) if r == dim2.dim else Fraction(0))
             for c in range(dim2.dim)]
            for r in range(dim2.dim + 1)
        ],
    )
    f2 = section_cocycle_of(ext, shift)
    assert b2_space(dim2).contains_vector(f1.sub(f2).vectorize())
    assert z2_space(dim2).contains_vector(f1.vectorize())
    assert z2_space(dim2).contains_vector(f2.vectorize())


def test_section_cocycle_rejects_non_section(dim2):
    ext = _split_extension(dim2, 1)
    bad = Matrix(QQ, [[1, 0], [0, 0], [0, 0]])
    with pytest.raises(NotASectionError):
        section_cocycle_of(ext, bad)


def test_section_cocycle_class_is_the_original(dim2):
    # the section cocycle of a built extension is cohomologous to its cocycle
    res = h2(dim2)
    for rep in res.h2_reps:
        ext = build_central_extension(dim2, 1, rep)
        recovered = section_cocycle_of(ext)
        assert res.b2.contains_vector(recovered.sub(rep).vectorize())


# --------------------------------------------------------- cohomologous


def test_is_cohomologous_basics(dim2):
    res = h2(dim2)
    f = res.h2_reps[0]
    assert res.b2.contains_vector(f.sub(f).vectorize())
    shift = CochainTriple.from_vector(dim2, 1, res.b2.basis_rows()[0])
    zero = (QQ.zero,)
    shifted = CochainTriple(
        dim2,
        1,
        {
            op: {
                key: tuple(a + b for a, b in zip(f.forms[op].get(key, zero), shift.forms[op].get(key, zero)))
                for key in set(f.forms[op]) | set(shift.forms[op])
            }
            for op in OPS
        },
    )
    assert res.b2.contains_vector(f.sub(shifted).vectorize())


def test_h2_over_prime_fields(dim2):
    for p in (5, 7):
        fp = GF(p)
        assert h2(abelian(2, fp)).h2_dim == 12
        assert h2(dim2_single_product(fp)).h2_dim == 2
        assert h2(cover_abelian(1, fp)).h2_dim == h2(cover_abelian(1)).h2_dim


# ------------------------------- sparse assembly against the dense path

MERSENNE_61 = GF(2**61 - 1)


def _rebased_extensions(field, seed):
    """Central extensions of abelian algebras in a random basis: dense
    constants, over Q with denominators.  The last one, e0 |- e1 = e2, has
    different left and right annihilators."""
    rng = random.Random(seed)
    totals = [random_extension(abelian(n, field), k, rng.randrange(2**31)).total
              for n, k in ((2, 1), (2, 2), (3, 1))]
    base = abelian(2, field)
    totals.append(extension_algebra(base, CochainTriple(base, 1, {VDASH: {(0, 1): [1]}})))
    return [change_basis(t, random_invertible(rng, t.dim, field)) for t in totals]


@pytest.mark.parametrize("field", [QQ, GF(7), MERSENNE_61])
def test_sparse_systems_match_dense_kernels(field):
    algs = _rebased_extensions(field, 5)
    if field == QQ:
        assert any(x.denominator > 1 for a in algs for t in a.products.values()
                   for vec in t.values() for x in vec.values())
    for alg in algs + [cover_abelian(1, field)]:
        n = alg.dim
        z2 = z2_space(alg)
        assert (z2.basis.data, z2.pivots) == dense_kernel(field, dense_cocycle_rows(alg, 1), 3 * n * n)
        center = alg.center()
        assert (center.basis.data, center.pivots) == dense_kernel(field, dense_center_rows(alg), n)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_cocycle_rows_are_the_nonzero_dense_rows_in_order(field):
    """The Z^2 system reaches elimination row by row in the dense oracle's
    (family, triple) order, zero rows left out: over Q the row order drives
    coefficient growth.  The rows are D times the constraints, for the
    common denominator D of the structure constants."""
    algs = _rebased_extensions(field, 5) + [cover_abelian(1, field)]
    if field == QQ:
        assert any(alg._cleared_products()[0] > 1 for alg in algs)
    for alg in algs:
        d, n = alg._cleared_products()[0], alg.dim
        got = Matrix._from_ints(field, tuple((row, d) for row in _cocycle_rows(alg)), 3 * n * n).data
        assert list(got) == [tuple(r) for r in dense_cocycle_rows(alg, 1) if any(r)]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_z2_streams_its_system_into_elimination(field, monkeypatch):
    """No matrix built while z2_space runs has more rows than the system
    has columns, 3n^2, though each system here has more rows than that
    (cover_abelian(2): 1,144 rows for 588 columns)."""
    built = []
    raw = Matrix.__dict__["_from_ints"].__func__

    def counted(cls, fld, rows, cols):
        built.append(len(rows))
        return raw(cls, fld, rows, cols)

    for alg in (cover_abelian(2, field), _rebased_extensions(field, 5)[2]):
        cols = 3 * alg.dim * alg.dim
        assert sum(1 for r in dense_cocycle_rows(alg, 1) if any(r)) > cols
        with monkeypatch.context() as patch:
            patch.setattr(Matrix, "_from_ints", classmethod(counted))
            built.clear()
            assert z2_space(alg).dim
        assert built and max(built) <= cols


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_from_vector_matches_the_coercing_constructor(field):
    base = dim2_single_product(field)
    k = 2
    rng = random.Random(2)
    raw = [rng.choice([0, 0, 0, 1, -3, 7, 8, 14, Fraction(5, 7)]) for _ in range(3 * 4 * k)]
    if field != QQ:
        raw = [x if isinstance(x, int) else 5 for x in raw]
    forms = {op: {} for op in OPS}
    for idx, x in enumerate(raw):
        pair, t = divmod(idx, k)
        o, ij = divmod(pair, 4)
        forms[OPS[o]].setdefault(divmod(ij, 2), [0] * k)[t] = x
    f = CochainTriple.from_vector(base, k, raw)
    assert f == CochainTriple(base, k, forms)
    assert all(list(t) == sorted(t) for t in f.forms.values())
    assert all(any(v) for t in f.forms.values() for v in t.values())
    assert f.vectorize() == tuple(field.coerce(x) for x in raw)
    with pytest.raises(ValueError):
        CochainTriple.from_vector(base, k, raw[:-1])
    with pytest.raises(ValueError, match="coefficient dimension"):
        CochainTriple.from_vector(base, -1, raw)
    # Falsy values that are not scalars are refused, as by ``Matrix``.
    for bad in ("", None, 0.0, []):
        with pytest.raises((ValueError, TypeError)) as refused:
            Matrix(field, [[bad]])
        with pytest.raises(refused.type):
            CochainTriple.from_vector(base, k, raw[:5] + [bad] + raw[6:])


# Raw cochain values; the strings and, over GF(7), the multiples of 7 are
# nonzero as given and zero once coerced.
COCHAIN_SCALARS = st.sampled_from(
    [0, 0, 0, 1, -1, 2, 7, -14, "0", "0/3", "7", "5/2", Fraction(3, 2), Fraction(-7, 4)]
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 3), st.data())
def test_cochain_views_agree_with_its_vector(field, k, data):
    base = dim2_single_product(field)
    width = 3 * base.dim**2

    def raw(length):
        return data.draw(st.lists(COCHAIN_SCALARS, min_size=length, max_size=length))

    first = raw(width * k)
    forms = {op: {} for op in OPS}
    for idx, x in enumerate(first):
        pair, t = divmod(idx, k)
        o, ij = divmod(pair, base.dim**2)
        forms[OPS[o]].setdefault(divmod(ij, base.dim), [0] * k)[t] = x
    a = CochainTriple.from_vector(base, k, first)
    assert a == CochainTriple(base, k, forms)
    assert a.vectorize() == tuple(field.coerce(x) for x in first)
    b = CochainTriple.from_vector(base, k, raw(width * k))
    for c in (a, b):
        assert CochainTriple(base, k, c.forms) == c
        assert CochainTriple.from_vector(base, k, c.vectorize()) == c
        if field == QQ:  # over F_p a row is held as residues over 1
            doubled = tuple(({j: 2 * x for j, x in xs.items()}, 2 * d) for xs, d in c._rows._sparse)
            assert CochainTriple._from_rows(base, Matrix._from_ints(field, doubled, c._rows.cols)) == c
        assert tuple(c.forms) == OPS
        for table in c.forms.values():
            assert list(table) == sorted(table)
            assert all(len(v) == k and any(v) for v in table.values())
    diff = tuple(field.coerce(x - y) for x, y in zip(a.vectorize(), b.vectorize()))
    assert a.sub(b).vectorize() == diff
    scalars = [CochainTriple.from_vector(base, 1, raw(width)) for _ in range(k)]
    zipped = [x for xs in zip(*(s.vectorize() for s in scalars)) for x in xs]
    assert CochainTriple.stack(base, scalars) == CochainTriple.from_vector(base, k, zipped)


def evaluated_pairs(cochain, pairs):
    """The pull-back row of ``cochain`` through ``evaluate``: per operation,
    per pair in list order, its value at every (u_a, v_b)."""
    out = []
    for op in OPS:
        for us, vs in pairs:
            out += [x for u in us.data for v in vs.data for x in evaluate(cochain, u, v, op)]
    return tuple(out)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_pullback_matches_the_evaluate_construction(field):
    rng = random.Random(32)
    ext = random_extension(abelian(2, field), 2, seed=5).total
    algebras = [cover_abelian(1, field), ext, change_basis(ext, random_invertible(rng, ext.dim, field))]
    checked = 0
    for l in algebras:
        n = l.dim
        z = l.center()
        quot = quotient_algebra(l, z)
        comp = l.derived().complement_in(Subspace.full(field, n)).basis
        none = Matrix.zeros(field, 0, n)
        rebase = random_invertible(rng, n, field)
        images = quot.projection.transpose()  # row i: P e_i, on the quotient
        section = quot.section.transpose()  # unit rows: the pivot lifts
        cases = [
            (l, [(rebase, rebase)]),
            (l, [(rebase, Matrix.identity(field, n))]),
            (quot.algebra, [(images, images)]),
            (l, [(section, section)]),
            (l, [(comp, z.basis), (z.basis, comp)]),
            (l, [(comp, z.basis), (none, comp), (z.basis, comp)]),
        ]
        for base, pairs in cases:
            cochains = [random_cochain(base, 1, rng) for _ in range(2)]
            cochains += [CochainTriple.from_vector(base, 1, row) for row in z2_space(base).basis_rows()[:3]]
            pulled = _pullback(Matrix(field, [c.vectorize() for c in cochains], 3 * base.dim**2), pairs)
            assert pulled.cols == len(OPS) * sum(us.rows * vs.rows for us, vs in pairs)
            assert pulled.data == tuple(evaluated_pairs(c, pairs) for c in cochains)
            checked += not pulled.is_zero()
    assert checked >= 12
    # On the 0-dimensional quotient of an abelian algebra by itself the
    # cochains have no columns, and the pulled-back rows still have width
    # 3 n^2; at the unit pairs the pull-back is the identity.
    a = abelian(2, field)
    images = quotient_algebra(a, a.center()).projection.transpose()  # 2 x 0
    assert _pullback(Matrix.zeros(field, 3, 0), [(images, images)]) == Matrix.zeros(field, 3, 12)
    unit = Matrix.identity(field, 2)
    cochains = Matrix(field, [random_cochain(a, 1, random.Random(1)).vectorize()], 12)
    assert _pullback(cochains, [(unit, unit)]) == cochains
