import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg.algebra import OPS, change_basis, quotient_algebra
from trialg.cohomology import CochainTriple, NotACocycleError, b2_space, h2
from trialg.extensions import (
    _cover_from_rows,
    build_central_extension,
    cover,
    cover_fingerprint,
    extension_algebra,
    is_unicentral,
    stem_center_image_check,
    z_star,
)
from trialg.fields import GF, QQ
from trialg.generators import (
    abelian,
    cover_abelian,
    dim2_single_product,
    random_extension,
    unital_dim1,
)
from trialg.linalg import Matrix, Subspace, inverse, random_combination, random_invertible
from trialg.algebra import TriAlgebra

from oracles import check_extension, quotient_stem_reduce, random_valid_algebra, section_cocycle_of


# ------------------------------------------------------------- building


def test_zero_cocycle_over_abelian_gives_abelian():
    base = abelian(2)
    ext = build_central_extension(base, 3, CochainTriple(base, 3, {}))
    assert ext.total.dim == 5
    assert all(not ext.total.products[op] for op in OPS)
    assert ext.kernel.dim == 3
    check_extension(ext)


def test_unit_forms_over_point_give_example_cover(example_cover_1):
    base = abelian(1)
    res = h2(base)
    stacked = CochainTriple.stack(base, list(res.h2_reps))
    ext = build_central_extension(base, 3, stacked)
    assert ext.total == example_cover_1
    check_extension(ext)


def test_non_cocycle_rejected_with_matching_axioms(dim2):
    rng = random.Random(2)
    rejected = 0
    for _ in range(30):
        forms = {
            op: {
                (rng.randrange(2), rng.randrange(2)): [QQ.random_scalar(rng)]
                for _ in range(2)
            }
            for op in OPS
        }
        f = CochainTriple(dim2, 1, forms)
        try:
            build_central_extension(dim2, 1, f)
        except NotACocycleError as exc:
            rejected += 1
            raw = extension_algebra(dim2, f)
            assert {v.axiom for v in exc.violations} == {v.axiom for v in raw.axiom_report().violations}
    assert rejected > 5


def test_extension_invariants(random_corpus):
    rng = random.Random(6)
    for base in random_corpus[:5]:
        res = h2(base)
        if res.h2_dim == 0:
            continue
        rep = res.h2_reps[rng.randrange(res.h2_dim)]
        ext = build_central_extension(base, 1, rep)
        check_extension(ext)
        assert ext.total.center().space.contains(ext.kernel.space)
        assert ext.total.axiom_report().ok


# --------------------------------------------------------------- covers


def test_cover_of_zero_dim_algebra():
    z = TriAlgebra(0, QQ)
    result = cover(z)
    assert result.extension.total.dim == 0
    assert result.multiplier_dim == 0


def test_cover_of_abelian_matches_direct_construction():
    for n in (1, 2):
        result = cover(abelian(n))
        k = result.extension.total
        assert result.multiplier_dim == 3 * n * n
        assert k.dim == n + 3 * n * n
        assert k == cover_abelian(n)
        ker = result.extension.kernel.space
        assert k.derived().space == ker == k.center().space


def test_cover_of_dim2(dim2):
    result = cover(dim2)
    ext = result.extension
    assert result.multiplier_dim == 2
    assert ext.total.dim == 4
    assert ext.kernel.dim == 2
    assert ext.is_stem()
    assert ext.total.center().space.contains(ext.kernel.space)


def test_cover_contract(random_corpus, dim2, unital):
    for alg in [dim2, unital] + random_corpus[:4]:
        res = h2(alg)
        result = cover(alg)
        ext = result.extension
        assert result.multiplier_dim == res.h2_dim
        assert ext.total.dim == alg.dim + res.h2_dim
        assert ext.kernel.dim == res.h2_dim
        # kernel sits inside Z(K) and K'
        assert ext.total.center().space.contains(ext.kernel.space)
        assert ext.total.derived().space.contains(ext.kernel.space)
        # quotient by the kernel reproduces the base structure constants
        quot = quotient_algebra(ext.total, ext.kernel)
        assert quot.algebra == alg


def test_cover_fingerprint_stable_under_rep_permutation(dim2, example_cover_1):
    rng = random.Random(41)
    for alg in (dim2, abelian(1), example_cover_1):
        base_fp = cover_fingerprint(alg)
        res = h2(alg)
        for _ in range(3):
            reps = list(res.h2_reps)
            rng.shuffle(reps)
            assert cover_fingerprint(alg, reps) == base_fp


def test_cover_fingerprint_stable_under_cohomologous_shift(dim2):
    # replace a representative by a coboundary-shifted one
    res = h2(dim2)
    shift_vec = res.b2.basis_rows()[0]
    reps = []
    for idx, rep in enumerate(res.h2_reps):
        if idx == 0:
            vec = [a + b for a, b in zip(rep.vectorize(), shift_vec)]
            shifted = CochainTriple.from_vector(dim2, 1, vec)
            assert res.b2.contains_vector(shifted.sub(rep).vectorize())
            reps.append(shifted)
        else:
            reps.append(rep)
    assert cover_fingerprint(dim2, reps) == cover_fingerprint(dim2)


# ---------------------------------------------------------------- z star


def test_z_star_examples(dim2):
    assert z_star(abelian(1)).dim == 0
    assert z_star(abelian(2)).dim == 0
    assert z_star(dim2).space == Subspace.from_rows(QQ, 2, [[0, 1]])
    assert z_star(TriAlgebra(0, QQ)).dim == 0


def test_z_star_contained_in_center(random_corpus):
    for alg in random_corpus:
        assert alg.center().space.contains(z_star(alg).space)


def _direct_sum(a: TriAlgebra, b: TriAlgebra) -> TriAlgebra:
    """A (+) B: the basis of A, then that of B, with no mixed products."""
    n = a.dim
    products = {op: dict(a.products[op]) for op in OPS}
    for op in OPS:
        for (i, j), vec in b.products[op].items():
            products[op][(n + i, n + j)] = {n + k: x for k, x in vec.items()}
    return TriAlgebra(n + b.dim, a.field, products)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=lambda f: f.name)
def test_z_star_is_the_image_of_the_cover_center(field):
    """Z* from the cocycle criterion equals the projected center of the
    cover, on direct sums whose Z* is often a proper nonzero part of Z, and
    on a random change of basis of each."""
    proper = 0
    for seed in range(12):
        rng = random.Random(seed)
        a = random_extension(abelian(rng.randint(1, 2), field), rng.randint(1, 2), seed).total
        b = rng.choice([abelian(1, field), abelian(2, field), cover_abelian(1, field)])
        s = _direct_sum(a, b)
        for alg in (s, change_basis(s, random_invertible(rng, s.dim, field))):
            zs = z_star(alg).space
            assert zs == cover(alg).extension.center_image(), (seed, alg)
            proper += 0 < zs.dim < alg.center().dim
    assert proper >= 12


def test_is_unicentral(dim2):
    assert is_unicentral(TriAlgebra(0, QQ))
    assert not is_unicentral(abelian(1))
    assert not is_unicentral(abelian(3))
    assert is_unicentral(dim2)
    assert is_unicentral(unital_dim1())


# ------------------------------------------------------------ stem check


def test_stem_center_image_dim2(dim2):
    report = stem_center_image_check(dim2, trials=5, seed=1)
    assert report.ok
    assert report.images_agree
    assert report.image_dim == 1
    assert report.unicentral and report.center_recovered
    assert all(d == 2 for d in report.kernel_dims)


def test_stem_center_image_abelian():
    report = stem_center_image_check(abelian(2), trials=5, seed=2)
    assert report.ok
    assert report.image_dim == 0
    assert not report.unicentral
    assert report.identity_extension_image_dim == 2


def test_stem_center_image_random(random_corpus):
    for alg in random_corpus[:4]:
        report = stem_center_image_check(alg, trials=3, seed=4)
        assert report.all_stem and report.images_agree and report.equals_z_star


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2)], ids=lambda f: f.name)
def test_stem_reduction_matches_the_quotient_oracle(field):
    """``_cover_from_rows`` keeps the representatives whose kernel unit
    vectors lie outside the complement of M n K'; dividing the extension by
    that complement in the quotient algebra must give the same total
    algebra, kernel, projection and cocycle.  Each list mixes the H^2
    representatives by a random invertible matrix and inserts, at random
    places, dependent cocycles: combinations shifted by coboundaries, pure
    coboundaries and copies, so some lists drop an index other than the
    last."""
    rng = random.Random(19)
    bases = [
        abelian(2, field),
        dim2_single_product(field),
        unital_dim1(field),
        cover_abelian(1, field),
        random_extension(abelian(2, field), 1, seed=3).total,
    ]
    reduced = dropped_before_last = 0
    for l in bases:
        res = h2(l)
        rep_vectors = Matrix(field, [rep.vectorize() for rep in res.h2_reps], cols=3 * l.dim**2)
        for _ in range(5):
            vectors = random_invertible(rng, res.h2_dim, field) @ rep_vectors
            reps = [CochainTriple.from_vector(l, 1, row) for row in vectors.data]
            for _ in range(rng.randint(1, 2)):
                kind = rng.randrange(3)
                if kind == 2 and reps:
                    extra = rng.choice(reps)
                else:
                    rows = res.b2.basis if kind == 1 else rep_vectors.vstack(res.b2.basis)
                    combo = random_combination(rng, rows)
                    if combo is None:
                        continue
                    extra = CochainTriple.from_vector(l, 1, combo.row(0))
                reps.insert(rng.randint(0, len(reps)), extra)
            stacked = CochainTriple.stack(l, reps)
            ext = _cover_from_rows(l, stacked._rows)
            ref = quotient_stem_reduce(build_central_extension(l, len(reps), stacked))
            assert ext.total == ref.total
            assert ext.kernel.space == ref.kernel.space
            assert ext.projection == ref.projection
            assert ext.cocycle == ref.cocycle
            check_extension(ext)
            check_extension(ref)
            assert ext.is_stem() and ext.kernel_dim == res.h2_dim
            if ext.kernel_dim < len(reps):
                reduced += 1
                dropped_before_last += ext.cocycle != CochainTriple.stack(l, reps[: ext.kernel_dim])
    assert reduced and dropped_before_last


def test_stem_reduction_checks_the_cocycle_once(monkeypatch, dim2):
    """With a dependent cocycle appended, ``_cover_from_rows`` drops one of
    the three and extends along the kept ones without a second cocycle
    check: rows of a checked cocycle make a cocycle.  The cover is the
    checked build on the kept rows, and the quotient oracle's."""
    import trialg.extensions

    res = h2(dim2)
    rep0, rep1 = res.h2_reps
    extra = CochainTriple.from_vector(  # rep0 + rep1 + a coboundary
        dim2, 1, [a + b + c for a, b, c in zip(rep0.vectorize(), rep1.vectorize(), res.b2.basis_rows()[0])])
    stacked = CochainTriple.stack(dim2, [rep0, rep1, extra])
    ref = quotient_stem_reduce(build_central_extension(dim2, 3, stacked))
    calls = []
    checked = trialg.extensions.cocycle_defects

    def counting(f):
        calls.append(f.coeff_dim)
        return checked(f)

    monkeypatch.setattr(trialg.extensions, "cocycle_defects", counting)
    ext = _cover_from_rows(dim2, stacked._rows)
    assert calls == [3]
    assert ext.kernel_dim == 2
    assert (ext.total, ext.kernel.space, ext.projection, ext.cocycle) == (
        ref.total, ref.kernel.space, ref.projection, ref.cocycle)
    assert ext == build_central_extension(dim2, 2, ext.cocycle)


# ------------------------------------------------- cocycle equivalence


def test_equivalent_cocycles_give_same_class(dim2):
    res = h2(dim2)
    rep = res.h2_reps[0]
    shifted_vec = [a + b for a, b in zip(rep.vectorize(), res.b2.basis_rows()[0])]
    shifted = CochainTriple.from_vector(dim2, 1, shifted_vec)
    e1 = build_central_extension(dim2, 1, rep)
    e2 = build_central_extension(dim2, 1, shifted)
    c1 = section_cocycle_of(e1)
    c2 = section_cocycle_of(e2)
    assert b2_space(dim2).contains_vector(c1.sub(c2).vectorize())
    assert res.class_of(c1) == res.class_of(c2)


def test_cover_works_over_prime_fields():
    for p in (5, 7):
        fp = GF(p)
        result = cover(abelian(2, fp))
        assert result.multiplier_dim == 12
        assert result.extension.total.dim == 14
        assert result.extension.is_stem()
        d2 = dim2_single_product(fp)
        assert is_unicentral(d2)
        assert z_star(d2).dim == 1


# ------------------------------------------------------ change of basis


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 2**32 - 1))
def test_invariants_survive_a_change_of_basis(field, seed):
    """H^2, Z*, the center, the derived subalgebra and the cover fingerprint
    do not depend on the basis; the rebased copy computes and memoises its
    own, so nothing memoised on one algebra answers for the other."""
    rng = random.Random(seed)
    alg = random_valid_algebra(rng, field, max_dim=4)
    p = random_invertible(rng, alg.dim, field)
    moved = change_basis(alg, p)
    pinv = inverse(p)

    def rebased(space):  # coordinates against the new basis, the rows of p
        return Subspace.from_rows(field, alg.dim, (space.basis @ pinv).data)

    assert h2(moved).h2_dim == h2(alg).h2_dim
    assert moved.center().space == rebased(alg.center().space)
    assert moved.derived().space == rebased(alg.derived().space)
    assert z_star(moved).space == rebased(z_star(alg).space)
    assert cover_fingerprint(moved) == cover_fingerprint(alg)
    assert h2(moved).base is moved and cover(moved).extension.base is moved
    assert z_star(moved).parent is moved and moved.center().parent is moved
