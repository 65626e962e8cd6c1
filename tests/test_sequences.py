import random

import pytest

from trialg.algebra import OPS, change_basis, quotient_algebra
from trialg.cohomology import CochainTriple, h2, section_cocycle
from trialg.fields import GF, QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product, random_extension
from trialg.linalg import Matrix, Subspace, random_invertible
from trialg.sequences import (
    NotCentralIdealError,
    delta_map,
    inf1,
    inf2,
    res,
    stallings_check,
    tra,
    tra_image_check,
    unicentrality_criteria,
    verify_five_term,
    verify_inf_delta,
)

from oracles import dense_matvec, evaluate, random_valid_algebra


def line(n, idx):
    return Subspace.from_rows(QQ, n, [[1 if c == idx else 0 for c in range(n)]])


@pytest.fixture
def dim2_z(dim2):
    return line(2, 1)


# -------------------------------------------------------------- per map


def test_inf1_zero_ideal_is_identity(dim2):
    m = inf1(dim2, Subspace.zero(QQ, 2))
    assert m.domain_dim == m.codomain_dim == 1
    assert m.matrix == Matrix.identity(QQ, 1)


def test_inf1_abelian_full_center_domain_is_zero_dim():
    a = abelian(2)
    m = inf1(a, Subspace.full(QQ, 2))
    assert m.domain_dim == 0
    assert m.codomain_dim == 2


def test_inf1_injective_random_sweep(random_corpus):
    rng = random.Random(15)
    algebras = list(random_corpus) + [
        random_valid_algebra(rng, QQ, max_dim=5) for _ in range(50)
    ]
    count = 0
    for alg in algebras:
        center = alg.center()
        if center.dim == 0:
            continue
        take = rng.randint(1, center.dim)
        z = Subspace.from_rows(QQ, alg.dim, center.basis.data[:take])
        m = inf1(alg, z)
        assert m.rank == m.domain_dim
        count += 1
    assert count >= 50


def test_res_examples(dim2, dim2_z):
    m = res(dim2, Subspace.zero(QQ, 2))
    assert m.codomain_dim == 0
    a = abelian(2)
    mfull = res(a, Subspace.full(QQ, 2))
    assert mfull.domain_dim == mfull.codomain_dim == 2
    assert mfull.rank == 2
    mz = res(dim2, dim2_z)
    assert mz.domain_dim == 1 and mz.codomain_dim == 1
    assert mz.is_zero()


def test_tra_dim2(dim2, dim2_z):
    m = tra(dim2, dim2_z)
    assert m.domain_dim == 1
    assert m.codomain_dim == 3
    assert m.rank == 1


def test_tra_split_ideal_is_zero():
    # direct sum: central line with a complemented subalgebra section
    a = abelian(3)
    z = line(3, 2)
    m = tra(a, z)
    assert m.is_zero()


def test_inf2_examples(dim2, dim2_z):
    m0 = inf2(dim2, Subspace.zero(QQ, 2))
    assert m0.matrix == Matrix.identity(QQ, 2)
    a = abelian(2)
    mfull = inf2(a, Subspace.full(QQ, 2))
    assert mfull.domain_dim == 0 and mfull.codomain_dim == 12
    mz = inf2(dim2, dim2_z)
    assert mz.domain_dim == 3 and mz.codomain_dim == 2
    assert mz.rank == 2


def forms_tra(l, z):
    """Transgression columns through per-pair forms: the section cocycle's
    values composed with each map chi on Z, via the coercing constructor."""
    quot = quotient_algebra(l, z)
    cochain = section_cocycle(l, quot.algebra, quot.projection, z, quot.section)
    cols = []
    for chi in Subspace.full(l.field, z.dim).basis_rows():
        forms = {op: {key: dense_matvec(l.field, [chi], val) for key, val in table.items()}
                 for op, table in cochain.forms.items()}
        cols.append(h2(quot.algebra).class_of(CochainTriple(quot.algebra, 1, forms)))
    return cols


def forms_inf2(l, z):
    """Second-inflation columns through ``evaluate`` at every basis pair."""
    quot = quotient_algebra(l, z)
    images = quot.projection.transpose().data
    cols = []
    for rep in h2(quot.algebra).h2_reps:
        forms = {op: {(i, j): evaluate(rep, x, y, op)
                      for i, x in enumerate(images) for j, y in enumerate(images)}
                 for op in OPS}
        cols.append(h2(l).class_of(CochainTriple(l, 1, forms)))
    return cols


def evaluate_delta(l, z):
    """Pairing-block columns through ``evaluate``: each representative at
    every (u, w) pair, then every (w, u) pair, per operation, for u the
    complement basis of L' and w the basis of Z."""
    us = l.derived().complement_in(Subspace.full(l.field, l.dim)).basis_rows()
    ws = z.basis_rows()
    cols = []
    for rep in h2(l).h2_reps:
        col = []
        for op in OPS:
            col += [evaluate(rep, u, w, op)[0] for u in us for w in ws]
            col += [evaluate(rep, w, u, op)[0] for w in ws for u in us]
        cols.append(tuple(col))
    return cols


def columns(m):
    return list(m.matrix.transpose().data)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_delta_matches_the_evaluate_construction(field):
    rng = random.Random(84)
    algebras = [cover_abelian(1, field), random_extension(abelian(2, field), 2, seed=5).total]
    algebras.append(change_basis(algebras[1], random_invertible(rng, algebras[1].dim, field)))
    checked = 0
    for l in algebras:
        center = l.center()
        ideals = [Subspace.from_rows(field, l.dim, [row]) for row in center.basis_rows()]
        for z in ideals + [center, Subspace.zero(field, l.dim)]:
            d = delta_map(l, z)
            assert columns(d) == evaluate_delta(l, z)
            checked += d.rank
    assert checked > 0


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Fp7"])
def test_tra_inf2_match_the_forms_construction(field):
    rng = random.Random(83)
    algebras = [cover_abelian(1, field), random_extension(abelian(2, field), 2, seed=5).total]
    algebras.append(change_basis(algebras[1], random_invertible(rng, algebras[1].dim, field)))
    checked = 0
    for l in algebras:
        center = l.center()
        ideals = [Subspace.from_rows(field, l.dim, [row]) for row in center.basis_rows()]
        ideals.append(center)
        for z in ideals:
            assert columns(tra(l, z)) == forms_tra(l, z)
            assert columns(inf2(l, z)) == forms_inf2(l, z)
            checked += tra(l, z).rank + inf2(l, z).rank
    assert checked > 0


def test_delta_examples(dim2, dim2_z):
    a = abelian(2)
    d = delta_map(a, Subspace.full(QQ, 2))
    assert d.domain_dim == 12
    assert d.rank == 12  # injective
    dz = delta_map(dim2, dim2_z)
    assert dz.is_zero()
    d0 = delta_map(dim2, Subspace.zero(QQ, 2))
    assert d0.codomain_dim == 0


def test_delta_kills_coboundaries(dim2, dim2_z):
    # evaluate the raw pairing blocks on a coboundary representative
    resu = h2(dim2)
    cob = CochainTriple.from_vector(dim2, 1, resu.b2.basis_rows()[0])
    derived = dim2.derived()
    comp = derived.complement_in(Subspace.full(QQ, 2))
    for op in ("vdash", "dashv", "perp"):
        for u in comp.basis_rows():
            for w in dim2_z.basis_rows():
                assert evaluate(cob, u, w, op) == (QQ.zero,)
                assert evaluate(cob, w, u, op) == (QQ.zero,)


def test_maps_require_central_ideal(dim2):
    with pytest.raises(NotCentralIdealError):
        verify_five_term(dim2, line(2, 0))


def test_reports_repeat_on_equal_inputs():
    alg = random_extension(abelian(2), 2, seed=0).total
    rows = alg.center().basis_rows()[:1]
    for report in (verify_five_term, verify_inf_delta, tra_image_check,
                   unicentrality_criteria, stallings_check):
        first = report(alg, Subspace.from_rows(QQ, alg.dim, rows))
        assert report(alg, Subspace.from_rows(QQ, alg.dim, rows)) == first


# ------------------------------------------------------------ five term


def test_five_term_dim2(dim2, dim2_z):
    report = verify_five_term(dim2, dim2_z)
    assert report.ok
    assert report.dims == (1, 1, 1, 3, 2)
    assert report.ranks == (1, 0, 1, 2)


def test_five_term_abelian_full_center():
    for n in (1, 2, 3, 4):
        a = abelian(n)
        report = verify_five_term(a, Subspace.full(QQ, n))
        assert report.ok
        assert report.dims == (0, n, n, 0, 3 * n * n)
        assert report.ranks == (0, n, 0, 0)


def test_five_term_zero_ideal(dim2):
    report = verify_five_term(dim2, Subspace.zero(QQ, 2))
    assert report.ok


def test_five_term_random_extensions_sweep():
    rng = random.Random(51)
    bases = [abelian(1), abelian(2), dim2_single_product()]
    count = 0
    for trial in range(18):
        base = bases[trial % len(bases)]
        k = rng.randint(1, 2)
        try:
            ext = random_extension(base, k, seed=1000 + trial)
        except ValueError:
            continue
        total = ext.total
        z = ext.kernel
        report = verify_five_term(total, z)
        assert report.ok, (base.name, trial)
        count += 1
    assert count >= 15


# --------------------------------------------------------- other checks


def test_inf_delta_examples(dim2, dim2_z):
    a = abelian(2)
    r1 = verify_inf_delta(a, Subspace.full(QQ, 2))
    assert r1.ok and r1.inf2_rank == 0 and r1.delta_rank == 12
    r2 = verify_inf_delta(dim2, dim2_z)
    assert r2.ok and r2.inf2_rank == 2 and r2.delta_rank == 0
    r3 = verify_inf_delta(dim2, Subspace.zero(QQ, 2))
    assert r3.ok


def test_tra_image_examples(dim2, dim2_z, example_cover_1):
    a = abelian(3)
    assert tra_image_check(a, line(3, 0)).ok
    r = tra_image_check(dim2, dim2_z)
    assert r.ok and r.tra_rank == 1
    zm = Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rk = tra_image_check(example_cover_1, zm)
    assert rk.ok and rk.tra_rank == 3 and rk.derived_cap_z_dim == 3


def test_unicentrality_criteria_examples(dim2, dim2_z):
    r = unicentrality_criteria(dim2, dim2_z)
    assert r.booleans == (True, True, True, True) and r.agree
    for n in (1, 2):
        a = abelian(n)
        rf = unicentrality_criteria(a, Subspace.full(QQ, n))
        assert rf.booleans == (False, False, False, False) and rf.agree
    r0 = unicentrality_criteria(dim2, Subspace.zero(QQ, 2))
    assert r0.booleans == (True, True, True, True) and r0.agree


def test_stallings_examples(dim2, dim2_z):
    a = abelian(2)
    r1 = stallings_check(a, Subspace.full(QQ, 2))
    assert r1.ok
    assert r1.node_dims == (12, 0, 2, 2, 0)
    r2 = stallings_check(dim2, dim2_z)
    assert r2.ok
    assert r2.node_dims == (2, 3, 1, 1, 1)
    r3 = stallings_check(dim2, Subspace.zero(QQ, 2))
    assert r3.ok


def test_composites_vanish_on_corpus(small_corpus):
    rng = random.Random(61)
    for alg in small_corpus:
        center = alg.center()
        ideals = [Subspace.zero(QQ, alg.dim)]
        if center.dim:
            ideals.append(center)
            ideals.append(Subspace.from_rows(QQ, alg.dim, [center.basis_rows()[0]]))
        for z in ideals:
            m1, m2, m3, m4 = (
                inf1(alg, z),
                res(alg, z),
                tra(alg, z),
                inf2(alg, z),
            )
            d = delta_map(alg, z)
            assert (m2.matrix @ m1.matrix).is_zero()
            assert (m3.matrix @ m2.matrix).is_zero()
            assert (m4.matrix @ m3.matrix).is_zero()
            assert (d.matrix @ m4.matrix).is_zero()


def test_theorem_equivalence_agreement_sweep(small_corpus, random_corpus):
    rng = random.Random(71)
    pairs = 0
    for alg in small_corpus + random_corpus[:4]:
        center = alg.center()
        ideals = [Subspace.zero(QQ, alg.dim)]
        for row in center.basis_rows():
            ideals.append(Subspace.from_rows(QQ, alg.dim, [row]))
        if center.dim:
            ideals.append(center)
        for z in ideals:
            r = unicentrality_criteria(alg, z)
            assert r.agree, (alg.name, z.basis_rows(), r.booleans)
            assert verify_inf_delta(alg, z).ok
            assert tra_image_check(alg, z).ok
            assert stallings_check(alg, z).ok
            pairs += 1
    assert pairs >= 15
