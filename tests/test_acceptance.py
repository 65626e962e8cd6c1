"""Acceptance suite.

One test per criterion; each prints a single PASS line when its assertions
hold (run with ``pytest -s`` to see them).  All checks are exact: the
arithmetic is rational or prime-field, and every comparison is equality of
canonical objects.
"""

import random
import time

import pytest

from trialg.algebra import OPS, check_dim_bounds
from trialg.cli import main as cli_main
from trialg.cohomology import CochainTriple, cocycle_defects, h2, z2_space
from trialg.extensions import (
    build_central_extension,
    cover,
    cover_fingerprint,
    extension_algebra,
    stem_center_image_check,
    z_star,
)
from trialg.fields import GF, QQ
from trialg.generators import abelian, cover_abelian, dim2_single_product
from trialg.linalg import Subspace
from trialg.sequences import (
    tra_image_check,
    unicentrality_criteria,
    verify_five_term,
    verify_inf_delta,
)

from oracles import random_valid_algebra


def _random_cochain(base, rng, density=0.5):
    forms = {}
    for op in OPS:
        table = {}
        for i in range(base.dim):
            for j in range(base.dim):
                if rng.random() < density:
                    v = base.field.random_scalar(rng)
                    if v:
                        table[(i, j)] = [v]
        forms[op] = table
    return CochainTriple(base, 1, forms)


def _z2_sample(base, z2, rng):
    vec = [base.field.zero] * z2.ambient_dim
    for row in z2.basis_rows():
        c = base.field.random_scalar(rng)
        if c:
            vec = [base.field.coerce(a + c * b) for a, b in zip(vec, row)]
    return CochainTriple.from_vector(base, 1, vec)


def _cocycle_extension_sweep(field, trials=100, seed=101):
    """Criterion-3 engine: returns the valid extensions it built."""
    rng = random.Random(seed)
    bases = [abelian(2, field), dim2_single_product(field), cover_abelian(1, field)]
    valid_extensions = []
    for base in bases:
        z2 = z2_space(base)
        n_valid = 0
        n_invalid = 0
        for trial in range(trials):
            f = _z2_sample(base, z2, rng) if trial % 3 == 0 else _random_cochain(base, rng)
            member = z2.contains_vector(f.vectorize())
            raw = extension_algebra(base, f)
            report = raw.axiom_report()
            assert member == report.ok
            defects = cocycle_defects(f)
            assert (not defects) == member
            if member:
                n_valid += 1
                ext = build_central_extension(base, 1, f)
                valid_extensions.append(ext)
            else:
                n_invalid += 1
                assert {v.axiom for v in defects} == {
                    v.axiom for v in report.violations
                }
                assert {(v.axiom, v.triple) for v in defects} == {
                    (v.axiom, v.triple) for v in report.violations
                }
        assert n_valid >= 5
        if any(base.products[op] for op in OPS):
            assert n_invalid >= 5
    return valid_extensions


@pytest.fixture(scope="module")
def criterion3_extensions():
    return _cocycle_extension_sweep(QQ)


def test_criterion_1_cover_regression():
    start = time.monotonic()
    for n in range(1, 5):
        base = abelian(n)
        res = h2(base)
        assert res.h2_dim == 3 * n * n
        result = cover(base)
        k = result.extension.total
        assert result.multiplier_dim == 3 * n * n
        assert k.dim == n + 3 * n * n
        ker = result.extension.kernel.space
        assert k.derived().space == ker
        assert k.center().space == ker
        assert ker.dim == 3 * n * n
        assert k.axiom_report().ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"regression took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - abelian covers n=1..4 in {elapsed:.2f}s")


def test_criterion_2_bound_table_and_random_bounds(capsys):
    code = cli_main(["table", "-n", "10"])
    out = capsys.readouterr().out
    assert code == 0
    got = {}
    for line in out.splitlines():
        key, val = line.split(" = ")
        got[key] = tuple(int(x) for x in val.split(","))
    for n in range(1, 11):
        assert got[f"lie[{n}]"] == (n * (n - 1) // 2, n * (n + 1) // 2)
        assert got[f"leibniz[{n}]"] == (n * n, n * (n + 1))
        assert got[f"associative[{n}]"] == (n * n, n * (n + 1))
        assert got[f"diassociative[{n}]"] == (2 * n * n, n * (2 * n + 1))
        assert got[f"triassociative[{n}]"] == (3 * n * n, n * (3 * n + 1))

    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        alg = random_valid_algebra(rng, QQ, max_dim=6)
        assert check_dim_bounds(alg).ok
        checked += 1

    # bounds attained with equality on the abelian covers
    for n in (1, 2, 3):
        k = cover_abelian(n)
        rep = check_dim_bounds(k)
        assert rep.central_quotient_dim == n
        assert rep.derived_dim == rep.derived_bound == 3 * n * n
        kernel_rows = [
            [QQ.one if c == n + t else QQ.zero for c in range(k.dim)]
            for t in range(3 * n * n)
        ]
        rep2 = check_dim_bounds(k, pair_kernel=Subspace.from_rows(QQ, k.dim, kernel_rows))
        assert rep2.pair_base_dim == n
        assert k.dim == rep2.total_bound == n * (3 * n + 1)
    print("\nACCEPTANCE 2: PASS - bound table n=1..10 exact; 50 random algebras within "
          "bounds; equality on abelian covers")


def test_criterion_3_cocycle_extension_oracle(criterion3_extensions):
    assert len(criterion3_extensions) >= 30
    print(f"\nACCEPTANCE 3: PASS - 3 bases x 100 triples, membership == validation, "
          f"axiom indices match ({len(criterion3_extensions)} valid extensions built)")


def test_criterion_4_five_term_exactness(criterion3_extensions):
    pairs = 0
    for ext in criterion3_extensions:
        report = verify_five_term(ext.total, ext.kernel.space)
        assert report.ok
        pairs += 1
    d2 = dim2_single_product()
    for z in (Subspace.zero(QQ, 2), Subspace.from_rows(QQ, 2, [[0, 1]])):
        report = verify_five_term(d2, z)
        assert report.ok
        pairs += 1
    instance = verify_five_term(d2, Subspace.from_rows(QQ, 2, [[0, 1]]))
    # frozen from the independent rank computations of the map-level tests
    assert instance.dims == (1, 1, 1, 3, 2)
    assert instance.ranks == (1, 0, 1, 2)
    print(f"\nACCEPTANCE 4: PASS - five-term exact on {pairs} (algebra, ideal) pairs; "
          f"dim-2 instance dims {instance.dims} ranks {instance.ranks}")


def test_criterion_5_transgression_image(criterion3_extensions):
    for ext in criterion3_extensions:
        assert tra_image_check(ext.total, ext.kernel.space).ok
    k1 = cover_abelian(1)
    zm = Subspace.from_rows(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rep = tra_image_check(k1, zm)
    assert rep.ok and rep.tra_rank == 3 and rep.derived_cap_z_dim == 3
    print("\nACCEPTANCE 5: PASS - im(Tra) dimension equals dim(L' n Z) corpus-wide; "
          "abelian cover instance gives 3 = 3")


def test_criterion_6_inf_delta_and_equivalence(criterion3_extensions):
    for ext in criterion3_extensions:
        assert verify_inf_delta(ext.total, ext.kernel.space).ok
        crit = unicentrality_criteria(ext.total, ext.kernel.space)
        assert crit.agree
    d2 = dim2_single_product()
    z2_line = Subspace.from_rows(QQ, 2, [[0, 1]])
    assert verify_inf_delta(d2, z2_line).ok
    crit = unicentrality_criteria(d2, z2_line)
    assert crit.booleans == (True, True, True, True)
    for n in (1, 2):
        a = abelian(n)
        crit = unicentrality_criteria(a, Subspace.full(QQ, n))
        assert crit.booleans == (False, False, False, False)
        assert verify_inf_delta(a, Subspace.full(QQ, n)).ok
    print("\nACCEPTANCE 6: PASS - inf/delta exactness corpus-wide; four criteria agree "
          "on every pair (dim-2 all true, abelian z=L all false)")


def test_criterion_7_cover_fingerprint_uniqueness():
    rng = random.Random(303)
    for alg in (dim2_single_product(), abelian(1), abelian(2), cover_abelian(1)):
        base_fp = cover_fingerprint(alg)
        res = h2(alg)
        for _ in range(2):
            reps = list(res.h2_reps)
            rng.shuffle(reps)
            assert cover_fingerprint(alg, reps) == base_fp
    print("\nACCEPTANCE 7: PASS - cover fingerprints identical under permuted "
          "representative orders")


def test_criterion_8_stem_center_images():
    corpus = [dim2_single_product(), abelian(1), abelian(2), cover_abelian(1)]
    rng = random.Random(404)
    corpus += [random_valid_algebra(rng, QQ, max_dim=4) for _ in range(3)]
    for alg in corpus:
        report = stem_center_image_check(alg, trials=5, seed=11)
        assert report.all_stem
        assert report.images_agree
        assert report.equals_z_star
        assert alg.center().space.contains(z_star(alg).space)
    d2 = dim2_single_product()
    report = stem_center_image_check(d2, trials=5, seed=12)
    assert report.unicentral and report.center_recovered
    print("\nACCEPTANCE 8: PASS - 5 randomized stem extensions per algebra give one "
          "center image equal to Z*; unicentral dim-2 recovers Z(L)")


def test_criterion_9_field_generality():
    for p in (5, 7):
        fp = GF(p)
        # criterion 1 dimensions
        for n in range(1, 5):
            result = cover(abelian(n, fp))
            k = result.extension.total
            assert result.multiplier_dim == 3 * n * n
            assert k.dim == n + 3 * n * n
            ker = result.extension.kernel.space
            assert k.derived().space == ker == k.center().space
        # criterion 3 sweep
        extensions = _cocycle_extension_sweep(fp, trials=100, seed=500 + p)
        # criterion 4 on the regression pairs and a sample of the corpus
        d2 = dim2_single_product(fp)
        z_line = Subspace.from_rows(fp, 2, [[0, 1]])
        instance = verify_five_term(d2, z_line)
        assert instance.ok
        assert instance.dims == (1, 1, 1, 3, 2)
        assert instance.ranks == (1, 0, 1, 2)
        for n in (1, 2):
            a = abelian(n, fp)
            rep = verify_five_term(a, Subspace.full(fp, n))
            assert rep.ok
            assert rep.dims == (0, n, n, 0, 3 * n * n)
        for ext in extensions[:15]:
            assert verify_five_term(ext.total, ext.kernel.space).ok
    print("\nACCEPTANCE 9: PASS - criteria 1/3/4 dimensions reproduced over Fp:5 and Fp:7")
