"""The package's immutable records: construction, equality, hashing, repr.

Each record is built by the computation that makes it, then rebuilt from
its field values positionally and by keyword.  The field names are listed
here in order, so the repr check also pins the field order.
"""

import pytest

from trialg.algebra import (
    AlgSubspace,
    AxiomReport,
    AxiomViolation,
    BoundReport,
    QuotientAlgebra,
    TriAlgebra,
    VDASH,
    check_dim_bounds,
    quotient_algebra,
)
from trialg.cohomology import CochainTriple, CocycleViolation, cocycle_defects
from trialg.extensions import (
    CentralExtension,
    CoverResult,
    StemImageReport,
    build_central_extension,
    cover,
    stem_center_image_check,
)
from trialg.fields import GF, QQ, FieldMismatchError
from trialg.generators import abelian, cover_abelian, dim2_single_product
from trialg.linalg import Subspace
from trialg.sequences import (
    FiveTermReport,
    InfDeltaReport,
    SeqMap,
    StallingsReport,
    TraImageReport,
    UnicentralityReport,
    inf2,
    stallings_check,
    tra_image_check,
    unicentrality_criteria,
    verify_five_term,
    verify_inf_delta,
)

FIELDS = {
    AxiomViolation: ("axiom", "triple", "defect"),
    AxiomReport: ("ok", "violations"),
    AlgSubspace: ("parent", "space"),
    QuotientAlgebra: ("algebra", "projection", "section"),
    BoundReport: ("dim", "central_quotient_dim", "derived_dim", "derived_bound", "derived_ok",
                  "pair_base_dim", "total_bound", "total_ok"),
    CocycleViolation: ("axiom", "triple", "defect"),
    CentralExtension: ("total", "base", "kernel", "projection", "cocycle"),
    CoverResult: ("extension", "multiplier_dim"),
    StemImageReport: ("trials", "kernel_dims", "all_stem", "images_agree", "image_dim",
                      "equals_z_star", "unicentral", "center_recovered",
                      "identity_extension_image_dim"),
    SeqMap: ("label", "matrix", "domain_dim", "codomain_dim"),
    FiveTermReport: ("dims", "ranks", "inf1_injective", "exact_at_hom_l", "exact_at_hom_z",
                     "exact_at_h2_quotient"),
    InfDeltaReport: ("h2_quotient_dim", "h2_dim", "block_dim", "inf2_rank", "delta_rank",
                     "ok"),
    TraImageReport: ("tra_rank", "derived_cap_z_dim"),
    UnicentralityReport: ("delta_trivial", "inf2_surjective", "multiplier_dims_match",
                          "z_in_z_star"),
    StallingsReport: ("node_dims", "ranks", "dual_exact", "tail_surjective",
                      "res_rank_matches", "tra_rank_matches"),
}

HOMES = {
    "trialg.algebra": {AxiomViolation, AxiomReport, AlgSubspace, QuotientAlgebra, BoundReport},
    "trialg.cohomology": {CocycleViolation},
    "trialg.extensions": {CentralExtension, CoverResult, StemImageReport},
    "trialg.sequences": {SeqMap, FiveTermReport, InfDeltaReport, TraImageReport,
                         UnicentralityReport, StallingsReport},
}

# Records that hold an algebra or a cochain, which are unhashable.
UNHASHABLE = {AlgSubspace, QuotientAlgebra, CentralExtension, CoverResult}


def invalid_algebra():
    return TriAlgebra(2, QQ, {VDASH: {(0, 1): {0: 1}}})


def built_records():
    """One record of each type, made by the computation that returns it."""
    dim2 = dim2_single_product()
    z = dim2.center()
    report = invalid_algebra().axiom_report()
    not_cocycle = CochainTriple(dim2, 1, {VDASH: {(1, 0): [1]}})
    a1 = abelian(1)
    return [
        report.violations[0],
        report,
        z,
        quotient_algebra(dim2, z),
        check_dim_bounds(cover_abelian(1), pair_kernel=Subspace.full(QQ, 4)),
        cocycle_defects(not_cocycle)[0],
        build_central_extension(a1, 1, CochainTriple(a1, 1, {VDASH: {(0, 0): [1]}})),
        cover(a1),
        stem_center_image_check(a1, trials=2),
        inf2(dim2, z),
        verify_five_term(dim2, z),
        verify_inf_delta(dim2, z),
        tra_image_check(dim2, z),
        unicentrality_criteria(dim2, z),
        stallings_check(dim2, z),
    ]


RECORDS = built_records()


def ids(record):
    return type(record).__name__


def test_every_record_type_is_covered():
    assert [type(r) for r in RECORDS] == list(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_name_module_and_repr(record):
    cls = type(record)
    names = FIELDS[cls]
    assert cls.__name__ == ids(record)
    assert cls in HOMES[cls.__module__]
    values = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{cls.__name__}({values})"


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_positional_and_keyword_construction_give_equal_records(record):
    cls = type(record)
    values = {n: getattr(record, n) for n in FIELDS[cls]}
    positional = cls(*values.values())
    keyword = cls(**values)
    assert positional == record and keyword == record
    assert not positional != record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(positional) == hash(keyword) == hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=ids)
def test_fields_cannot_be_assigned(record):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_different_values_give_different_records():
    report = check_dim_bounds(abelian(2))
    assert report == BoundReport(2, 0, 0, 0, True)
    assert report != BoundReport(2, 0, 0, 0, False)
    dim2 = dim2_single_product()
    assert dim2.center() != dim2.full_subspace()


def test_defaults():
    report = BoundReport(dim=3, central_quotient_dim=0, derived_dim=0, derived_bound=0,
                         derived_ok=True)
    assert (report.pair_base_dim, report.total_bound, report.total_ok) == (None, None, None)
    assert report == check_dim_bounds(abelian(3))
    assert report.ok
    ext = build_central_extension(abelian(1), 1, CochainTriple(abelian(1), 1, {}))
    bare = CentralExtension(total=ext.total, base=ext.base, kernel=ext.kernel,
                            projection=ext.projection)
    assert bare.cocycle is None
    assert bare != ext


def test_alg_subspace_checks_its_arguments():
    dim2 = dim2_single_product()
    with pytest.raises(ValueError, match="ambient dimension"):
        AlgSubspace(dim2, Subspace.full(QQ, 3))
    with pytest.raises(FieldMismatchError):
        AlgSubspace(dim2, Subspace.full(GF(7), 2))
    with pytest.raises(ValueError, match="ambient dimension"):  # checked before the field
        AlgSubspace(parent=dim2, space=Subspace.full(GF(7), 3))
    assert AlgSubspace(parent=dim2, space=Subspace.full(QQ, 2)).dim == 2


def test_seq_map_stays_immutable():
    m = inf2(dim2_single_product(), dim2_single_product().center())
    assert m.rank == m.image().dim
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.label
