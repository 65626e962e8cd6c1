"""Low-degree cohomology maps for a central ideal, as explicit matrices.

For a central ideal Z of L and trivial coefficients F, the maps

    0 -> Hom(L/Z, F) -> Hom(L, F) -> Hom(Z, F) -> H^2(L/Z, F) -> H^2(L, F)

(inflation, restriction, transgression, second inflation) are realized as
matrices between canonical coordinate spaces, along with the evaluation
map from H^2(L, F) into the paired blocks (L/L' (x) Z + Z (x) L/L')^3;
that map and second inflation go through the cochain pull-back, on the
one bilinear kernel.  Exactness and the dimension statements they imply
are checked by exact subspace equality, never assumed.  A report's
fields, in order, are its keys in ``trialg verify``, followed by its
verdict (``ok``, or ``agree`` for the criteria) when that is not a field.
Coefficients F^k would give the k-fold direct sum of these sequences, so
only F is built.  Each map is a ``SeqMap`` record; its rank, image and
kernel are computed from its matrix when asked, and each report reads an
image it needs once.

All of them read from one analysis of (L, Z), made the first time any
map or report asks for it and memoised on L under the canonical basis of
Z: the quotient L/Z, the Hom spaces, H^2(L) and H^2(L/Z) (each also
memoised on its algebra) are built once, and each map, L' n Z and the
five-term report once, on first read.  The report functions and the
module-level maps are views of that analysis.

Coordinates: a Hom node is a subspace of F^dim (Hom(Z, F) is all of
F^dim Z); an H^2 node uses coset coordinates against the stored complement
of B^2 in Z^2, which is canonical, so kernels and images at a node live in
one fixed coordinate system.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .algebra import NotCentralIdealError, TriAlgebra, as_subspace, hom_to_field, quotient_algebra
from .cohomology import _pullback, h2, section_cocycle
from .extensions import z_star
from .linalg import Matrix, Subspace, kernel

__all__ = [
    "NotCentralIdealError",
    "SeqMap",
    "inf1",
    "res",
    "tra",
    "inf2",
    "delta_map",
    "verify_five_term",
    "FiveTermReport",
    "verify_inf_delta",
    "InfDeltaReport",
    "tra_image_check",
    "TraImageReport",
    "unicentrality_criteria",
    "UnicentralityReport",
    "stallings_check",
    "StallingsReport",
]


def _require_central(l: TriAlgebra, z: Subspace) -> None:
    center = l.center()
    if center.contains(z):
        return
    for idx in range(z.dim):
        row = z.basis.row(idx)
        if not center.contains_vector(row):
            coords = ",".join(l.field.to_str(x) for x in row)
            raise NotCentralIdealError(
                f"basis vector #{idx} = ({coords}) of the given ideal is not central"
            )


class SeqMap(NamedTuple):
    """A linear map between two canonical coordinate spaces: ``matrix`` is
    codomain_dim x domain_dim.  Its rank, image and kernel are computed
    from the matrix each time they are read."""

    label: str
    matrix: Matrix
    domain_dim: int
    codomain_dim: int

    @property
    def rank(self) -> int:
        return self.image().dim

    def image(self) -> Subspace:
        return Subspace._span(self.matrix.transpose())

    def kernel_space(self) -> Subspace:
        return kernel(self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def _analysis(l: TriAlgebra, z) -> "_CentralIdealAnalysis":
    """The analysis of (l, z), memoised on ``l`` under the canonical basis
    of ``z``; checks validity and centrality before the first build."""
    l.require_valid()
    space = as_subspace(l, z)

    def build():
        _require_central(l, space)
        return _CentralIdealAnalysis(l, space)

    return l._memo(("central_ideal", space), build)


class _CentralIdealAnalysis:
    """The quotient, Hom spaces, H^2 groups, maps and five-term report of
    one central ideal ``z`` of ``alg``.

    The quotient, Hom spaces and both H^2 results are made on construction;
    each map, L' n Z and the five-term report the first time it is read.
    """

    def __init__(self, l: TriAlgebra, z: Subspace):
        self.alg = l
        self.z = z
        self.quot = quotient_algebra(l, z)
        self.hom_l = hom_to_field(l)
        self.hom_q = hom_to_field(self.quot.algebra)
        self.coh_l = h2(l)
        self.coh_q = h2(self.quot.algebra)

    @cached_property
    def inf1(self) -> SeqMap:
        """Precomposition with the canonical projection L -> L/Z."""
        return _seq_map("inf1", self.hom_l._coordinates_of(self.hom_q.basis @ self.quot.projection))

    @cached_property
    def res(self) -> SeqMap:
        """Restriction along the inclusion Z -> L, into Hom(Z, F) = F^dim Z."""
        return _seq_map("res", self.hom_l.basis @ self.z.basis.transpose())

    @cached_property
    def tra(self) -> SeqMap:
        """The class in H^2(L/Z, F) of each Z coordinate of the cocycle of
        0 -> Z -> L -> L/Z -> 0 along the canonical pivot section."""
        quot = self.quot
        cocycle = section_cocycle(self.alg, quot.algebra, quot.projection, self.z, quot.section)
        return _seq_map("tra", self.coh_q._classes(cocycle._rows))

    @cached_property
    def inf2(self) -> SeqMap:
        """Pull classes on L/Z back along the projection P: each
        representative, through the cochain pull-back, at every pair of
        images (P e_i, P e_j), then its class in H^2(L, F)."""
        images = self.quot.projection.transpose()  # row i: P e_i
        pulled = _pullback(self.coh_q._complement.basis, [(images, images)])
        return _seq_map("inf2", self.coh_l._classes(pulled))

    @cached_property
    def delta(self) -> SeqMap:
        """Evaluate H^2(L, F) classes on (L/L' coset basis) x (Z basis)
        pairs, per operation the (u, w) pairs and then the (w, u) pairs:
        the representatives through the cochain pull-back."""
        alg = self.alg
        comp = alg._memo(
            "derived_complement",
            lambda: alg.derived().complement_in(Subspace.full(alg.field, alg.dim)),
        )
        pairs = [(comp.basis, self.z.basis), (self.z.basis, comp.basis)]
        return _seq_map("delta", _pullback(self.coh_l._complement.basis, pairs))

    @cached_property
    def derived_cap_z(self) -> Subspace:
        return self.alg.derived().intersection(self.z)

    @cached_property
    def five_term(self) -> "FiveTermReport":
        m1, m2, m3, m4 = self.inf1, self.res, self.tra, self.inf2
        im1, im2, im3 = m1.image(), m2.image(), m3.image()
        dims = (self.hom_q.dim, self.hom_l.dim, self.z.dim, self.coh_q.h2_dim, self.coh_l.h2_dim)
        ranks = (im1.dim, im2.dim, im3.dim, m4.rank)
        return FiveTermReport(
            dims=dims,
            ranks=ranks,
            inf1_injective=ranks[0] == dims[0],
            exact_at_hom_l=im1 == m2.kernel_space(),
            exact_at_hom_z=im2 == m3.kernel_space(),
            exact_at_h2_quotient=im3 == m4.kernel_space(),
        )


def _seq_map(label: str, cols: Matrix) -> SeqMap:
    """The map whose matrix has the rows of ``cols`` as its columns, one per
    basis vector of the domain."""
    return SeqMap(label, cols.transpose(), cols.rows, cols.cols)


def inf1(l: TriAlgebra, z) -> SeqMap:
    return _analysis(l, z).inf1


def res(l: TriAlgebra, z) -> SeqMap:
    return _analysis(l, z).res


def tra(l: TriAlgebra, z) -> SeqMap:
    return _analysis(l, z).tra


def inf2(l: TriAlgebra, z) -> SeqMap:
    return _analysis(l, z).inf2


def delta_map(l: TriAlgebra, z) -> SeqMap:
    return _analysis(l, z).delta


class FiveTermReport(NamedTuple):
    dims: tuple[int, int, int, int, int]
    ranks: tuple[int, int, int, int]
    inf1_injective: bool
    exact_at_hom_l: bool
    exact_at_hom_z: bool
    exact_at_h2_quotient: bool

    @property
    def ok(self) -> bool:
        return (
            self.inf1_injective
            and self.exact_at_hom_l
            and self.exact_at_hom_z
            and self.exact_at_h2_quotient
        )


def verify_five_term(l: TriAlgebra, z) -> FiveTermReport:
    """Exactness of the five-term sequence for the central ideal ``z``."""
    return _analysis(l, z).five_term


class InfDeltaReport(NamedTuple):
    h2_quotient_dim: int
    h2_dim: int
    block_dim: int
    inf2_rank: int
    delta_rank: int
    ok: bool


def verify_inf_delta(l: TriAlgebra, z) -> InfDeltaReport:
    """im(Inf2) = ker(delta) inside H^2(L, F)."""
    an = _analysis(l, z)
    image = an.inf2.image()
    return InfDeltaReport(
        h2_quotient_dim=an.coh_q.h2_dim,
        h2_dim=an.coh_l.h2_dim,
        block_dim=an.delta.codomain_dim,
        inf2_rank=image.dim,
        delta_rank=an.delta.rank,
        ok=image == an.delta.kernel_space(),
    )


class TraImageReport(NamedTuple):
    tra_rank: int
    derived_cap_z_dim: int

    @property
    def ok(self) -> bool:
        return self.tra_rank == self.derived_cap_z_dim


def tra_image_check(l: TriAlgebra, z) -> TraImageReport:
    """dim im(Tra) equals dim(L' intersect Z) for F coefficients."""
    an = _analysis(l, z)
    return TraImageReport(tra_rank=an.tra.rank, derived_cap_z_dim=an.derived_cap_z.dim)


class UnicentralityReport(NamedTuple):
    """The four equivalent conditions tying a central ideal to Z*(L).

    (1) the pairing-block map vanishes on H^2(L, F); (2) second inflation
    is surjective (the dual reading of injectivity of the natural map
    between multipliers); (3) the multiplier dimensions match through the
    quotient; (4) Z sits inside Z*(L).
    """

    delta_trivial: bool
    inf2_surjective: bool
    multiplier_dims_match: bool
    z_in_z_star: bool

    @property
    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.delta_trivial,
            self.inf2_surjective,
            self.multiplier_dims_match,
            self.z_in_z_star,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.booleans)) == 1


def unicentrality_criteria(l: TriAlgebra, z) -> UnicentralityReport:
    an = _analysis(l, z)
    return UnicentralityReport(
        delta_trivial=an.delta.is_zero(),
        inf2_surjective=an.inf2.rank == an.coh_l.h2_dim,
        multiplier_dims_match=an.coh_l.h2_dim == an.coh_q.h2_dim - an.derived_cap_z.dim,
        z_in_z_star=z_star(l).contains(an.z),
    )


class StallingsReport(NamedTuple):
    """Dual verification of the five-node sequence

        M(L) -> M(L/Z) -> Z -> L/L' -> L/(Z+L') -> 0

    via the computable maps: its dualization is the five-term sequence with
    Hom(L, F) = Hom(L/L', F) and Hom(L/Z, F) = Hom(L/(Z+L'), F), so
    exactness there plus the rank bookkeeping below pins the original node
    dimensions."""

    node_dims: tuple[int, int, int, int, int]
    ranks: tuple[int, int, int, int]
    dual_exact: bool
    tail_surjective: bool
    res_rank_matches: bool        # rank Res = dim((Z+L')/L')
    tra_rank_matches: bool        # rank Tra = dim(Z n L')

    @property
    def ok(self) -> bool:
        return (
            self.dual_exact
            and self.tail_surjective
            and self.res_rank_matches
            and self.tra_rank_matches
        )


def stallings_check(l: TriAlgebra, z) -> StallingsReport:
    an = _analysis(l, z)
    five = an.five_term
    derived = l.derived()
    z_plus_derived = an.z.plus(derived)
    node_dims = (
        an.coh_l.h2_dim,
        an.coh_q.h2_dim,
        an.z.dim,
        l.dim - derived.dim,
        l.dim - z_plus_derived.dim,
    )
    return StallingsReport(
        node_dims=node_dims,
        ranks=five.ranks,
        dual_exact=five.ok,
        tail_surjective=five.ranks[0] == node_dims[4],
        res_rank_matches=five.ranks[1] == z_plus_derived.dim - derived.dim,
        tra_rank_matches=five.ranks[2] == an.derived_cap_z.dim,
    )
