"""Low-degree cohomology maps for a central ideal, as explicit matrices.

For a central ideal Z of L and trivial coefficients A = F^k, the maps

    0 -> Hom(L/Z, A) -> Hom(L, A) -> Hom(Z, A) -> H^2(L/Z, A) -> H^2(L, A)

(inflation, restriction, transgression, second inflation) are realized as
matrices between canonical coordinate spaces, along with the evaluation
map from H^2(L, F) into the paired blocks (L/L' (x) Z + Z (x) L/L')^3.
Exactness and the dimension statements they imply are checked by exact
subspace equality; every report is computed, never assumed.

Coordinates: a Hom node is a subspace of flattened k x dim matrices; an
H^2 node uses coset coordinates against the stored complement of B^2 in
Z^2, which is canonical, so kernels and images at a node live in one fixed
coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TriAlgebra, as_subspace, hom_to_field, quotient_algebra, OPS
from .cohomology import CochainTriple, h2, section_cocycle
from .extensions import z_star
from .linalg import Matrix, Subspace, kernel, rank

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


class NotCentralIdealError(ValueError):
    pass


def _require_central(l: TriAlgebra, z: Subspace) -> None:
    center = l.center().space
    for idx, row in enumerate(z.basis_rows()):
        if not center.contains_vector(row):
            coords = ",".join(l.field.to_str(x) for x in row)
            raise NotCentralIdealError(
                f"basis vector #{idx} = ({coords}) of the given ideal is not central"
            )


@dataclass(frozen=True)
class SeqMap:
    """A linear map between two canonical coordinate spaces."""

    label: str
    matrix: Matrix          # codomain_dim x domain_dim
    domain_dim: int
    codomain_dim: int

    @property
    def rank(self) -> int:
        return rank(self.matrix)

    def image(self) -> Subspace:
        return Subspace._span(self.matrix.transpose())

    def kernel_space(self) -> Subspace:
        return kernel(self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


class _CentralIdealContext:
    """Shared scaffolding for the maps attached to (L, Z, k)."""

    def __init__(self, l: TriAlgebra, z, k: int = 1):
        if k < 1:
            raise ValueError("coefficient dimension must be >= 1")
        l.require_valid()
        space = as_subspace(l, z)
        _require_central(l, space)
        self.alg = l
        self.z = space
        self.k = k
        self.quot = quotient_algebra(l, space)
        self.hom_l = hom_to_field(l, k)
        self.hom_q = hom_to_field(self.quot.algebra, k)
        self.hom_z = Subspace.full(l.field, k * space.dim)
        self.coh_l = h2(l, k)
        self.coh_q = h2(self.quot.algebra, k)

    # --- unflatten helpers ---------------------------------------------

    def _unflatten(self, vec, width):
        return tuple(tuple(vec[t * width : (t + 1) * width]) for t in range(self.k))

    def _flatten(self, mat_rows):
        out = []
        for row in mat_rows:
            out.extend(row)
        return tuple(out)

    # --- the five maps --------------------------------------------------

    def inf1(self) -> SeqMap:
        """Precomposition with the canonical projection L -> L/Z."""
        beta = self.quot.projection
        cols = []
        for basis_vec in self.hom_q.basis_rows():
            chi = Matrix._trusted(self.alg.field, self._unflatten(basis_vec, self.quot.algebra.dim),
                                  self.quot.algebra.dim)
            composed = chi @ beta
            cols.append(self.hom_l.coordinates(self._flatten(composed.data)))
        return SeqMap("inf1", _columns_matrix(self.alg.field, cols, self.hom_l.dim),
                      self.hom_q.dim, self.hom_l.dim)

    def res(self) -> SeqMap:
        """Restriction along the inclusion Z -> L."""
        zbasis_t = self.z.basis.transpose()
        cols = []
        for basis_vec in self.hom_l.basis_rows():
            chi = Matrix._trusted(self.alg.field, self._unflatten(basis_vec, self.alg.dim),
                                  self.alg.dim)
            restricted = chi @ zbasis_t
            cols.append(self.hom_z.coordinates(self._flatten(restricted.data)))
        return SeqMap("res", _columns_matrix(self.alg.field, cols, self.hom_z.dim),
                      self.hom_l.dim, self.hom_z.dim)

    def section_cochain(self) -> CochainTriple:
        """Cocycle of the extension 0 -> Z -> L -> L/Z -> 0 for the
        canonical pivot section; valued in Z coordinates."""
        return section_cocycle(
            self.alg, self.quot.algebra, self.quot.projection, self.z, self.quot.section
        )

    def tra(self, section: Matrix | None = None) -> SeqMap:
        """Transgression: compose a map on Z with the section cocycle and
        take its class in H^2(L/Z, A)."""
        if section is None:
            cochain = self.section_cochain()
        else:
            cochain = section_cocycle(
                self.alg, self.quot.algebra, self.quot.projection, self.z, section
            )
        d = self.z.dim
        cols = []
        for basis_vec in self.hom_z.basis_rows():
            chi = self._unflatten(basis_vec, d)
            forms: dict = {op: {} for op in OPS}
            f = self.alg.field
            for op in OPS:
                for key, val in cochain.forms[op].items():
                    out = []
                    for t in range(self.k):
                        acc = f.zero
                        for s, v in zip(chi[t], val):
                            if s and v:
                                acc = f.add(acc, f.mul(s, v))
                        out.append(acc)
                    if any(out):
                        forms[op][key] = tuple(out)
            composed = CochainTriple(self.quot.algebra, self.k, forms)
            cols.append(self.coh_q.class_of(composed))
        return SeqMap("tra", _columns_matrix(self.alg.field, cols, self.coh_q.h2_dim),
                      self.hom_z.dim, self.coh_q.h2_dim)

    def inf2(self) -> SeqMap:
        """Pull classes on L/Z back along the projection."""
        beta = self.quot.projection
        n = self.alg.dim
        f = self.alg.field
        cols = []
        for rep in self.coh_q.h2_reps:
            forms: dict = {op: {} for op in OPS}
            for op in OPS:
                for (r, s), val in rep.forms[op].items():
                    for i in range(n):
                        bri = beta.data[r][i]
                        if not bri:
                            continue
                        for j in range(n):
                            bsj = beta.data[s][j]
                            if not bsj:
                                continue
                            c = f.mul(bri, bsj)
                            cur = forms[op].get((i, j))
                            if cur is None:
                                cur = [f.zero] * self.k
                                forms[op][(i, j)] = cur
                            for t, v in enumerate(val):
                                if v:
                                    cur[t] = f.add(cur[t], f.mul(c, v))
            pulled = CochainTriple(self.alg, self.k, forms)
            cols.append(self.coh_l.class_of(pulled))
        return SeqMap("inf2", _columns_matrix(self.alg.field, cols, self.coh_l.h2_dim),
                      self.coh_q.h2_dim, self.coh_l.h2_dim)

    def delta(self) -> SeqMap:
        """Evaluate H^2(L, F) classes on (L/L' coset basis) x (Z basis)
        pairs, both orders, per operation (k = 1 only)."""
        if self.k != 1:
            raise ValueError("the pairing-block map is defined for k = 1")
        derived = self.alg.derived().space
        comp = derived.complement_in(Subspace.full(self.alg.field, self.alg.dim))
        qprime = comp.dim
        d = self.z.dim
        block = 2 * qprime * d
        total_dim = 3 * block
        cols = []
        for rep in self.coh_l.h2_reps:
            col = []
            for op in OPS:
                for a in range(qprime):
                    u = comp.basis_rows()[a]
                    for b in range(d):
                        w = self.z.basis_rows()[b]
                        col.append(rep.evaluate(u, w, op)[0])
                for b in range(d):
                    w = self.z.basis_rows()[b]
                    for a in range(qprime):
                        u = comp.basis_rows()[a]
                        col.append(rep.evaluate(w, u, op)[0])
            cols.append(tuple(col))
        return SeqMap("delta", _columns_matrix(self.alg.field, cols, total_dim),
                      self.coh_l.h2_dim, total_dim)


def _columns_matrix(field, cols, nrows) -> Matrix:
    if not cols:
        return Matrix.zeros(field, nrows, 0)
    data = tuple(tuple(col[r] for col in cols) for r in range(nrows))
    return Matrix._trusted(field, data, len(cols))


def inf1(l: TriAlgebra, z, k: int = 1) -> SeqMap:
    return _CentralIdealContext(l, z, k).inf1()


def res(l: TriAlgebra, z, k: int = 1) -> SeqMap:
    return _CentralIdealContext(l, z, k).res()


def tra(l: TriAlgebra, z, k: int = 1, section: Matrix | None = None) -> SeqMap:
    return _CentralIdealContext(l, z, k).tra(section=section)


def inf2(l: TriAlgebra, z, k: int = 1) -> SeqMap:
    return _CentralIdealContext(l, z, k).inf2()


def delta_map(l: TriAlgebra, z) -> SeqMap:
    return _CentralIdealContext(l, z, 1).delta()


@dataclass(frozen=True)
class FiveTermReport:
    dims: tuple[int, int, int, int, int]
    ranks: tuple[int, int, int, int]
    inf1_injective: bool
    exact_at_hom_l: bool
    exact_at_hom_z: bool
    exact_at_h2_q: bool

    @property
    def ok(self) -> bool:
        return (
            self.inf1_injective
            and self.exact_at_hom_l
            and self.exact_at_hom_z
            and self.exact_at_h2_q
        )

    def as_dict(self) -> dict:
        return {
            "dims": ",".join(str(d) for d in self.dims),
            "ranks": ",".join(str(r) for r in self.ranks),
            "inf1_injective": self.inf1_injective,
            "exact_at_hom_l": self.exact_at_hom_l,
            "exact_at_hom_z": self.exact_at_hom_z,
            "exact_at_h2_quotient": self.exact_at_h2_q,
            "ok": self.ok,
        }


def verify_five_term(l: TriAlgebra, z, k: int = 1) -> FiveTermReport:
    """Exactness of the five-term sequence for the central ideal ``z``."""
    ctx = _CentralIdealContext(l, z, k)
    m1, m2, m3, m4 = ctx.inf1(), ctx.res(), ctx.tra(), ctx.inf2()
    dims = (ctx.hom_q.dim, ctx.hom_l.dim, ctx.hom_z.dim, ctx.coh_q.h2_dim, ctx.coh_l.h2_dim)
    ranks = (m1.rank, m2.rank, m3.rank, m4.rank)
    return FiveTermReport(
        dims=dims,
        ranks=ranks,
        inf1_injective=ranks[0] == dims[0],
        exact_at_hom_l=m1.image() == m2.kernel_space(),
        exact_at_hom_z=m2.image() == m3.kernel_space(),
        exact_at_h2_q=m3.image() == m4.kernel_space(),
    )


@dataclass(frozen=True)
class InfDeltaReport:
    h2_quotient_dim: int
    h2_dim: int
    block_dim: int
    inf2_rank: int
    delta_rank: int
    exact: bool

    @property
    def ok(self) -> bool:
        return self.exact

    def as_dict(self) -> dict:
        return {
            "h2_quotient_dim": self.h2_quotient_dim,
            "h2_dim": self.h2_dim,
            "block_dim": self.block_dim,
            "inf2_rank": self.inf2_rank,
            "delta_rank": self.delta_rank,
            "ok": self.ok,
        }


def verify_inf_delta(l: TriAlgebra, z) -> InfDeltaReport:
    """im(Inf2) = ker(delta) inside H^2(L, F)."""
    ctx = _CentralIdealContext(l, z, 1)
    m4 = ctx.inf2()
    d = ctx.delta()
    return InfDeltaReport(
        h2_quotient_dim=ctx.coh_q.h2_dim,
        h2_dim=ctx.coh_l.h2_dim,
        block_dim=d.codomain_dim,
        inf2_rank=m4.rank,
        delta_rank=d.rank,
        exact=m4.image() == d.kernel_space(),
    )


@dataclass(frozen=True)
class TraImageReport:
    tra_rank: int
    derived_cap_z_dim: int

    @property
    def ok(self) -> bool:
        return self.tra_rank == self.derived_cap_z_dim

    def as_dict(self) -> dict:
        return {
            "tra_rank": self.tra_rank,
            "derived_cap_z_dim": self.derived_cap_z_dim,
            "ok": self.ok,
        }


def tra_image_check(l: TriAlgebra, z) -> TraImageReport:
    """dim im(Tra) equals dim(L' intersect Z) for F coefficients."""
    ctx = _CentralIdealContext(l, z, 1)
    cap = l.derived().space.intersection(ctx.z)
    return TraImageReport(tra_rank=ctx.tra().rank, derived_cap_z_dim=cap.dim)


@dataclass(frozen=True)
class UnicentralityReport:
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

    def as_dict(self) -> dict:
        return {
            "delta_trivial": self.delta_trivial,
            "inf2_surjective": self.inf2_surjective,
            "multiplier_dims_match": self.multiplier_dims_match,
            "z_in_z_star": self.z_in_z_star,
            "agree": self.agree,
        }


def unicentrality_criteria(l: TriAlgebra, z) -> UnicentralityReport:
    ctx = _CentralIdealContext(l, z, 1)
    d = ctx.delta()
    m4 = ctx.inf2()
    cap = l.derived().space.intersection(ctx.z)
    zs = z_star(l)
    return UnicentralityReport(
        delta_trivial=d.is_zero(),
        inf2_surjective=m4.rank == ctx.coh_l.h2_dim,
        multiplier_dims_match=ctx.coh_l.h2_dim == ctx.coh_q.h2_dim - cap.dim,
        z_in_z_star=zs.space.contains(ctx.z),
    )


@dataclass(frozen=True)
class StallingsReport:
    """Dual verification of the five-node sequence

        M(L) -> M(L/Z) -> Z -> L/L' -> L/(Z+L') -> 0

    via the computable maps: its dualization is the five-term sequence with
    Hom(L, F) = Hom(L/L', F) and Hom(L/Z, F) = Hom(L/(Z+L'), F), so
    exactness there plus the rank bookkeeping below pins the original node
    dimensions."""

    node_dims: tuple[int, int, int, int, int]
    dual_exact: bool
    tail_surjective: bool
    res_rank_matches: bool        # rank Res = dim((Z+L')/L')
    tra_rank_matches: bool        # rank Tra = dim(Z n L')
    ranks: tuple[int, int, int, int]

    @property
    def ok(self) -> bool:
        return (
            self.dual_exact
            and self.tail_surjective
            and self.res_rank_matches
            and self.tra_rank_matches
        )

    def as_dict(self) -> dict:
        return {
            "node_dims": ",".join(str(d) for d in self.node_dims),
            "ranks": ",".join(str(r) for r in self.ranks),
            "dual_exact": self.dual_exact,
            "tail_surjective": self.tail_surjective,
            "res_rank_matches": self.res_rank_matches,
            "tra_rank_matches": self.tra_rank_matches,
            "ok": self.ok,
        }


def stallings_check(l: TriAlgebra, z) -> StallingsReport:
    ctx = _CentralIdealContext(l, z, 1)
    five = verify_five_term(l, ctx.z, 1)
    derived = l.derived().space
    z_plus_derived = ctx.z.plus(derived)
    node_dims = (
        ctx.coh_l.h2_dim,
        ctx.coh_q.h2_dim,
        ctx.z.dim,
        l.dim - derived.dim,
        l.dim - z_plus_derived.dim,
    )
    return StallingsReport(
        node_dims=node_dims,
        dual_exact=five.ok,
        tail_surjective=five.ranks[0] == node_dims[4],
        res_rank_matches=five.ranks[1] == z_plus_derived.dim - derived.dim,
        tra_rank_matches=five.ranks[2] == derived.intersection(ctx.z).dim,
        ranks=five.ranks,
    )
