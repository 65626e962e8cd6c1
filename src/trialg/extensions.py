"""Central extensions, covers, and the stable center.

A central extension of F^k by B is built on the space B + F^k with
products (x, a) * (y, c) = (x * y, f(x, y)) for a cochain triple f; the
result satisfies the defining identities exactly when f is a cocycle, and
identity i fails exactly when constraint family i does.

A cover of L is constructed cohomologically: extend L by the canonical
H^2 representatives, the rows of the complement basis taken as the
coordinate cochains of one vector-valued cocycle, then stem-reduce.  The
kernel M of that extension is the block of its last coordinates, so the
pivot complement of M n K' in M (K' the derived subalgebra) is spanned by
unit vectors of M: dividing by it is extending again along the rows whose
kernel unit vectors are not in it.  A cochain is a cocycle exactly when
each of its rows is one, so that second extension is built without
checking the cocycle again.

The stable center Z*(L) is the image of the cover's center under the
covering projection; L is unicentral when that image is all of Z(L).  It
is computed without the cover, as the central z with g(z, y) = g(y, z) =
0 for every cocycle g in Z^2(L, F), every operation and every y: like
Z(L), the two-sided annihilator of bilinear maps, here the products and
the Z^2 basis read as one map into F^(dim Z^2).  In the
extension by the stacked representatives f, a lift s(z) of a central z
has s(z) * s(y) = f(z, y) and s(y) * s(z) = f(y, z), both in M n K'; the
stem reduction divides by a complement of M n K' in M, so it is
injective there, and s(z) stays central in the cover exactly when
f(z, .) and f(., z) vanish.  A coboundary -eps(x * y) vanishes when x or
y is central, so the representatives may be replaced by all of Z^2.  The
cover, ``CentralExtension.center_image`` and ``stem_center_image_check``
compute the image directly, and the tests check the two against each
other.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import NamedTuple

from .algebra import AlgSubspace, TriAlgebra, _annihilator_rows, product_subspace
from .cohomology import (
    CochainTriple,
    NotACocycleError,
    _cochain_tables,
    cocycle_defects,
    h2,
    z2_space,
)
from .linalg import Matrix, Subspace, _kernel, _modulus, _scalars, random_combination, random_invertible

__all__ = [
    "CentralExtension",
    "extension_algebra",
    "build_central_extension",
    "cover",
    "CoverResult",
    "cover_fingerprint",
    "z_star",
    "is_unicentral",
    "stem_center_image_check",
    "StemImageReport",
]


class CentralExtension(NamedTuple):
    """A surjection total -> base whose kernel is central in total."""

    total: TriAlgebra
    base: TriAlgebra
    kernel: AlgSubspace          # subspace of total
    projection: Matrix           # base.dim x total.dim
    cocycle: CochainTriple | None = None

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim

    def is_stem(self) -> bool:
        return self.total.derived().space.contains(self.kernel.space)

    def center_image(self) -> Subspace:
        """Image of the total algebra's center under the projection."""
        return Subspace._span(self.total.center().space.basis @ self.projection.transpose())


def extension_algebra(b: TriAlgebra, f: CochainTriple) -> TriAlgebra:
    """Force-build the extension's product tables without any cocycle check.

    The result passes the identity check exactly when ``f`` is a cocycle,
    failing at exactly the identity indices of the violated constraint
    families.
    """
    if f.base != b:
        raise ValueError("cochain base differs from the extension base")
    n, mod = b.dim, _modulus(b.field)
    products = {op: {key: dict(vec) for key, vec in table.items()} for op, table in b.products.items()}
    e, tables = _cochain_tables(f._rows, n)
    for op, table in tables.items():
        for key, slot in table.items():
            products[op].setdefault(key, {}).update({n + t: v for t, v in _scalars(slot, e, mod).items()})
    return TriAlgebra(n + f.coeff_dim, b.field, products)


def build_central_extension(b: TriAlgebra, k: int, f: CochainTriple) -> CentralExtension:
    """Central extension of F^k by ``b`` along the cocycle ``f``."""
    b.require_valid()
    if f.base != b or f.coeff_dim != k:
        raise ValueError("cochain does not match the requested extension")
    defects = cocycle_defects(f)
    if defects:
        raise NotACocycleError(defects)
    return _extension(b, f)


def _extension(b: TriAlgebra, f: CochainTriple) -> CentralExtension:
    """The central extension along ``f``, a cocycle on ``b`` that the caller
    has checked."""
    k = f.coeff_dim
    total = extension_algebra(b, f)
    fld = b.field
    n = b.dim
    proj = Matrix.identity(fld, n).hstack(Matrix.zeros(fld, n, k))  # drops the F^k coordinates
    units = Subspace(fld, n + k, {n + t: (1, {}) for t in range(k)})  # its kernel: e_n, ..., e_{n+k-1}
    return CentralExtension(total, b, AlgSubspace(total, units), proj, f)


class CoverResult(NamedTuple):
    extension: CentralExtension
    multiplier_dim: int


def cover(l: TriAlgebra) -> CoverResult:
    """Cover of ``l``: a stem extension with kernel of maximal dimension.

    Built by extending along the canonical H^2 representatives, the rows
    of the complement basis, and stem-reducing.  The kernel then has the
    multiplier dimension and sits inside both the center and the derived
    subalgebra of the cover.  Built once per algebra and memoised on it.
    """
    l.require_valid()

    def build():
        res = h2(l)
        return CoverResult(_cover_from_rows(l, res._complement.basis), res.h2_dim)

    return l._memo("cover", build)


def _cover_from_rows(l: TriAlgebra, rows: Matrix) -> CentralExtension:
    """The extension by the F-valued cocycle rows of ``rows``, stem-reduced
    as the module docstring says; returned as built when M lies in K'."""
    ext = build_central_extension(l, rows.rows, CochainTriple._from_rows(l, rows))
    derived = ext.total.derived().space._echelon  # M n K': its rows with a pivot in M's block
    m_in_derived = Subspace(l.field, ext.total.dim, {p: row for p, row in derived.items() if p >= l.dim})
    drop = m_in_derived.complement_in(ext.kernel.space).pivots
    if not drop:
        return ext
    # c: the row's kernel coordinate; rows of a cocycle make one, so it is not checked again
    kept = tuple(row for c, row in enumerate(rows._sparse, l.dim) if c not in drop)
    return _extension(l, CochainTriple._from_rows(l, Matrix._from_ints(l.field, kept, rows.cols)))


def cover_fingerprint(l: TriAlgebra, reps=None) -> tuple[int, int, int, int, int, int]:
    """Isomorphism-invariant profile of a cover built from ``reps``.

    Returns (dim, dim K', dim Z(K), dim K' n Z(K), dim K' <> K',
    h2_dim(K, 1)); identical across representative orderings.
    """
    if reps is None:
        ext = cover(l).extension
    else:
        ext = _cover_from_rows(l, CochainTriple.stack(l, reps)._rows)
    k = ext.total
    derived = k.derived()
    center = k.center()
    return (
        k.dim,
        derived.dim,
        center.dim,
        derived.space.intersection(center.space).dim,
        product_subspace(derived, derived).dim,
        h2(k).h2_dim,
    )


def z_star(l: TriAlgebra) -> AlgSubspace:
    """Z*(L): the central z with g(z, e_y) = g(e_y, z) = 0 for every row g
    of the Z^2(L, F) basis, every operation and every basis vector e_y.

    That is the image of the cover's center (see the module docstring), so
    no cover is built.  The Z^2 basis rows are one bilinear map into
    F^(dim Z^2), read through ``_cochain_tables``; Z* is the null space of
    the annihilator rows of the products and of that map, streamed into the
    elimination in that order.  Memoised on ``l``.
    """

    def build():
        n = l.dim
        z2 = _cochain_tables(z2_space(l).basis, n)[1]
        rows = chain(_annihilator_rows(l._cleared_products()[1]), _annihilator_rows(z2))
        return AlgSubspace(l, _kernel(l.field, rows, n))

    return l._memo("z_star", build)


def is_unicentral(l: TriAlgebra) -> bool:
    return z_star(l).space == l.center().space


class StemImageReport(NamedTuple):
    trials: int
    kernel_dims: tuple[int, ...]
    all_stem: bool
    images_agree: bool
    image_dim: int
    equals_z_star: bool
    unicentral: bool
    center_recovered: bool        # image == Z(L); forced when unicentral
    identity_extension_image_dim: int

    @property
    def ok(self) -> bool:
        if not (self.all_stem and self.images_agree and self.equals_z_star):
            return False
        if self.unicentral and not self.center_recovered:
            return False
        return True


def stem_center_image_check(l: TriAlgebra, trials: int = 5, seed: int = 0) -> StemImageReport:
    """Build randomized stem extensions whose kernels span the multiplier
    and compare the projected centers.

    Even trials transform the canonical representatives by a random
    invertible matrix; odd trials additionally append a dependent cocycle
    (a combination of representatives shifted by a coboundary), which stem
    reduction drops: it keeps the cocycles whose kernel unit vectors are
    not in the complement of M n K' in M.  All trial images must agree.
    """
    l.require_valid()
    rng = random.Random(seed)
    res = h2(l)
    m = res.h2_dim
    fld = l.field
    zs = z_star(l)
    rep_vectors = res._complement.basis  # row i: h2_reps[i]
    # One draw per representative, then one per coboundary basis row: the
    # draws of a combination of the representatives followed by those of a
    # shift by a coboundary.
    reps_and_b2 = rep_vectors.vstack(res.b2.basis)

    images = []
    kernel_dims = []
    all_stem = True
    for t in range(trials):
        vectors = random_invertible(rng, m, fld) @ rep_vectors
        if t % 2 == 1:
            extra = random_combination(rng, reps_and_b2)
            if extra is not None:
                vectors = vectors.vstack(extra)
        ext = _cover_from_rows(l, vectors)
        if not ext.is_stem():
            all_stem = False
        kernel_dims.append(ext.kernel_dim)
        images.append(ext.center_image())
    images_agree = all(img == images[0] for img in images[1:]) if images else True
    image = images[0] if images else zs.space
    center = l.center().space
    unicentral = zs.space == center
    return StemImageReport(
        trials=trials,
        kernel_dims=tuple(kernel_dims),
        all_stem=all_stem,
        images_agree=images_agree,
        image_dim=image.dim,
        equals_z_star=image == zs.space,
        unicentral=unicentral,
        center_recovered=image == center,
        identity_extension_image_dim=center.dim,
    )
