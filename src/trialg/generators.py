"""Constructors for the standard test corpus.

The cover of the n-dimensional abelian algebra is built directly here
(every basis product hits its own kernel generator), which doubles as an
independent cross-check of the cohomological cover construction.  The
seeded random central extensions start from ``random_cocycles``; the
tests build their random valid algebras from it too.
"""

from __future__ import annotations

import random

from .algebra import DASHV, OPS, PERP, NoCocyclesError, TriAlgebra, VDASH
from .cohomology import CochainTriple, z2_space
from .extensions import CentralExtension, build_central_extension
from .fields import Field, QQ
from .linalg import random_combination

__all__ = [
    "abelian",
    "cover_abelian",
    "dim2_single_product",
    "unital_dim1",
    "random_cocycles",
    "random_extension",
    "NoCocyclesError",
]


def abelian(n: int, field: Field = QQ) -> TriAlgebra:
    """All products zero."""
    return TriAlgebra(n, field, {}, name=f"abelian{n}")


def cover_abelian(n: int, field: Field = QQ) -> TriAlgebra:
    """Dimension n + 3n^2: basis x_0..x_{n-1} followed by one generator per
    (operation, i, j), with x_i op x_j equal to that generator."""
    one = field.one
    products: dict = {op: {} for op in OPS}
    for o, op in enumerate(OPS):
        for i in range(n):
            for j in range(n):
                coord = n + (o * n + i) * n + j
                products[op][(i, j)] = {coord: one}
    return TriAlgebra(n + 3 * n * n, field, products, name=f"cover-abelian{n}")


def dim2_single_product(field: Field = QQ) -> TriAlgebra:
    """Two-dimensional algebra with the single product e0 |- e0 = e1."""
    return TriAlgebra(2, field, {VDASH: {(0, 0): {1: field.one}}}, name="dim2")


def unital_dim1(field: Field = QQ) -> TriAlgebra:
    """One-dimensional algebra with e0 * e0 = e0 for all three products."""
    one = field.one
    return TriAlgebra(
        1,
        field,
        {VDASH: {(0, 0): {0: one}}, DASHV: {(0, 0): {0: one}}, PERP: {(0, 0): {0: one}}},
        name="unital1",
    )


def random_cocycles(base: TriAlgebra, k: int, rng: random.Random) -> list[CochainTriple]:
    """k nonzero cocycles sampled inside Z^2(base, F) with small coefficients."""
    z2 = z2_space(base)
    if z2.dim == 0:
        raise NoCocyclesError("base has no nonzero cocycles to sample")
    out = []
    for _ in range(k):
        combo = None
        while combo is None:
            combo = random_combination(rng, z2.basis)
        out.append(CochainTriple._from_rows(base, combo))
    return out


def random_extension(base: TriAlgebra, k: int, seed: int) -> CentralExtension:
    """Deterministic random central extension of F^k by ``base``."""
    rng = random.Random(seed)
    cocycles = random_cocycles(base, k, rng)
    stacked = CochainTriple.stack(base, cocycles)
    return build_central_extension(base, k, stacked)
