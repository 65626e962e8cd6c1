"""Independent oracles used to cross-check the package's computations.

Everything here deliberately avoids the library's RREF/sparse-assembly
code paths: ranks come from fraction-free integer elimination (or plain
modular elimination over a prime field), identity defects from direct
evaluation of both sides of each identity via ``multiply``, and cocycle
constraints from a dense all-triples assembly.

The dense products of an algebra (``product_vector``, ``multiply``,
``tensor`` and its inverse ``from_tensors``), the value of a cochain at two dense
vectors (``evaluate``) and the central-extension check
``check_extension`` work on dense vectors and these oracles only, so they
too stay independent of the package's sparse elimination.
``random_valid_algebra`` draws the random corpus of the property tests
from the package's public constructors, and ``section_cocycle_of`` reads
the cocycle of an extension along a section, by default
``canonical_section``.
"""

import json
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from trialg.algebra import IDENTITIES, OPS, TriAlgebra, quotient_algebra
from trialg.cohomology import CochainTriple, section_cocycle
from trialg.extensions import CentralExtension, build_central_extension
from trialg.fields import QQ, PrimeField, RationalField
from trialg.generators import NoCocyclesError, abelian, dim2_single_product, random_cocycles, unital_dim1
from trialg.linalg import Matrix, Subspace, solve_right


def product_vector(alg, op, i, j):
    """Dense coordinate vector of e_i op e_j."""
    vec = alg.products[op].get((i, j), {})
    return tuple(vec.get(k, alg.field.zero) for k in range(alg.dim))


def multiply(alg, x, y, op):
    """Bilinear extension of the ``op`` table to the dense vectors x, y."""
    f = alg.field
    out = [f.zero] * alg.dim
    for (i, j), vec in alg.products[op].items():
        c = f.coerce(x[i] * y[j])
        if c:
            for k, v in vec.items():
                out[k] = f.coerce(out[k] + c * v)
    return tuple(out)


def tensor(alg, op):
    """Dense n x n x n tensor of one operation."""
    return tuple(tuple(product_vector(alg, op, i, j) for j in range(alg.dim)) for i in range(alg.dim))


def from_tensors(field, tensors, name=None):
    """The algebra of dense n x n x n coordinate tensors, one per operation."""
    n = len(next(iter(tensors.values())))
    products = {op: {(i, j): vec for i, plane in enumerate(t) for j, vec in enumerate(plane)}
                for op, t in tensors.items()}
    return TriAlgebra(n, field, products, name=name)


def evaluate(cochain, x, y, op):
    """Value of the ``op`` form of ``cochain`` at the dense vectors (x, y)."""
    f = cochain.base.field
    acc = [f.zero] * cochain.coeff_dim
    for (i, j), val in cochain.forms[op].items():
        c = f.coerce(x[i] * y[j])
        if c:
            acc = [f.coerce(a + c * v) for a, v in zip(acc, val)]
    return tuple(acc)


def check_extension(ext):
    """Assert that ``ext`` is a central extension: its kernel is central in
    the total algebra, and the projection P is a surjective algebra
    homomorphism with that kernel as its null space."""
    total, base, field = ext.total, ext.base, ext.total.field
    units = [unit_vector(field, total.dim, i) for i in range(total.dim)]
    for z in ext.kernel.basis_rows():
        for op in OPS:
            for e in units:
                assert not any(multiply(total, z, e, op)) and not any(multiply(total, e, z, op)), \
                    "kernel is not central in the total algebra"
    proj = ext.projection.data
    assert oracle_rank(field, proj) == base.dim, "projection is not surjective"
    assert dense_kernel(field, proj, total.dim)[0] == ext.kernel.basis_rows(), \
        "projection kernel differs from the stored kernel"
    images = list(zip(*proj))  # images[i]: P e_i
    for op in OPS:
        for i, j in product(range(total.dim), repeat=2):
            image = dense_matvec(field, proj, product_vector(total, op, i, j))
            assert image == multiply(base, images[i], images[j], op), "projection is not an algebra homomorphism"


def random_valid_algebra(rng, field=QQ, max_dim=6):
    """A validated algebra of dimension <= max_dim: a random base from the
    corpus, extended by random cocycle layers while room remains."""
    builders = [
        lambda: abelian(rng.randint(1, 3), field),
        lambda: dim2_single_product(field),
        lambda: unital_dim1(field),
    ]
    alg = rng.choice(builders)()
    for _ in range(rng.randint(0, 2)):
        room = max_dim - alg.dim
        if room < 1:
            break
        k = rng.randint(1, min(2, room))
        try:
            cocycles = random_cocycles(alg, k, rng)
        except NoCocyclesError:
            break
        stacked = CochainTriple.stack(alg, cocycles)
        alg = build_central_extension(alg, k, stacked).total
    return alg


def dense_algebra_dict(alg):
    """The algebra-file document, every coordinate formatted from the
    dense product vector."""
    entries = [
        {"op": op, "i": i, "j": j, "value": [alg.field.to_str(x) for x in product_vector(alg, op, i, j)]}
        for op in OPS
        for (i, j) in sorted(alg.products[op])
    ]
    return {"field": alg.field.name, "dim": alg.dim, "products": entries}


def json_emit(alg):
    """The algebra file as the standard JSON encoder writes it."""
    return json.dumps(dense_algebra_dict(alg), indent=2) + "\n"


def bareiss_rank_int(rows):
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    rank = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
    return rank


def modular_rank(rows, p):
    """Rank over F_p by plain forward elimination."""
    m = [[x % p for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def oracle_rank(field, rows):
    """Field-dispatching rank oracle on plain row data."""
    rows = [list(r) for r in rows]
    if isinstance(field, RationalField):
        int_rows = []
        for row in rows:
            fracs = [Fraction(x) for x in row]
            scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
            int_rows.append([int(f * scale) for f in fracs])
        return bareiss_rank_int(int_rows)
    if isinstance(field, PrimeField):
        return modular_rank([[int(x) for x in row] for row in rows], field.p)
    raise TypeError(f"no oracle for field {field!r}")


def unit_vector(field, n, i):
    return tuple(field.one if t == i else field.zero for t in range(n))


def direct_identity_defects(alg):
    """Evaluate both sides of every identity on every basis triple:
    ``(identity, triple, lhs - rhs)`` wherever the two sides differ."""
    n = alg.dim
    basis = [unit_vector(alg.field, n, i) for i in range(n)]
    bad = []
    for idx, (op_a, op_b, op_c, op_d) in enumerate(IDENTITIES, start=1):
        for i, j, l in product(range(n), repeat=3):  # noqa: E741
            lhs = multiply(alg, multiply(alg, basis[i], basis[j], op_a), basis[l], op_b)
            rhs = multiply(alg, basis[i], multiply(alg, basis[j], basis[l], op_d), op_c)
            if lhs != rhs:
                bad.append((idx, (i, j, l), tuple(alg.field.coerce(a - b) for a, b in zip(lhs, rhs))))
    return bad


def dense_cocycle_rows(base, k):
    """All-triples constraint rows for the cocycle system, dense."""
    return [row for _, _, _, row in _labelled_cocycle_rows(base, k)]


def dense_cocycle_defects(f):
    """Defects of a cochain as dense constraint rows times its vector:
    ``(family, triple, k-vector)`` wherever that vector is nonzero."""
    fld = f.base.field
    vec = f.vectorize()
    values = {}
    for idx, triple, t, row in _labelled_cocycle_rows(f.base, f.coeff_dim):
        acc = fld.zero
        for a, x in zip(row, vec):
            acc = fld.coerce(acc + a * x)
        values.setdefault((idx, triple), [fld.zero] * f.coeff_dim)[t] = acc
    return [(idx, triple, tuple(v)) for (idx, triple), v in values.items() if any(v)]


def _labelled_cocycle_rows(base, k):
    n = base.dim
    rows = []
    for idx, (op_a, op_b, op_c, op_d) in enumerate(IDENTITIES, start=1):
        ob, oc = OPS.index(op_b), OPS.index(op_c)
        for i, j, l in product(range(n), repeat=3):  # noqa: E741
            ca = product_vector(base, op_a, i, j)
            cd = product_vector(base, op_d, j, l)
            if not any(ca) and not any(cd):
                continue
            for t in range(k):
                row = [base.field.zero] * (3 * n * n * k)
                for m in range(n):
                    if ca[m]:
                        col = ((ob * n + m) * n + l) * k + t
                        row[col] = base.field.coerce(row[col] + ca[m])
                for m in range(n):
                    if cd[m]:
                        col = ((oc * n + i) * n + m) * k + t
                        row[col] = base.field.coerce(row[col] - cd[m])
                rows.append((idx, (i, j, l), t, row))
    return rows


def dense_center_rows(alg):
    """Dense rows whose kernel is the center: for each operation, basis
    vector e_j and coordinate k, the coordinate k of z op e_j and of
    e_j op z as functionals of z."""
    n = alg.dim
    rows = []
    for op in OPS:
        for j in range(n):
            for k in range(n):
                rows.append([product_vector(alg, op, i, j)[k] for i in range(n)])
                rows.append([product_vector(alg, op, j, i)[k] for i in range(n)])
    return rows


def dense_z2_dim(base, k):
    rows = dense_cocycle_rows(base, k)
    return 3 * base.dim * base.dim * k - oracle_rank(base.field, rows)


def dense_rref(field, rows, ncols):
    """Dense Gauss-Jordan RREF of coerced row data: ``(rows, pivots)``.

    The package's elimination before it moved to sparse rows, kept as the
    reference: pivots in the leftmost column with a nonzero entry, taken
    from the topmost such row, scaled to 1 with full elimination above and
    below.  Zero rows stay, at the bottom.
    """
    coerce = field.coerce
    rows = [list(r) for r in rows]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        s = field.from_quotient(1, pivot_row[c])
        for cc in range(c, ncols):
            pivot_row[cc] = coerce(s * pivot_row[cc])
        for i in range(nr):
            t = rows[i][c]
            if i != r and t:
                rows[i] = [a if cc < c else coerce(a - t * pivot_row[cc])
                           for cc, a in enumerate(rows[i])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def dense_span(field, rows, ncols):
    """Canonical basis (nonzero RREF rows) and pivots of a row span."""
    red, pivots = dense_rref(field, rows, ncols)
    return red[: len(pivots)], pivots


def dense_kernel(field, rows, ncols):
    """Canonical basis and pivots of the right null space."""
    red, pivots = dense_rref(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.coerce(-red[r][fc])
        basis.append(v)
    return dense_span(field, basis, ncols)


def dense_complement(field, sub_rows, sup_rows, ncols):
    """Pivot-completion complement by repeated spans: keep each row of
    ``sup_rows`` that raises the rank of the sub space plus the rows kept so
    far; returns the canonical basis and pivots of the kept rows' span."""
    kept = []
    for row in sup_rows:
        before = len(dense_rref(field, list(sub_rows) + kept, ncols)[1])
        if len(dense_rref(field, list(sub_rows) + kept + [row], ncols)[1]) > before:
            kept.append(row)
    return dense_span(field, kept, ncols)


def dense_residual(field, basis, pivots, v):
    """Residual of ``v`` after subtracting multiples of RREF basis rows."""
    w = list(v)
    for row, pc in zip(basis, pivots):
        c = w[pc]
        if c:
            w = [field.coerce(a - c * e) for a, e in zip(w, row)]
    return tuple(w)


def dense_matvec(field, rows, v):
    """``M v`` for the dense rows of M."""
    return tuple(field.coerce(sum(map(mul, row, v), field.zero)) for row in rows)


def dense_matmul(field, a, b, ncols):
    """Product of the dense rows ``a`` and the ``ncols``-wide dense rows ``b``."""
    columns = [[row[j] for row in b] for j in range(ncols)]
    return tuple(dense_matvec(field, columns, row) for row in a)


def dense_inverse(field, rows):
    """Inverse of a dense square matrix: Gauss-Jordan on ``[M | I]``."""
    n = len(rows)
    red, pivots = dense_rref(field, [list(r) + list(unit_vector(field, n, i)) for i, r in enumerate(rows)], 2 * n)
    assert pivots == tuple(range(n)), "singular matrix"
    return [row[n:] for row in red]


# Subspace products, quotients and changes of basis as the package built
# them before it moved to the sparse product tables: dense vectors
# multiplied through ``multiply``.


def dense_product_subspace(a, s, t):
    """Span of every ``u op v`` in ``a`` for u, v dense basis rows of ``s`` and ``t``."""
    rows = [multiply(a, u, v, op) for u in s.basis_rows() for v in t.basis_rows() for op in OPS]
    return Subspace.from_rows(a.field, a.dim, rows)


def dense_transport(a, rows, to_coords, name=None):
    """The algebra whose basis vector r stands for the dense vector
    ``rows[r]`` of ``a``: e_r op e_s has the coordinates
    ``to_coords(rows[r] op rows[s])``."""
    products = {
        op: {(r, s): to_coords(multiply(a, u, v, op)) for r, u in enumerate(rows) for s, v in enumerate(rows)}
        for op in OPS
    }
    return TriAlgebra(len(rows), a.field, products, name=name)


def dense_quotient_algebra(a, space):
    """``(algebra, projection rows, section rows)`` of the quotient of ``a``
    by the ideal ``space``: the projection reads the coordinates of the
    complement rows against the basis of ``space`` followed by its pivot
    complement, and the section embeds along that complement."""
    comp = space.complement_in(Subspace.full(a.field, a.dim)).basis_rows()
    stacked = space.basis_rows() + comp
    proj = tuple(map(tuple, dense_inverse(a.field, list(zip(*stacked)))[space.dim :]))
    section = tuple(zip(*comp)) if comp else ((),) * a.dim
    return dense_transport(a, comp, lambda p: dense_matvec(a.field, proj, p)), proj, section


def dense_change_basis(a, rows):
    """``a`` re-expressed in the basis whose i-th vector is the dense row
    ``rows[i]``: new coordinates are old ones times the inverse."""
    to_new = list(zip(*dense_inverse(a.field, rows)))
    return dense_transport(a, rows, lambda x: dense_matvec(a.field, to_new, x), a.name)


def canonical_section(ext):
    """The right inverse of the projection of the central extension ``ext``
    that solves it with free variables zero."""
    return solve_right(ext.projection, Matrix.identity(ext.base.field, ext.base.dim))


def section_cocycle_of(ext, section=None):
    """The cocycle of the central extension ``ext`` along ``section``, by
    default the canonical one."""
    if section is None:
        section = canonical_section(ext)
    return section_cocycle(ext.total, ext.base, ext.projection, ext.kernel, section)


def quotient_stem_reduce(ext):
    """Stem reduction of the central extension ``ext`` through the quotient
    algebra: divide the total algebra by the pivot complement E of
    (kernel n derived) in the kernel, carry the projection and the kernel
    through the quotient, and read the cocycle off the section that solves
    the projection with free variables zero.  ``ext`` itself when E is zero."""
    total, base, kern = ext.total, ext.base, ext.kernel
    e_space = kern.intersection(total.derived()).complement_in(kern)
    if e_space.dim == 0:
        return ext
    quot = quotient_algebra(total, e_space)
    new_total = quot.algebra
    proj = ext.projection @ quot.section
    kernel_rows = (kern.basis @ quot.projection.transpose()).data
    new_kernel = Subspace.from_rows(total.field, new_total.dim, kernel_rows)
    section = solve_right(proj, Matrix.identity(base.field, base.dim))
    cocycle = section_cocycle(new_total, base, proj, new_kernel, section)
    return CentralExtension(new_total, base, new_kernel, proj, cocycle)
