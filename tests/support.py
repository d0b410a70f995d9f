"""Shared generators and slow oracles for randomized tests.

Random complexes are built with honest d∘d = 0: the differential is
factored as d^k = R_{k+1} S_k where the columns of R_{k+1} are drawn from
the kernel of S_{k+1}, so consecutive compositions vanish identically.

The oracles are the original dense algorithms: fraction-free (Bareiss)
row elimination for rank, kernel and column space, a dense Fraction
elimination for solve, a dense Fraction matrix product, spectral pages
by subspace arithmetic on approximate cycles, the snake-lemma LES with
one solve per column, the Stein slice builder with Fraction
coefficients, and the Poisson cohomology of a weight slice, which shares
no formula with delpi: a Schouten bracket on polyvectors, twisted by the
modular vector field.  They share no elimination or product code with
``kbhom.linalg`` and no integer scaling or slice enumeration with
``kbhom.stein``.  The former model builders, on all 4^n wedge monomials
with their own tensor loops and label formula, share no tensor, sign or
label code with ``kbhom.complexes`` and ``kbhom.models``.  The former model validator sums ``Matrix`` products
of zero-filled blocks, not the integer blocks of ``validate_model``.
The former model writer is ``json.dumps`` itself, which shares no
encoder code with ``kbhom.zoo.model_to_json``.  Homology dimensions come
from one Bareiss rank per differential, with no clearing, and Stein
slice exponents from the former recursive generator.  The total complex
of a bicomplex is assembled densely on a layout of its own, sharing no
totalization code with ``kbhom.complexes``.
"""

import json
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from kbhom.complexes import (
    BlockMap,
    Complex,
    DoubleComplex,
    LongExactSequence,
    SpectralPages,
    tensor_double,
)
from kbhom.linalg import Matrix, Subspace, _reduce, kernel_basis
from kbhom.models import (
    IDENTITY_NAMES,
    CheckResult,
    DolbeaultPoissonModel,
    ModelValidationError,
    ValidationReport,
    normalize_bivector_coeffs,
    validate_model,
)
from kbhom.zoo import StructureConstantError, _structure_images, save_model

# Strings that are not "a/b" rationals (optional sign, ASCII digits, an
# optional "/b" with b nonzero): a decimal point, an exponent, a blank, an
# underscore, a non-ASCII digit and a final newline, which Fraction() reads,
# and a zero denominator, on which it raises ZeroDivisionError.  Every
# coefficient and matrix entry rejects them with a ValueError.
BAD_RATIONALS = ["0.5", "1e3", " 1", "1_0", "\u0661", "1\n", "1/0"]


def oracle_model_to_json(m) -> str:
    """The former kbmodel/1 writer: json's own indenting encoder."""
    return json.dumps(save_model(m), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def random_matrix(rng, rows, cols, density=0.5, span=3):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    entries[(i, j)] = Fraction(v)
    return Matrix(rows, cols, entries)


def random_complex(rng, lo=0, hi=3, max_dim=4):
    dims = {k: rng.randint(0, max_dim) for k in range(lo, hi + 1)}
    mids = {k: rng.randint(1, max_dim) for k in range(lo, hi + 1)}
    s = {k: random_matrix(rng, mids[k], dims.get(k, 0)) for k in range(lo, hi + 1)}
    diffs = {}
    for k in range(lo, hi):
        tgt = dims.get(k + 1, 0)
        if not dims.get(k) or not tgt:
            continue
        ker = kernel_basis(s[k + 1])
        coeff = random_matrix(rng, ker.dim, mids[k])
        diffs[k] = (ker.basis * coeff) * s[k]
    return Complex(dims, diffs)


def dc_from_complex(c, direction):
    """Place a complex along rows (direction 1, cells (k,0)) or columns."""
    if direction == 1:
        spaces = {(k, 0): d for k, d in c.spaces.items()}
        return DoubleComplex(spaces, d1={(k, 0): m for k, m in c.diffs.items()})
    spaces = {(0, k): d for k, d in c.spaces.items()}
    return DoubleComplex(spaces, d2={(0, k): m for k, m in c.diffs.items()})


def random_double_complex(rng, max_dim=3):
    """A random honest bicomplex: row complex ⊗ column complex."""
    row = random_complex(rng, 0, rng.randint(1, 2), max_dim)
    col = random_complex(rng, 0, rng.randint(1, 2), max_dim)
    return tensor_double(dc_from_complex(row, 1), dc_from_complex(col, 2))


def convolve(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if x and y:
                out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def split_ses(a, c, twist=None):
    """0 -> A -> A⊕C -> C -> 0 with an optional compatible twist block.

    The twist h: C^k -> A^{k+1} must satisfy d_A h + h d_C = 0; the
    inclusion and projection are then chain maps and the sequence is
    degreewise split exact.
    """
    from kbhom.complexes import ChainMap

    twist = twist or {}
    spaces = {}
    for k in set(a.spaces) | set(c.spaces):
        spaces[k] = a.dim(k) + c.dim(k)
    diffs = {}
    for k in sorted(spaces):
        entries = {}
        for (i, j), v in a.d(k).entries.items():
            entries[(i, j)] = v
        for (i, j), v in c.d(k).entries.items():
            entries[(a.dim(k + 1) + i, a.dim(k) + j)] = v
        for (i, j), v in twist.get(k, Matrix.zero(0, 0)).entries.items():
            entries[(i, a.dim(k) + j)] = v
        m = Matrix(spaces.get(k + 1, 0), spaces.get(k, 0), entries)
        if not m.is_zero():
            diffs[k] = m
    b = Complex(spaces, diffs)
    f = ChainMap(a, b, {k: Matrix(b.dim(k), a.dim(k),
                                  {(i, i): 1 for i in range(a.dim(k))})
                        for k in a.spaces})
    g = ChainMap(b, c, {k: Matrix(c.dim(k), b.dim(k),
                                  {(i, a.dim(k) + i): 1 for i in range(c.dim(k))})
                        for k in c.spaces})
    return f, g


def random_split_ses(rng, lo=0, hi=2, max_dim=3):
    """A random degreewise-split short exact sequence with a twisted middle."""
    a = random_complex(rng, lo, hi, max_dim)
    c = random_complex(rng, lo, hi, max_dim)
    lift = {k: random_matrix(rng, a.dim(k), c.dim(k))
            for k in set(a.spaces) | set(c.spaces)}
    twist = {}
    for k in sorted(set(a.spaces) | set(c.spaces)):
        g_k = lift.get(k, Matrix.zero(a.dim(k), c.dim(k)))
        g_k1 = lift.get(k + 1, Matrix.zero(a.dim(k + 1), c.dim(k + 1)))
        twist[k] = a.d(k) * g_k - g_k1 * c.d(k)
    return split_ses(a, c, twist)


def _integer_rows(m: Matrix) -> list:
    """Dense integer rows of m after clearing denominators row by row.

    Row scaling changes neither the rank nor the kernel.
    """
    sparse_rows: list[dict] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        sparse_rows[i][j] = v
    out = []
    for r in sparse_rows:
        mult = 1
        for v in r.values():
            mult = lcm(mult, v.denominator)
        dense = [0] * m.cols
        for j, v in r.items():
            dense[j] = int(v * mult)
        out.append(dense)
    return out


def _echelon(m: Matrix):
    """Fraction-free (Bareiss) forward elimination.

    Returns ``(rows, pivot_cols)``: integer echelon rows and the pivot
    column of each.  Pivoting is deterministic: columns left to right,
    smallest remaining row index first.
    """
    rows = _integer_rows(m)
    nrows, ncols = m.rows, m.cols
    pivot_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            # every row below the pivot is updated, even when x == 0: the
            # one-step Bareiss division is only exact if the rescaling by
            # piv/prev is applied uniformly
            x = rows[i][c]
            src = rows[r]
            dst = rows[i]
            for j in range(c, ncols):
                num = piv * dst[j] - x * src[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss step")
                dst[j] = q
        pivot_cols.append(c)
        prev = piv
        r += 1
    return rows[:len(pivot_cols)], pivot_cols


def dense(m: Matrix) -> list:
    """m as a list of rows of Fractions, read off ``.entries`` (built anew on
    each access, so read once)."""
    entries = m.entries
    return [[entries.get((i, j), Fraction(0)) for j in range(m.cols)] for i in range(m.rows)]


def column_matrix(data) -> Matrix:
    """The one-column matrix with the given entries."""
    return Matrix.from_rows([[v] for v in data])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def oracle_product(a: Matrix, b: Matrix) -> Matrix:
    """a*b by the dense triple loop over Fractions."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    left, right = dense(a), dense(b)
    entries = {}
    for i in range(a.rows):
        for j in range(b.cols):
            v = sum((left[i][k] * right[k][j] for k in range(a.cols)), Fraction(0))
            if v:
                entries[(i, j)] = v
    return Matrix(a.rows, b.cols, entries)


def oracle_validate_model(m: DolbeaultPoissonModel) -> tuple:
    """The former validator: ``(report, kos)``, every identity summed as
    Fraction ``Matrix`` products of the zero-filled blocks on every cell,
    with the Koszul blocks kos = contraction∘del - del∘contraction as a
    ``BlockMap``.  The model's stored validation is neither read nor
    written."""
    def del_at(p, q):
        return m.del_blocks.at((p, q))

    def contraction_at(p, q):
        return m.contraction_blocks.at((p, q))

    kos = BlockMap({(p, q): contraction_at(p + 1, q) * del_at(p, q)
                    - del_at(p - 2, q) * contraction_at(p, q)
                    for (p, q) in m.cells()}, m.dims, (-1, 0))
    composites = {
        "del∘del": lambda p, q: del_at(p + 1, q) * del_at(p, q),
        "delbar∘delbar": lambda p, q: m.delbar_at(p, q + 1) * m.delbar_at(p, q),
        "del∘delbar + delbar∘del":
            lambda p, q: del_at(p, q + 1) * m.delbar_at(p, q)
            + m.delbar_at(p + 1, q) * del_at(p, q),
        "delpi∘delpi": lambda p, q: kos.at((p - 1, q)) * kos.at((p, q)),
        "delbar∘delpi + delpi∘delbar":
            lambda p, q: m.delbar_at(p - 1, q) * kos.at((p, q))
            + kos.at((p, q + 1)) * m.delbar_at(p, q),
    }
    checks = []
    for name in IDENTITY_NAMES:
        failure = None
        for (p, q) in m.cells():
            residual = composites[name](p, q)
            if not residual.is_zero():
                failure = CheckResult(name, False, (p, q), residual)
                break
        checks.append(failure or CheckResult(name, True))
    return ValidationReport(checks), kos


def oracle_rank(m: Matrix) -> int:
    return len(_echelon(m)[1])


def oracle_pivot_rows(m: Matrix) -> set:
    """The pivot rows of a column reduction of m, each column's pivot its
    last nonzero row: i is one iff the rows >= i of m have rank one more
    than the rows > i, ranks by Bareiss."""
    rows = dense(m)

    def rank_from(i: int) -> int:
        return oracle_rank(Matrix.from_rows(rows[i:])) if i < m.rows else 0

    ranks = [rank_from(i) for i in range(m.rows + 1)]
    return {i for i in range(m.rows) if ranks[i] > ranks[i + 1]}


def oracle_homology_dims(c: Complex) -> dict:
    """dim H^k = dim C^k - rank d^k - rank d^{k-1}, each differential's
    rank by Bareiss on its own, nothing cleared."""
    ranks = {k: oracle_rank(m) for k, m in c.diffs.items()}
    return {k: c.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in c.degrees()}


def _random_basis(rng, n: int) -> tuple:
    """``(A, A^{-1})`` for A = P U: U upper unitriangular with integer
    entries in [-2, 2] above the diagonal, P a random permutation."""
    u = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
         for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):  # row i of U^{-1} is e_i - Σ_{j>i} u_ij row j
        for j in range(i + 1, n):
            for col in range(n):
                inv[i][col] -= u[i][j] * inv[j][col]
    perm = list(range(n))
    rng.shuffle(perm)
    # P moves row i to row perm[i], and P^{-1} column perm[j] to column j
    a = Matrix(n, n, {(perm[i], j): u[i][j] for i in range(n) for j in range(n)})
    a_inv = Matrix(n, n, {(i, perm[j]): inv[i][j] for i in range(n) for j in range(n)})
    return a, a_inv


def elementary_complex(rng, homology: dict, edges: dict) -> Complex:
    """The direct sum of homology[k] lone Q's in degree k and edges[k]
    copies of Q -> Q (by 1) from degree k to k+1, so H^k has dimension
    homology[k], written in a random basis A_k (``_random_basis``) per
    degree: d^k becomes A_{k+1} d^k A_k^{-1}, and its pivots land
    anywhere."""
    degrees = set(homology) | set(edges) | {k + 1 for k in edges}
    dims = {k: homology.get(k, 0) + edges.get(k, 0) + edges.get(k - 1, 0) for k in degrees}
    bases = {k: _random_basis(rng, d) for k, d in dims.items()}
    diffs = {}
    for k, e in edges.items():
        # in degree k: lone Q's, edge sources, edge targets, in this order
        src, tgt = homology.get(k, 0), homology.get(k + 1, 0) + edges.get(k + 1, 0)
        d = Matrix(dims[k + 1], dims[k], {(tgt + i, src + i): 1 for i in range(e)})
        diffs[k] = oracle_product(oracle_product(bases[k + 1][0], d), bases[k][1])
    return Complex(dims, diffs)


def rescaled(rng, c: Complex) -> Complex:
    """c in a basis rescaled by random nonzero rationals s_k,i, coordinate
    by coordinate: d^k[i, j] becomes s_{k+1,i} d^k[i, j] / s_{k,j}, so
    columns and rows pick up different denominators and d∘d = 0 still."""
    scale = {k: [Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 4, 7]))
                 for _ in range(d)] for k, d in c.spaces.items()}
    return Complex(c.spaces, {k: Matrix(m.rows, m.cols, {(i, j): scale[k + 1][i] * v / scale[k][j]
                                                         for (i, j), v in m.entries.items()})
                              for k, m in c.diffs.items()})


def oracle_compositions(total: int, parts: int):
    """The former recursive generator of the tuples of ``parts``
    nonnegative ints summing to total, lex ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in oracle_compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_kernel_basis(m: Matrix) -> Subspace:
    """Unit-at-free-column kernel basis by back-substitution."""
    rows, pivot_cols = _echelon(m)
    pivot_set = set(pivot_cols)
    free = [c for c in range(m.cols) if c not in pivot_set]
    entries = {}
    for idx, f in enumerate(free):
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            c = pivot_cols[i]
            s = Fraction(0)
            row = rows[i]
            for j in range(c + 1, m.cols):
                if row[j] and x[j]:
                    s += Fraction(row[j]) * x[j]
            x[c] = -s / row[c]
        for coord, v in enumerate(x):
            if v:
                entries[(coord, idx)] = v
    return Subspace(m.cols, Matrix(m.cols, len(free), entries), _checked=True)


def oracle_solve(m: Matrix, b) -> list | None:
    """One solution of m*x = b with the free variables set to 0, or None."""
    aug = [[Fraction(0)] * (m.cols + 1) for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        aug[i][j] = v
    for i, v in enumerate(b):
        aug[i][m.cols] = Fraction(v)
    pivot_cols = []
    r = 0
    for c in range(m.cols):
        if r == len(aug):
            break
        sel = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        piv = aug[r][c]
        for i in range(r + 1, len(aug)):
            x = aug[i][c]
            if x:
                for j in range(c, m.cols + 1):
                    aug[i][j] -= x / piv * aug[r][j]
        pivot_cols.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][m.cols]:
            return None
    x = [Fraction(0)] * m.cols
    for i in reversed(range(len(pivot_cols))):
        c = pivot_cols[i]
        s = aug[i][m.cols]
        for j in range(c + 1, m.cols):
            if aug[i][j] and x[j]:
                s -= aug[i][j] * x[j]
        x[c] = s / aug[i][c]
    return x


def reduction_solve(m: Matrix, columns) -> list:
    """``_reduce(m).solve(rhs)`` on the right-hand sides in
    ``columns`` (lists of m.rows values), each answer in the form of
    ``oracle_solve``: a list of m.cols Fractions, or None where the column
    has no solution."""
    rhs = Matrix(m.rows, len(columns), {(i, j): v for j, col in enumerate(columns)
                                        for i, v in enumerate(col)})
    x, missing = _reduce(m).solve(rhs)
    return [None if j in missing else x.column(j) for j in range(rhs.cols)]


def _columns(m: Matrix, cols) -> Matrix:
    entries = {}
    for new_j, j in enumerate(cols):
        for i, v in enumerate(m.column(j)):
            if v:
                entries[(i, new_j)] = v
    return Matrix(m.rows, len(cols), entries)


def oracle_spanned_by(m: Matrix) -> Subspace:
    """The column space of m, with the echelon pivot columns as basis."""
    return Subspace(m.rows, _columns(m, _echelon(m)[1]), _checked=True)


def oracle_complement_in(sub: Subspace, within: Subspace) -> Matrix:
    _, pivots = _echelon(Matrix.hstack(sub.basis, within.basis))
    return _columns(within.basis, [p - sub.dim for p in pivots if p >= sub.dim])


def oracle_contains(outer: Subspace, inner: Subspace) -> bool:
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return oracle_rank(Matrix.hstack(outer.basis, inner.basis)) == outer.dim


def zero_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix(ambient_dim, 0), _checked=True)


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix.identity(ambient_dim), _checked=True)


def image_subspace(m: Matrix, s: Subspace) -> Subspace:
    """m(S) as a subspace of Q^rows."""
    if s.ambient_dim != m.cols:
        raise ValueError("subspace does not live in the domain of m")
    return oracle_spanned_by(m * s.basis)


def subspace_arithmetic(u: Subspace, v: Subspace):
    """(dim(U+V), dim(U∩V), dim((U+V)/V)) for subspaces of the same Q^n."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    sum_dim = oracle_rank(Matrix.hstack(u.basis, v.basis))
    intersection_dim = u.dim + v.dim - sum_dim
    quotient_dim = sum_dim - v.dim
    return sum_dim, intersection_dim, quotient_dim


def coordinate_subspace(ambient_dim: int, coords) -> Subspace:
    """Span of the unit vectors e_c for c in coords."""
    coords = sorted(set(coords))
    entries = {(c, j): Fraction(1) for j, c in enumerate(coords)}
    return Subspace(ambient_dim, Matrix(ambient_dim, len(coords), entries),
                    _checked=True)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return oracle_spanned_by(Matrix.hstack(u.basis, v.basis))


def subspace_intersection(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V from the kernel of [U | -V]."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    paired = oracle_kernel_basis(Matrix.hstack(u.basis, -v.basis))
    top = Matrix(u.dim, paired.dim,
                 {(i, j): val for (i, j), val in paired.basis.entries.items()
                  if i < u.dim})
    return Subspace(u.ambient_dim, u.basis * top, _checked=True)


def preimage_subspace(m: Matrix, s: Subspace) -> Subspace:
    """m^{-1}(S) as the kernel of C*m, where the rows of C cut out S."""
    if s.ambient_dim != m.rows:
        raise ValueError("subspace does not live in the codomain of m")
    annihilator = oracle_kernel_basis(transpose(s.basis))
    cutter = transpose(annihilator.basis)
    return oracle_kernel_basis(cutter * m)


def _oracle_total(dc: DoubleComplex) -> tuple:
    """``(offsets, totals, diffs)`` of the total complex of dc, assembled
    densely: degree k holds the cells p + q = k by descending p, from
    ``offsets[cell]`` on, ``totals[k]`` coordinates in all, and ``diffs[k]``
    is D = d1 + d2 from degree k, a dense sum of the zero-filled blocks."""
    offsets, totals = {}, {}
    for k in sorted({p + q for p, q in dc.spaces}):
        totals[k] = 0
        for cell in sorted((c for c in dc.spaces if c[0] + c[1] == k), reverse=True):
            offsets[cell] = totals[k]
            totals[k] += dc.spaces[cell]
    diffs = {}
    for k in totals:
        if k + 1 not in totals:
            continue
        rows = [[Fraction(0)] * totals[k] for _ in range(totals[k + 1])]
        for d, (dp, dq) in ((dc.d1, (1, 0)), (dc.d2, (0, 1))):
            for (p, q), block in d.items():
                if p + q == k:
                    src, tgt = offsets[(p, q)], offsets[(p + dp, q + dq)]
                    for i, row in enumerate(dense(block)):
                        for j, v in enumerate(row):
                            rows[tgt + i][src + j] += v
        diffs[k] = Matrix.from_rows(rows)
    return offsets, totals, diffs


def oracle_total_complex(dc: DoubleComplex) -> Complex:
    """The total complex of dc (``_oracle_total``), unchecked."""
    _, totals, diffs = _oracle_total(dc)
    return Complex(totals, diffs, check=False)


def oracle_spectral_pages(dc: DoubleComplex, r_max: int) -> SpectralPages:
    """Spectral pages by subspace arithmetic on approximate cycles.

    With k = p+q and F^p the span of the cells with first index >= p,

        Z_r(p,k) = F^p ∩ D^{-1} F^{p+r},
        dim E_r^{p,q} = dim Z_r(p,k) - dim( Z_{r-1}(p+1,k) + D Z_{r-1}(p-r+1,k-1) ).

    The limit page is taken at r = width+1.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if not dc.spaces:
        return SpectralPages(pages=[(r, {}) for r in range(1, r_max + 1)],
                             degeneration_page=1)
    offsets, totals, diffs = _oracle_total(dc)
    p_values = [p for (p, _) in dc.spaces]
    r_lim = max(p_values) - min(p_values) + 2
    r_top = max(r_max, r_lim)

    def differential(k: int) -> Matrix:
        m = diffs.get(k)
        return m if m is not None else Matrix.zero(totals.get(k + 1, 0), totals.get(k, 0))

    def filtration(p: int, k: int) -> Subspace:
        coords = []
        for (pp, qq), off in offsets.items():
            if pp + qq == k and pp >= p:
                coords.extend(range(off, off + dc.spaces[(pp, qq)]))
        return coordinate_subspace(totals.get(k, 0), coords)

    z_cache: dict = {}

    def approx_cycles(p: int, k: int, r: int) -> Subspace:
        key = (p, k, r)
        if key not in z_cache:
            if r == 0:
                z_cache[key] = filtration(p, k)
            else:
                pre = preimage_subspace(differential(k), filtration(p + r, k + 1))
                z_cache[key] = subspace_intersection(filtration(p, k), pre)
        return z_cache[key]

    all_pages = []
    for r in range(1, r_top + 1):
        dims = {}
        for (p, q) in dc.cells():
            k = p + q
            z = approx_cycles(p, k, r)
            stay = approx_cycles(p + 1, k, r - 1)
            hit = oracle_spanned_by(differential(k - 1)
                                    * approx_cycles(p - r + 1, k - 1, r - 1).basis)
            boundary = subspace_sum(stay, hit)
            if not oracle_contains(z, boundary):
                raise AssertionError(f"spectral subquotient broken at {(p, q)}, page {r}")
            d = z.dim - boundary.dim
            if d:
                dims[(p, q)] = d
        all_pages.append(dims)

    limit = all_pages[r_lim - 1]
    degeneration = next(r for r, dims in enumerate(all_pages, start=1)
                        if dims == limit)
    pages = [(r, all_pages[r - 1]) for r in range(1, r_max + 1)]
    if r_lim > r_max:
        pages.append((r_lim, limit))
    return SpectralPages(pages=pages, degeneration_page=degeneration)


def oracle_les_from_ses(f, g) -> LongExactSequence:
    """The homology LES of 0 -> A -> B -> C -> 0, one solve per column.

    The per-column snake-lemma construction: every homology
    representative, lift and pull-back is solved on its own, with the
    dense oracles for kernels, column spaces, complements, products and
    solves.  The maps are unique (pivot-supported solutions in fixed
    representative bases), so ``les_from_ses`` must agree entry for entry.
    """
    a, b, c = f.source, f.target, g.target
    degrees = sorted(set(a.spaces) | set(b.spaces) | set(c.spaces))
    if not degrees:
        return LongExactSequence(entries=[], maps=[])
    for k in degrees:
        assert oracle_rank(f.at(k)) == a.dim(k)
        assert oracle_rank(g.at(k)) == c.dim(k)
        assert oracle_product(g.at(k), f.at(k)).is_zero()
        assert a.dim(k) + c.dim(k) == b.dim(k)

    def homology_basis(x, k):
        boundaries = oracle_spanned_by(x.d(k - 1))
        return boundaries, oracle_complement_in(boundaries, oracle_kernel_basis(x.d(k)))

    def class_coords(boundaries, reps, vector) -> list:
        if reps.cols == 0:
            return []
        coords = oracle_solve(Matrix.hstack(boundaries.basis, reps), vector)
        assert coords is not None, "vector is not a cycle modulo boundaries"
        return coords[boundaries.dim:]

    def from_columns(rows, columns) -> Matrix:
        return Matrix(rows, len(columns), {(i, j): v for j, col in enumerate(columns)
                                           for i, v in enumerate(col) if v})

    data = {k: {name: homology_basis(x, k) for name, x in (("A", a), ("B", b), ("C", c))}
            for k in range(degrees[0], degrees[-1] + 1)}

    def induced(mat, src, tgt) -> Matrix:
        _, src_reps = src
        tgt_bound, tgt_reps = tgt
        return from_columns(tgt_reps.cols, [
            class_coords(tgt_bound, tgt_reps,
                         oracle_product(mat, column_matrix(src_reps.column(j))).column(0))
            for j in range(src_reps.cols)])

    def connecting(k) -> Matrix:
        _, c_reps = data[k]["C"]
        a_bound, a_reps = data[k + 1]["A"]
        columns = []
        for j in range(c_reps.cols):
            lift = oracle_solve(g.at(k), c_reps.column(j))
            assert lift is not None, "g is surjective but lift failed"
            w = oracle_product(b.d(k), column_matrix(lift)).column(0)
            back = oracle_solve(f.at(k + 1), w)
            assert back is not None, "snake image missed the subcomplex"
            columns.append(class_coords(a_bound, a_reps, back))
        return from_columns(a_reps.cols, columns)

    entries, maps = [], []
    for k in sorted(data):
        for name in ("A", "B", "C"):
            entries.append((f"H^{k}({name})", data[k][name][1].cols))
        maps.append(induced(f.at(k), data[k]["A"], data[k]["B"]))
        maps.append(induced(g.at(k), data[k]["B"], data[k]["C"]))
        if k < degrees[-1]:
            maps.append(connecting(k))
    return LongExactSequence(entries=entries, maps=maps)


def twisted_ses(rng, a: Complex, c: Complex):
    """0 -> A -> B -> C -> 0, degreewise split, B twisted by h: C^k -> Z^{k+1}(A).

    The construction of the benchmark's LES input.  C must have zero
    differential, so d_A h = 0 is all that d_B² = 0 needs; the connecting
    map of the sequence is then [h], which is not zero.  h takes dense ±1
    coefficients on a basis of the cycles.
    """
    assert not c.diffs, "the twist needs a complex C with zero differential"
    twist = {}
    for k in sorted(set(a.spaces) | set(c.spaces)):
        cycles = kernel_basis(a.d(k + 1)).basis
        if cycles.cols and c.dim(k):
            twist[k] = cycles * Matrix(cycles.cols, c.dim(k),
                                       {(i, j): rng.choice((-1, 1))
                                        for i in range(cycles.cols)
                                        for j in range(c.dim(k))})
    return split_ses(a, c, twist)


def staircase_double_complex() -> DoubleComplex:
    """Six lines (0,2),(1,2),(1,1),(2,1),(2,0),(3,0) joined by unit maps.

    The zigzag (0,2) -> (1,2) <- (1,1) -> (2,1) <- (2,0) -> (3,0) is
    acyclic, but E_1 keeps (0,2) and (3,0), which only d_3 connects: the
    sequence degenerates at page 4.
    """
    one = Matrix(1, 1, {(0, 0): 1})
    cells = [(0, 2), (1, 2), (1, 1), (2, 1), (2, 0), (3, 0)]
    return DoubleComplex({cell: 1 for cell in cells},
                         d1={(0, 2): one, (1, 1): one, (2, 0): one},
                         d2={(1, 1): one, (2, 0): one})


def _oracle_del_monomial(alpha, i_set):
    for i0, e in enumerate(alpha):
        if not e:
            continue
        gen = i0 + 1
        if gen in i_set:
            continue
        pos = sum(1 for x in i_set if x < gen)
        sign = -1 if pos % 2 else 1
        new_alpha = alpha[:i0] + (e - 1,) + alpha[i0 + 1:]
        new_set = tuple(sorted(i_set + (gen,)))
        yield Fraction(sign * e), (new_alpha, new_set)


def _oracle_contract_monomial(pi, alpha, i_set):
    for (i, j), poly in pi.terms.items():
        if i in i_set and j in i_set:
            pos_i = i_set.index(i)
            pos_j = i_set.index(j)
            sign = -1 if (pos_i + pos_j + 1) % 2 else 1
            reduced = tuple(x for x in i_set if x != i and x != j)
            for beta, c in poly.items():
                new_alpha = tuple(a + b for a, b in zip(alpha, beta))
                yield sign * c, (new_alpha, reduced)


def _oracle_delpi_monomial(pi, alpha, i_set) -> dict:
    acc: dict = {}
    for c1, mono in _oracle_del_monomial(alpha, i_set):
        for c2, mono2 in _oracle_contract_monomial(pi, *mono):
            acc[mono2] = acc.get(mono2, Fraction(0)) + c1 * c2
    for c1, mono in _oracle_contract_monomial(pi, alpha, i_set):
        for c2, mono2 in _oracle_del_monomial(*mono):
            acc[mono2] = acc.get(mono2, Fraction(0)) - c1 * c2
    return {m: c for m, c in acc.items() if c}


def slice_basis(n: int, degree: int, w: int, cap: int) -> dict:
    """The monomials (alpha, I) of the weight-w slice of a degree-``degree``
    bivector on C^n, by form degree p: |alpha| = w - (degree - 1)p, alpha
    from the recursive generator and I from ``combinations``, alpha-major.
    Built only for slices whose |alpha| stay within the cap."""
    basis = {}
    for p in range(n + 1):
        size = w - (degree - 1) * p
        assert size <= cap, f"the weight-{w} slice needs |alpha| = {size} > cap = {cap}"
        if size >= 0:
            basis[p] = [(alpha, i_set) for alpha in oracle_compositions(size, n)
                        for i_set in combinations(range(1, n + 1), p)]
    return basis


def oracle_stein_differentials(pi, w: int, cap: int) -> dict:
    """The weight-w slice differentials {-p: delpi on Ω^p}, built with
    Fraction coefficients straight from ``pi.terms`` (a PolyBivector);
    zero maps are omitted and nothing is checked."""
    basis = slice_basis(pi.n, pi.degree, w, cap)
    index = {p: {m: i for i, m in enumerate(monos)} for p, monos in basis.items()}
    diffs = {}
    for p, monos in basis.items():
        if p == 0:
            continue
        target = index.get(p - 1, {})
        entries = {}
        for col, (alpha, i_set) in enumerate(monos):
            for mono, c in _oracle_delpi_monomial(pi, alpha, i_set).items():
                entries[(target[mono], col)] = c
        m = Matrix(len(basis.get(p - 1, ())), len(monos), entries)
        if not m.is_zero():
            diffs[-p] = m
    return diffs


def oracle_jacobiator(pi) -> dict:
    """The Schouten bracket [pi, pi] of a PolyBivector, up to the factor 2,
    as {(i, j, k): {alpha: Fraction}} with zeros omitted.

    In odd variables θ_l = ∂/∂z_l, pi = Σ_{i<j} p_ij θ_i θ_j and
    [pi, pi] = 2 Σ_l (∂pi/∂θ_l)(∂pi/∂z_l), the θ-derivative taken from the
    left.  Its θ_i θ_j θ_k coefficient is the Jacobiator of pi.  Built with
    Fractions from ``pi.terms``, wedge signs from a permutation sort."""
    pieces = [(ij, beta, c) for ij, poly in pi.terms.items() for beta, c in poly.items()]
    out: dict = {}
    for l in range(1, pi.n + 1):
        for ij, beta, c in pieces:
            if l not in ij:
                continue
            # ∂/∂θ_l of c z^beta θ_i θ_j: the θ left after moving θ_l to the front
            odd, sign = ((ij[1],), 1) if ij[0] == l else ((ij[0],), -1)
            for ab, gamma, d in pieces:
                e = gamma[l - 1]
                if not e:
                    continue
                wedge_sign, ijk = _sort_sign(odd + ab)
                if not wedge_sign:
                    continue
                mono = tuple(x + y - (m == l - 1) for m, (x, y) in enumerate(zip(beta, gamma)))
                poly = out.setdefault(ijk, {})
                poly[mono] = poly.get(mono, Fraction(0)) + wedge_sign * sign * c * d * e
    return {ijk: nonzero for ijk, poly in out.items()
            if (nonzero := {m: c for m, c in poly.items() if c})}


def _super_product(a: dict, b: dict) -> dict:
    """The product of two superpolynomials {(alpha, J): Fraction}, J the
    sorted odd variables θ_j = ∂/∂z_j, signs from a permutation sort."""
    out: dict = {}
    for (alpha, j_set), x in a.items():
        for (beta, k_set), y in b.items():
            sign, jk = _sort_sign(j_set + k_set)
            if sign:
                mono = (tuple(map(sum, zip(alpha, beta))), jk)
                out[mono] = out.get(mono, Fraction(0)) + sign * x * y
    return out


def _super_derivative(a: dict, g: int, odd: bool, right: bool = False) -> dict:
    """∂/∂z_g of a, or with ``odd`` ∂/∂θ_g, taken from the left, or with
    ``right`` from the right (θ_g moved to the end of θ_J first)."""
    out: dict = {}
    for (alpha, j_set), x in a.items():
        if odd:
            if g not in j_set:
                continue
            t = j_set.index(g)
            sign = (-1) ** (len(j_set) - 1 - t if right else t)
            mono = (alpha, j_set[:t] + j_set[t + 1:])
        else:
            e = alpha[g - 1]
            if not e:
                continue
            sign, mono = e, (alpha[:g - 1] + (e - 1,) + alpha[g:], j_set)
        out[mono] = out.get(mono, Fraction(0)) + sign * x
    return out


def _schouten(p: dict, q: dict, n: int) -> dict:
    """The Schouten bracket Σ_l (p ∂⃖/∂θ_l)(∂q/∂z_l) - (∂p/∂z_l)(∂q/∂θ_l),
    the convention with [X, f] = X(f) and [X, Y] the Lie bracket of vector
    fields."""
    out: dict = {}
    for l in range(1, n + 1):
        for sign, a, b in ((1, _super_derivative(p, l, True, right=True),
                            _super_derivative(q, l, False)),
                           (-1, _super_derivative(p, l, False), _super_derivative(q, l, True))):
            for mono, c in _super_product(a, b).items():
                out[mono] = out.get(mono, Fraction(0)) + sign * c
    return out


def _superpolynomial(pi) -> dict:
    """Σ_{i<j} p_ij θ_i θ_j, from ``pi.terms``."""
    return {(beta, ij): Fraction(c) for ij, poly in pi.terms.items() for beta, c in poly.items()}


def oracle_modular_vector(pi) -> dict:
    """X = Σ_j X^j θ_j, X^j = Σ_i ∂_i π^{ij}, as a superpolynomial with
    zeros omitted: Σ_i ∂/∂z_i of the left θ_i-derivative of π."""
    poly, out = _superpolynomial(pi), {}
    for i in range(1, pi.n + 1):
        for mono, c in _super_derivative(_super_derivative(poly, i, True), i, False).items():
            out[mono] = out.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in out.items() if c}


def oracle_poisson_cohomology(pi, w: int, twisted: bool = True) -> dict:
    """{k: dim H^k} of the weight-w slice of the Lichnerowicz complex of a
    PolyBivector: the polyvectors z^α ∂_J with |J| = k and weight
    |α| + (d-1)(n-k) = w, enumerated here, and d_π = [π, ·] from
    ``_schouten``, less X∧· if ``twisted``, X the modular vector field of
    π for dz_1∧…∧dz_n (``oracle_modular_vector``).  Contraction with that
    volume form sends z^α ∂_J to ±z^α dz_{J^c} and the twisted d_π to delpi
    (Koszul, Astérisque 1985; Xu, Comm. Math. Phys. 1999), so H^k is the
    KB homology H_k of the slice, and with X = 0 so is the untwisted H^k.
    Reads only ``pi.terms``; each rank is ``oracle_homology_dims``'s."""
    n, degree = pi.n, pi.degree
    poly, modular = _superpolynomial(pi), oracle_modular_vector(pi)
    basis = {}
    for k in range(n + 1):
        size = w - (degree - 1) * (n - k)
        basis[k] = [(alpha, j_set) for alpha in product(range(size + 1), repeat=n)
                    if sum(alpha) == size for j_set in combinations(range(1, n + 1), k)]
    diffs = {}
    for k in range(n):
        index = {mono: i for i, mono in enumerate(basis[k + 1])}
        entries: dict = {}
        for col, mono in enumerate(basis[k]):
            image = _schouten(poly, {mono: Fraction(1)}, n)
            if twisted:
                for target, c in _super_product(modular, {mono: Fraction(1)}).items():
                    image[target] = image.get(target, Fraction(0)) - c
            for target, c in image.items():
                if c:
                    entries[(index[target], col)] = c
        diffs[k] = Matrix(len(basis[k + 1]), len(basis[k]), entries)
    h = oracle_homology_dims(Complex({k: len(monos) for k, monos in basis.items()}, diffs))
    return {k: h.get(k, 0) for k in range(n + 1)}


# ----------------------------------------------------------------------------
# The former model builders, kept as oracles for the Koszul tensor routine:
# exterior models built on all 4^n wedge monomials with a permutation sort
# for signs, and the product and double-complex tensors as their own loops.

def _sort_sign(seq):
    """Sign of the permutation sorting seq, or 0 on a repeated generator."""
    lst = list(seq)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(lst)


def monomial_label(mono) -> str:
    """The label of a wedge monomial (I, J): its generators dz_i, then
    dzb_j, joined by "^", or "1" for (∅, ∅)."""
    hol, anti = mono
    parts = [f"dz{i}" for i in hol] + [f"dzb{j}" for j in anti]
    return "^".join(parts) if parts else "1"


class OracleWedgeBasis:
    """At (p,q) the monomials (I, J), I holomorphic and J antiholomorphic
    index sets, listed for every bidegree, with an index per bidegree."""

    def __init__(self, n: int):
        self.n = n
        self.monomials = {}
        for p in range(n + 1):
            for q in range(n + 1):
                self.monomials[(p, q)] = [(i_set, j_set)
                                          for i_set in combinations(range(1, n + 1), p)
                                          for j_set in combinations(range(1, n + 1), q)]
        self.index = {cell: {m: i for i, m in enumerate(ms)}
                      for cell, ms in self.monomials.items()}

    def labels(self, p: int, q: int) -> list:
        return [monomial_label(m) for m in self.monomials[(p, q)]]


def oracle_derivation_blocks(wedge: OracleWedgeBasis, images: dict, hol: bool) -> dict:
    """The antiderivation on the I part (hol) or on the J part, the latter
    with the Koszul sign of crossing the holomorphic prefix."""
    dp, dq = (1, 0) if hol else (0, 1)
    blocks = {}
    for (p, q), monos in wedge.monomials.items():
        target = wedge.monomials.get((p + dp, q + dq))
        if target is None:
            continue
        tindex = wedge.index[(p + dp, q + dq)]
        entries: dict = {}
        for col, (i_set, j_set) in enumerate(monos):
            part = i_set if hol else j_set
            offset = 0 if hol else len(i_set)
            for t, gen in enumerate(part):
                pos_sign = -1 if (offset + t) % 2 else 1
                for coeff, (x, y) in images.get(gen, ()):
                    word = part[:t] + (x, y) + part[t + 1:]
                    sgn, sorted_part = _sort_sign(word)
                    if sgn == 0:
                        continue
                    new = (sorted_part, j_set) if hol else (i_set, sorted_part)
                    key = (tindex[new], col)
                    entries[key] = entries.get(key, Fraction(0)) + pos_sign * sgn * coeff
        m = Matrix(len(target), len(monos), entries)
        if not m.is_zero():
            blocks[(p, q)] = m
    return blocks


def oracle_contraction_from_bivector(wedge: OracleWedgeBasis, coeffs) -> dict:
    """l_pi on every wedge monomial, the sign read off the two positions."""
    pairs = normalize_bivector_coeffs(wedge.n, coeffs)
    blocks = {}
    for (p, q), monos in wedge.monomials.items():
        if p < 2:
            continue
        tindex = wedge.index[(p - 2, q)]
        entries: dict = {}
        for col, (i_set, j_set) in enumerate(monos):
            for (i, j), c in pairs.items():
                if i in i_set and j in i_set:
                    pos_i = i_set.index(i)
                    pos_j = i_set.index(j)
                    sign = -1 if (pos_i + pos_j + 1) % 2 else 1
                    reduced = tuple(x for x in i_set if x != i and x != j)
                    key = (tindex[(reduced, j_set)], col)
                    entries[key] = entries.get(key, Fraction(0)) + sign * c
        m = Matrix(len(wedge.monomials[(p - 2, q)]), len(monos), entries)
        if not m.is_zero():
            blocks[(p, q)] = m
    return blocks


def _raise_if_invalid(model, message):
    report = validate_model(model)
    if not report.ok:
        bad = report.first_failure()
        raise ModelValidationError(f"{message}: {bad.identity} at {bad.bidegree}",
                                   identity=bad.identity, bidegree=bad.bidegree)


_ASSERTS = "invariant forms compute the Dolbeault cohomology"


def oracle_torus(n: int, pi_coeffs=None) -> DolbeaultPoissonModel:
    wedge = OracleWedgeBasis(n)
    basis = {cell: wedge.labels(*cell) for cell in wedge.monomials}
    contraction = {}
    if pi_coeffs is not None:
        contraction = oracle_contraction_from_bivector(wedge, pi_coeffs)
    model = DolbeaultPoissonModel(
        n, basis, contraction_blocks=contraction, name=f"torus{n}",
        metadata={"family": "torus", "asserts": _ASSERTS})
    _raise_if_invalid(model, "torus construction broke")
    return model


def oracle_parallelizable(n: int, structure: dict, pi_coeffs=None) -> DolbeaultPoissonModel:
    wedge = OracleWedgeBasis(n)
    images = _structure_images(n, structure)
    del_blocks = oracle_derivation_blocks(wedge, images, hol=True)
    delbar_blocks = oracle_derivation_blocks(wedge, images, hol=False)
    upper = del_blocks.get((2, 0))
    lower = del_blocks.get((1, 0))
    if upper is not None and lower is not None and not (upper * lower).is_zero():
        raise StructureConstantError("structure constants violate the Jacobi identity")
    basis = {cell: wedge.labels(*cell) for cell in wedge.monomials}
    contraction = {}
    if pi_coeffs is not None:
        contraction = oracle_contraction_from_bivector(wedge, pi_coeffs)
    model = DolbeaultPoissonModel(
        n, basis, del_blocks=del_blocks, delbar_blocks=delbar_blocks,
        contraction_blocks=contraction, name=f"parallelizable{n}",
        metadata={"family": "parallelizable", "asserts": _ASSERTS})
    _raise_if_invalid(model, "bivector rejected")
    return model


def oracle_product_model(mx: DolbeaultPoissonModel,
                         my: DolbeaultPoissonModel) -> DolbeaultPoissonModel:
    """The product model with its own tensor loop and a `signed` flag."""
    for part in (mx, my):
        _raise_if_invalid(part, f"invalid product factor {part.name!r}")
    pair_lists: dict = {}
    for cx in mx.cells():
        for cy in my.cells():
            cell = (cx[0] + cy[0], cx[1] + cy[1])
            pair_lists.setdefault(cell, []).append((cx, cy))
    basis = {}
    offsets = {}
    for cell in sorted(pair_lists):
        labels = []
        for cx, cy in pair_lists[cell]:
            offsets[(cx, cy)] = len(labels)
            labels.extend(f"{lx}*{ly}" for lx in mx.basis[cx] for ly in my.basis[cy])
        basis[cell] = labels

    def build(get_x, get_y, dp, dq, signed) -> dict:
        blocks = {}
        for cell in sorted(pair_lists):
            entries: dict = {}
            for cx, cy in pair_lists[cell]:
                src = offsets[(cx, cy)]
                dim_x, dim_y = mx.dim(*cx), my.dim(*cy)
                tx = (cx[0] + dp, cx[1] + dq)
                block_x = get_x(*cx)
                if (tx, cy) in offsets and not block_x.is_zero():
                    tgt = offsets[(tx, cy)]
                    for (i2, i1), v in block_x.entries.items():
                        for j in range(dim_y):
                            entries[(tgt + i2 * dim_y + j, src + i1 * dim_y + j)] = v
                ty = (cy[0] + dp, cy[1] + dq)
                block_y = get_y(*cy)
                if (cx, ty) in offsets and not block_y.is_zero():
                    sign = -1 if (signed and (cx[0] + cx[1]) % 2) else 1
                    tgt = offsets[(cx, ty)]
                    dim_ty = my.dim(*ty)
                    for (j2, j1), v in block_y.entries.items():
                        for i in range(dim_x):
                            entries[(tgt + i * dim_ty + j2, src + i * dim_y + j1)] = sign * v
            if entries:
                tgt_cell = (cell[0] + dp, cell[1] + dq)
                blocks[cell] = Matrix(len(basis.get(tgt_cell, ())),
                                      len(basis[cell]), entries)
        return blocks

    result = DolbeaultPoissonModel(
        mx.n + my.n, basis,
        del_blocks=build(lambda *c: mx.del_blocks.at(c), lambda *c: my.del_blocks.at(c),
                         1, 0, signed=True),
        delbar_blocks=build(mx.delbar_at, my.delbar_at, 0, 1, signed=True),
        contraction_blocks=build(lambda *c: mx.contraction_blocks.at(c),
                                 lambda *c: my.contraction_blocks.at(c), -2, 0, signed=False),
        name=f"{mx.name}x{my.name}",
        metadata={"product_of": f"{mx.name}, {my.name}"})
    assert validate_model(result).ok
    return result


def oracle_tensor_double(a: DoubleComplex, b: DoubleComplex) -> DoubleComplex:
    """The tensor of double complexes with its own loop and a `which` flag."""
    pair_lists: dict[tuple, list] = {}
    for ca in a.cells():
        for cb in b.cells():
            cell = (ca[0] + cb[0], ca[1] + cb[1])
            pair_lists.setdefault(cell, []).append((ca, cb))
    spaces = {}
    offsets = {}
    for cell in sorted(pair_lists):
        off = 0
        for ca, cb in pair_lists[cell]:
            offsets[(ca, cb)] = off
            off += a.spaces[ca] * b.spaces[cb]
        if off:
            spaces[cell] = off

    def build(which: int) -> dict:
        dp, dq = (1, 0) if which == 1 else (0, 1)
        blocks = {}
        for cell in sorted(pair_lists):
            entries: dict[tuple, object] = {}
            for ca, cb in pair_lists[cell]:
                src_off = offsets[(ca, cb)]
                dim_a, dim_b = a.spaces[ca], b.spaces[cb]
                ta = (ca[0] + dp, ca[1] + dq)
                block_a = (a.d1 if which == 1 else a.d2).at(ca)
                if (ta, cb) in offsets and not block_a.is_zero():
                    tgt_off = offsets[(ta, cb)]
                    for (i2, i1), v in block_a.entries.items():
                        for j in range(dim_b):
                            entries[(tgt_off + i2 * dim_b + j,
                                     src_off + i1 * dim_b + j)] = v
                tb = (cb[0] + dp, cb[1] + dq)
                block_b = (b.d1 if which == 1 else b.d2).at(cb)
                if (ca, tb) in offsets and not block_b.is_zero():
                    sign = -1 if (ca[0] + ca[1]) % 2 else 1
                    tgt_off = offsets[(ca, tb)]
                    dim_tb = b.spaces[tb]
                    for (j2, j1), v in block_b.entries.items():
                        for i in range(dim_a):
                            entries[(tgt_off + i * dim_tb + j2,
                                     src_off + i * dim_b + j1)] = sign * v
            if entries:
                tgt_cell = (cell[0] + dp, cell[1] + dq)
                blocks[cell] = Matrix(spaces.get(tgt_cell, 0),
                                      spaces.get(cell, 0), entries)
        return blocks

    return DoubleComplex(spaces, build(1), build(2))
