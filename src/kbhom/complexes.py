"""Bounded complexes and double complexes over Q.

Conventions fixed here, once, for the whole package:

* a ``Complex`` has differentials of degree +1, ``d^k: C^k -> C^{k+1}``;
* a ``DoubleComplex`` has two anticommuting differentials,
  ``d1: (p,q) -> (p+1,q)`` and ``d2: (p,q) -> (p,q+1)``, and its total
  complex carries ``D = d1 + d2`` with no extra signs;
* tensor products (one routine, ``koszul_tensor``) insert the Koszul
  sign ``(-1)^{deg}`` of the left factor in front of the right factor's
  operator when that operator has odd degree, which keeps the
  anticommuting convention (checked after every construction);
* shifts relocate differentials without sign flips (dimension-level
  output is sign-insensitive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import (
    Matrix,
    Subspace,
    _reduce,
    complement_in,
    kernel_basis,
    rank,
    solve_columns,
)


class ComplexInvariantError(ValueError):
    """A (double) complex violates one of its structural identities."""


class NotShortExactError(ValueError):
    """Input to les_from_ses is not a short exact sequence of complexes."""


class Complex:
    """A bounded cochain complex: finite dims per degree, d of degree +1."""

    __slots__ = ("spaces", "diffs")

    def __init__(self, spaces, diffs=None, check=True):
        sp = {}
        for k, d in spaces.items():
            if d < 0:
                raise ValueError("negative dimension")
            if d:
                sp[int(k)] = int(d)
        df = {}
        for k, m in (diffs or {}).items():
            expected = (sp.get(k + 1, 0), sp.get(k, 0))
            if m.shape != expected:
                raise ComplexInvariantError(
                    f"differential at degree {k} has shape {m.shape}, expected {expected}")
            if not m.is_zero():
                df[int(k)] = m
        object.__setattr__(self, "spaces", sp)
        object.__setattr__(self, "diffs", df)
        if check:
            self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    def dim(self, k: int) -> int:
        return self.spaces.get(k, 0)

    def d(self, k: int) -> Matrix:
        m = self.diffs.get(k)
        if m is None:
            m = Matrix.zero(self.dim(k + 1), self.dim(k))
        return m

    def degrees(self) -> list:
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    def validate(self):
        for k in self.diffs:
            if not (self.d(k + 1) * self.d(k)).is_zero():
                raise ComplexInvariantError(
                    f"differential does not square to zero at degree {k}")

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.spaces == other.spaces
                and self.diffs == other.diffs)

    def __repr__(self):
        return f"Complex({self.spaces})"


class DoubleComplex:
    """A bounded double complex with anticommuting differentials."""

    __slots__ = ("spaces", "d1", "d2")

    def __init__(self, spaces, d1=None, d2=None, check=True):
        sp = {}
        for (p, q), d in spaces.items():
            if d < 0:
                raise ValueError("negative dimension")
            if d:
                sp[(int(p), int(q))] = int(d)
        object.__setattr__(self, "spaces", sp)
        object.__setattr__(self, "d1", self._clean(sp, d1, 1, 0))
        object.__setattr__(self, "d2", self._clean(sp, d2, 0, 1))
        if check:
            self.validate()

    @staticmethod
    def _clean(sp, blocks, dp, dq):
        out = {}
        for (p, q), m in (blocks or {}).items():
            expected = (sp.get((p + dp, q + dq), 0), sp.get((p, q), 0))
            if m.shape != expected:
                raise ComplexInvariantError(
                    f"block at {(p, q)} has shape {m.shape}, expected {expected}")
            if not m.is_zero():
                out[(p, q)] = m
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DoubleComplex is immutable")

    def dim(self, p: int, q: int) -> int:
        return self.spaces.get((p, q), 0)

    def block1(self, p: int, q: int) -> Matrix:
        m = self.d1.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p + 1, q), self.dim(p, q))

    def block2(self, p: int, q: int) -> Matrix:
        m = self.d2.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p, q + 1), self.dim(p, q))

    def cells(self) -> list:
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    def validate(self):
        for (p, q) in self.spaces:
            if not (self.block1(p + 1, q) * self.block1(p, q)).is_zero():
                raise ComplexInvariantError(f"d1∘d1 ≠ 0 at {(p, q)}")
            if not (self.block2(p, q + 1) * self.block2(p, q)).is_zero():
                raise ComplexInvariantError(f"d2∘d2 ≠ 0 at {(p, q)}")
            anti = self.block1(p, q + 1) * self.block2(p, q) + \
                self.block2(p + 1, q) * self.block1(p, q)
            if not anti.is_zero():
                raise ComplexInvariantError(f"d1∘d2 + d2∘d1 ≠ 0 at {(p, q)}")

    def __eq__(self, other):
        return (isinstance(other, DoubleComplex) and self.spaces == other.spaces
                and self.d1 == other.d1 and self.d2 == other.d2)

    def __repr__(self):
        return f"DoubleComplex({len(self.spaces)} cells)"


def _total_layout(dc: DoubleComplex):
    """Per total degree: ordered (cell, offset) pairs plus the total dim.

    Cells at a fixed total degree are ordered by ascending first index p,
    so the column filtration is a suffix of coordinates.
    """
    by_degree: dict[int, list] = {}
    for cell in dc.cells():
        by_degree.setdefault(cell[0] + cell[1], []).append(cell)
    layouts = {}
    for k, cells in by_degree.items():
        off = 0
        lay = []
        for cell in cells:
            lay.append((cell, off))
            off += dc.spaces[cell]
        layouts[k] = (lay, off)
    return layouts


def _total_differentials(dc: DoubleComplex, layouts) -> dict:
    diffs = {}
    for k, (lay, total) in layouts.items():
        target = layouts.get(k + 1)
        if target is None:
            continue
        tgt_off = dict(target[0])
        entries = {}
        for cell, off in lay:
            p, q = cell
            for block, tcell in ((dc.block1(p, q), (p + 1, q)),
                                 (dc.block2(p, q), (p, q + 1))):
                to = tgt_off.get(tcell)
                if to is None:
                    continue
                for (i, j), v in block.entries.items():
                    entries[(to + i, off + j)] = v
        diffs[k] = Matrix(target[1], total, entries)
    return diffs


def total_complex(dc: DoubleComplex) -> Complex:
    """The simple complex of dc: degree k is the direct sum over p+q=k."""
    layouts = _total_layout(dc)
    spaces = {k: total for k, (_, total) in layouts.items()}
    return Complex(spaces, _total_differentials(dc, layouts))


def shift(dc: DoubleComplex, m: int, n: int) -> DoubleComplex:
    """The shifted double complex: result(p,q) = dc(p+m, q+n)."""
    spaces = {(p - m, q - n): d for (p, q), d in dc.spaces.items()}
    d1 = {(p - m, q - n): blk for (p, q), blk in dc.d1.items()}
    d2 = {(p - m, q - n): blk for (p, q), blk in dc.d2.items()}
    return DoubleComplex(spaces, d1, d2, check=False)


def tensor_layout(dims_a: dict, dims_b: dict) -> tuple:
    """The cells of A ⊗ B, from the cell dimensions of A and B.

    Returns ``(pairs, offsets, dims)``: ``pairs[cell]`` lists the
    (A-cell, B-cell) pairs summing to cell, ordered by the A-cell and
    then the B-cell; ``offsets`` gives each pair's first index in its
    cell and ``dims`` each cell's dimension.  Within one pair the index
    is row-major in (A index, B index).
    """
    pairs: dict[tuple, list] = {}
    for ca in sorted(dims_a):
        for cb in sorted(dims_b):
            pairs.setdefault((ca[0] + cb[0], ca[1] + cb[1]), []).append((ca, cb))
    pairs = dict(sorted(pairs.items()))
    offsets = {}
    dims = {}
    for cell, cell_pairs in pairs.items():
        off = 0
        for ca, cb in cell_pairs:
            offsets[(ca, cb)] = off
            off += dims_a[ca] * dims_b[cb]
        dims[cell] = off
    return pairs, offsets, dims


def koszul_tensor(dims_a: dict, blocks_a: dict, dims_b: dict, blocks_b: dict,
                  bidegree: tuple) -> dict:
    """The blocks of f_A ⊗ 1 + (-1)^{(dp+dq)(p_A+q_A)} 1 ⊗ f_B on A ⊗ B.

    ``dims_a``, ``dims_b`` are the cell dimensions of the factors and
    ``blocks_a``, ``blocks_b`` the nonzero blocks of an operator of
    bidegree (dp, dq) on each, keyed by source cell; the result is laid
    out by :func:`tensor_layout`.  The Koszul sign comes from the
    bidegree alone: an odd operator picks up the parity of the left
    factor's cell, an even one (a contraction, bidegree (-2, 0)) none.
    """
    dp, dq = bidegree
    odd = (dp + dq) % 2
    pairs, offsets, dims = tensor_layout(dims_a, dims_b)
    blocks = {}
    for cell, cell_pairs in pairs.items():
        entries: dict[tuple, object] = {}
        for ca, cb in cell_pairs:
            src = offsets[(ca, cb)]
            dim_a, dim_b = dims_a[ca], dims_b[cb]
            # f_A ⊗ 1
            block = blocks_a.get(ca)
            tgt = offsets.get(((ca[0] + dp, ca[1] + dq), cb))
            if block is not None and tgt is not None:
                for (i2, i1), v in block.entries.items():
                    for j in range(dim_b):
                        entries[(tgt + i2 * dim_b + j, src + i1 * dim_b + j)] = v
            # (-1)^{(dp+dq)(p_A+q_A)} 1 ⊗ f_B
            tb = (cb[0] + dp, cb[1] + dq)
            block = blocks_b.get(cb)
            tgt = offsets.get((ca, tb))
            if block is not None and tgt is not None:
                sign = -1 if odd and (ca[0] + ca[1]) % 2 else 1
                dim_tb = dims_b[tb]
                for (j2, j1), v in block.entries.items():
                    for i in range(dim_a):
                        entries[(tgt + i * dim_tb + j2, src + i * dim_b + j1)] = sign * v
        if entries:
            blocks[cell] = Matrix(dims.get((cell[0] + dp, cell[1] + dq), 0),
                                  dims[cell], entries)
    return blocks


def tensor_double(a: DoubleComplex, b: DoubleComplex) -> DoubleComplex:
    """Tensor product of double complexes with Koszul signs: the cells
    of :func:`tensor_layout`, and d1 and d2 each extended by
    :func:`koszul_tensor` as d_A ⊗ 1 + (-1)^{|A|} 1 ⊗ d_B."""
    return DoubleComplex(tensor_layout(a.spaces, b.spaces)[2],
                         koszul_tensor(a.spaces, a.d1, b.spaces, b.d1, (1, 0)),
                         koszul_tensor(a.spaces, a.d2, b.spaces, b.d2, (0, 1)))


def homology_dims(c: Complex) -> dict:
    """dim H^k = dim ker d^k - rank d^{k-1}, for every supported degree."""
    ranks = {k: rank(m) for k, m in c.diffs.items()}
    out = {}
    for k in c.degrees():
        h = c.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if h < 0:
            raise ComplexInvariantError(f"negative homology at degree {k}")
        out[k] = h
    return out


@dataclass
class SpectralPages:
    """Dimensions of the pages E_r of the column-filtration spectral sequence.

    ``pages`` holds ``(r, dims)`` with nonzero dims only; the last entry
    is the certified limit page.  ``degeneration_page`` is the least r
    whose page already equals the limit.
    """

    pages: list
    degeneration_page: int

    def page(self, r: int) -> dict:
        for rr, dims in self.pages:
            if rr == r:
                return dims
        raise KeyError(f"page {r} was not recorded")

    @property
    def infinity(self) -> dict:
        return self.pages[-1][1]


def spectral_pages(dc: DoubleComplex, r_max: int) -> SpectralPages:
    """Pages E_1..E_r_max plus the limit page, read off persistence pairs.

    The filtration is by columns (first index): F^p, the span of the cells
    with first index >= p, is a suffix of each total degree's coordinates.
    Each total differential is column-reduced with rows and columns
    reversed, so that every F^p is a prefix.  A pivot then pairs a
    coordinate in column p_j with one in column p_i >= p_j; both survive
    to page ℓ = p_i - p_j, where d_ℓ kills them.  Hence

        dim E_r^{p,q} = (unpaired coordinates in (p,q))
                        + (pair ends in (p,q) with ℓ >= r),

    and the sequence degenerates at page 1 + max ℓ.  The limit page is
    recorded at r = width+1, past every pair.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    layouts = _total_layout(dc)
    if not dc.spaces:
        return SpectralPages(pages=[(r, {}) for r in range(1, r_max + 1)],
                             degeneration_page=1)
    cell_of = {k: [cell for cell, _ in lay for _ in range(dc.spaces[cell])]
               for k, (lay, _) in layouts.items()}
    unpaired = dict(dc.spaces)
    lengths: dict = {cell: [] for cell in dc.spaces}
    for k, d in _total_differentials(dc, layouts).items():
        reversed_d = Matrix(d.rows, d.cols, {(d.rows - 1 - i, d.cols - 1 - j): v
                                             for (i, j), v in d.entries.items()})
        for i, j in _reduce(reversed_d)[0].items():
            src = cell_of[k][d.cols - 1 - j]
            tgt = cell_of[k + 1][d.rows - 1 - i]
            for cell in (src, tgt):
                unpaired[cell] -= 1
                lengths[cell].append(tgt[0] - src[0])

    def page(r: int) -> dict:
        dims = {cell: unpaired[cell] + sum(ell >= r for ell in lengths[cell])
                for cell in dc.cells()}
        return {cell: d for cell, d in dims.items() if d}

    p_values = [p for (p, _) in dc.spaces]
    r_lim = max(p_values) - min(p_values) + 2
    pages = [(r, page(r)) for r in range(1, r_max + 1)]
    if r_lim > r_max:
        pages.append((r_lim, page(r_lim)))
    longest = max((ell for ells in lengths.values() for ell in ells), default=0)
    return SpectralPages(pages=pages, degeneration_page=longest + 1)


class ChainMap:
    """A degreewise linear map between complexes commuting with d."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Complex, target: Complex, blocks, check=True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        bl = {}
        for k, m in (blocks or {}).items():
            expected = (target.dim(k), source.dim(k))
            if m.shape != expected:
                raise ValueError(
                    f"chain map block at degree {k} has shape {m.shape}, expected {expected}")
            if not m.is_zero():
                bl[int(k)] = m
        object.__setattr__(self, "blocks", bl)
        if check:
            self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def at(self, k: int) -> Matrix:
        m = self.blocks.get(k)
        return m if m is not None else Matrix.zero(self.target.dim(k), self.source.dim(k))

    def validate(self):
        degrees = set(self.source.spaces) | set(self.target.spaces)
        for k in degrees:
            lhs = self.target.d(k) * self.at(k)
            rhs = self.at(k + 1) * self.source.d(k)
            if lhs != rhs:
                raise ValueError(f"square does not commute at degree {k}")


@dataclass
class LongExactSequence:
    """A long exact sequence with maps realized as matrices.

    ``entries`` are (label, dim) pairs; ``maps[i]`` goes from entries[i]
    to entries[i+1].  Sequences built by :func:`les_from_ses` are exact
    at every node, which :meth:`check_exact` re-verifies.
    """

    entries: list
    maps: list = field(default_factory=list)

    def check_exact(self) -> bool:
        ranks = [rank(m) for m in self.maps]
        for i, m in enumerate(self.maps):
            if i + 1 < len(self.maps):
                if not (self.maps[i + 1] * m).is_zero():
                    return False
                if ranks[i] + ranks[i + 1] != self.entries[i + 1][1]:
                    return False
        if self.maps:
            if ranks[0] != self.entries[0][1]:
                return False
            if ranks[-1] != self.entries[-1][1]:
                return False
        elif any(dim for _, dim in self.entries):
            return False
        return True

    def alternating_sum(self) -> int:
        return sum((-1) ** i * dim for i, (_, dim) in enumerate(self.entries))


def _homology_basis(c: Complex, k: int):
    """(cycles, boundaries, representative columns) at degree k."""
    cycles = kernel_basis(c.d(k))
    boundaries = Subspace.spanned_by(c.d(k - 1))
    reps = complement_in(boundaries, cycles)
    return cycles, boundaries, reps


def _solved(m: Matrix, rhs: Matrix, failure: str) -> Matrix:
    """The pivot-supported solution X of m*X = rhs, one reduction of m for
    all columns; AssertionError(failure) when some column has none."""
    entries = {}
    for j, x in enumerate(solve_columns(m, rhs)):
        if x is None:
            raise AssertionError(failure)
        for i, v in enumerate(x):
            if v:
                entries[(i, j)] = v
    return Matrix(m.cols, rhs.cols, entries)


def _class_coords(boundaries: Subspace, reps: Matrix, vectors: Matrix) -> Matrix:
    """Coordinates of the homology classes of the cycles in the columns of
    vectors, in the representative basis: one column per vector."""
    if reps.cols == 0:
        return Matrix(0, vectors.cols)
    x = _solved(Matrix.hstack(boundaries.basis, reps), vectors,
                "vector is not a cycle modulo boundaries")
    nb = boundaries.dim
    return Matrix(reps.cols, vectors.cols,
                  {(i - nb, j): v for (i, j), v in x.entries.items() if i >= nb})


def les_from_ses(f: ChainMap, g: ChainMap) -> LongExactSequence:
    """The homology long exact sequence of 0 -> A -> B -> C -> 0.

    The input maps are verified to form a degreewise short exact sequence
    of complexes; the connecting homomorphism is realized by lifting
    through g, applying d, and pulling back through f (the snake lemma).
    Each map is reduced once and all of its right-hand sides (homology
    representatives, lifts, class coordinates) are solved against it.
    """
    a, b, c = f.source, f.target, g.target
    if g.source != b:
        raise NotShortExactError("middle complexes of f and g differ")
    degrees = sorted(set(a.spaces) | set(b.spaces) | set(c.spaces))
    if not degrees:
        return LongExactSequence(entries=[], maps=[])
    for k in degrees:
        if rank(f.at(k)) != a.dim(k):
            raise NotShortExactError(f"f is not injective at degree {k}")
        if rank(g.at(k)) != c.dim(k):
            raise NotShortExactError(f"g is not surjective at degree {k}")
        if not (g.at(k) * f.at(k)).is_zero():
            raise NotShortExactError(f"g∘f ≠ 0 at degree {k}")
        if a.dim(k) + c.dim(k) != b.dim(k):
            raise NotShortExactError(f"im f ≠ ker g at degree {k}")

    data = {}
    for k in range(degrees[0], degrees[-1] + 1):
        data[k] = {"A": _homology_basis(a, k), "B": _homology_basis(b, k),
                   "C": _homology_basis(c, k)}

    def induced(mat: Matrix, src, tgt) -> Matrix:
        _, _, src_reps = src
        _, tgt_bound, tgt_reps = tgt
        return _class_coords(tgt_bound, tgt_reps, mat * src_reps)

    def connecting(k: int) -> Matrix:
        _, _, c_reps = data[k]["C"]
        _, a_bound, a_reps = data[k + 1]["A"]
        lifts = _solved(g.at(k), c_reps, "g is surjective but lift failed")
        back = _solved(f.at(k + 1), b.d(k) * lifts, "snake image missed the subcomplex")
        return _class_coords(a_bound, a_reps, back)

    entries = []
    maps = []
    for k in range(degrees[0], degrees[-1] + 1):
        for name in ("A", "B", "C"):
            entries.append((f"H^{k}({name})", data[k][name][2].cols))
        maps.append(induced(f.at(k), data[k]["A"], data[k]["B"]))
        maps.append(induced(g.at(k), data[k]["B"], data[k]["C"]))
        if k < degrees[-1]:
            maps.append(connecting(k))
    les = LongExactSequence(entries=entries, maps=maps)
    if not les.check_exact():
        raise AssertionError("constructed sequence failed exactness verification")
    return les
