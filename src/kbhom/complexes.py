"""Bounded complexes and double complexes over Q.

Conventions fixed here, once, for the whole package:

* a ``Complex`` has differentials of degree +1, ``d^k: C^k -> C^{k+1}``;
* a ``DoubleComplex`` has two anticommuting differentials,
  ``d1: (p,q) -> (p+1,q)`` and ``d2: (p,q) -> (p,q+1)``, and its total
  complex carries ``D = d1 + d2`` with no extra signs;
* tensor products insert the Koszul sign ``(-1)^{deg}`` of the left
  factor in front of the right differential, which keeps the
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
    image_subspace,
    kernel_basis,
    rank,
    solve,
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


def tensor_double(a: DoubleComplex, b: DoubleComplex) -> DoubleComplex:
    """Tensor product of double complexes with Koszul signs.

    The component of the result at (p,q) is the direct sum of
    A(a1,a2) ⊗ B(b1,b2) over a1+b1=p, a2+b2=q, ordered by the A-cell and
    then the B-cell; within one summand the index is row-major in
    (A index, B index).  Differentials are d_A ⊗ 1 + (-1)^{|A|} 1 ⊗ d_B,
    applied to d1 and d2 separately.
    """
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
                # d_A ⊗ 1
                ta = (ca[0] + dp, ca[1] + dq)
                block_a = a.block1(*ca) if which == 1 else a.block2(*ca)
                if (ta, cb) in offsets and not block_a.is_zero():
                    tgt_off = offsets[(ta, cb)]
                    for (i2, i1), v in block_a.entries.items():
                        for j in range(dim_b):
                            entries[(tgt_off + i2 * dim_b + j,
                                     src_off + i1 * dim_b + j)] = v
                # (-1)^{|A|} 1 ⊗ d_B
                tb = (cb[0] + dp, cb[1] + dq)
                block_b = b.block1(*cb) if which == 1 else b.block2(*cb)
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
        for i, m in enumerate(self.maps):
            if i + 1 < len(self.maps):
                nxt = self.maps[i + 1]
                if not (nxt * m).is_zero():
                    return False
                if rank(m) + rank(nxt) != self.entries[i + 1][1]:
                    return False
        if self.maps:
            if rank(self.maps[0]) != self.entries[0][1]:
                return False
            if rank(self.maps[-1]) != self.entries[-1][1]:
                return False
        elif any(dim for _, dim in self.entries):
            return False
        return True

    def alternating_sum(self) -> int:
        return sum((-1) ** i * dim for i, (_, dim) in enumerate(self.entries))


def _homology_basis(c: Complex, k: int):
    """(cycles, boundaries, representative columns) at degree k."""
    cycles = kernel_basis(c.d(k))
    boundaries = image_subspace(c.d(k - 1), Subspace.full(c.dim(k - 1)))
    reps = complement_in(boundaries, cycles)
    return cycles, boundaries, reps


def _class_coords(boundaries: Subspace, reps: Matrix, vector) -> list:
    """Coordinates of a cycle's homology class in the representative basis."""
    if reps.cols == 0:
        return []
    stacked = Matrix.hstack(boundaries.basis, reps)
    x = solve(stacked, vector)
    if x is None:
        raise AssertionError("vector is not a cycle modulo boundaries")
    return x[boundaries.dim:]


def les_from_ses(f: ChainMap, g: ChainMap) -> LongExactSequence:
    """The homology long exact sequence of 0 -> A -> B -> C -> 0.

    The input maps are verified to form a degreewise short exact sequence
    of complexes; the connecting homomorphism is realized by lifting
    through g, applying d, and pulling back through f (the snake lemma).
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
        cols = {}
        for j in range(src_reps.cols):
            image = mat * Matrix(src_reps.rows, 1,
                                 {(i, 0): v for (i, jj), v in src_reps.entries.items()
                                  if jj == j})
            coords = _class_coords(tgt_bound, tgt_reps, image.column(0))
            for i, v in enumerate(coords):
                if v:
                    cols[(i, j)] = v
        return Matrix(tgt_reps.cols, src_reps.cols, cols)

    def connecting(k: int) -> Matrix:
        _, _, c_reps = data[k]["C"]
        if k + 1 in data:
            _, a_bound, a_reps = data[k + 1]["A"]
        else:
            a_bound, a_reps = Subspace.zero(0), Matrix.zero(0, 0)
        cols = {}
        for j in range(c_reps.cols):
            lift = solve(g.at(k), c_reps.column(j))
            if lift is None:
                raise AssertionError("g is surjective but lift failed")
            w = (b.d(k) * Matrix.from_column(lift)).column(0)
            back = solve(f.at(k + 1), w)
            if back is None:
                raise AssertionError("snake image missed the subcomplex")
            coords = _class_coords(a_bound, a_reps, back)
            for i, v in enumerate(coords):
                if v:
                    cols[(i, j)] = v
        return Matrix(a_reps.cols, c_reps.cols, cols)

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
