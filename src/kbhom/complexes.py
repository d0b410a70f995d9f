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
* every graded operator (differentials, chain maps, model operators) is a
  read-only ``BlockMap`` that carries its degree, with nonzero blocks whose
  shapes are checked once, when it is built;
* every identity is a list of terms s·a∘b, summed by ``_first_failure``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from types import MappingProxyType

from .linalg import (
    Matrix,
    Reduction,
    _from_columns,
    _integer,
    _is_int,
    _owners,
    _reduce,
    _stored_columns,
    _sum_of_products,
    rank,
)


class ComplexInvariantError(ValueError):
    """A (double) complex violates one of its structural identities."""


class NotShortExactError(ValueError):
    """Input to les_from_ses is not a short exact sequence of complexes."""


class BlockMap(Mapping):
    """The nonzero blocks, keyed by source degree or cell, of a graded
    operator of degree ``degree`` (an int on degrees, a pair on cells) from
    ``source`` to ``target`` (dimensions by key; target defaults to source).
    The block at key lands at ``step(key)`` and has ``shape(key)``, checked
    once, here; zero and None blocks are dropped, and the mapping is
    read-only, so the checks made on it cannot go stale.  ``at(key)`` is the
    block at key, the zero block where none is stored.
    """

    __slots__ = ("_blocks", "source", "target", "degree")

    def __init__(self, blocks, source, degree, target=None):
        self._blocks = {}
        self.source = source
        self.target = source if target is None else target
        self.degree = degree
        for key, m in (blocks or {}).items():
            if m is None:
                continue
            if m.shape != self.shape(key):
                raise ComplexInvariantError(
                    f"block at {key} has shape {m.shape}, expected {self.shape(key)}")
            if not m.is_zero():
                self._blocks[key] = m

    def step(self, key):
        d = self.degree
        return key + d if isinstance(key, int) else (key[0] + d[0], key[1] + d[1])

    def shape(self, key) -> tuple:
        return self.target.get(self.step(key), 0), self.source.get(key, 0)

    def __getitem__(self, key) -> Matrix:
        return self._blocks[key]

    def get(self, key, default=None):
        return self._blocks.get(key, default)

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def at(self, key) -> Matrix:
        m = self._blocks.get(key)
        return m if m is not None else Matrix.zero(*self.shape(key))

    def __repr__(self):
        return f"BlockMap({self._blocks!r})"


def _composite(terms, key) -> Matrix | None:
    """Σ s·a∘b at key over ``terms`` (s, a, b) of an int and two BlockMaps,
    or None where no term has both blocks; ValueError on blocks that do not
    compose or terms that land in cells of different sizes."""
    pairs, shape = [], None
    for s, a, b in terms:
        inner = b._blocks.get(key)
        outer = None if inner is None else a._blocks.get(b.step(key))
        if outer is not None:
            if outer.cols != inner.rows or shape not in (None, (outer.rows, inner.cols)):
                raise ValueError(f"the blocks of a composite at {key} do not compose")
            shape = outer.rows, inner.cols
            pairs.append((s, outer, inner))
    return _sum_of_products(pairs, *shape) if pairs else None


def _first_failure(terms) -> tuple | None:
    """``(key, residual)`` at the lowest key where the composite of ``terms``
    is nonzero, or None.  Only the keys where an inner b has a block are
    visited: the composite is empty at the others."""
    for key in sorted({key for _, _, b in terms for key in b._blocks}):
        residual = _composite(terms, key)
        if residual is not None and not residual.is_zero():
            return key, residual
    return None


def graded_dims(table, name: str = "spaces", cells: bool = False, bounds=None) -> dict:
    """The one reader of graded dimensions: the nonzero entries of
    ``table``, which maps degrees (ints) or, with ``cells``, cells (pairs
    of ints) to dimensions.  Keys and values are plain ints, so a bool, a
    float or a string raises TypeError naming the table and the key rather
    than being cast, truncated or parsed; zeros are dropped, and a negative
    value, a key of the wrong length (a degree is one int, a cell a pair),
    or a nonzero value at a key with a coordinate outside ``bounds``
    (``(lo, hi)``; None: unbounded) raises ValueError.  ``name`` names the
    table in the messages."""
    clean = {}
    for key, v in table.items():
        if not _is_int(v):  # the messages are formatted only for a bad entry
            _integer(v, f"{name}[{key!r}]")
        if v < 0:
            raise ValueError(f"{name}[{key!r}] = {v} is negative")
        if cells != isinstance(key, tuple) or cells and len(key) != 2:
            raise ValueError(f"{name}[{key!r}] = {v}: the key is not "
                             + ("a cell (p, q)" if cells else "a degree"))
        # a degree k is range-checked as the cell (k, k)
        p, q = key if cells else (key, key)
        if not (_is_int(p) and _is_int(q)):
            _integer(q if _is_int(p) else p, f"{name} key {key!r}")
        if not v:
            continue
        if bounds and not (bounds[0] <= p <= bounds[1] and bounds[0] <= q <= bounds[1]):
            raise ValueError(f"{name}[{key!r}] = {v} is outside {list(bounds)}")
        clean[(p, q) if cells else p] = v
    return clean


class Complex:
    """A bounded cochain complex: finite dims per degree, d of degree +1."""

    __slots__ = ("spaces", "diffs")

    def __init__(self, spaces, diffs=None, check=True):
        sp = graded_dims(spaces)
        object.__setattr__(self, "spaces", MappingProxyType(sp))
        object.__setattr__(self, "diffs", BlockMap(diffs, sp, 1))
        if check:
            self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    def dim(self, k: int) -> int:
        return self.spaces.get(k, 0)

    def d(self, k: int) -> Matrix:
        return self.diffs.at(k)

    def degrees(self) -> list:
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    def validate(self):
        failure = _first_failure([(1, self.diffs, self.diffs)])
        if failure:
            raise ComplexInvariantError(
                f"differential does not square to zero at degree {failure[0]}")

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.spaces == other.spaces
                and self.diffs == other.diffs)

    def __repr__(self):
        return f"Complex({self.spaces})"


class DoubleComplex:
    """A bounded double complex with anticommuting differentials."""

    __slots__ = ("spaces", "d1", "d2")

    def __init__(self, spaces, d1=None, d2=None, check=True):
        sp = graded_dims(spaces, cells=True)
        object.__setattr__(self, "spaces", MappingProxyType(sp))
        object.__setattr__(self, "d1", BlockMap(d1, sp, (1, 0)))
        object.__setattr__(self, "d2", BlockMap(d2, sp, (0, 1)))
        if check:
            self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("DoubleComplex is immutable")

    def dim(self, p: int, q: int) -> int:
        return self.spaces.get((p, q), 0)

    def cells(self) -> list:
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    def validate(self):
        """Raises at the lowest cell of the first failing identity, in this order."""
        d1, d2 = self.d1, self.d2
        for name, terms in (("d1∘d1", [(1, d1, d1)]), ("d2∘d2", [(1, d2, d2)]),
                            ("d1∘d2 + d2∘d1", [(1, d1, d2), (1, d2, d1)])):
            failure = _first_failure(terms)
            if failure:
                raise ComplexInvariantError(f"{name} ≠ 0 at {failure[0]}")

    def __eq__(self, other):
        return (isinstance(other, DoubleComplex) and self.spaces == other.spaces
                and self.d1 == other.d1 and self.d2 == other.d2)

    def __repr__(self):
        return f"DoubleComplex({len(self.spaces)} cells)"


def _total_layout(dc: DoubleComplex):
    """Per total degree, ascending: ordered (cell, offset) pairs plus the
    total dim.

    Cells at a fixed total degree are ordered by descending first index p,
    so every F^p of the column filtration is a prefix of the coordinates.
    """
    by_degree: dict[int, list] = {}
    for cell in sorted(dc.spaces, key=lambda c: (c[0] + c[1], -c[0])):
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


def _total_columns(dc: DoubleComplex, layouts, k: int, skip=()):
    """The one totalization, a source: the column stream of total d^k but
    ``skip``, column j as ``(j, col, L)``, L the lcm of the denominators of
    its cell's d1 and d2 blocks, over which its parts merge (in different
    cells, so with no sum).  The columns of one cell are built together,
    before the first is yielded, and a skipped one never."""
    to = dict(layouts[k + 1][0])
    for cell, off in layouts[k][0]:
        # a stored block is nonzero, so its target cell is in the layout
        blocks = [(to[d.step(cell)], b) for d in (dc.d1, dc.d2) if (b := d.get(cell)) is not None]
        big = lcm(*(den for _, b in blocks for den in b._dens.values()))
        cols: dict = {}
        for at, b in blocks:
            for j, line in b._lines.items():
                if off + j not in skip:
                    f = big // b._dens.get(j, 1)
                    part = {at + i: f * v for i, v in line.items()}
                    if j in cols:
                        cols[j].update(part)
                    else:
                        cols[j] = part
        for j in sorted(cols):
            yield off + j, cols[j], big


def _total_sources(dc: DoubleComplex) -> tuple:
    """``(spaces, sources)`` of the total complex of dc: ``{k: dim}`` and
    the (k, source of d^k) in ascending k."""
    layouts = _total_layout(dc)
    return ({k: total for k, (_, total) in layouts.items()},
            [(k, partial(_total_columns, dc, layouts, k)) for k in sorted(layouts)
             if k + 1 in layouts])


def _complex_of(spaces: dict, sources) -> Complex:
    """The complex on ``spaces``, {k: dim}, whose d^k is drawn whole from
    its source, for each (k, source) of ``sources``.  D² = 0 is not
    checked: each caller states its proof."""
    return Complex(spaces, {k: _from_columns(spaces.get(k + 1, 0), spaces[k], source(()))
                            for k, source in sources}, check=False)


def total_complex(dc: DoubleComplex) -> Complex:
    """The simple complex of dc: degree k is the direct sum over p+q=k.

    D² = 0 is not checked again: its blocks are d1² at (p+2, q), d2² at
    (p, q+2) and d1d2 + d2d1 at (p+1, q+1), the three identities that the
    ``DoubleComplex`` constructor checks (or, for ``kb_double_complex``,
    that the model validation has proved).
    """
    return _complex_of(*_total_sources(dc))


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


def koszul_tensor(f_a: BlockMap, f_b: BlockMap) -> BlockMap:
    """f_A ⊗ 1 + (-1)^{(dp+dq)(p_A+q_A)} 1 ⊗ f_B on A ⊗ B.

    ``f_a`` and ``f_b`` are operators of one bidegree (dp, dq) on the
    cells of A and of B (ValueError otherwise); the result is laid out by
    :func:`tensor_layout`.  The Koszul sign comes from the bidegree alone:
    an odd operator picks up the parity of the left factor's cell, an even
    one (a contraction, bidegree (-2, 0)) none.
    """
    if f_a.degree != f_b.degree:
        raise ValueError(f"operators of bidegrees {f_a.degree} and {f_b.degree} do not tensor")
    odd = sum(f_a.degree) % 2
    pairs, offsets, dims = tensor_layout(f_a.source, f_b.source)
    blocks = {}
    for cell, cell_pairs in pairs.items():
        pieces = []
        for ca, cb in cell_pairs:
            src = offsets[(ca, cb)]
            dim_a, dim_b = f_a.source[ca], f_b.source[cb]
            # f_A ⊗ 1: column i1 of f_A, at row block i2, spread over j
            block = f_a.get(ca)
            tgt = offsets.get((f_a.step(ca), cb))
            if block is not None and tgt is not None:
                for i1, col, d in block._columns():
                    pieces += [(src + i1 * dim_b + j,
                                {tgt + i2 * dim_b + j: v for i2, v in col.items()}, d)
                               for j in range(dim_b)]
            # (-1)^{(dp+dq)(p_A+q_A)} 1 ⊗ f_B: column j1 of f_B, repeated over i
            tb = f_b.step(cb)
            block = f_b.get(cb)
            tgt = offsets.get((ca, tb))
            if block is not None and tgt is not None:
                sign = -1 if odd and (ca[0] + ca[1]) % 2 else 1
                dim_tb = f_b.source[tb]
                for j1, col, d in block._columns():
                    pieces += [(src + i * dim_b + j1,
                                {tgt + i * dim_tb + j2: sign * v for j2, v in col.items()}, d)
                               for i in range(dim_a)]
        if pieces:
            blocks[cell] = _from_columns(dims.get(f_a.step(cell), 0), dims[cell], pieces)
    return BlockMap(blocks, dims, f_a.degree)


def tensor_double(a: DoubleComplex, b: DoubleComplex) -> DoubleComplex:
    """Tensor product of double complexes with Koszul signs: the cells
    of :func:`tensor_layout`, and d1 and d2 each extended by
    :func:`koszul_tensor` as d_A ⊗ 1 + (-1)^{|A|} 1 ⊗ d_B."""
    d1, d2 = koszul_tensor(a.d1, b.d1), koszul_tensor(a.d2, b.d2)
    return DoubleComplex(d1.source, d1, d2)


def _cleared_owners(diffs) -> dict:
    """The pivot owners of the differentials d^k, keyed by k: ``diffs``
    yields the (k, source of d^k) in ascending k (``linalg``), with d^{k+1}
    d^k = 0.  Each d^k is reduced once by ``linalg._owners``, with the pivot
    rows of d^{k-1} cleared from it (Chen and Kerber, "Persistent homology
    computation with a twist", 2011).

    Clearing is exact.  A reduced column of d^{k-1} with pivot i is a
    vector d^{k-1}x whose last nonzero entry is at row i, and d^k d^{k-1}x
    = 0, so column i of d^k lies in the span of the columns before it.
    A column that depends on the ones before it reduces to zero and owns
    no pivot, so leaving it out changes no other column's reduction: the
    owners, the rank and the persistence pairs are those of the full
    reduction.  The saving is the cleared columns, about rank d^{k-1} of
    them, and the dearest ones, as each would be eliminated to zero; a
    source that builds columns only as they are drawn (``stein``'s slices,
    a bicomplex's ``_total_columns``) never builds them.

    The precondition D² = 0 is proved for every differential that reaches
    here: the ``Complex`` and ``DoubleComplex`` constructors check it, and
    where they are told not to, ``total_complex`` and ``kb_double_complex``
    derive it from checked identities (the bicomplex's, or the model's),
    and the ``stein`` slices from [pi, pi] = 0, which both ``stein``
    entries require of the bivector: delpi∘delpi is, up to sign
    and a factor 2, the Koszul operator of [pi, pi] (proof in
    ``stein_complex``).
    """
    owners: dict = {}
    for k, columns in diffs:
        owners[k] = _owners(columns(owners.get(k - 1, {}).keys()))
    return owners


def _homology(spaces: dict, diffs) -> dict:
    """dim H^k = dim C^k - rank d^k - rank d^{k-1} over ``spaces``, {k: dim
    C^k}, the ranks by ``_cleared_owners(diffs)``, which reduces the columns
    of C^k left after the rank d^{k-1} cleared ones: no dim is negative."""
    ranks = {k: len(owner) for k, owner in _cleared_owners(diffs).items()}
    return {k: dim - ranks.get(k, 0) - ranks.get(k - 1, 0) for k, dim in spaces.items()}


def homology_dims(c: Complex) -> dict:
    """dim H^k for every supported degree k (``_homology``)."""
    return _homology({k: c.dim(k) for k in c.degrees()},
                     ((k, partial(_stored_columns, d)) for k, d in sorted(c.diffs.items())))


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
    with first index >= p, is a prefix of each total degree's coordinates
    (``_total_layout``).  So each total differential, drawn column by
    column from ``_total_columns``, is reduced with clearing, which leaves
    the pairs as they are (``_cleared_owners``).  A pivot then pairs a
    coordinate in column p_j with one in column p_i >= p_j; both survive to page ℓ = p_i - p_j,
    where d_ℓ kills them.  Hence

        dim E_r^{p,q} = (unpaired coordinates in (p,q))
                        + (pair ends in (p,q) with ℓ >= r),

    and the sequence degenerates at page 1 + max ℓ.  The limit page is
    recorded at r = width+1, past every pair.
    """
    if _integer(r_max, "r_max") < 1:
        raise ValueError("r_max must be >= 1")
    if not dc.spaces:
        return SpectralPages(pages=[(r, {}) for r in range(1, r_max + 1)],
                             degeneration_page=1)
    cell_of = {k: [cell for cell, _ in lay for _ in range(dc.spaces[cell])]
               for k, (lay, _) in _total_layout(dc).items()}
    _, sources = _total_sources(dc)
    unpaired = dict(dc.spaces)
    lengths: dict = {cell: [] for cell in dc.spaces}
    for k, owner in _cleared_owners(sources).items():
        for i, j in owner.items():
            src, tgt = cell_of[k][j], cell_of[k + 1][i]
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

    def __init__(self, source: Complex, target: Complex, blocks):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", BlockMap(blocks, source.spaces, 0, target.spaces))
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def at(self, k: int) -> Matrix:
        return self.blocks.at(k)

    def validate(self):
        failure = _first_failure([(1, self.target.diffs, self.blocks),
                                  (-1, self.blocks, self.source.diffs)])
        if failure:
            raise ValueError(f"square does not commute at degree {failure[0]}")


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


def _homology_bases(x: Complex, degrees) -> dict:
    """Per degree k of the contiguous range ``degrees``: ``(classes, reps)``,
    the representatives of H^k as the columns of ``reps``, and ``classes``,
    an echelon basis of the cycles Z^k as a ``Reduction`` whose ``solve``
    gives the class coordinates of cycles (``_class_coords``).  Each d^k is
    reduced once, tracked, and the classes are read off its pivots.

    For each dependent column j of d^k, z_j = free[j] is a cycle whose
    last nonzero row is j (it is supported on j and the pivot columns
    before it); the z_j are a basis of Z^k.  A reduced pivot column of
    d^{k-1} is a boundary that ends at its pivot row i, so i is dependent
    in d^k (the clearing lemma of ``_cleared_owners``).  Let P be those
    pivot rows.  The reduced pivot columns of d^{k-1} and the z_j at the
    dependent j not in P have distinct last rows, so they are independent,
    and there are rank d^{k-1} + (dim Z^k - rank d^{k-1}) = dim Z^k of
    them: an echelon basis of Z^k whose first part spans B^k.  So the z_j,
    j not in P, complete B^k to a basis of Z^k, and they are the columns of
    [z_j] that a left-to-right reduction of [B^k | z] leaves as pivots: for
    j in P, the boundary b ending at row j, written in the z basis, has z_j
    last, so z_j lies in the span of b and the z before it, and the
    dim Z^k - dim B^k pivots left are the z_j, j not in P.

    A cycle v reduces to zero against the echelon basis, v = Σ β·b + Σ
    α_j·z_j, and its coordinates α_j on the representatives are unique, the
    basis being one; a vector that is not a cycle ends on a row outside the
    echelon.  So the echelon, keyed by last row, has empty combinations at
    the boundaries and {n: free[j][j]} at the n-th representative,
    free[j][j] times the n-th column of ``reps``.
    """
    out = {}
    boundaries: dict = {}  # pivot row: reduced column of d^{k-1}, none below the range
    for k in degrees:
        red = _reduce(x.d(k))
        reps = [j for j in red.free if j not in boundaries]
        echelon, coords = dict(boundaries), dict.fromkeys(boundaries, {})
        for n, j in enumerate(reps):
            echelon[j], coords[j] = red.free[j], {n: red.free[j][j]}
        out[k] = (Reduction(x.dim(k), len(reps), echelon, coords, {}),
                  _from_columns(x.dim(k), len(reps), ((n, dict(red.free[j]), red.free[j][j])
                                                      for n, j in enumerate(reps))))
        boundaries = red.pivots
    return out


def _solved(red, rhs: Matrix, failure: str) -> Matrix:
    """The pivot-supported solution X of m*X = rhs, for the tracked
    reduction ``red`` of m; AssertionError(failure) when a column has none."""
    x, missing = red.solve(rhs)
    if missing:
        raise AssertionError(failure)
    return x


def _class_coords(bases, vectors: Matrix) -> Matrix:
    """Coordinates of the homology classes of the cycles in the columns of
    vectors, on the representatives of ``bases`` (``_homology_bases``):
    each cycle is reduced against the echelon basis of the cycles, and the
    combination tracked along, on the representatives only, is its
    coordinates.  AssertionError when a column is not a cycle, in every
    degree, H^k = 0 included."""
    return _solved(bases[0], vectors, "vector is not a cycle modulo boundaries")


def les_from_ses(f: ChainMap, g: ChainMap) -> LongExactSequence:
    """The homology long exact sequence of 0 -> A -> B -> C -> 0.

    The input maps are verified to form a degreewise short exact sequence
    of complexes; the connecting homomorphism is realized by lifting
    through g, applying d, and pulling back through f (the snake lemma).
    Each matrix is reduced once: d^k gives the representatives and, with
    the reduced pivot columns of d^{k-1}, an echelon basis of the cycles
    against which every class coordinate is read (``_homology_bases``),
    and f^k and g^k the injectivity and surjectivity checks, lifts and
    pull-backs.
    """
    a, b, c = f.source, f.target, g.target
    if g.source != b:
        raise NotShortExactError("middle complexes of f and g differ")
    degrees = sorted(set(a.spaces) | set(b.spaces) | set(c.spaces))
    if not degrees:
        return LongExactSequence(entries=[], maps=[])
    degrees = range(degrees[0], degrees[-1] + 1)
    f_red = {k: _reduce(f.at(k)) for k in degrees}
    g_red = {k: _reduce(g.at(k)) for k in degrees}
    for k in degrees:
        if len(f_red[k].pivots) != a.dim(k):
            raise NotShortExactError(f"f is not injective at degree {k}")
        if len(g_red[k].pivots) != c.dim(k):
            raise NotShortExactError(f"g is not surjective at degree {k}")
        if not (g.at(k) * f.at(k)).is_zero():
            raise NotShortExactError(f"g∘f ≠ 0 at degree {k}")
        if a.dim(k) + c.dim(k) != b.dim(k):
            raise NotShortExactError(f"im f ≠ ker g at degree {k}")

    h = {name: _homology_bases(x, degrees) for name, x in (("A", a), ("B", b), ("C", c))}
    entries = []
    maps = []
    for k in degrees:
        entries += [(f"H^{k}({name})", h[name][k][1].cols) for name in "ABC"]
        maps.append(_class_coords(h["B"][k], f.at(k) * h["A"][k][1]))
        maps.append(_class_coords(h["C"][k], g.at(k) * h["B"][k][1]))
        if k < degrees[-1]:
            lifts = _solved(g_red[k], h["C"][k][1], "g is surjective but lift failed")
            back = _solved(f_red[k + 1], b.d(k) * lifts, "snake image missed the subcomplex")
            maps.append(_class_coords(h["A"][k + 1], back))
    les = LongExactSequence(entries=entries, maps=maps)
    if not les.check_exact():
        raise AssertionError("constructed sequence failed exactness verification")
    return les
