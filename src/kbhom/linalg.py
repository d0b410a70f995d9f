"""Exact sparse linear algebra over the rationals.

A ``Matrix`` stores each nonzero column j as ints over one denominator:
``_lines[j]``, a ``{row: int}`` dict of the nonzero entries, over
``_dens.get(j, 1)``, the lcm of the column's reduced denominators.
Builders emit such dicts, which ``_from_columns`` stores as they are in
this canonical form and nothing mutates afterwards, and ``Fraction``
appears only at the public edges.  Everything downstream reduces to
``_eliminate`` on copies of the stored columns: rank only over a column
stream (``_owners``), or tracked (``_reduce``), for kernels and solve
(``Reduction``, an echelon keyed by the row each column ends at, as is
the cycle basis of ``complexes._homology_bases``), a column being divided
by its content only after a step that scaled it (the unit-step lemma, in
``_eliminate``);
products and the sums of products that check a model's identities
(``_sum_of_products``) combine integer columns.  There is no floating
point and no modular arithmetic anywhere, and identical inputs give
identical outputs.

A *column stream* is one matrix as the pieces ``(j, col, d)`` that
``_from_columns`` takes, fresh and in strictly ascending j: column j is
col/d, col a ``{row: int}`` dict with no zero entry, d > 0.  A *source*
``source(skip)`` is a stream without the columns in skip (``_stored_columns``,
``complexes._total_columns``, ``stein._slice_columns``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def _rational_pair(s: str) -> tuple:
    """The string rational s as ``(a, b)``, the value a/b with b > 0: ASCII
    digits with an optional sign and an optional "/b", b nonzero, matched
    in full (no blanks, underscores, exponents, decimal points or other
    digits); ValueError otherwise."""
    match = _RATIONAL_RE.fullmatch(s)
    if not match:
        raise ValueError(f"{s!r} is not a rational 'a/b' or integer string")
    num, den = match.groups()
    return int(num), int(den) if den else 1


def _q(x) -> Fraction:
    """An exact coefficient as a Fraction: a Fraction, an int or a string
    that ``_rational_pair`` reads; bools and floats raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(*_rational_pair(x))
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not an exact rational")
    return Fraction(x)


def _is_int(x) -> bool:
    """A plain integer: bool is a subclass of int but never one here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(x, name: str):
    """x itself when it is a plain int; a bool or any other type raises
    TypeError."""
    if not _is_int(x):
        raise TypeError(f"{name} must be an int, not {type(x).__name__}")
    return x


def _index(i, bound: int, what: str) -> None:
    """TypeError unless i is a plain int, IndexError unless 0 <= i < bound."""
    if not _is_int(i):
        raise TypeError(f"{what} must be int, not {type(i).__name__}")
    if not 0 <= i < bound:
        raise IndexError(f"{what} {i} out of range(0, {bound})")


def _pair(key, what: str) -> tuple:
    """key if it is a pair (row, col) of plain ints, else TypeError."""
    i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
    if not (_is_int(i) and _is_int(j)):
        raise TypeError(f"{what} {key!r} is not a pair (row, col) of ints")
    return key


def _from_columns(rows: int, cols: int, pieces) -> "Matrix":
    """The rows×cols matrix Σ col/d over ``pieces`` (j, col, d), each adding
    col/d to column j: col a ``{row: int}`` dict, d a nonzero int.  Pieces
    are taken over and stored (or changed in place), so callers pass fresh
    dicts.  A column's pieces are summed into its first one over the lcm
    of their denominators; zero entries and columns are dropped, and each
    denominator is made positive and coprime to its column's entries (1 is
    left out).  One piece of nonzero ints over 1, the usual case, is stored
    as it is."""
    lines: dict = {}
    dens: dict = {}  # j: denominator, for the columns still to be put in lowest terms
    for j, col, d in pieces:
        cur = lines.get(j)
        if cur is None:
            lines[j] = col
            if d != 1 or not col or not all(col.values()):
                dens[j] = d
            continue
        old = dens.setdefault(j, 1)
        common = lcm(old, d)
        if common != old:
            g = common // old
            for i in cur:
                cur[i] *= g
            dens[j] = common
        f = common // d
        for i, v in col.items():
            cur[i] = cur.get(i, 0) + f * v
    pending, dens = dens, {}
    for j, d in pending.items():
        col = {i: v for i, v in lines[j].items() if v}
        if not col:
            del lines[j]
            continue
        g = gcd(d, *col.values()) * (-1 if d < 0 else 1)
        if g != 1:
            d //= g
            col = {i: v // g for i, v in col.items()}
        if d != 1:
            dens[j] = d
        lines[j] = col
    return Matrix._of(rows, cols, lines, dens)


class Matrix:
    """Immutable sparse matrix over Q (see the module docstring): it and
    its stored column dicts are never mutated and are safe to share."""

    __slots__ = ("_rows", "_cols", "_lines", "_dens")
    rows = property(lambda self: self._rows)
    cols = property(lambda self: self._cols)
    shape = property(lambda self: (self._rows, self._cols))

    def __init__(self, rows: int, cols: int, entries=None):
        """``entries`` maps ``(row, col)`` pairs of plain ints to exact values."""
        if not (_is_int(rows) and _is_int(cols)):
            raise TypeError(f"matrix dimensions must be ints, not {(rows, cols)!r}")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        pieces = []
        for key, v in (entries or {}).items():
            i, j = _pair(key, "matrix entry key")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) out of bounds for {rows}x{cols} matrix")
            v = _q(v)
            if v:
                pieces.append((j, {i: v.numerator}, v.denominator))
        m = _from_columns(rows, cols, pieces)
        self._rows, self._cols, self._lines, self._dens = rows, cols, m._lines, m._dens

    @classmethod
    def _of(cls, rows: int, cols: int, lines: dict, dens: dict) -> "Matrix":
        """A matrix from lines already in canonical form (no checks)."""
        m = object.__new__(cls)
        m._rows, m._cols, m._lines, m._dens = rows, cols, lines, dens
        return m

    def _columns(self):
        """The stored columns as ``(j, col, d)``: column j is col/d."""
        return ((j, col, self._dens.get(j, 1)) for j, col in self._lines.items())

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        """Build from a dense list of rows; entries may be int, str or Fraction."""
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols, {(i, j): v for i, row in enumerate(data)
                                     for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def hstack(cls, *mats: "Matrix") -> "Matrix":
        if not mats:
            raise ValueError("hstack of nothing")
        rows = mats[0].rows
        pieces, off = [], 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("hstack row mismatch")
            pieces += [(j + off, dict(col), d) for j, col, d in m._columns()]
            off += m.cols
        return _from_columns(rows, off, pieces)

    @property
    def entries(self):
        """The nonzero entries as a read-only ``{(row, col): Fraction}``
        mapping, derived from the columns on each access."""
        return MappingProxyType({(i, j): Fraction(v, d) for j, col, d in self._columns()
                                 for i, v in col.items()})

    def __getitem__(self, key) -> Fraction:
        i, j = _pair(key, "matrix index")
        _index(i, self.rows, "row index")
        _index(j, self.cols, "column index")
        return Fraction(self._lines.get(j, {}).get(i, 0), self._dens.get(j, 1))

    def _key(self) -> tuple:
        return self.shape, frozenset((j, frozenset(col.items()), d)
                                     for j, col, d in self._columns())

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        nnz = sum(map(len, self._lines.values()))
        return f"Matrix({self.rows}x{self.cols}, {nnz} nonzero)"

    def is_zero(self) -> bool:
        return not self._lines

    def __neg__(self) -> "Matrix":
        return -1 * self

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix sum")
        return _from_columns(self.rows, self.cols,
                             ((j, dict(col), d) for j, col, d in chain(self._columns(),
                                                                      other._columns())))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch in product: {self.shape} * {other.shape}")
            return _sum_of_products([(1, self, other)], self.rows, other.cols)
        return NotImplemented

    def __rmul__(self, scalar) -> "Matrix":
        s = _q(scalar)
        return _from_columns(self.rows, self.cols,
                             ((j, {i: s.numerator * v for i, v in col.items()}, s.denominator * d)
                              for j, col, d in self._columns()))

    def column(self, j: int) -> list:
        _index(j, self.cols, "column index")
        col, d = self._lines.get(j, {}), self._dens.get(j, 1)
        return [Fraction(col.get(i, 0), d) for i in range(self.rows)]


def _sum_of_products(terms, rows: int, cols: int) -> Matrix | None:
    """The rows×cols matrix Σ s·a·b over ``terms`` (s, a, b): s an int, a
    and b matrices, or None for a zero factor (the term is skipped; None
    is returned when no term is left).
    Column j is Σ s Σ_k b[k, j]·a[:, k] on ints, each term scaled to D_j,
    the lcm of den(b[:, j])·den(a[:, k]) over the terms and the k in
    b[:, j] (1 on integer matrices), so the sum over D_j is exact."""
    terms = [(s, a, b) for s, a, b in terms if a is not None and b is not None]
    if not terms:
        return None
    big: dict = {}  # D_j, where the factors have denominators
    if any(a._dens or b._dens for _, a, b in terms):
        for _, a, b in terms:
            dens = a._dens
            for j, col, d in b._columns():
                big[j] = lcm(big.get(j, 1), d * lcm(*(dens.get(k, 1) for k in col)))
    acc: dict = {}
    for s, a, b in terms:
        lines, dens, bdens = a._lines, a._dens, b._dens
        for j, col in b._lines.items():
            f = s * (big[j] // bdens.get(j, 1)) if big else s
            out = None
            for k, x in col.items():
                line = lines.get(k)
                if line is None:
                    continue
                if out is None:
                    out = acc.setdefault(j, {})
                x *= f // dens.get(k, 1) if dens else f
                for i, y in line.items():
                    out[i] = out.get(i, 0) + x * y
    # an identity's residual cancels to zero columns: drop them here
    return _from_columns(rows, cols, [(j, col, big.get(j, 1)) for j, col in acc.items()
                                      if any(col.values())])


def _combine(dst: dict, a: int, b: int, src: dict) -> None:
    """dst <- a*dst - b*src in place, dropping entries that cancel."""
    if a != 1:
        for i in dst:
            dst[i] *= a
    for i, v in src.items():
        w = dst.get(i, 0) - b * v
        if w:
            dst[i] = w
        else:
            del dst[i]


def _divide_content(col: dict, g: int) -> None:
    if g > 1:
        for i in col:
            col[i] //= g


def _eliminate(col: dict, comb, pivots: dict, combos) -> int | None:
    """Reduce one integer column in place against an echelon keyed by row.

    The pivot of a column is its last nonzero row; while a reduced column
    ``own = pivots[pivot]`` ends at that row, the column is replaced by
    ``a*col - b*own``, a and b the pivot entries of own and col divided by
    their gcd taken with the sign of own's, so a > 0.  With a combination
    ``comb`` (a dict), the same step is applied to it with own's
    combination ``combos[pivot]`` (``combos`` is None for rank only).  Only
    after a step with a > 1 is the column (with comb) divided by its
    content.  Returns the row outside ``pivots`` that the column ends on,
    or None when it reduces to zero.

    A unit step, a = 1, needs no division.  Say col = s·v, v the column
    that elimination over Q has reached and s a nonzero scale, and own =
    σ·w, w the rational column.  Then b = q/p and col - b·own = s·(v -
    (v_piv/w_piv)·w) = s·v', the next rational column at the same scale.  A
    step with a > 1 multiplies the scale by a, and the division divides it
    by the content.  So each column stays a nonzero multiple of its
    rational counterpart, with the same pivots, and comb the same multiple
    of its rational combination; by the scale lemma of ``_owners`` no
    pivot, rank, kernel, solve or persistence pair depends on when content
    is divided, and ``_from_columns`` puts every stored result in lowest
    terms.  A unit step may leave content behind (column (1, 2) against
    (3, 1) ends as (-5, 0)): that is s times the rational column, not
    growth, and the next step with a > 1 divides it out.
    """
    while col:
        piv = max(col)
        own = pivots.get(piv)
        if own is None:
            return piv
        p, q = own[piv], col[piv]
        g = gcd(p, q) if p > 0 else -gcd(p, q)
        a, b = p // g, q // g
        _combine(col, a, b, own)
        if comb is not None:
            _combine(comb, a, b, combos[piv])
        if a != 1:
            if comb is not None:
                g = gcd(*col.values(), *comb.values())
                _divide_content(comb, g)
            else:
                g = gcd(*col.values())
            _divide_content(col, g)
    return None


class Reduction(NamedTuple):
    """What ``_reduce`` returns for a ``rows``×``cols`` matrix m, an echelon
    keyed by row: ``pivots[i]`` is the reduced column that ends at row i, a
    sparse ``{row: int}`` dict, ``combos[i]`` writes it as ``{column of m:
    int coefficient}``, and ``free[j]``, keys ascending, is the combination
    that reduced dependent column j to zero.  A combination ends at its own
    column and is otherwise supported on pivot columns, so a dependent
    column's is unique up to scale.  ``kernel`` reads ``free``, and
    ``solve`` reads ``pivots`` and ``combos``."""

    rows: int
    cols: int
    pivots: dict
    combos: dict
    free: dict

    def kernel(self) -> "Subspace":
        """The right kernel: one basis column per dependent column j, with 1
        at j and 0 at the other dependent coordinates, so the columns are
        independent and their order is deterministic."""
        basis = _from_columns(self.cols, len(self.free),
                              ((idx, dict(comb), comb[j])
                               for idx, (j, comb) in enumerate(self.free.items())))
        return Subspace(self.cols, basis, _checked=True)

    def solve(self, rhs: Matrix) -> tuple:
        """``(x, missing)``: column j of x solves m*x = rhs[:, j] on the
        pivot columns, or is zero for the j in the set ``missing`` that have
        no solution.  Each column is reduced against the pivots only, so
        none joins them and the reduction can be solved again; its
        combination, tracked step by step as in ``_reduce``, is x.
        ValueError unless rhs has the reduced matrix's row count."""
        if rhs.rows != self.rows:
            raise ValueError(f"right-hand side has {rhs.rows} rows, not {self.rows}")
        n = self.cols
        pieces, missing = [], set()
        for j in range(rhs.cols):
            # the column is tracked under key n: at the end
            # 0 = c*b + m*y with c = comb[n], y the rest of comb; x = -y/c
            col = dict(rhs._lines.get(j, {}))
            comb = {n: rhs._dens.get(j, 1)}
            if _eliminate(col, comb, self.pivots, self.combos) is not None:
                missing.add(j)
            else:
                pieces.append((j, comb, -comb.pop(n)))
        return _from_columns(n, rhs.cols, pieces), missing


def _stored_columns(m: Matrix, skip=()):
    """The column stream of m without the columns in ``skip``: its stored
    columns in ascending j, whatever order the builder stored them in, each
    a fresh copy over its denominator."""
    lines, dens = m._lines, m._dens
    return ((j, dict(lines[j]), dens.get(j, 1)) for j in sorted(lines) if j not in skip)


def _owners(columns) -> dict:
    """``{pivot row: column j}`` of the rank-only reduction of a column
    stream, each col eliminated once, in place, against the ones before
    it.  d is never read, as no scale of a column changes a pivot: column j
    ends on pivot i iff r(i, j) - r(i, j-1) - r(i+1, j) + r(i+1, j-1) = 1,
    r(i, j) the rank of the rows >= i of the columns <= j, since the
    reduction keeps each r and ends with r(i, j) columns <= j at pivots
    >= i; a scale changes no r, so no pivot, rank or persistence pair."""
    owner, pivots = {}, {}
    for j, col, _ in columns:
        piv = _eliminate(col, None, pivots, None)
        if piv is not None:
            owner[piv], pivots[piv] = j, col
    return owner


def _reduce(m: Matrix) -> Reduction:
    """Fraction-free, tracked column reduction of m, left to right: each
    column, a copy of the stored integer column (column j of m times its
    denominator), is reduced by ``_eliminate`` against the ones before it
    and kept at the row it ends on, a nonzero rational multiple of what an
    elimination over Q gives, at the pivots ``_owners`` finds."""
    lines, dens = m._lines, m._dens
    pivots, combos, free = {}, {}, {}
    for j in range(m.cols):
        col, comb = dict(lines.get(j, {})), {j: dens.get(j, 1)}
        piv = _eliminate(col, comb, pivots, combos)
        if piv is None:
            free[j] = comb
        else:
            pivots[piv], combos[piv] = col, comb
    return Reduction(m.rows, m.cols, pivots, combos, free)


def rank(m: Matrix) -> int:
    """Exact rank of m over Q."""
    return len(_owners(_stored_columns(m)))


def kernel_basis(m: Matrix) -> "Subspace":
    """Right kernel of m as a subspace of Q^cols (see ``Reduction.kernel``)."""
    return _reduce(m).kernel()


class Subspace:
    """A linear subspace of Q^n carried by a basis matrix (columns)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix, _checked: bool = False):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        if not _checked and rank(basis) != basis.cols:
            raise ValueError("basis columns are linearly dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace) or self.ambient_dim != other.ambient_dim:
            return False
        if self.dim != other.dim:
            return False
        return rank(Matrix.hstack(self.basis, other.basis)) == self.dim

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

