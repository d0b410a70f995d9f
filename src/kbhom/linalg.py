"""Exact sparse linear algebra over the rationals.

Everything downstream (homology ranks, spectral pages, snake-lemma maps)
reduces to one sparse column reduction, ``_reduce``; rank, kernel, solve
and subspace bases are short reads of its result, and ``solve_columns``
reduces many right-hand sides against one reduction of the matrix.
Entries are ``fractions.Fraction``; the reduction and the matrix product
clear denominators once per column (or row) and run their inner loops on
Python ints, which is still exact.  There is no floating point and no
modular arithmetic anywhere, and identical inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction

def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, float)):
        raise TypeError(f"matrix entries must be exact, not {type(x).__name__}")
    return Fraction(x)


def _denominator_lcms(entries: dict, axis: int) -> dict:
    """Per row (axis 0) or column (axis 1): the lcm of the denominators of
    its entries, for the lines where that is not 1."""
    out: dict = {}
    for key, v in entries.items():
        d = v.denominator
        if d != 1:
            line = key[axis]
            out[line] = lcm(out.get(line, 1), d)
    return out


class Matrix:
    """Immutable sparse matrix over Q.

    Only nonzero entries are stored, keyed by ``(row, col)``.  Instances
    are never mutated after construction and are safe to share.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(
                        f"entry ({i},{j}) out of bounds for {rows}x{cols} matrix")
                v = _q(v)
                if v:
                    clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, data) -> "Matrix":
        """Build from a dense list of rows; entries may be int, str or Fraction."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = _q(v)
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_column(cls, data) -> "Matrix":
        return cls.from_rows([[v] for v in data])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): Q(1) for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def hstack(cls, *mats: "Matrix") -> "Matrix":
        if not mats:
            raise ValueError("hstack of nothing")
        rows = mats[0].rows
        entries = {}
        off = 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("hstack row mismatch")
            for (i, j), v in m.entries.items():
                entries[(i, j + off)] = v
            off += m.cols
        return cls(rows, off, entries)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, Q(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      {(j, i): v for (i, j), v in self.entries.items()})

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      {k: -v for k, v in self.entries.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix sum")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            acc[k] = acc.get(k, Q(0)) + v
        return Matrix(self.rows, self.cols, acc)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch in product: {self.shape} * {other.shape}")
            if not self.entries or not other.entries:
                return Matrix(self.rows, other.cols)
            # row i of self times r[i] and column j of other times c[j] are
            # integral; lines absent from r or c are integral already
            r = _denominator_lcms(self.entries, 0)
            c = _denominator_lcms(other.entries, 1)
            by_row: dict[int, list] = {}
            for (k, j), v in other.entries.items():
                by_row.setdefault(k, []).append(
                    (j, v.numerator * (c.get(j, 1) // v.denominator)))
            acc: dict[tuple, int] = {}
            for (i, k), a in self.entries.items():
                a = a.numerator * (r.get(i, 1) // a.denominator)
                for j, b in by_row.get(k, ()):
                    acc[(i, j)] = acc.get((i, j), 0) + a * b
            return Matrix(self.rows, other.cols,
                          {(i, j): Fraction(v, r.get(i, 1) * c.get(j, 1))
                           for (i, j), v in acc.items() if v})
        return NotImplemented

    def __rmul__(self, scalar) -> "Matrix":
        s = _q(scalar)
        return Matrix(self.rows, self.cols,
                      {k: s * v for k, v in self.entries.items()})

    def column(self, j: int) -> list:
        out = [Q(0)] * self.rows
        for (i, jj), v in self.entries.items():
            if jj == j:
                out[i] = v
        return out

    def to_rows(self) -> list:
        out = [[Q(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


def _integer_columns(m: Matrix):
    """``(cols, scales)``: column j of m times ``scales[j]``, the lcm of its
    denominators, as a sparse ``{row: int}`` dict."""
    cols = [{} for _ in range(m.cols)]
    for (i, j), v in m.entries.items():
        cols[j][i] = v
    scales = []
    for j, col in enumerate(cols):
        scale = 1
        for v in col.values():
            if v.denominator != 1:
                scale = lcm(scale, v.denominator)
        cols[j] = {i: v.numerator * (scale // v.denominator) for i, v in col.items()}
        scales.append(scale)
    return cols, scales


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


def _eliminate(col: dict, comb, owner: dict, reduced: list, combo) -> int | None:
    """Reduce one integer column in place against the owned pivots.

    The pivot of a column is its last nonzero row; while an earlier
    reduced column owns that pivot, the column is replaced by
    ``a*col - b*owner``, with ``a``, ``b`` the two pivot entries divided
    by their gcd, and then divided by its content.  With a combination
    ``comb`` (a dict), the same steps are applied to it with the owners'
    combinations ``combo[k]``, and content is divided out of column and
    combination together.  Returns the unowned pivot the column ends on,
    or None when it reduces to zero.
    """
    while col:
        piv = max(col)
        k = owner.get(piv)
        if k is None:
            return piv
        own = reduced[k]
        p, q = own[piv], col[piv]
        g = gcd(p, q)
        a, b = p // g, q // g
        _combine(col, a, b, own)
        if comb is not None:
            _combine(comb, a, b, combo[k])
            g = gcd(*col.values(), *comb.values())
            _divide_content(comb, g)
        else:
            g = gcd(*col.values())
        _divide_content(col, g)
    return None


def _reduce(m: Matrix, track: bool = False):
    """Fraction-free column reduction of m, left to right.

    Each column is reduced by ``_eliminate`` against the columns before
    it and owns the pivot it ends on.  All arithmetic is on Python ints:
    each column is first scaled by the lcm of its denominators, so every
    reduced column is a nonzero rational multiple of the one an
    elimination over Q would give, and the owners, pivot columns and
    persistence pairs are the same.

    Returns ``(owner, reduced, combo)``: ``owner`` maps each pivot row to
    the column owning it, ``reduced[j]`` is column j after reduction as a
    sparse ``{row: int}`` dict, empty iff column j depends on the columns
    before it.  With ``track``, ``combo[j]`` writes ``reduced[j]`` as
    ``{original column: int coefficient}``; it is supported on j and pivot
    columns only, so a dependent column's combination is unique up to
    scale.  Without ``track``, ``combo`` is None and nothing is tracked.
    """
    reduced, scales = _integer_columns(m)
    owner = {}
    combo = [] if track else None
    for j, col in enumerate(reduced):
        comb = {j: scales[j]} if track else None
        piv = _eliminate(col, comb, owner, reduced, combo)
        if piv is not None:
            owner[piv] = j
        if track:
            combo.append(comb)
    return owner, reduced, combo


def _unit_at(comb: dict, j: int) -> dict:
    """A tracked combination as Fractions, scaled to coefficient 1 at j."""
    d = comb[j]
    return {c: Fraction(v, d) for c, v in comb.items()}


def _select_columns(m: Matrix, cols) -> Matrix:
    """The columns of m listed in cols, in that order."""
    new = {j: n for n, j in enumerate(cols)}
    return Matrix(m.rows, len(new),
                  {(i, new[j]): v for (i, j), v in m.entries.items() if j in new})


def rank(m: Matrix) -> int:
    """Exact rank of m over Q."""
    return len(_reduce(m)[0])


def kernel_basis(m: Matrix) -> "Subspace":
    """Right kernel of m as a subspace of Q^cols.

    The basis has one column per column of m that depends on the columns
    before it, with a unit entry in that coordinate and zeros at the other
    such coordinates, so the columns are independent by construction and
    the order is deterministic.
    """
    _, reduced, combo = _reduce(m, track=True)
    free = [j for j in range(m.cols) if not reduced[j]]
    entries = {(c, idx): v for idx, j in enumerate(free)
               for c, v in _unit_at(combo[j], j).items()}
    return Subspace(m.cols, Matrix(m.cols, len(free), entries), _checked=True)


def solve_columns(m: Matrix, rhs: Matrix) -> list[list | None]:
    """For each column b of rhs: the solution x of m*x = b supported on the
    pivot columns of m, as a list of length m.cols, or None.

    m is reduced once; each column of rhs is then reduced against m's
    pivot owners only, so no right-hand side ever becomes an owner and
    each answer is the one a single-column solve would give.
    """
    if rhs.rows != m.rows:
        raise ValueError("right-hand side shape mismatch")
    if not rhs.cols:
        return []
    owner, reduced, combo = _reduce(m, track=True)
    out = []
    for col, scale in zip(*_integer_columns(rhs)):
        # the column is tracked under key m.cols: at the end
        # 0 = c*b + m*y with c = comb[m.cols], y the rest of comb; x = -y/c
        comb = {m.cols: scale}
        if _eliminate(col, comb, owner, reduced, combo) is not None:
            out.append(None)
            continue
        x = [Q(0)] * m.cols
        for c, v in _unit_at(comb, m.cols).items():
            if c < m.cols:
                x[c] = -v
        out.append(x)
    return out


def solve(m: Matrix, b) -> list | None:
    """The solution x of m*x = b supported on the pivot columns, or None.

    ``b`` may be a list of length m.rows or a single-column Matrix.
    """
    if isinstance(b, Matrix):
        if b.cols != 1 or b.rows != m.rows:
            raise ValueError("right-hand side shape mismatch")
    elif len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    else:
        b = Matrix(m.rows, 1, {(i, 0): v for i, v in enumerate(b)})
    return solve_columns(m, b)[0]


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

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(ambient_dim, 0), _checked=True)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim), _checked=True)

    @classmethod
    def spanned_by(cls, m: Matrix) -> "Subspace":
        """The column space of m, with the pivot columns as basis."""
        pivots = sorted(_reduce(m)[0].values())
        return cls(m.rows, _select_columns(m, pivots), _checked=True)

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

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        stacked = Matrix.hstack(self.basis, other.basis)
        return rank(stacked) == self.dim


def complement_in(sub: Subspace, within: Subspace) -> Matrix:
    """Columns of within.basis completing a basis of sub to one of within.

    Requires sub ⊆ within; the returned columns represent a basis of the
    quotient within/sub, chosen deterministically.
    """
    owner = _reduce(Matrix.hstack(sub.basis, within.basis))[0]
    chosen = sorted(p - sub.dim for p in owner.values() if p >= sub.dim)
    return _select_columns(within.basis, chosen)


def image_subspace(m: Matrix, s: Subspace) -> Subspace:
    """m(S) as a subspace of Q^rows."""
    if s.ambient_dim != m.cols:
        raise ValueError("subspace does not live in the domain of m")
    return Subspace.spanned_by(m * s.basis)
