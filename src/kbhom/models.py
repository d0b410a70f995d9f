"""Finite Dolbeault-Poisson models.

A model is a bigraded space A^{p,q} (0 <= p,q <= n) with three block
operators: del (p,q)->(p+1,q), delbar (p,q)->(p,q+1) and a contraction
(p,q)->(p-2,q).  The Koszul differential is derived, never stored:

    delpi = contraction ∘ del - del ∘ contraction,

and a model is a valid holomorphic Poisson model exactly when

    del² = 0,  delbar² = 0,  del∘delbar + delbar∘del = 0,
    delpi² = 0,  delbar∘delpi + delpi∘delbar = 0.

Integrability of the bivector is checked through these operator
identities only; no Schouten bracket is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import lcm
from types import MappingProxyType

from .complexes import (
    BlockMap,
    _composite,
    _first_failure,
    graded_dims,
    koszul_tensor,
    tensor_layout,
)
from .linalg import Matrix, _from_columns, _Frozen, _is_int, _q


class ModelValidationError(ValueError):
    """An operator identity fails on a model."""

    def __init__(self, message, identity=None, bidegree=None):
        super().__init__(message)
        self.identity = identity
        self.bidegree = bidegree


def _wedge(a: tuple, b: tuple):
    """dz^a ∧ dz^b for sorted generator tuples a and b: ``(sign, merged)``
    with dz^a ∧ dz^b = sign · dz^merged, or ``(0, ())`` on a repeated
    generator."""
    merged = tuple(sorted(a + b))
    if len(set(merged)) < len(merged):
        return 0, ()
    # sorting moves each generator of a past the smaller ones of b
    return (-1) ** sum(x > y for x in a for y in b), merged


class WedgeBasis:
    """Wedge monomials on n generators, as the tensor product of a
    holomorphic and an antiholomorphic factor Λ(n).

    ``factor[k]`` lists the sorted k-subsets of {1..n}, and ``index[k]``
    numbers them.  At (p,q) the monomials are the pairs (I, J) with
    I ∈ factor[p] holomorphic and J ∈ factor[q] antiholomorphic,
    row-major in (I, J): the layout of (p,0) ⊗ (0,q) in
    :func:`~kbhom.complexes.tensor_layout`.
    """

    __slots__ = ("n", "factor", "index")

    def __init__(self, n: int):
        self.n = n
        self.factor = {k: list(combinations(range(1, n + 1), k)) for k in range(n + 1)}
        self.index = {k: {m: i for i, m in enumerate(ms)} for k, ms in self.factor.items()}

    def labels(self, p: int, q: int) -> list:
        """The labels at (p,q), joined from one string per factor monomial,
        "dz1^dz2" for I and "dzb1" for J: "I^J", or the nonempty part
        alone, or "1" when both are empty."""
        hol = ["^".join(f"dz{i}" for i in m) for m in self.factor[p]]
        anti = ["^".join(f"dzb{j}" for j in m) for m in self.factor[q]]
        if not p:
            return anti if q else ["1"]
        if not q:
            return hol
        return [f"{i}^{j}" for i in hol for j in anti]

    def tensor(self, hol: dict, anti: dict, bidegree: tuple) -> BlockMap:
        """The model operator f ⊗ 1 ± 1 ⊗ g of the given bidegree, the
        Koszul tensor of its blocks f on the holomorphic and g on the
        antiholomorphic factor, each keyed by degree."""
        def factor(blocks, cell):
            return BlockMap({cell(k): m for k, m in blocks.items()},
                            {cell(k): len(ms) for k, ms in self.factor.items()}, bidegree)
        return koszul_tensor(factor(hol, lambda k: (k, 0)), factor(anti, lambda k: (0, k)))


def derivation_blocks(wedge: WedgeBasis, images: dict) -> dict:
    """Extend generator -> 2-form images to an antiderivation of degree +1
    on one factor Λ(n), with blocks keyed by source degree.

    ``images[k]`` is a list of (coeff, (x, y)) with x < y, meaning the
    generator k maps to sum coeff·(x ∧ y).  Columns are built on ints.
    """
    scale = lcm(*(_q(c).denominator for terms in images.values() for c, _ in terms))
    images = {gen: [((_q(c) * scale).numerator, pair) for c, pair in terms]
              for gen, terms in images.items()}
    blocks = {}
    for k in range(wedge.n):
        tindex = wedge.index[k + 1]
        pieces = []
        for col, mono in enumerate(wedge.factor[k]):
            line: dict = {}
            for t, gen in enumerate(mono):
                pos_sign = -1 if t % 2 else 1  # moving past t generators
                rest = mono[:t] + mono[t + 1:]
                for coeff, pair in images.get(gen, ()):
                    sign, word = _wedge(pair, rest)
                    if sign:
                        row = tindex[word]
                        line[row] = line.get(row, 0) + pos_sign * sign * coeff
            pieces.append((col, line, scale))
        m = _from_columns(len(tindex), len(wedge.factor[k]), pieces)
        if not m.is_zero():
            blocks[k] = m
    return blocks


def factor_contraction(wedge: WedgeBasis, pairs: dict) -> dict:
    """Blocks of l_pi = Σ_{i<j} pi^{ij} ι_i ι_j on one factor Λ(n), keyed
    by source degree, for normalized {(i, j): coefficient} pairs.

    The pairing is ⟨θ_i, dz^j⟩ = δ_i^j and the global sign is fixed so
    that l_pi(dz^i ∧ dz^j ∧ dz^R) = pi^{ij} dz^R.  Columns are built on ints.
    """
    scale = lcm(*(_q(c).denominator for c in pairs.values()))
    pairs = {pair: (_q(c) * scale).numerator for pair, c in pairs.items()}
    blocks = {}
    for k in range(2, wedge.n + 1):
        sindex = wedge.index[k]
        pieces = []
        for row, rest in enumerate(wedge.factor[k - 2]):
            for pair, c in pairs.items():
                sign, mono = _wedge(pair, rest)
                if sign:
                    pieces.append((sindex[mono], {row: sign * c}, scale))
        m = _from_columns(len(wedge.factor[k - 2]), len(sindex), pieces)
        if not m.is_zero():
            blocks[k] = m
    return blocks


def _complex_dimension(n) -> None:
    """TypeError unless n is a plain int, ValueError if it is negative."""
    if not _is_int(n):
        raise TypeError(f"complex dimension must be int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("complex dimension must be nonnegative")


def _generator_index(i) -> int:
    """A 1-based generator index: a plain int (a bool or any other type
    raises TypeError; the range is the caller's to check)."""
    if not _is_int(i):
        raise TypeError(f"generator indices must be int, not {type(i).__name__}")
    return i


def normalize_bivector_coeffs(n: int, coeffs) -> dict:
    """Accept an n×n antisymmetric matrix or an {(i,j): value} dict (i<j, 1-based)."""
    pairs: dict = {}
    if isinstance(coeffs, dict):
        for key, v in coeffs.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise TypeError(f"bivector key {key!r} is not a pair (i, j)")
            i, j = map(_generator_index, key)
            if not (1 <= i < j <= n):
                raise ValueError(f"bivector pair ({i},{j}) must satisfy 1 <= i < j <= {n}")
            v = _q(v)
            if v:
                pairs[(i, j)] = v
        return pairs
    rows = [list(r) for r in coeffs]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"bivector coefficient matrix must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            a = _q(rows[i][j])
            b = _q(rows[j][i])
            if a != -b:
                raise ValueError("bivector coefficient matrix is not antisymmetric")
    for i in range(n):
        for j in range(i + 1, n):
            v = _q(rows[i][j])
            if v:
                pairs[(i + 1, j + 1)] = v
    return pairs


class DolbeaultPoissonModel(_Frozen):
    """Immutable finite model; each operator is a read-only ``BlockMap``.

    ``n`` is a plain nonnegative int and ``basis`` maps cells (p, q) in
    [0, n]² to lists of label strings; its dimensions are read by
    ``complexes.graded_dims`` (empty cells are dropped).  ``metadata`` is a
    read-only copy, like ``basis`` and ``dims``.

    The first ``validate_model`` call stores its report and the blocks of
    the derived Koszul differential in ``_validated``; the model cannot
    change, so later calls, and ``koszul_differential``, reuse them.
    """

    __slots__ = ("n", "basis", "dims", "del_blocks", "delbar_blocks",
                 "contraction_blocks", "name", "metadata", "_validated")

    def __init__(self, n, basis, del_blocks=None, delbar_blocks=None,
                 contraction_blocks=None, name="model", metadata=None):
        _complex_dimension(n)
        for cell, labels in basis.items():
            if not (isinstance(labels, (list, tuple))
                    and all(map(isinstance, labels, repeat(str)))):
                raise TypeError(f"basis[{cell!r}] must be a list of strings")
        # read-only, so the stored validation cannot go stale
        dims = MappingProxyType(graded_dims(
            {cell: len(labels) for cell, labels in basis.items()},
            "basis", cells=True, bounds=(0, n)))
        self._freeze(n=n, basis=MappingProxyType({cell: tuple(basis[cell]) for cell in dims}),
                     dims=dims, del_blocks=BlockMap(del_blocks, dims, (1, 0)),
                     delbar_blocks=BlockMap(delbar_blocks, dims, (0, 1)),
                     contraction_blocks=BlockMap(contraction_blocks, dims, (-2, 0)),
                     name=name, metadata=MappingProxyType(dict(metadata or {})),
                     _validated=None)

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def cells(self) -> list:
        return sorted(self.basis)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def delbar_at(self, p: int, q: int) -> Matrix:
        return self.delbar_blocks.at((p, q))

    def __repr__(self):
        return f"DolbeaultPoissonModel({self.name!r}, n={self.n}, dim={self.total_dim()})"


def _koszul_blocks(m: DolbeaultPoissonModel) -> BlockMap:
    """The Koszul blocks delpi = contraction∘del - del∘contraction, (p,q)->(p-1,q)."""
    dl, ct = m.del_blocks, m.contraction_blocks
    terms = [(1, ct, dl), (-1, dl, ct)]
    return BlockMap({key: _composite(terms, key) for key in sorted({*dl, *ct})},
                    m.dims, (-1, 0))


@dataclass(frozen=True)
class CheckResult:
    identity: str
    ok: bool
    bidegree: tuple | None = None
    residual: Matrix | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def first_failure(self) -> CheckResult | None:
        bad = self.failures()
        return bad[0] if bad else None


IDENTITY_NAMES = (
    "del∘del",
    "delbar∘delbar",
    "del∘delbar + delbar∘del",
    "delpi∘delpi",
    "delbar∘delpi + delpi∘delbar",
)


def validate_model(m: DolbeaultPoissonModel) -> ValidationReport:
    """Check all five operator identities, reporting the first offending
    bidegree and the matrix residual per identity.

    Each identity is a list of terms s·a∘b, summed by
    ``complexes._first_failure`` on the stored integer columns, which is
    exact.  It visits only the cells where an inner operator has a block:
    at every other cell the identity holds with nothing to sum.  The
    identities are checked once per model; later calls return the stored
    report, and the Koszul blocks built for the check are kept for
    :func:`koszul_differential`.  This is the one slot of the model set
    after its construction, once, through ``_freeze``: the model cannot
    change, so the report it stores cannot go stale.
    """
    if m._validated is not None:
        return m._validated[0]
    d, e, k = m.del_blocks, m.delbar_blocks, _koszul_blocks(m)
    # the terms (s, a, b) of each identity, in the order of IDENTITY_NAMES
    failures = map(_first_failure, ([(1, d, d)], [(1, e, e)], [(1, d, e), (1, e, d)],
                                    [(1, k, k)], [(1, e, k), (1, k, e)]))
    report = ValidationReport([CheckResult(name, not bad, *(bad or ()))
                               for name, bad in zip(IDENTITY_NAMES, failures)])
    m._freeze(_validated=(report, k))
    return report


def _proved(m: DolbeaultPoissonModel, identity: str) -> bool:
    """Whether m's stored validation, if any, proved ``identity`` (one of
    ``IDENTITY_NAMES``); no validation is run."""
    return m._validated is not None and m._validated[0].checks[IDENTITY_NAMES.index(identity)].ok


def require_valid(m: DolbeaultPoissonModel, context: str) -> None:
    """Raise ModelValidationError, with the identity and bidegree of the
    first failure, unless m passes :func:`validate_model`."""
    bad = validate_model(m).first_failure()
    if bad is not None:
        raise ModelValidationError(
            f"{context}: {bad.identity} fails at bidegree {bad.bidegree}",
            identity=bad.identity, bidegree=bad.bidegree)


def koszul_differential(m: DolbeaultPoissonModel) -> BlockMap:
    """The blocks (p,q)->(p-1,q) of the derived Koszul differential of a
    model that passes validation: the blocks its validation built."""
    require_valid(m, "not a valid holomorphic Poisson model")
    return m._validated[1]


def product_model(mx: DolbeaultPoissonModel,
                  my: DolbeaultPoissonModel) -> DolbeaultPoissonModel:
    """Tensor product model with contraction l_x ⊗ 1 + 1 ⊗ l_y.

    Every operator extends by :func:`~kbhom.complexes.koszul_tensor`, so
    del and delbar carry the Koszul sign of the left total degree, which
    is exactly what makes the derived differential satisfy the Leibniz
    rule on decomposable elements (asserted by the validator).
    """
    for part in (mx, my):
        require_valid(part, f"invalid product factor {part.name!r}")
    basis = {cell: [f"{lx}*{ly}" for cx, cy in pairs
                    for lx in mx.basis[cx] for ly in my.basis[cy]]
             for cell, pairs in tensor_layout(mx.dims, my.dims)[0].items()}
    result = DolbeaultPoissonModel(
        mx.n + my.n, basis,
        del_blocks=koszul_tensor(mx.del_blocks, my.del_blocks),
        delbar_blocks=koszul_tensor(mx.delbar_blocks, my.delbar_blocks),
        contraction_blocks=koszul_tensor(mx.contraction_blocks, my.contraction_blocks),
        name=f"{mx.name}x{my.name}",
        metadata={"product_of": f"{mx.name}, {my.name}"})
    bad = validate_model(result).first_failure()
    if bad is not None:
        raise AssertionError(
            f"product model failed validation: {bad.identity} at {bad.bidegree}")
    return result
