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
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .complexes import koszul_tensor, tensor_layout
from .linalg import Matrix

Q = Fraction


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


def monomial_label(mono) -> str:
    hol, anti = mono
    parts = [f"dz{i}" for i in hol] + [f"dzb{j}" for j in anti]
    return "^".join(parts) if parts else "1"


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

    @classmethod
    def exterior(cls, n: int) -> "WedgeBasis":
        return cls(n)

    def labels(self, p: int, q: int) -> list:
        return [monomial_label((i_set, j_set))
                for i_set in self.factor[p] for j_set in self.factor[q]]

    def tensor(self, hol: dict, anti: dict, bidegree: tuple) -> dict:
        """Model blocks of the Koszul tensor f ⊗ 1 ± 1 ⊗ g of an operator
        of the given bidegree, from its blocks f on the holomorphic and g on
        the antiholomorphic factor, each keyed by degree."""
        return koszul_tensor({(k, 0): len(ms) for k, ms in self.factor.items()},
                             {(k, 0): m for k, m in hol.items()},
                             {(0, k): len(ms) for k, ms in self.factor.items()},
                             {(0, k): m for k, m in anti.items()}, bidegree)


def derivation_blocks(wedge: WedgeBasis, images: dict) -> dict:
    """Extend generator -> 2-form images to an antiderivation of degree +1
    on one factor Λ(n), with blocks keyed by source degree.

    ``images[k]`` is a list of (coeff, (x, y)) with x < y, meaning the
    generator k maps to sum coeff·(x ∧ y).
    """
    blocks = {}
    for k in range(wedge.n):
        tindex = wedge.index[k + 1]
        entries: dict = {}
        for col, mono in enumerate(wedge.factor[k]):
            for t, gen in enumerate(mono):
                pos_sign = -1 if t % 2 else 1  # moving past t generators
                rest = mono[:t] + mono[t + 1:]
                for coeff, pair in images.get(gen, ()):
                    sign, word = _wedge(pair, rest)
                    if sign:
                        key = (tindex[word], col)
                        entries[key] = entries.get(key, Q(0)) + pos_sign * sign * coeff
        m = Matrix(len(tindex), len(wedge.factor[k]), entries)
        if not m.is_zero():
            blocks[k] = m
    return blocks


def factor_contraction(wedge: WedgeBasis, pairs: dict) -> dict:
    """Blocks of l_pi = Σ_{i<j} pi^{ij} ι_i ι_j on one factor Λ(n), keyed
    by source degree, for normalized {(i, j): coefficient} pairs.

    The pairing is ⟨θ_i, dz^j⟩ = δ_i^j and the global sign is fixed so
    that l_pi(dz^i ∧ dz^j ∧ dz^R) = pi^{ij} dz^R.
    """
    blocks = {}
    for k in range(2, wedge.n + 1):
        sindex = wedge.index[k]
        entries: dict = {}
        for row, rest in enumerate(wedge.factor[k - 2]):
            for pair, c in pairs.items():
                sign, mono = _wedge(pair, rest)
                if sign:
                    entries[(row, sindex[mono])] = sign * c
        m = Matrix(len(wedge.factor[k - 2]), len(sindex), entries)
        if not m.is_zero():
            blocks[k] = m
    return blocks


def normalize_bivector_coeffs(n: int, coeffs) -> dict:
    """Accept an n×n antisymmetric matrix or an {(i,j): value} dict (i<j, 1-based)."""
    pairs: dict = {}
    if isinstance(coeffs, dict):
        for (i, j), v in coeffs.items():
            if not (1 <= i < j <= n):
                raise ValueError(f"bivector pair ({i},{j}) must satisfy 1 <= i < j <= {n}")
            v = v if isinstance(v, Fraction) else Fraction(v)
            if v:
                pairs[(i, j)] = v
        return pairs
    rows = [list(r) for r in coeffs]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"bivector coefficient matrix must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            a = Fraction(rows[i][j])
            b = Fraction(rows[j][i])
            if a != -b:
                raise ValueError("bivector coefficient matrix is not antisymmetric")
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rows[i][j])
            if v:
                pairs[(i + 1, j + 1)] = v
    return pairs


class DolbeaultPoissonModel:
    """Immutable finite model; operators are sparse blocks per bidegree.

    The first ``validate_model`` call stores its report and the derived
    Koszul differential in ``_validated``; the model cannot change, so
    later calls reuse them.
    """

    __slots__ = ("n", "basis", "del_blocks", "delbar_blocks",
                 "contraction_blocks", "wedge", "name", "metadata", "_validated")

    def __init__(self, n, basis, del_blocks=None, delbar_blocks=None,
                 contraction_blocks=None, wedge=None, name="model", metadata=None):
        if n < 0:
            raise ValueError("complex dimension must be nonnegative")
        clean_basis = {}
        for (p, q), labels in basis.items():
            if labels:
                if not (0 <= p <= n and 0 <= q <= n):
                    raise ValueError(f"basis bidegree {(p, q)} outside [0,{n}]²")
                clean_basis[(p, q)] = tuple(labels)
        object.__setattr__(self, "n", n)
        # read-only views, so the stored validation cannot go stale
        object.__setattr__(self, "basis", MappingProxyType(clean_basis))
        object.__setattr__(self, "del_blocks", self._clean(del_blocks, 1, 0))
        object.__setattr__(self, "delbar_blocks", self._clean(delbar_blocks, 0, 1))
        object.__setattr__(self, "contraction_blocks", self._clean(contraction_blocks, -2, 0))
        object.__setattr__(self, "wedge", wedge)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metadata", dict(metadata or {}))
        object.__setattr__(self, "_validated", None)

    def _clean(self, blocks, dp, dq) -> MappingProxyType:
        out = {}
        for (p, q), m in (blocks or {}).items():
            expected = (self.dim(p + dp, q + dq), self.dim(p, q))
            if m.shape != expected:
                raise ValueError(
                    f"operator block at {(p, q)} has shape {m.shape}, expected {expected}")
            if not m.is_zero():
                out[(p, q)] = m
        return MappingProxyType(out)

    def __setattr__(self, name, value):
        raise AttributeError("model is immutable")

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    def cells(self) -> list:
        return sorted(self.basis)

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def del_at(self, p: int, q: int) -> Matrix:
        m = self.del_blocks.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p + 1, q), self.dim(p, q))

    def delbar_at(self, p: int, q: int) -> Matrix:
        m = self.delbar_blocks.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p, q + 1), self.dim(p, q))

    def contraction_at(self, p: int, q: int) -> Matrix:
        m = self.contraction_blocks.get((p, q))
        return m if m is not None else Matrix.zero(self.dim(p - 2, q), self.dim(p, q))

    def __repr__(self):
        return f"DolbeaultPoissonModel({self.name!r}, n={self.n}, dim={self.total_dim()})"


def contraction_from_bivector(model: DolbeaultPoissonModel, coeffs) -> dict:
    """Blocks of l_pi ⊗ 1 on the wedge basis: the contraction
    :func:`factor_contraction` on the holomorphic factor."""
    if model.wedge is None:
        raise ValueError("model carries no wedge structure constants")
    pairs = normalize_bivector_coeffs(model.n, coeffs)
    return model.wedge.tensor(factor_contraction(model.wedge, pairs), {}, (-2, 0))


@dataclass(frozen=True)
class KoszulDifferential:
    """The derived differential delpi, blocks (p,q)->(p-1,q)."""

    blocks: dict

    def at(self, model: DolbeaultPoissonModel, p: int, q: int) -> Matrix:
        m = self.blocks.get((p, q))
        return m if m is not None else Matrix.zero(model.dim(p - 1, q), model.dim(p, q))

    def is_zero(self) -> bool:
        return not self.blocks


def _koszul_blocks(m: DolbeaultPoissonModel) -> dict:
    blocks = {}
    for (p, q) in m.cells():
        mat = m.contraction_at(p + 1, q) * m.del_at(p, q) \
            - m.del_at(p - 2, q) * m.contraction_at(p, q)
        if not mat.is_zero():
            blocks[(p, q)] = mat
    return blocks


@dataclass
class CheckResult:
    identity: str
    ok: bool
    bidegree: tuple | None = None
    residual: Matrix | None = None


@dataclass
class ValidationReport:
    checks: list

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

    The identities are checked once per model; later calls return the
    stored report.
    """
    if m._validated is not None:
        return m._validated[0]
    kos = KoszulDifferential(_koszul_blocks(m))

    def delpi(p, q):
        return kos.at(m, p, q)

    composites = {
        "del∘del": lambda p, q: m.del_at(p + 1, q) * m.del_at(p, q),
        "delbar∘delbar": lambda p, q: m.delbar_at(p, q + 1) * m.delbar_at(p, q),
        "del∘delbar + delbar∘del":
            lambda p, q: m.del_at(p, q + 1) * m.delbar_at(p, q)
            + m.delbar_at(p + 1, q) * m.del_at(p, q),
        "delpi∘delpi": lambda p, q: delpi(p - 1, q) * delpi(p, q),
        "delbar∘delpi + delpi∘delbar":
            lambda p, q: m.delbar_at(p - 1, q) * delpi(p, q)
            + delpi(p, q + 1) * m.delbar_at(p, q),
    }
    checks = []
    for name in IDENTITY_NAMES:
        fn = composites[name]
        failure = None
        for (p, q) in m.cells():
            residual = fn(p, q)
            if not residual.is_zero():
                failure = CheckResult(name, False, (p, q), residual)
                break
        checks.append(failure or CheckResult(name, True))
    report = ValidationReport(checks)
    object.__setattr__(m, "_validated", (report, kos))
    return report


def require_valid(m: DolbeaultPoissonModel, context: str) -> None:
    """Raise ModelValidationError, with the identity and bidegree of the
    first failure, unless m passes :func:`validate_model`."""
    bad = validate_model(m).first_failure()
    if bad is not None:
        raise ModelValidationError(
            f"{context}: {bad.identity} fails at bidegree {bad.bidegree}",
            identity=bad.identity, bidegree=bad.bidegree)


def koszul_differential(m: DolbeaultPoissonModel) -> KoszulDifferential:
    """The derived Koszul differential of a model that passes validation."""
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
    dx = {cell: len(labels) for cell, labels in mx.basis.items()}
    dy = {cell: len(labels) for cell, labels in my.basis.items()}
    basis = {cell: [f"{lx}*{ly}" for cx, cy in pairs
                    for lx in mx.basis[cx] for ly in my.basis[cy]]
             for cell, pairs in tensor_layout(dx, dy)[0].items()}
    result = DolbeaultPoissonModel(
        mx.n + my.n, basis,
        del_blocks=koszul_tensor(dx, mx.del_blocks, dy, my.del_blocks, (1, 0)),
        delbar_blocks=koszul_tensor(dx, mx.delbar_blocks, dy, my.delbar_blocks, (0, 1)),
        contraction_blocks=koszul_tensor(dx, mx.contraction_blocks,
                                         dy, my.contraction_blocks, (-2, 0)),
        name=f"{mx.name}x{my.name}",
        metadata={"product_of": f"{mx.name}, {my.name}"})
    bad = validate_model(result).first_failure()
    if bad is not None:
        raise AssertionError(
            f"product model failed validation: {bad.identity} at {bad.bidegree}")
    return result
