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

from .linalg import Matrix

Q = Fraction


class ModelValidationError(ValueError):
    """An operator identity fails on a model."""

    def __init__(self, message, identity=None, bidegree=None):
        super().__init__(message)
        self.identity = identity
        self.bidegree = bidegree


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
    hol, anti = mono
    parts = [f"dz{i}" for i in hol] + [f"dzb{j}" for j in anti]
    return "^".join(parts) if parts else "1"


class WedgeBasis:
    """Wedge-monomial structure: at (p,q) the monomials (I, J) with
    I ⊆ {1..n} holomorphic and J ⊆ {1..n} antiholomorphic indices."""

    __slots__ = ("n", "monomials", "index")

    def __init__(self, n: int, monomials: dict):
        self.n = n
        self.monomials = monomials
        self.index = {cell: {m: i for i, m in enumerate(ms)}
                      for cell, ms in monomials.items()}

    @classmethod
    def exterior(cls, n: int) -> "WedgeBasis":
        mono = {}
        for p in range(n + 1):
            for q in range(n + 1):
                mono[(p, q)] = [(i_set, j_set)
                                for i_set in combinations(range(1, n + 1), p)
                                for j_set in combinations(range(1, n + 1), q)]
        return cls(n, mono)

    def labels(self, p: int, q: int) -> list:
        return [monomial_label(m) for m in self.monomials[(p, q)]]


def derivation_blocks(wedge: WedgeBasis, images: dict, hol: bool) -> dict:
    """Extend generator -> 2-form images to an antiderivation of degree +1.

    ``images[k]`` is a list of (coeff, (x, y)) meaning the generator k maps
    to sum coeff·(x ∧ y) among generators of the same kind.  For hol=True
    this produces blocks (p,q)->(p+1,q) acting on the I part; otherwise
    blocks (p,q)->(p,q+1) acting on the J part, with the Koszul sign of
    crossing the holomorphic prefix.
    """
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
                    entries[key] = entries.get(key, Q(0)) + pos_sign * sgn * coeff
        m = Matrix(len(target), len(monos), entries)
        if not m.is_zero():
            blocks[(p, q)] = m
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
    """Blocks of l_pi = Σ_{i<j} pi^{ij} ι_i ι_j on the wedge basis.

    The pairing is ⟨θ_i, dz^j⟩ = δ_i^j and the global sign is fixed so
    that the coefficient matrix {(1,2): 1} contracts dz1^dz2 to +1.
    """
    if model.wedge is None:
        raise ValueError("model carries no wedge structure constants")
    pairs = normalize_bivector_coeffs(model.n, coeffs)
    blocks = {}
    for (p, q), monos in model.wedge.monomials.items():
        if p < 2:
            continue
        tindex = model.wedge.index[(p - 2, q)]
        entries: dict = {}
        for col, (i_set, j_set) in enumerate(monos):
            for (i, j), c in pairs.items():
                if i in i_set and j in i_set:
                    pos_i = i_set.index(i)
                    pos_j = i_set.index(j)
                    sign = -1 if (pos_i + pos_j + 1) % 2 else 1
                    reduced = tuple(x for x in i_set if x != i and x != j)
                    key = (tindex[(reduced, j_set)], col)
                    entries[key] = entries.get(key, Q(0)) + sign * c
        m = Matrix(len(model.wedge.monomials[(p - 2, q)]), len(monos), entries)
        if not m.is_zero():
            blocks[(p, q)] = m
    return blocks


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


def koszul_differential(m: DolbeaultPoissonModel) -> KoszulDifferential:
    """The derived Koszul differential of a model that passes validation."""
    bad = validate_model(m).first_failure()
    if bad is not None:
        raise ModelValidationError(
            f"not a valid holomorphic Poisson model: {bad.identity} fails at "
            f"bidegree {bad.bidegree}", identity=bad.identity, bidegree=bad.bidegree)
    return m._validated[1]


def product_model(mx: DolbeaultPoissonModel,
                  my: DolbeaultPoissonModel) -> DolbeaultPoissonModel:
    """Tensor product model with contraction l_x ⊗ 1 + 1 ⊗ l_y.

    del and delbar extend with the Koszul sign of the left total degree,
    which is exactly what makes the derived differential satisfy the
    Leibniz rule on decomposable elements (asserted by the validator).
    """
    for part in (mx, my):
        bad = validate_model(part).first_failure()
        if bad is not None:
            raise ModelValidationError(
                f"invalid product factor {part.name!r}: {bad.identity} fails at "
                f"{bad.bidegree}", identity=bad.identity, bidegree=bad.bidegree)
    n = mx.n + my.n
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
        n, basis,
        del_blocks=build(mx.del_at, my.del_at, 1, 0, signed=True),
        delbar_blocks=build(mx.delbar_at, my.delbar_at, 0, 1, signed=True),
        contraction_blocks=build(mx.contraction_at, my.contraction_at, -2, 0,
                                 signed=False),
        name=f"{mx.name}x{my.name}",
        metadata={"product_of": f"{mx.name}, {my.name}"})
    bad = validate_model(result).first_failure()
    if bad is not None:
        raise AssertionError(
            f"product model failed validation: {bad.identity} at {bad.bidegree}")
    return result
