"""Koszul-Brylinski engine.

Builds the bicomplex K^{p,q} = A^{-p,q} of a model (first differential
the derived Koszul operator, second differential delbar), totalizes it,
and reads homology off in the geometric indexing

    H_k = H^{k-n}(total complex),   k = 0 .. 2n,

so tables match the theorem-level statements directly.  Also computes
the Hodge diamond (columnwise delbar-cohomology) and Hochschild
dimensions through the HKR antidiagonal sums.

Invariant: each identity is checked once, at the model boundary.  The
bicomplex identities d1² = 0, d2² = 0 and d1d2 + d2d1 = 0 are exactly
delpi² = 0, delbar² = 0 and delbar∘delpi + delpi∘delbar = 0, the same
term lists for the same composite routine, which ``koszul_differential``
has proved before the bicomplex is built, so ``kb_double_complex`` skips
the ``DoubleComplex`` check.  The total differential's D² = 0 is made of
the same three identities, so the totalization does not check it either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType

from .complexes import (
    Complex,
    DoubleComplex,
    SpectralPages,
    _homology,
    _total_sources,
    graded_dims,
    homology_dims,
    spectral_pages,
)
from .models import DolbeaultPoissonModel, _complex_dimension, _proved, koszul_differential


class _Table:
    """The cleaning shared by the dimension tables: construction checks a
    table's ``n`` as a model's and reads its last field, which maps its keys
    (ints, or with ``cells`` pairs of ints) to dimensions, through
    ``complexes.graded_dims`` with the ``bounds`` each class supplies, kept
    read-only as ``DolbeaultPoissonModel.dims`` is."""

    bounds = None
    cells = False

    def __post_init__(self):
        _complex_dimension(getattr(self, "n", 0))
        name = fields(self)[-1].name
        object.__setattr__(self, name, MappingProxyType(graded_dims(
            getattr(self, name), name, self.cells, self.bounds)))

    def __getitem__(self, key) -> int:
        return getattr(self, fields(self)[-1].name).get(key, 0)


@dataclass(frozen=True)
class KBDims(_Table):
    """Koszul-Brylinski homology dimensions, k in [0, 2n]."""

    n: int
    dims: dict = field(default_factory=dict)

    @property
    def bounds(self):
        return 0, 2 * self.n

    def records(self) -> list:
        """JSON-ready rows, one {"k": ..., "dim": ...} per degree."""
        return [{"k": k, "dim": self[k]} for k in range(2 * self.n + 1)]


@dataclass(frozen=True)
class HodgeDiamond(_Table):
    """Dolbeault dimensions h^{p,q}, 0 <= p,q <= n."""

    n: int
    h: dict = field(default_factory=dict)
    cells = True

    @property
    def bounds(self):
        return 0, self.n


@dataclass(frozen=True)
class HHDims(_Table):
    """Hochschild homology dimensions, Z-graded (support in [-n, n])."""

    dims: dict = field(default_factory=dict)

    def records(self) -> list:
        return [{"k": k, "dim": v} for k, v in sorted(self.dims.items())]


def kb_double_complex(m: DolbeaultPoissonModel) -> DoubleComplex:
    """The bicomplex with cell (p,q) = model space (-p,q), p in [-n, 0].

    d1 is the derived Koszul differential reindexed (it raises p by one
    because it lowers the model's holomorphic degree), d2 is delbar.
    Building the Koszul differential validates the model first, which
    proves the bicomplex identities (see the module docstring).
    """
    kos = koszul_differential(m)
    return DoubleComplex({(-a, q): m.dim(a, q) for (a, q) in m.cells()},
                         {(-a, q): block for (a, q), block in kos.items()},
                         {(-a, q): block for (a, q), block in m.delbar_blocks.items()},
                         check=False)


def kb_homology(m: DolbeaultPoissonModel) -> KBDims:
    """H_k for k in [0, 2n], read off the total complex at degree k - n,
    its columns reduced as drawn from the bicomplex, with no ``Matrix``."""
    h = _homology(*_total_sources(kb_double_complex(m)))
    return KBDims(m.n, {k: h.get(k - m.n, 0) for k in range(2 * m.n + 1)})


def kb_spectral(m: DolbeaultPoissonModel, r_max: int) -> tuple[KBDims, SpectralPages]:
    """``kb_homology(m)`` and the pages E_1..E_r_max of its bicomplex, from
    one bicomplex and one persistence reduction per total degree.

    The limit page counts the coordinates left unpaired by the reduction,
    so it sums over p + q = k - n to dim H_k.
    """
    sp = spectral_pages(kb_double_complex(m), r_max)
    dims: dict = {}
    for (p, q), d in sp.infinity.items():
        dims[p + q + m.n] = dims.get(p + q + m.n, 0) + d
    return KBDims(m.n, dims), sp


def hodge_diamond(m: DolbeaultPoissonModel) -> HodgeDiamond:
    """h^{p,q} = dim H^q of the column (p, •) under delbar; delbar² = 0 is
    checked unless the stored validation proved it (``models._proved``)."""
    proved = _proved(m, "delbar∘delbar")
    out = {}
    for p in range(m.n + 1):
        column = Complex({q: m.dim(p, q) for q in range(m.n + 1)},
                         {q: m.delbar_at(p, q) for q in range(m.n + 1)}, check=not proved)
        for q, h in homology_dims(column).items():
            if h:
                out[(p, q)] = h
    return HodgeDiamond(m.n, out)


def hkr_hochschild(h: HodgeDiamond) -> HHDims:
    """HH_k = sum of h^{p,q} over the antidiagonal p - q = k."""
    dims: dict = {}
    for (p, q), v in h.h.items():
        dims[p - q] = dims.get(p - q, 0) + v
    return HHDims(dims)


def euler_char(d: KBDims) -> int:
    """Alternating sum of the KB dimensions."""
    return sum((-1) ** k * v for k, v in d.dims.items())
