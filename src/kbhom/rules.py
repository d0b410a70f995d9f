"""Dimension-level structure rules.

Everything in this module is plain arithmetic on small integer tables:
Künneth convolution, Leray-Hirsch shifts for Hochschild dimensions,
flag-manifold concentration, projective-bundle and blow-up bookkeeping
for Hodge diamonds and Koszul-Brylinski dimensions, and the
Euler-characteristic constraint a Mayer-Vietoris sequence forces.

Geometric hypotheses behind these rules (compactness of a Künneth
factor, the abelian-conormal condition for blow-ups) cannot be checked
on dimension tables; the command-line driver records them as asserted
metadata and the functions here apply the arithmetic unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import HHDims, HodgeDiamond, KBDims, euler_char
from .linalg import _integer


class InconsistentBlowupError(ValueError):
    """Blow-up input tables force a negative dimension."""


def kunneth_dims(a: KBDims, b: KBDims) -> KBDims:
    """Convolution of KB dimension tables; the point is the unit.

    >>> t = KBDims(1, {0: 1, 1: 2, 2: 1})
    >>> kunneth_dims(t, t).dims
    mappingproxy({0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
    >>> kunneth_dims(KBDims(0, {0: 1}), t) == t
    True
    """
    dims: dict = {}
    for i, x in a.dims.items():
        for j, y in b.dims.items():
            dims[i + j] = dims.get(i + j, 0) + x * y
    return KBDims(a.n + b.n, dims)


def leray_hirsch_hh(x: HHDims, classes) -> HHDims:
    """HH of a fiber bundle from fiberwise classes of bidegrees (u_i, v_i).

    >>> leray_hirsch_hh(HHDims({0: 1}), [(0, 0), (1, 1)]).dims
    mappingproxy({0: 2})
    >>> leray_hirsch_hh(HHDims({-1: 1, 0: 2, 1: 1}), [(0, 0)]).dims
    mappingproxy({-1: 1, 0: 2, 1: 1})
    """
    classes = list(classes)
    for c in classes:
        if not isinstance(c, (tuple, list)) or len(c) != 2:
            raise TypeError(f"a class bidegree must be a pair (u, v), not {c!r}")
    classes = [(_integer(u, "a class bidegree entry"), _integer(w, "a class bidegree entry"))
               for u, w in classes]
    if not classes:
        raise ValueError("Leray-Hirsch needs a nonempty class list")
    dims: dict = {}
    for k, v in x.dims.items():
        for (u, w) in classes:
            shifted = k - (w - u)
            dims[shifted] = dims.get(shifted, 0) + v
    return HHDims(dims)


def flag_bundle_hh(x: HHDims, b_f: int) -> HHDims:
    """HH of a flag bundle: b(F) copies of the base dimensions.

    >>> flag_bundle_hh(HHDims({-1: 1, 0: 2, 1: 1}), 6).dims
    mappingproxy({-1: 6, 0: 12, 1: 6})
    """
    if _integer(b_f, "b_f") < 1:
        raise ValueError("the Betti sum of the fiber must be at least 1")
    return HHDims({k: b_f * v for k, v in x.dims.items()})


def flag_manifold_kb(n: int, b: int) -> KBDims:
    """KB dimensions of a flag manifold: everything sits at k = n.

    >>> flag_manifold_kb(1, 2).dims
    mappingproxy({1: 2})
    >>> flag_manifold_kb(2, 3).dims
    mappingproxy({2: 3})
    """
    if _integer(b, "b") < 1:
        raise ValueError("the Betti sum must be at least 1")
    return KBDims(n, {n: b})


def projective_bundle_hodge(hy: HodgeDiamond, r: int) -> HodgeDiamond:
    """Hodge diamond of a P^{r-1}-bundle: r diagonally shifted copies.

    >>> pt = HodgeDiamond(0, {(0, 0): 1})
    >>> sorted(projective_bundle_hodge(pt, 3).h)
    [(0, 0), (1, 1), (2, 2)]
    """
    if _integer(r, "r") < 1:
        raise ValueError("fiber projectivization needs r >= 1")
    n = hy.n + r - 1
    h: dict = {}
    for p in range(n + 1):
        for q in range(n + 1):
            total = sum(hy[(p - i, q - i)] for i in range(r))
            if total:
                h[(p, q)] = total
    return HodgeDiamond(n, h)


def blowup_hodge(hx: HodgeDiamond, hy: HodgeDiamond, r: int) -> HodgeDiamond:
    """Hodge diamond after blowing up a codimension-r center.

    >>> surface = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    >>> blowup_hodge(surface, HodgeDiamond(0, {(0, 0): 1}), 2).h[(1, 1)]
    2
    """
    if _integer(r, "r") < 2:
        raise ValueError("blow-up centers have codimension >= 2")
    if hy.n != hx.n - r:
        raise ValueError(
            f"center dimension {hy.n} does not match ambient {hx.n} minus codimension {r}")
    h: dict = {}
    for p in range(hx.n + 1):
        for q in range(hx.n + 1):
            total = hx[(p, q)] + sum(hy[(p - i, q - i)] for i in range(1, r))
            if total:
                h[(p, q)] = total
    return HodgeDiamond(hx.n, h)


@dataclass(frozen=True)
class BlowupData:
    """Input tables for a blow-up along a codimension-r center.

    dims_E is supplied by the caller: no general rule recovers the
    exceptional divisor's KB dimensions from the center's.
    """

    r: int
    dims_X: KBDims
    dims_Y: KBDims
    dims_E: KBDims

    def __post_init__(self):
        if _integer(self.r, "r") < 2:
            raise ValueError("blow-up centers have codimension >= 2")
        if self.dims_Y.n != self.dims_X.n - self.r:
            raise ValueError("dims_Y.n must equal dims_X.n - r")
        if self.dims_E.n != self.dims_X.n - 1:
            raise ValueError("dims_E.n must equal dims_X.n - 1")


def blowup_kb(data: BlowupData) -> KBDims:
    """KB dimensions of the blow-up: X + E shifted by one - Y shifted by r.

    A negative value means the three tables cannot fit in the split
    exact sequence and the input is rejected.
    """
    n = data.dims_X.n
    dims = {}
    for k in range(2 * n + 1):
        v = data.dims_X[k] + data.dims_E[k - 1] - data.dims_Y[k - data.r]
        if v < 0:
            raise InconsistentBlowupError(
                f"inconsistent blow-up data: negative dimension at k={k}")
        if v:
            dims[k] = v
    return KBDims(n, dims)


def blowup_point_kb(x: KBDims) -> KBDims:
    """Blow up one point: k = n gains n - 1, nothing else changes.

    >>> blowup_point_kb(KBDims(2, {0: 1, 1: 4, 2: 6, 3: 4, 4: 1})).dims
    mappingproxy({0: 1, 1: 4, 2: 7, 3: 4, 4: 1})
    """
    if x.n < 2:
        raise ValueError("point blow-ups need complex dimension >= 2")
    dims = dict(x.dims)
    dims[x.n] = dims.get(x.n, 0) + x.n - 1
    return KBDims(x.n, dims)


def mv_euler_check(u: KBDims, v: KBDims, uv: KBDims, union: KBDims) -> bool:
    """χ(U∪V) = χ(U) + χ(V) - χ(U∩V): the one numeric constraint the
    Mayer-Vietoris sequence imposes on dimension tables.

    >>> t = KBDims(1, {0: 1, 1: 2, 2: 1})
    >>> mv_euler_check(t, t, t, t)
    True
    """
    if not (u.n == v.n == uv.n == union.n):
        raise ValueError("all four tables must share the same n")
    return euler_char(union) == euler_char(u) + euler_char(v) - euler_char(uv)
