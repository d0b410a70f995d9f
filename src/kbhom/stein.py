"""Polynomial weight slices of C^n with a homogeneous Poisson bivector.

Monomial p-forms z^α dz_I carry the weight w = |α| + (d-1)|I| when the
bivector has homogeneous polynomial degree d.  The derived differential

    delpi = l_pi ∘ del - del ∘ l_pi

preserves w (l_pi sends (|α|, |I|) to (|α|+d, |I|-2) and del to
(|α|-1, |I|+1)), so each weight gives a finite subcomplex of the
polynomial de Rham complex.  Results are reported per weight slice in
the geometric indexing k = n - p and never summed into a statement
about the full space of holomorphic forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .complexes import Complex, ComplexInvariantError, homology_dims
from .linalg import Matrix

Q = Fraction


class NonHomogeneousBivector(ValueError):
    """Bivector terms do not share a single polynomial degree."""


class SliceCapError(ValueError):
    """A weight slice would need monomials above the |alpha| cap."""


class NotPoissonOnSlice(ValueError):
    """delpi fails to square to zero on the requested weight slice."""


class PolyBivector:
    """Σ_{i<j} p_ij(z) ∂/∂z_i ∧ ∂/∂z_j with homogeneous rational p_ij."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("PolyBivector is immutable")

    @classmethod
    def zero(cls, n: int, degree: int = 0) -> "PolyBivector":
        return cls(n, degree, {})

    @classmethod
    def from_terms(cls, n: int, raw_terms, degree: int | None = None) -> "PolyBivector":
        """Build from (i, j, coeff, alpha) tuples or equivalent dicts.

        Indices are 1-based; i > j is normalized by antisymmetry; all
        monomials must share one degree |alpha| (the default degree of
        the zero bivector is 0 unless given).
        """
        terms: dict = {}
        seen_degree = None
        for raw in raw_terms:
            if isinstance(raw, dict):
                i, j = raw["i"], raw["j"]
                coeff, alpha = raw["coeff"], tuple(raw["alpha"])
            else:
                i, j, coeff, alpha = raw
                alpha = tuple(alpha)
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if i == j:
                raise ValueError("bivector term with i == j")
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if not (1 <= i < j <= n):
                raise ValueError(f"bivector indices ({i},{j}) out of range for n={n}")
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"monomial exponent {alpha} is not a valid multi-index")
            if seen_degree is None:
                seen_degree = sum(alpha)
            elif sum(alpha) != seen_degree:
                raise NonHomogeneousBivector(
                    f"terms of degree {seen_degree} and {sum(alpha)} mixed")
            if coeff:
                poly = terms.setdefault((i, j), {})
                poly[alpha] = poly.get(alpha, Q(0)) + sign * coeff
        for key in [k for k, poly in terms.items()
                    if not any(poly.values())]:
            del terms[key]
        terms = {k: {a: c for a, c in poly.items() if c}
                 for k, poly in terms.items()}
        terms = {k: poly for k, poly in terms.items() if poly}
        if seen_degree is None:
            seen_degree = 0 if degree is None else degree
        elif degree is not None and degree != seen_degree:
            raise NonHomogeneousBivector(
                f"declared degree {degree} does not match terms of degree {seen_degree}")
        return cls(n, seen_degree, terms)

    def is_zero(self) -> bool:
        return not self.terms


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to total, lex ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def slice_basis(n: int, degree: int, w: int, cap: int) -> dict:
    """Monomial basis of the weight-w slice, grouped by form degree p.

    Bases are ordered lexicographically in (alpha, I).  Raises
    SliceCapError when the slice would need |alpha| > cap; truncating
    instead would break delpi-closure.
    """
    out: dict = {}
    for size in range(n + 1):
        a = w - (degree - 1) * size
        if a < 0:
            continue
        if a > cap:
            raise SliceCapError(
                f"weight {w} needs |alpha| = {a} > cap = {cap} at form degree {size}")
        monos = [(alpha, i_set)
                 for alpha in _compositions(a, n)
                 for i_set in combinations(range(1, n + 1), size)]
        out[size] = monos
    return out


def _del_monomial(alpha, i_set):
    """del(z^α dz_I) = Σ_i α_i z^{α-e_i} dz_i ∧ dz_I, canonically signed."""
    for i0, e in enumerate(alpha):
        if not e:
            continue
        gen = i0 + 1
        if gen in i_set:
            continue
        pos = sum(1 for x in i_set if x < gen)
        sign = -1 if pos % 2 else 1
        new_alpha = alpha[:i0] + (e - 1,) + alpha[i0 + 1:]
        new_set = tuple(sorted(i_set + (gen,)))
        yield sign * e, (new_alpha, new_set)


def _integer_terms(pi: PolyBivector):
    """``(terms, L)``: the coefficients of pi times their common denominator
    L, as ints, keyed like ``pi.terms``."""
    scale = 1
    for poly in pi.terms.values():
        for c in poly.values():
            scale = lcm(scale, c.denominator)
    terms = {ij: {beta: c.numerator * (scale // c.denominator)
                  for beta, c in poly.items()}
             for ij, poly in pi.terms.items()}
    return terms, scale


def _contract_monomial(terms: dict, alpha, i_set):
    """l_pi(z^α dz_I): remove a dz-pair, multiply by the coefficient poly.

    ``terms`` are the integer terms of ``_integer_terms``, so the result is
    l_pi scaled by their common denominator.
    """
    for (i, j), poly in terms.items():
        if i in i_set and j in i_set:
            pos_i = i_set.index(i)
            pos_j = i_set.index(j)
            sign = -1 if (pos_i + pos_j + 1) % 2 else 1
            reduced = tuple(x for x in i_set if x != i and x != j)
            for beta, c in poly.items():
                new_alpha = tuple(a + b for a, b in zip(alpha, beta))
                yield sign * c, (new_alpha, reduced)


def _delpi_monomial(terms: dict, alpha, i_set) -> dict:
    """delpi(z^α dz_I) with integer coefficients, scaled like ``terms``."""
    acc: dict = {}
    for c1, mono in _del_monomial(alpha, i_set):
        for c2, mono2 in _contract_monomial(terms, *mono):
            acc[mono2] = acc.get(mono2, 0) + c1 * c2
    for c1, mono in _contract_monomial(terms, alpha, i_set):
        for c2, mono2 in _del_monomial(*mono):
            acc[mono2] = acc.get(mono2, 0) - c1 * c2
    return {m: c for m, c in acc.items() if c}


def _as_bivector(n: int, pi) -> PolyBivector:
    if isinstance(pi, PolyBivector):
        if pi.n != n:
            raise ValueError("bivector built for a different n")
        return pi
    return PolyBivector.from_terms(n, pi)


def stein_complex(n: int, pi, w: int, cap: int = 8) -> Complex:
    """The weight-w slice as a complex with Ω^p placed in degree -p.

    delpi is computed symbolically monomial by monomial, in integers
    after scaling the bivector by the common denominator L of its
    coefficients (each entry is then c/L, still exact); the slice is
    checked to be closed under it and delpi∘delpi = 0 is verified,
    failing with "bivector not Poisson at weight w" otherwise.
    """
    pi = _as_bivector(n, pi)
    terms, scale = _integer_terms(pi)
    basis = slice_basis(n, pi.degree, w, cap)
    index = {p: {m: i for i, m in enumerate(monos)} for p, monos in basis.items()}
    spaces = {-p: len(monos) for p, monos in basis.items()}
    diffs = {}
    for p, monos in basis.items():
        if p == 0:
            continue
        target = index.get(p - 1, {})
        entries = {}
        for col, (alpha, i_set) in enumerate(monos):
            for mono, c in _delpi_monomial(terms, alpha, i_set).items():
                row = target.get(mono)
                if row is None:
                    raise AssertionError(
                        f"delpi left the weight-{w} slice at {mono}; "
                        "weight bookkeeping is broken")
                entries[(row, col)] = Fraction(c, scale)
        m = Matrix(len(basis.get(p - 1, ())), len(monos), entries)
        if not m.is_zero():
            diffs[-p] = m
    try:
        return Complex(spaces, diffs)
    except ComplexInvariantError:
        raise NotPoissonOnSlice(f"bivector not Poisson at weight {w}") from None


def stein_homology(n: int, pi, w_range, cap: int = 8) -> dict:
    """Per-weight homology dims, keyed (w, k) with k = n - p in [0, n]."""
    pi = _as_bivector(n, pi)
    out: dict = {}
    for w in w_range:
        c = stein_complex(n, pi, w, cap)
        h = homology_dims(c)
        for p in range(n + 1):
            out[(w, n - p)] = h.get(-p, 0)
    return out
