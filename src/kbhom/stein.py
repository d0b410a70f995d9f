"""Polynomial weight slices of C^n with a homogeneous Poisson bivector.

Monomial p-forms z^α dz_I carry the weight w = |α| + (d-1)|I| when the
bivector has homogeneous polynomial degree d.  The derived differential

    delpi = l_pi ∘ del - del ∘ l_pi

preserves w (l_pi sends (|α|, |I|) to (|α|+d, |I|-2) and del to
(|α|-1, |I|+1)), so each weight gives a finite subcomplex of the
polynomial de Rham complex.  Results are reported per weight slice in
the geometric indexing k = n - p and never summed into a statement
about the full space of holomorphic forms.

delpi is built from its closed form (Brylinski, "A differential complex
for Poisson manifolds", 1988), whose cancelling terms are never made; what
depends on I and the bivector only is tabulated once per I, as offsets
between int keys of monomials (``_KoszulTables``).  delpi∘delpi = 0
exactly when [pi, pi] = 0, which ``PolyBivector.is_poisson`` decides once
per bivector; both entries refuse a bivector that fails it before any
slice is built (see ``stein_complex``), so no slice is ever squared.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, combinations_with_replacement
from math import comb, lcm
from operator import add, mul, sub
from types import MappingProxyType

from .complexes import Complex, _complex_of, _homology
from .linalg import _Frozen, _integer, _is_int, _q
from .models import _wedge


class NonHomogeneousBivector(ValueError):
    """Bivector terms do not share a single polynomial degree."""


class SliceCapError(ValueError):
    """A weight slice would need monomials above the |alpha| cap."""


class NotPoissonOnSlice(ValueError):
    """The bivector is not Poisson, so delpi does not square to zero."""


def _natural(x, name: str) -> None:
    """TypeError unless x is a plain int, ValueError if it is negative."""
    if _integer(x, name) < 0:
        raise ValueError(f"{name} = {x} is negative")


_TERM_FIELDS = ("i", "j", "coeff", "alpha")


def _term_sign(n: int, key) -> int:
    """The sign of the term at key = (i, j) when it is stored at the key
    (min(i, j), max(i, j)): TypeError unless key is a pair of plain ints,
    ValueError unless i ≠ j lie in [1, n]."""
    if not (isinstance(key, tuple) and len(key) == 2):
        raise TypeError(f"bivector key {key!r} is not a pair (i, j)")
    for x in key:
        if not _is_int(x):
            raise TypeError(f"bivector indices and exponents must be integers, not {x!r}")
    i, j = key
    if i == j:
        raise ValueError("bivector term with i == j")
    lo, hi = sorted(key)
    if not (1 <= lo and hi <= n):
        raise ValueError(f"bivector indices ({lo},{hi}) out of range for n={n}")
    return 1 if i < j else -1


def _multi_index(n: int, alpha) -> None:
    """TypeError unless the exponents are plain ints, ValueError unless
    alpha is n nonnegative exponents."""
    for x in alpha:
        if not _is_int(x):
            raise TypeError(f"bivector indices and exponents must be integers, not {x!r}")
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"monomial exponent {alpha} is not a valid multi-index")


class PolyBivector(_Frozen):
    """Σ_{i<j} p_ij(z) ∂/∂z_i ∧ ∂/∂z_j with homogeneous rational p_ij."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict):
        """``terms`` in the stored form ``{(i, j): {alpha: coeff}}``, i < j and
        |alpha| = ``degree`` (else the errors of ``from_terms``; a key that
        is not a pair raises TypeError); a read-only copy of the nonzero
        coefficients, read by ``linalg._q``, is kept."""
        _natural(n, "n")
        _natural(degree, "degree")
        stored: dict = {}
        for key, poly in terms.items():
            if _term_sign(n, key) < 0:
                raise ValueError(f"bivector key ({key[0]},{key[1]}) is not stored as i < j")
            for alpha, coeff in poly.items():
                _multi_index(n, alpha)
                if sum(alpha) != degree:
                    raise NonHomogeneousBivector(
                        f"declared degree {degree} does not match terms of degree {sum(alpha)}")
                if coeff := _q(coeff):
                    stored.setdefault(key, {})[tuple(alpha)] = coeff
        self._freeze(n=n, degree=degree, terms=MappingProxyType(
            {key: MappingProxyType(poly) for key, poly in stored.items()}))

    @classmethod
    def zero(cls, n: int, degree: int = 0) -> "PolyBivector":
        return cls(n, degree, {})

    @classmethod
    def from_terms(cls, n: int, raw_terms, degree: int | None = None) -> "PolyBivector":
        """Build from (i, j, coeff, alpha) tuples or equivalent dicts.

        A dict term has exactly the fields "i", "j", "coeff" and "alpha"
        (a ValueError naming the term and the field otherwise), and any
        other term is a tuple or list of those four, in that order (a
        ValueError naming the term otherwise, a TypeError naming it when
        the term or its alpha is not iterable).  Indices are 1-based;
        i > j is normalized by antisymmetry; all monomials must share one
        degree |alpha| (the default degree of the zero bivector is 0
        unless given).  Inputs are strictly typed: n, a declared degree,
        indices and exponents are ints, never bools (TypeError otherwise),
        a declared degree is nonnegative (ValueError otherwise), and
        coefficients are ints, Fractions or "a/b" strings, read by
        ``linalg._q`` (bools and floats raise TypeError, other strings
        ValueError).
        """
        _integer(n, "n")
        if degree is not None:
            _natural(degree, "degree")
        terms: dict = {}
        seen_degree = None
        for idx, raw in enumerate(raw_terms):
            if isinstance(raw, dict):
                unknown = set(raw) - set(_TERM_FIELDS)
                if unknown:
                    raise ValueError(
                        f"term {idx}: unknown fields {sorted(unknown, key=repr)}")
                for field in _TERM_FIELDS:
                    if field not in raw:
                        raise ValueError(f"term {idx}: missing field {field!r}")
                raw = [raw[field] for field in _TERM_FIELDS]
            try:
                raw = tuple(raw)
            except TypeError:
                raise TypeError(f"term {idx}: a term is a list [i, j, coeff, alpha] "
                                f"or a dict, not {type(raw).__name__}") from None
            if len(raw) != len(_TERM_FIELDS):
                raise ValueError(f"term {idx}: a list term has the 4 entries "
                                 f"[i, j, coeff, alpha], not {len(raw)}")
            i, j, coeff, alpha = raw
            try:
                alpha = tuple(alpha)
            except TypeError:
                raise TypeError(f"term {idx}: alpha must be a list of exponents, "
                                f"not {type(alpha).__name__}") from None
            coeff = _q(coeff)
            sign = _term_sign(n, (i, j))
            _multi_index(n, alpha)
            if sign < 0:
                i, j = j, i
            if seen_degree is None:
                seen_degree = sum(alpha)
            elif sum(alpha) != seen_degree:
                raise NonHomogeneousBivector(
                    f"terms of degree {seen_degree} and {sum(alpha)} mixed")
            if coeff:
                poly = terms.setdefault((i, j), {})
                poly[alpha] = poly.get(alpha, 0) + sign * coeff
        if seen_degree is None:
            seen_degree = 0 if degree is None else degree
        elif degree is not None and degree != seen_degree:
            raise NonHomogeneousBivector(
                f"declared degree {degree} does not match terms of degree {seen_degree}")
        return cls(n, seen_degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_poisson(self) -> bool:
        """Whether [pi, pi] = 0 (see ``_jacobiator_failure``)."""
        return self._jacobiator_failure() is None

    def _jacobiator_failure(self):
        """The least (i, j, k), i < j < k, at which the Jacobiator

            J^{ijk} = Σ_cyc Σ_l π^{li} ∂_l π^{jk},   π^{ji} = -π^{ij} = -p_ij,

        is nonzero (None if [pi, pi] = 0), computed exactly on the integer
        terms of ``_integer_terms`` (L·π, whose Jacobiator is L² J).
        """
        terms, _ = _integer_terms(self)

        def entry(a, b):
            return (1, terms.get((a, b), {})) if a < b else (-1, terms.get((b, a), {}))

        gens = range(1, self.n + 1)
        for i, j, k in combinations(gens, 3):
            jac: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                sign_bc, p_bc = entry(b, c)
                for l in gens:
                    sign_la, p_la = entry(l, a)
                    for beta, x in p_bc.items():
                        e = beta[l - 1]
                        if not e:
                            continue
                        lowered = beta[:l - 1] + (e - 1,) + beta[l:]
                        for gamma, y in p_la.items():
                            mono = tuple(map(add, gamma, lowered))
                            jac[mono] = jac.get(mono, 0) + sign_la * sign_bc * e * x * y
            if any(jac.values()):
                return i, j, k
        return None


def _compositions(total: int, parts: int) -> list:
    """All tuples of `parts` nonnegative ints summing to total, lex ascending.

    The first parts - 1 partial sums s are any nondecreasing tuple in
    [0, total], and each part is the difference of two neighbours in
    (0, *s, total).  Two compositions first differ in the same place as
    their partial sums, so combinations_with_replacement's lex order is
    the parts' lex order."""
    if total < 0 or parts == 0:
        return [()] if total == parts == 0 else []
    end = (total,)
    return [tuple(map(sub, s + end, (0,) + s))
            for s in combinations_with_replacement(range(total + 1), parts - 1)]


def _slice_sizes(n: int, degree: int, w: int, cap: int) -> dict:
    """``{p: |alpha|}`` over the form degrees p of the weight-w slice; a
    SliceCapError if it needs |alpha| > cap (truncating would break
    delpi-closure), TypeError unless w and cap are ints, ValueError if cap < 0."""
    _integer(w, "w")
    if _integer(cap, "cap") < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    sizes = {p: w - (degree - 1) * p for p in range(n + 1)}
    for p, a in sizes.items():
        if a > cap:
            raise SliceCapError(
                f"weight {w} needs |alpha| = {a} > cap = {cap} at form degree {p}")
    return {p: a for p, a in sizes.items() if a >= 0}


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


class _KoszulTables:
    """The α-independent part of delpi(z^α dz_I), one table per index set I,
    for slices with |α| ≤ ``cap``.  A monomial is one int,

        key(α, I) = Σ_g α_g R^g 2^n + Σ_{i∈I} 2^{i-1},   R = cap + 1,

    summed from parts cached for every slice: ``units()``, the key(e_g, ∅),
    computed only once a slice has type-checked cap (``_slice_sizes``);
    ``masks(p)``, the (I, key(0, I)) with |I| = p; and ``alphas(a)``, the
    (α, key(α, ∅)) with |α| = a.

    ``tables[I]`` is ``(terms, distinct)``: each ``(g, offset, c)`` in the
    flat list ``terms`` stands for α'_g·c·z^{α+δ} dz_J, α' = (*α, 1) (g is
    0-based, and g = n, the trailing factor 1, marks a term free of α);
    offset = key(δ, J) - key(0, I), c is scaled as in ``_integer_terms``.
    Then key(α, I) + offset = key(α+δ, J), the key of no other monomial:
    each term keeps the weight, |δ| + (d-1)(|J| - |I|) = 0, and has δ ≥ 0
    but for δ_g ≥ -1 in a term weighted by α_g, which fires only if
    α_g ≥ 1.  So a target has exponents ≥ 0 and weight w, whence
    |α+δ| ≤ cap < R by ``_slice_sizes``, and every digit of its key is
    below R.  Both premises are checked per term as the table is built, at
    the first lookup of its I.  The closed form holds for any bivector,
    Poisson or not.

    ``distinct`` says that no two terms share an offset; then no entry of a
    column of I is zero, as distinct offsets land on distinct keys and each
    entry is one α'_g·c, with c ≠ 0 (zeros are dropped here) and α'_g ≠ 0
    (a term is taken only then).  Only the columns of a table that maps two
    terms to one offset (z1z2 ∂1∧∂2 at I = (1, 2)) are checked for zeros.
    """

    __slots__ = ("pi", "cap", "terms", "scale", "_tables", "_alphas", "_masks", "_units")

    def __init__(self, pi: PolyBivector, cap: int):
        self.pi, self.cap, self._tables, self._alphas, self._masks = pi, cap, {}, {}, {}
        self.terms, self.scale, self._units = *_integer_terms(pi), None

    def units(self) -> list:
        if self._units is None:
            self._units = [(self.cap + 1) ** g << self.pi.n for g in range(self.pi.n)]
        return self._units

    def key(self, alpha, i_set) -> int:
        return sum(map(mul, alpha, self.units())) + sum(1 << (i - 1) for i in i_set)

    def masks(self, p: int) -> list:
        if p not in self._masks:
            self._masks[p] = [(i_set, self.key((), i_set))
                              for i_set in combinations(range(1, self.pi.n + 1), p)]
        return self._masks[p]

    def alphas(self, size: int) -> list:
        if size not in self._alphas:
            units = self.units()
            self._alphas[size] = [(alpha, sum(map(mul, alpha, units)))
                                  for alpha in _compositions(size, self.pi.n)]
        return self._alphas[size]

    def __getitem__(self, i_set):
        if i_set not in self._tables:
            self._tables[i_set] = self._build(i_set)
        return self._tables[i_set]

    def _build(self, i_set):
        n, terms = self.pi.n, self.terms
        weight, base = self.pi.degree - 1, self.key((), i_set)
        acc: dict = {}  # (g, offset) → c; g is n for the terms free of α

        def put(g, beta, h, target, c):  # c·z^{α+δ} dz_target, δ = beta - e_h
            delta = beta[:h - 1] + (beta[h - 1] - 1,) + beta[h:]
            shift = sum(delta) + weight * (len(target) - len(i_set))
            if shift or any(x < -(k == g) for k, x in enumerate(delta)):
                raise AssertionError(f"delpi term z^{delta} dz_{target} of dz_{i_set} shifts the"
                                     f" weight by {shift} or can take an exponent below 0")
            key = (g, self.key(delta, target) - base)
            acc[key] = acc.get(key, 0) + c

        # l_pi∘del through the new generator g ∉ I, paired with o ∈ I:
        #   α_g s_g(I) ε_go(I∪g) p_go z^{α-e_g} dz_{I∖o}
        for g in range(1, n + 1):
            if g in i_set:
                continue
            s_g = _wedge((g,), i_set)[0]
            for o in i_set:
                ij = (g, o) if g < o else (o, g)
                target = tuple(x for x in i_set if x != o)
                sign = s_g * _wedge(ij, target)[0]
                for beta, c in terms.get(ij, {}).items():
                    put(g - 1, beta, g, target, sign * c)
        # -del∘l_pi over the pairs {i, j} ⊂ I, with K = I∖{i,j} and h ∉ K:
        #   -ε_ij(I) s_h(K) [(∂_h p_ij) z^α + [h∈{i,j}] α_h p_ij z^{α-e_h}] dz_{K∪h}
        for (i, j), poly in terms.items():
            if i not in i_set or j not in i_set:
                continue
            rest = tuple(x for x in i_set if x != i and x != j)
            eps = _wedge((i, j), rest)[0]
            for h in range(1, n + 1):
                if h in rest:
                    continue
                s_h, target = _wedge((h,), rest)
                for beta, c in poly.items():
                    if beta[h - 1]:
                        put(n, beta, h, target, -eps * s_h * c * beta[h - 1])
                    if h == i or h == j:
                        put(h - 1, beta, h, target, -eps * s_h * c)
        flat = [(g, offset, c) for (g, offset), c in acc.items() if c]
        return flat, len({offset for _, offset, _ in flat}) == len(flat)


def _as_bivector(n: int, pi) -> PolyBivector:
    """pi as a PolyBivector on C^n, refused unless [pi, pi] = 0."""
    if not isinstance(pi, PolyBivector):
        pi = PolyBivector.from_terms(n, pi)
    elif pi.n != _integer(n, "n"):
        raise ValueError("bivector built for a different n")
    if failure := pi._jacobiator_failure():
        raise NotPoissonOnSlice(
            f"bivector not Poisson: Jacobiator nonzero at (i, j, k) = {failure}")
    return pi


def stein_complex(n: int, pi, w: int, cap: int = 8) -> Complex:
    """The weight-w slice as a complex with Ω^p placed in degree -p.  Its
    basis in form degree p is the z^α dz_I with |α| = w - (d-1)p, α-major
    and I-minor (``_slice_rows``).  A non-Poisson pi is refused with
    NotPoissonOnSlice before w and cap are read.

    delpi = l_pi∘del - del∘l_pi is written from its closed form rather
    than composed term by term.  With s_g(I) the sign in dz_g ∧ dz_I =
    ±dz_{I∪g} and ε_ij(I) the one in dz_I = ±dz_i ∧ dz_j ∧ dz_{I∖{i,j}},

        delpi(z^α dz_I) = Σ_{g∉I, o∈I} α_g s_g(I) ε_go(I∪g) p_go z^{α-e_g} dz_{I∖o}
            - Σ_{i<j in I} Σ_{h∉K} ε_ij(I) s_h(K)
                  [(∂_h p_ij) z^α + [h∈{i,j}] α_h p_ij z^{α-e_h}] dz_h ∧ dz_K,

    K = I∖{i,j}.  The terms of l_pi∘del whose pair lies inside I are
    missing because they cancel those of del∘l_pi differentiating z^α
    along h ∉ I: s_h(I) ε_ij(I∪h) = ε_ij(I) s_h(K).  Everything but α is
    looked up in per-I tables (see ``_KoszulTables``).  Coefficients are
    integers after scaling the bivector by the common denominator L of
    its coefficients, and each column is emitted as those integers over
    L, still exact.

    A monomial is one int key, to which a table term adds an offset; each
    term keeps the weight and exponents ≥ 0, so a target has |α| ≤ cap < R
    and its key, in radix R = cap + 1, is its own (see ``_KoszulTables``).

    delpi∘delpi = 0 is proved, not multiplied out.  delpi is the graded
    commutator [l_pi, del] of the contraction l_pi (degree -2) and del
    (degree 1), and for bivectors P and Q, [[l_P, del], [l_Q, del]] =
    ±[l_[P,Q], del], with [P, Q] the Schouten–Nijenhuis bracket (Koszul,
    "Crochet de Schouten–Nijenhuis et cohomologie", Astérisque 1985;
    Brylinski 1988).  So 2 delpi∘delpi = [delpi, delpi] is, up to sign,
    the Koszul operator of [pi, pi], whose coefficients are those of the
    Jacobiator.  ``_as_bivector`` has found it zero, so every slice
    squares to zero and is built unchecked; ``homology_dims`` clears
    columns on that proof, so a wrong "Poisson" would give wrong homology
    silently.
    """
    return _complex_of(*_slice_sources(_KoszulTables(_as_bivector(n, pi), cap), w))


def _slice_columns(tables: _KoszulTables, w: int, p: int, size: int, rows: dict, skip=()):
    """The column stream of d^{-p} on the weight-w slice without the columns
    in ``skip``: ``(j, line, L)`` for the columns j, α-major and I-minor,
    line being L·delpi(z^α dz_I), rows keyed by ``rows`` (``_slice_rows``),
    with no zero entry (see ``distinct`` in ``_KoszulTables``)."""
    per_i = [(i_set, mask, *tables[i_set]) for i_set, mask in tables.masks(p)]
    j = -1
    try:
        for alpha, a_key in tables.alphas(size):
            factor = (*alpha, 1)
            for i_set, mask, terms, distinct in per_i:
                j += 1
                if j in skip:
                    continue
                key, line = a_key + mask, {}
                for g, offset, c in terms:
                    a_g = factor[g]
                    if a_g:
                        row = rows[key + offset]
                        line[row] = line.get(row, 0) + a_g * c
                yield (j, line if distinct or all(line.values()) else
                       {i: v for i, v in line.items() if v}, tables.scale)
    except KeyError:
        raise AssertionError(f"delpi left the weight-{w} slice from {(alpha, i_set)}; "
                             "weight bookkeeping is broken") from None


def _slice_rows(tables: _KoszulTables, p: int, size: int) -> dict:
    """The keys of the z^α dz_I with |α| = size and |I| = p to their indices,
    α-major and I-minor: α lex ascending, then I lex ascending."""
    masks = [mask for _, mask in tables.masks(p)]
    keys = [a_key + mask for _, a_key in tables.alphas(size) for mask in masks]
    return dict(zip(keys, range(len(keys))))


def _slice_sources(tables: _KoszulTables, w: int) -> tuple:
    """``(spaces, sources)`` of the weight-w slice: ``{-p: dim Ω^p}`` and the
    (-p, source of d^{-p}) in ascending -p, each with the rows of slice
    p - 1, which are tabulated only as the sources are drawn."""
    n, sizes = tables.pi.n, _slice_sizes(tables.pi.n, tables.pi.degree, w, tables.cap)
    return ({-p: len(tables.alphas(size)) * comb(n, p) for p, size in sizes.items()},
            ((-p, partial(_slice_columns, tables, w, p, sizes[p],
                          _slice_rows(tables, p - 1, sizes[p - 1]) if p - 1 in sizes else {}))
             for p in sorted(sizes, reverse=True) if p))


def stein_homology(n: int, pi, w_range, cap: int = 8) -> dict:
    """Per-weight homology dims, keyed (w, k) with k = n - p in [0, n].

    The weights share one set of per-I tables and of (α, key) lists.  A
    non-Poisson pi is refused with NotPoissonOnSlice before any weight is
    read.  The d^{-p} are never built as matrices: for p = n, ..., 1 each
    column of d^{-p} is made as it is reduced (``_slice_sources``), with
    clearing (``complexes._cleared_owners``), which needs
    d^{-p}∘d^{-p-1} = 0; ``_as_bivector`` proves it once per bivector (see
    ``stein_complex``)."""
    tables = _KoszulTables(_as_bivector(n, pi), cap)
    out: dict = {}
    for w in w_range:
        h = _homology(*_slice_sources(tables, w))
        for p in range(n + 1):
            out[(w, n - p)] = h.get(-p, 0)
    return out
