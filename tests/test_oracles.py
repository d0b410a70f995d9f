"""The integer fast paths against the dense Fraction oracles in support.py.

Every output compared here is unique (rank, the unit-at-free-column kernel
basis, the greedy leftmost pivot columns, the solution supported on the
pivot columns, page dimensions, matrix products, slice differentials in
the fixed monomial order), so the implementations must agree entry for
entry.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kbhom.complexes import (
    Complex,
    _complex_of,
    homology_dims,
    les_from_ses,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom.engine import kb_double_complex
from kbhom.linalg import (
    Matrix,
    _from_columns,
    _owners,
    _reduce,
    _stored_columns,
    _sum_of_products,
    kernel_basis,
    rank,
)
from kbhom.models import (
    DolbeaultPoissonModel,
    koszul_differential,
    product_model,
    validate_model,
)
from kbhom.stein import (
    NotPoissonOnSlice,
    PolyBivector,
    _KoszulTables,
    _slice_sources,
    stein_complex,
    stein_homology,
)
from kbhom.zoo import parallelizable, torus
from support import (
    column_matrix,
    dense,
    oracle_homology_dims,
    oracle_jacobiator,
    oracle_kernel_basis,
    oracle_les_from_ses,
    oracle_modular_vector,
    oracle_poisson_cohomology,
    oracle_product,
    oracle_rank,
    oracle_solve,
    oracle_spectral_pages,
    oracle_stein_differentials,
    oracle_validate_model,
    random_complex,
    random_double_complex,
    random_split_ses,
    reduction_solve,
    slice_basis,
    staircase_double_complex,
    transpose,
    twisted_ses,
)

SETTINGS = settings(max_examples=150, deadline=None)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_matrices(draw, rows, cols):
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.floats(0, 1)) < density:
                entries[(i, j)] = draw(rationals)
    return Matrix(rows, cols, entries)


@st.composite
def deficient_matrices(draw):
    """A product (rows x r)(r x cols) with r below both sizes most of the time."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    return draw(sparse_matrices(rows, inner)) * draw(sparse_matrices(inner, cols))


@SETTINGS
@given(deficient_matrices())
def test_rank_kernel_and_span_match_oracle(m):
    assert rank(m) == oracle_rank(m)
    assert kernel_basis(m).basis == oracle_kernel_basis(m).basis
    # the rank-only and the tracked reduction find the same pivots; a pivot
    # column is the last column of its combination
    assert _owners(_stored_columns(m)) == {i: max(c) for i, c in _reduce(m).combos.items()}


@SETTINGS
@given(st.data())
def test_solve_matches_oracle(data):
    m = data.draw(deficient_matrices())
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    consistent = (m * Matrix(m.cols, 1, {(j, 0): v for j, v in enumerate(x)})).column(0)
    arbitrary = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    assert reduction_solve(m, [consistent, arbitrary]) == [
        oracle_solve(m, b) for b in (consistent, arbitrary)]


@SETTINGS
@given(st.data())
def test_solve_columns_matches_oracle_column_by_column(data):
    """Rank-deficient m with denominators (zero rows or columns included),
    against right-hand sides mixing columns in the image of m with
    arbitrary ones, zero columns of rhs included."""
    m = data.draw(deficient_matrices())
    columns = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
            columns.append(oracle_product(m, column_matrix(x)).column(0)
                           if m.cols else [Fraction(0)] * m.rows)
        else:
            columns.append(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    assert reduction_solve(m, columns) == [oracle_solve(m, col) for col in columns]


def test_solve_columns_edge_shapes():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])          # rank 1, dependent columns
    columns = [[1, 2], [1, 3], [0, 0]]                    # solvable, not, zero
    assert reduction_solve(m, columns) == [oracle_solve(m, col) for col in columns]
    assert reduction_solve(m, columns)[1] is None
    x, missing = _reduce(m).solve(Matrix.from_rows([[1, 1, 0], [2, 3, 0]]))
    assert missing == {1} and x.column(1) == [Fraction(0)] * 3
    assert reduction_solve(m, []) == []
    assert reduction_solve(Matrix(0, 3), [[], []]) == [[Fraction(0)] * 3] * 2
    assert reduction_solve(Matrix(2, 0), [[0, 0], [0, 1]]) == [[], None]


big_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97))


def dense_matrix(draw, rows, cols, values):
    return Matrix(rows, cols, {(i, j): draw(values)
                               for i in range(rows) for j in range(cols)})


def hilbert_like(rows, cols, shift):
    return Matrix(rows, cols, {(i, j): Fraction(1, i + j + 1 + shift)
                               for i in range(rows) for j in range(cols)})


@st.composite
def growth_matrices(draw):
    """Dense 10..14-square matrices whose eliminations grow coefficients:
    big entries, products of rank r < size, and Hilbert-like factors."""
    rows, cols = draw(st.integers(10, 14)), draw(st.integers(10, 14))
    kind = draw(st.sampled_from(["dense", "product", "hilbert"]))
    if kind == "dense":
        return dense_matrix(draw, rows, cols, big_rationals)
    inner = draw(st.integers(1, min(rows, cols)))
    if kind == "product":
        left = dense_matrix(draw, rows, inner, big_rationals)
    else:
        left = hilbert_like(rows, inner, draw(st.integers(0, 3)))
    return oracle_product(left, dense_matrix(draw, inner, cols, big_rationals))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coefficient_growth_matches_oracle(data):
    m = data.draw(growth_matrices())
    assert rank(m) == oracle_rank(m)
    assert kernel_basis(m).basis == oracle_kernel_basis(m).basis
    x = data.draw(st.lists(big_rationals, min_size=m.cols, max_size=m.cols))
    consistent = oracle_product(m, column_matrix(x)).column(0)
    arbitrary = data.draw(st.lists(big_rationals, min_size=m.rows, max_size=m.rows))
    assert reduction_solve(m, [consistent, arbitrary]) == [
        oracle_solve(m, b) for b in (consistent, arbitrary)]



def test_unit_step_leaves_content_behind():
    """Columns (3, 1) and (1, 2): the owner's pivot entry 1 divides 2, so
    the step is col - 2·own = (-5, 0), and its content 5 is left there, the
    rational elimination's column times the same scale.  Rank, kernel and
    solve still equal the oracles', here and with a third, dependent,
    column (4, 3) reduced against it."""
    m = Matrix.from_rows([[3, 1], [1, 2]])
    red = _reduce(m)
    assert red.pivots == {1: {0: 3, 1: 1}, 0: {0: -5}}
    assert red.combos == {1: {0: 1}, 0: {1: 1, 0: -2}}
    assert red.free == {}
    for m in (m, Matrix.from_rows([[3, 1, 4], [1, 2, 3]])):
        assert rank(m) == oracle_rank(m) == 2
        assert kernel_basis(m).basis == oracle_kernel_basis(m).basis
        columns = [[1, 0], [0, 1], [7, -3], [0, 0]]
        assert reduction_solve(m, columns) == [oracle_solve(m, col) for col in columns]


@settings(max_examples=60, deadline=None)
@given(st.one_of(deficient_matrices(), growth_matrices()))
def test_reduced_columns_are_m_times_their_combinations(m):
    """Each column's scalars, composed once it ends, give its combination:
    pivots[i] = m·combos[i] exactly, pivots[i] ending at row i, and
    m·free[j] = 0.  Each combination ends at its own column j with a
    positive entry there (what ``kernel`` divides by), and every column
    is a pivot column or a key of ``free``, ascending."""
    def column(entries, rows):
        return Matrix(rows, 1, {(i, 0): v for i, v in entries.items()})

    red = _reduce(m)
    assert red.combos.keys() == red.pivots.keys() and list(red.free) == sorted(red.free)
    assert sorted([*red.free, *map(max, red.combos.values())]) == list(range(m.cols))
    for i, col in red.pivots.items():
        assert oracle_product(m, column(red.combos[i], m.cols)) == column(col, m.rows)
        assert max(col) == i
    for comb in red.free.values():
        assert oracle_product(m, column(comb, m.cols)).is_zero()
    for j, comb in (*red.free.items(), *((max(c), c) for c in red.combos.values())):
        assert max(comb) == j and comb[j] > 0

@st.composite
def mixed_matrices(draw, rows, cols):
    """Each row and each column is integral or not; an entry may have a
    denominator only where both its row and its column may."""
    frac_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    frac_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.floats(0, 1)) < density:
                den = draw(st.integers(1, 6)) if frac_rows[i] and frac_cols[j] else 1
                entries[(i, j)] = Fraction(draw(st.integers(-5, 5)), den)
    return Matrix(rows, cols, entries)


@SETTINGS
@given(st.data())
def test_product_matches_oracle(data):
    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))
    a = data.draw(mixed_matrices(rows, inner))
    b = data.draw(mixed_matrices(inner, cols))
    assert a * b == oracle_product(a, b)


@st.composite
def fraction_entries(draw, rows=None, cols=None):
    """``(rows, cols, entries)``: Fraction entries with denominators up to
    97, explicit zeros among them, whole zero rows and columns, and 0×n and
    n×0 shapes."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    live_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    live_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if live_rows[i] and live_cols[j] and draw(st.floats(0, 1)) < density:
                entries[(i, j)] = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 97)))
    return rows, cols, entries


@SETTINGS
@given(fraction_entries())
def test_entries_round_trip(case):
    """Fraction entries -> Matrix -> .entries is the identity (zeros dropped)."""
    rows, cols, entries = case
    m = Matrix(rows, cols, entries)
    want = {key: v for key, v in entries.items() if v}
    assert dict(m.entries) == want
    assert all(type(v) is Fraction for v in m.entries.values())
    assert [m.column(j) for j in range(cols)] == [[r[j] for r in dense(m)] for j in range(cols)]
    assert Matrix(rows, cols, m.entries) == m
    assert m.is_zero() == (not want)


@SETTINGS
@given(fraction_entries(), fraction_entries(), st.randoms(use_true_random=False))
def test_eq_and_hash_agree_with_entrywise_equality(a_case, b_case, rnd):
    rows, cols, entries = a_case
    a = Matrix(rows, cols, entries)
    # the same values, inserted in another order and spelled as ints or as
    # unreduced strings, give an equal matrix with an equal hash
    items = list(entries.items())
    rnd.shuffle(items)
    spelled = {key: v.numerator if v.denominator == 1
               else f"{3 * v.numerator}/{3 * v.denominator}" for key, v in items}
    same = Matrix(rows, cols, spelled)
    assert same == a and hash(same) == hash(a)
    # and so do matrices reached through arithmetic
    for other in (transpose(transpose(a)), (a + a) - a, -(-a), Fraction(1, 7) * (7 * a)):
        assert other == a and hash(other) == hash(a)
    b = Matrix(*b_case)
    assert (a == b) == (a.shape == b.shape and dict(a.entries) == dict(b.entries))
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(st.data())
def test_products_with_mixed_column_denominators_match_oracle(data):
    rows, inner, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, c = (Matrix(*data.draw(fraction_entries(rows, inner))) for _ in range(2))
    b, d = (Matrix(*data.draw(fraction_entries(inner, cols))) for _ in range(2))
    ab, cd = oracle_product(a, b), oracle_product(c, d)
    assert dict((a * b).entries) == dict(ab.entries)
    s, t = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    total = _sum_of_products([(s, a, b), (t, c, d), (1, None, b), (1, a, None)], rows, cols)
    assert total.shape == (rows, cols)
    assert dense(total) == [[s * x + t * y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(dense(ab), dense(cd))]


@st.composite
def raw_pieces(draw):
    """``(rows, cols, pieces)``: the (j, {row: int}, d) pieces builders and
    ``solve`` pass to ``_from_columns``, with repeated columns, negative and
    unreduced denominators, empty dicts, zero values and pieces that cancel
    an earlier one (as they are or scaled)."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pieces = []
    for _ in range(draw(st.integers(0, 10)) if cols else 0):
        j = draw(st.integers(0, cols - 1))
        col = draw(st.dictionaries(st.integers(0, rows - 1), st.integers(-6, 6),
                                   max_size=rows)) if rows else {}
        d = draw(st.integers(-12, 12).filter(bool))
        pieces.append((j, col, d))
        if draw(st.booleans()):
            f = draw(st.sampled_from([1, -1, 2, -3]))
            pieces.append((j, {i: -f * v for i, v in col.items()}, f * d))
    return rows, cols, pieces


@SETTINGS
@given(raw_pieces())
@example((2, 2, [(0, {0: 1, 1: 0}, 1), (0, {0: -1}, 1), (1, {}, 1), (1, {1: 0}, -3)]))
@example((1, 2, [(1, {0: 4}, -6), (1, {0: 2}, 6), (0, {0: 3}, 1)]))
def test_from_columns_sums_raw_pieces_in_canonical_form(case):
    """The stored form is the Fraction sum of the pieces, and canonical: no
    zero entries or empty columns, and each stored denominator is above 1
    and coprime to its column's entries."""
    rows, cols, pieces = case
    want: dict = {}
    for j, col, d in pieces:
        for i, v in col.items():
            want[(i, j)] = want.get((i, j), 0) + Fraction(v, d)
    want = {key: v for key, v in want.items() if v}
    m = _from_columns(rows, cols, [(j, dict(col), d) for j, col, d in pieces])
    assert m.shape == (rows, cols) and dict(m.entries) == want
    assert set(m._dens) <= set(m._lines)
    for j, col in m._lines.items():
        d = m._dens.get(j, 1)
        assert type(col) is dict and col and all(col.values())
        assert 0 <= j < cols and all(0 <= i < rows for i in col)
        assert (d > 1) == (j in m._dens) and gcd(d, *col.values()) == 1
    assert m == Matrix(rows, cols, want)


def fingerprints(*mats) -> list:
    return [(m._key(), dict(m.entries)) for m in mats]


@SETTINGS
@given(st.data())
def test_matrix_operations_leave_their_inputs_unchanged(data):
    """Matrices share their stored column dicts (``_from_columns`` stores a
    builder's dict as it is), so nothing may change a stored dict: every
    input reads the same afterwards."""
    rows, cols, width = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = (Matrix(*data.draw(fraction_entries(rows, cols))) for _ in range(2))
    c = Matrix(*data.draw(fraction_entries(cols, width)))
    rhs = Matrix(*data.draw(fraction_entries(rows, width)))
    twice = Matrix.hstack(a, a)
    inputs = (a, b, c, rhs, twice)
    before = fingerprints(*inputs)
    a + b, a - b, -a, Fraction(-3, 2) * a, a * c, Matrix.hstack(a, b, a)
    rank(a), rank(twice), _reduce(twice)
    red = _reduce(a)
    first = red.kernel(), red.solve(rhs)
    assert (red.kernel().basis, red.solve(rhs)) == (first[0].basis, first[1])
    # the second copy of each column depends on the columns before it
    assert len(_owners(_stored_columns(twice, range(cols, 2 * cols)))) == rank(a)
    assert fingerprints(*inputs) == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_complex_operations_leave_their_differentials_unchanged(seed):
    rng = random.Random(seed)
    dc = random_double_complex(rng)
    t = total_complex(dc)
    f, g = random_split_ses(rng)
    # a twisted sequence has nonzero connecting maps, whose class
    # coordinates read the reduced columns of d^{k-1} that the echelon borrows
    tf, tg = twisted_ses(rng, random_complex(rng, 0, 2),
                         Complex({k: rng.randint(0, 3) for k in range(3)}))
    maps = [*dc.d1.values(), *dc.d2.values(), *t.diffs.values()]
    maps += [m for h in (f, g, tf, tg) for m in (*h.blocks.values(), *h.source.diffs.values(),
                                                 *h.target.diffs.values())]
    before = fingerprints(*maps)
    homology_dims(t), spectral_pages(dc, 2), les_from_ses(f, g), les_from_ses(tf, tg)
    assert fingerprints(*maps) == before


SO3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
QUADRATIC = [(1, 2, 1, (1, 1))]
RATIONAL = [(1, 2, "1/2", (0, 0, 1)), (2, 3, "-2/3", (1, 0, 0))]


def tightest_cap(pi, w: int) -> int:
    """The largest |alpha| of the weight-w slice (0 if it is empty): the
    smallest cap it allows, so the radix cap + 1 of its monomial keys is as
    small as it can be."""
    return max(0, *(w - (pi.degree - 1) * p for p in range(pi.n + 1)))


def test_stein_slices_match_fraction_builder():
    """At a generous cap, at the tightest cap and at one above it."""
    for n, terms, weights, cap in ((3, SO3, range(0, 9), 40),
                                   (2, QUADRATIC, range(-2, 9), 8),
                                   (3, RATIONAL, range(0, 7), 40)):
        pi = PolyBivector.from_terms(n, terms)
        for w in weights:
            top = tightest_cap(pi, w)
            for c in (cap, top, top + 1):
                assert stein_complex(n, pi, w, c).diffs == \
                    oracle_stein_differentials(pi, w, c), (terms, w, c)


@st.composite
def stein_slices(draw):
    """A homogeneous bivector on C^n, n = 2..4, of degree 0..2, and a weight
    whose slice is not empty.  The raw terms have random ordered pairs (i > j
    normalizes by antisymmetry) and rational coefficients; each may be
    repeated as is, with i and j swapped (which cancels it), or swapped and
    negated (which doubles it)."""
    n, degree = draw(st.integers(2, 4)), draw(st.integers(0, 2))
    terms = []
    for _ in range(draw(st.integers(2, 5))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        alpha = [0] * n
        for g in draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree)):
            alpha[g] += 1
        terms.append((i, j, draw(rationals), tuple(alpha)))
    for i, j, c, alpha in list(terms):
        copy = draw(st.sampled_from([None, None, (i, j, c), (j, i, c), (j, i, -c)]))
        if copy is not None:
            terms.append((*copy, alpha))
    w = draw(st.integers(-2 if degree == 0 else 0, 3))
    return PolyBivector.from_terms(n, terms, degree=degree), w


NOT_POISSON_LINEAR = [(1, 2, 1, (1, 0, 0)), (1, 3, 1, (0, 0, 1))]
NOT_POISSON_QUADRATIC = [(1, 2, 1, (2, 0, 0)), (1, 3, 1, (0, 0, 2))]


def built_slice(pi, w: int, cap: int) -> dict:
    """The builder's differentials of the weight-w slice, past the entries'
    refusal: the closed form of delpi holds for any bivector."""
    return _complex_of(*_slice_sources(_KoszulTables(pi, cap), w)).diffs


@settings(max_examples=150, deadline=None)
@given(stein_slices(), st.sampled_from([None, 0, 1]))
@example((PolyBivector.from_terms(3, NOT_POISSON_LINEAR), 1), None)
@example((PolyBivector.from_terms(3, NOT_POISSON_QUADRATIC), 2), None)  # D² = 0 here
@example((PolyBivector.from_terms(3, NOT_POISSON_QUADRATIC), 3), None)  # but not here
@example((PolyBivector.from_terms(3, SO3), 4), 0)
def test_stein_slices_match_oracle_on_random_bivectors(slice_, above_tightest):
    """The closed-form builder against the composition l_pi∘del - del∘l_pi,
    entry for entry, on every draw, Poisson or not; ``stein_complex``
    returns that slice exactly when [pi, pi] = 0 by the Schouten oracle,
    and refuses the bivector otherwise.  The cap is 40, or the tightest
    cap of the slice plus 0 or 1."""
    pi, w = slice_
    cap = 40 if above_tightest is None else tightest_cap(pi, w) + above_tightest
    assume(sum(map(len, slice_basis(pi.n, pi.degree, w, cap).values())) <= 120)
    expected = oracle_stein_differentials(pi, w, cap)
    assert built_slice(pi, w, cap) == expected
    if oracle_jacobiator(pi):
        with pytest.raises(NotPoissonOnSlice):
            stein_complex(pi.n, pi, w, cap)
    else:
        assert stein_complex(pi.n, pi, w, cap).diffs == expected


def test_non_poisson_outcomes_are_pinned():
    """Both entries refuse a non-Poisson bivector at every weight, even
    where its slice squares to zero (NOT_POISSON_QUADRATIC at weights
    0..2, whose homology would be the KB homology of nothing), naming
    the first triple at which the Jacobiator is nonzero."""
    message = r"^bivector not Poisson: Jacobiator nonzero at \(i, j, k\) = \(1, 2, 3\)$"
    for terms in (NOT_POISSON_LINEAR, NOT_POISSON_QUADRATIC):
        pi = PolyBivector.from_terms(3, terms)
        for w in range(7):
            with pytest.raises(NotPoissonOnSlice, match=message):
                stein_complex(3, pi, w, 40)
        for weights in (range(3), range(7)):
            with pytest.raises(NotPoissonOnSlice, match=message):
                stein_homology(3, terms, weights, 40)


SMALL_COEFFS = [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def small_bivectors(draw):
    """A homogeneous bivector on C^n, n = 2..4, of degree 0..2, Poisson or
    not: a few terms with small coefficients, the Jacobian bivector
    {z_a, z_b} = ∂F/∂z_c (cyclic in a < b < c) of a random F of degree
    degree + 1 (Poisson for every F), or the sum of the two."""
    n, degree = draw(st.integers(2, 4)), draw(st.integers(0, 2))

    def monomial(size):
        alpha = [0] * n
        for g in draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)):
            alpha[g] += 1
        return alpha

    terms = []
    kind = draw(st.sampled_from(["sparse", "jacobian", "both"]))
    if kind != "jacobian":
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.permutations(range(1, n + 1)))[:2]
            terms.append((i, j, draw(st.sampled_from(SMALL_COEFFS)), tuple(monomial(degree))))
    if kind != "sparse" and n >= 3:
        a, b, c = sorted(draw(st.permutations(range(1, n + 1)))[:3])
        for _ in range(draw(st.integers(1, 3))):
            f, coeff = monomial(degree + 1), draw(st.sampled_from(SMALL_COEFFS))
            for x, y, h in ((a, b, c), (b, c, a), (c, a, b)):
                if f[h - 1]:
                    grad = f[:h - 1] + [f[h - 1] - 1] + f[h:]
                    terms.append((x, y, coeff * f[h - 1], tuple(grad)))
    return PolyBivector.from_terms(n, terms, degree=degree)


@settings(max_examples=60, deadline=None)
@given(small_bivectors())
def test_stored_terms_round_trip_through_the_constructor(pi):
    """The constructor takes ``from_terms``' stored form as it is and keeps
    a fresh copy of it, inner dicts included."""
    again = PolyBivector(pi.n, pi.degree, pi.terms)
    assert again.terms == pi.terms and again.degree == pi.degree
    assert again.terms is not pi.terms
    assert not any(again.terms[key] is poly for key, poly in pi.terms.items())


@settings(max_examples=150, deadline=None)
@given(small_bivectors())
def test_is_poisson_is_the_schouten_oracle_and_proves_every_slice(pi):
    """``is_poisson`` against [pi, pi] from the Schouten bracket; when it
    holds, the composed Fraction differentials square to zero on every
    slice of weight at most 8 with up to 200 basis elements.  The squares
    are sparse ``Matrix`` products (``test_product_matches_oracle``): the
    dense oracle product takes seconds on the larger slices."""
    poisson = pi.is_poisson()
    assert poisson == (not oracle_jacobiator(pi))
    if not poisson:
        return
    cap = 40
    for w in range(-2 if pi.degree == 0 else 0, 9):
        if sum(map(len, slice_basis(pi.n, pi.degree, w, cap).values())) > 200:
            continue
        diffs = oracle_stein_differentials(pi, w, cap)
        assert all((diffs[k + 1] * m).is_zero() for k, m in diffs.items() if k + 1 in diffs), w


@settings(max_examples=100, deadline=None)
@given(small_bivectors())
def test_stein_homology_matches_the_uncleared_dense_oracle(pi):
    """For a Poisson bivector ``stein_homology`` eliminates each column as it
    is built and skips the columns that clearing discards; the oracle
    composes the Fraction differentials over ``slice_basis`` and takes each
    one's rank by dense Bareiss, clearing nothing.  Slices with more than
    200 basis elements are left to the sparse tests: dense Bareiss takes
    seconds on them."""
    assume(pi.is_poisson())
    cap, n = 12, pi.n
    weights = range(-2 if pi.degree == 0 else 0, 6)
    table = stein_homology(n, pi, weights, cap)
    for w in weights:
        basis = slice_basis(n, pi.degree, w, cap)
        if sum(map(len, basis.values())) > 200:
            continue
        spaces = {-p: len(monos) for p, monos in basis.items()}
        h = oracle_homology_dims(Complex(spaces, oracle_stein_differentials(pi, w, cap)))
        assert {k: v for (x, k), v in table.items() if x == w} == \
            {n - p: h.get(-p, 0) for p in range(n + 1)}, w


@pytest.mark.parametrize("a, b, c", list(permutations((1, 2, 3))))
def test_is_poisson_reads_every_cyclic_term(a, b, c):
    """{z_a, z_b} = z_a and {z_a, z_c} = z_b: one cyclic term of the
    Jacobiator at (1, 2, 3) is z_b, the other two vanish, and the six
    orderings put that term at each cyclic place."""
    e = lambda g: tuple(int(x == g) for x in (1, 2, 3))
    pi = PolyBivector.from_terms(3, [(a, b, 1, e(a)), (a, c, 1, e(b))])
    (jac,) = oracle_jacobiator(pi).items()
    assert jac[0] == (1, 2, 3) and list(jac[1].items()) in ([(e(b), 1)], [(e(b), -1)])
    assert not pi.is_poisson()


# {z1, z3} = z2 and {z2, z4} = z1 + z2: [pi, pi] ≠ 0 at (1, 3, 4) and
# (2, 3, 4) only, so the least failing triple is neither (1, 2, 3) nor the last
TWO_FAILURES = [(1, 3, 1, (0, 1, 0, 0)), (2, 4, 1, (1, 0, 0, 0)), (2, 4, 1, (0, 1, 0, 0))]


@settings(max_examples=150, deadline=None)
@given(small_bivectors())
@example(PolyBivector.from_terms(4, TWO_FAILURES))
def test_stein_entries_refuse_exactly_the_non_poisson_bivectors(pi):
    """Both entries refuse pi exactly when the Schouten oracle's [pi, pi] is
    nonzero, naming its least (i, j, k), and refuse it before the weights
    and the cap are read (a cap of -1 is not reported)."""
    jacobiator, n = oracle_jacobiator(pi), pi.n
    calls = (lambda cap: stein_complex(n, pi, 0, cap),
             lambda cap: stein_homology(n, pi, range(2), cap))
    if not jacobiator:
        for call in calls:
            call(8)
        return
    message = f"bivector not Poisson: Jacobiator nonzero at (i, j, k) = {min(jacobiator)}"
    for call in calls:
        for cap in (8, -1):
            with pytest.raises(NotPoissonOnSlice) as info:
                call(cap)
            assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(small_bivectors())
def test_twisted_poisson_cohomology_is_the_kb_homology(pi):
    """Contraction with dz_1∧…∧dz_n carries d_π - X∧· on polyvectors to
    delpi on forms, so at each weight H^k of the twisted Lichnerowicz
    complex is the KB homology H_k, and so is H^k of the untwisted one
    when the modular vector field X is zero.  The oracle shares no
    formula with delpi.  Slices with more than 150 basis elements are
    left out: dense Bareiss takes seconds on them."""
    assume(not oracle_jacobiator(pi))
    n, cap, unimodular = pi.n, 12, not oracle_modular_vector(pi)
    weights = range(-2 if pi.degree == 0 else 0, 4)
    table = stein_homology(n, pi, weights, cap)
    for w in weights:
        if sum(map(len, slice_basis(n, pi.degree, w, cap).values())) > 150:
            continue
        kb = {k: table[(w, k)] for k in range(n + 1)}
        assert oracle_poisson_cohomology(pi, w) == kb, w
        if unimodular:
            assert oracle_poisson_cohomology(pi, w, twisted=False) == kb, w


AFF1 = [(1, 2, 1, (0, 1))]  # {z1, z2} = z2, X = -∂/∂z1
# {z_a, z_b} = ∂F/∂z_c, (a, b, c) cyclic, F = z1³ + z2³ + z3³
FERMAT = [(1, 2, 3, (0, 0, 2)), (2, 3, 3, (2, 0, 0)), (3, 1, 3, (0, 2, 0))]


def test_poisson_cohomology_of_aff1_needs_the_twist():
    """aff(1)* is not unimodular: only the twisted complex is the KB
    homology, 0, 1, 1 at every weight; the untwisted one is 1, 1, 0 at
    weight 0 and zero after."""
    aff = PolyBivector.from_terms(2, AFF1)
    table = stein_homology(2, aff, range(8), 40)
    for w in range(8):
        kb = {k: table[(w, k)] for k in range(3)}
        assert kb == oracle_poisson_cohomology(aff, w) == {0: 0, 1: 1, 2: 1}, w
        assert oracle_poisson_cohomology(aff, w, twisted=False) == \
            ({0: 1, 1: 1, 2: 0} if w == 0 else {0: 0, 1: 0, 2: 0}), w


def test_poisson_cohomology_of_the_fermat_cubic():
    """A Jacobian structure is unimodular, so both complexes give the KB
    homology.  H_3 repeats 3, 3, 2 from weight 1 on, and the Casimirs
    1, F, F² (the z^α dz_1∧dz_2∧dz_3 of weight |α| + 3) put H_0 = 1
    exactly at weights 3, 6 and 9."""
    fermat = PolyBivector.from_terms(3, FERMAT)
    table = stein_homology(3, fermat, range(10), 40)
    assert [table[(w, 3)] for w in range(10)] == [1, 3, 3, 2, 3, 3, 2, 3, 3, 2]
    assert [table[(w, 0)] for w in range(10)] == [0, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    for w in range(10):
        kb = {k: table[(w, k)] for k in range(4)}
        assert oracle_poisson_cohomology(fermat, w) == kb, w
        assert oracle_poisson_cohomology(fermat, w, twisted=False) == kb, w


def assert_pages_match(dc, r_max):
    new, old = spectral_pages(dc, r_max), oracle_spectral_pages(dc, r_max)
    assert new.pages == old.pages
    assert new.degeneration_page == old.degeneration_page


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_pages_match_oracle_on_random_bicomplexes(seed, r_max):
    assert_pages_match(random_double_complex(random.Random(seed)), r_max)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pages_match_oracle_on_staircase_products(seed):
    rng = random.Random(seed)
    dc = tensor_double(staircase_double_complex(), random_double_complex(rng, max_dim=2))
    assert_pages_match(dc, 3)


def test_staircase_degenerates_at_page_four():
    dc = staircase_double_complex()
    sp = spectral_pages(dc, 4)
    assert sp.page(1) == sp.page(3) == {(0, 2): 1, (3, 0): 1}
    assert sp.page(4) == {} == sp.infinity
    assert sp.degeneration_page == 4
    assert_pages_match(dc, 4)


def test_pages_match_oracle_on_kb_models():
    heis3 = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    for model in (heis3, torus(3, {(1, 2): 1})):
        assert_pages_match(kb_double_complex(model), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_total_differential_squares_to_zero_under_oracle_product(seed, product):
    """total_complex trusts the bicomplex identities; D∘D = 0 must follow,
    on random bicomplexes and on their Koszul-signed tensor products."""
    rng = random.Random(seed)
    if product:
        dc = tensor_double(random_double_complex(rng, 2), random_double_complex(rng, 2))
    else:
        dc = random_double_complex(rng)
    t = total_complex(dc)
    for k in t.diffs:
        assert oracle_product(t.d(k + 1), t.d(k)).is_zero()


def assert_les_matches(f, g):
    new, old = les_from_ses(f, g), oracle_les_from_ses(f, g)
    assert new.entries == old.entries
    assert new.maps == old.maps


def test_les_matches_per_column_oracle_on_twisted_heis3_torus3():
    """The benchmark's LES: heis3 twisted by cycles over torus3."""
    heis3 = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    a = total_complex(kb_double_complex(heis3))
    c = total_complex(kb_double_complex(torus(3, {(1, 2): 1})))
    for seed in range(3):
        f, g = twisted_ses(random.Random(seed), a, c)
        assert_les_matches(f, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 2), (-2, 1), (0, 3)]),
       st.booleans())
def test_les_matches_per_column_oracle_on_random_split_ses(seed, degrees, twisted):
    """Split sequences twisted by a coboundary (zero connecting maps) and
    by cycles of A over a C with zero differential (nonzero ones)."""
    rng = random.Random(seed)
    if twisted:
        lo, hi = degrees
        c = Complex({k: rng.randint(0, 3) for k in range(lo, hi + 1)})
        f, g = twisted_ses(rng, random_complex(rng, lo, hi), c)
    else:
        f, g = random_split_ses(rng, *degrees)
    assert_les_matches(f, g)


# --- the model validator against the former Fraction-product one ---

OPERATORS = {"del_blocks": (1, 0), "delbar_blocks": (0, 1), "contraction_blocks": (-2, 0)}


def _rational(rng):
    """A nonzero rational with denominator up to 12."""
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 12))


def _with_blocks(m, **blocks):
    ops = {field: blocks.get(field, getattr(m, field)) for field in OPERATORS}
    return DolbeaultPoissonModel(m.n, m.basis, name=m.name, **ops)


def random_rational_model(rng):
    """Random dimensions and random sparse blocks with non-integer entries;
    mostly not a valid model."""
    n = rng.randint(2, 3)
    basis = {(p, q): [f"e{p}{q}{i}" for i in range(rng.randint(0, 3))]
             for p in range(n + 1) for q in range(n + 1)}
    dims = {cell: len(labels) for cell, labels in basis.items()}
    ops = {}
    for field, (dp, dq) in OPERATORS.items():
        blocks = {}
        for (p, q), cols in dims.items():
            rows = dims.get((p + dp, q + dq), 0)
            if rows and cols and rng.random() < 0.8:
                blocks[(p, q)] = Matrix(rows, cols, {
                    (i, j): _rational(rng) for i in range(rows) for j in range(cols)
                    if rng.random() < 0.5})
        ops[field] = blocks
    return DolbeaultPoissonModel(n, basis, name="random", **ops)


def rescaled(rng, m):
    """m in a basis rescaled by random rationals, cell by cell: every block
    B from cell s to cell t becomes A_t B A_s^{-1} for diagonal A, so the
    identities hold exactly when they hold on m, and the entries are no
    longer integers."""
    scale = {cell: [_rational(rng) for _ in range(d)] for cell, d in m.dims.items()}
    blocks = {}
    for field, (dp, dq) in OPERATORS.items():
        blocks[field] = {
            (p, q): Matrix(b.rows, b.cols, {
                (i, j): scale[(p + dp, q + dq)][i] * v / scale[(p, q)][j]
                for (i, j), v in b.entries.items()})
            for (p, q), b in getattr(m, field).items()}
    return _with_blocks(m, **blocks)


def mutated(rng, m):
    """m with one entry of one stored block changed by a rational."""
    field = rng.choice([f for f in OPERATORS if getattr(m, f)])
    op = getattr(m, field)
    cell = rng.choice(sorted(op))
    b = op[cell]
    key = (rng.randrange(b.rows), rng.randrange(b.cols))
    entries = dict(b.entries)
    entries[key] = b[key] + _rational(rng)
    return _with_blocks(m, **{field: {**op, cell: Matrix(b.rows, b.cols, entries)}})


ZOO = [
    lambda: torus(2, {(1, 2): 1}),
    lambda: parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}),
    lambda: parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}),
    lambda: product_model(torus(1), parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})),
]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "rescaled", "mutated", "rescaled-mutated"]))
def test_validate_model_matches_fraction_product_oracle(seed, kind):
    """The report (identity, ok, first bidegree, residual) and the Koszul
    blocks equal those of the former validator, on random rational models,
    on zoo models in rescaled bases, and on single-entry mutations."""
    rng = random.Random(seed)
    if kind == "random":
        m = random_rational_model(rng)
    else:
        m = ZOO[rng.randrange(len(ZOO))]()
        if kind.startswith("rescaled"):
            m = rescaled(rng, m)
        if kind.endswith("mutated"):
            m = mutated(rng, m)
    report, kos = oracle_validate_model(m)
    assert validate_model(m).checks == report.checks
    if report.ok:
        assert koszul_differential(m) == kos


@settings(max_examples=60, deadline=None)
@given(small_bivectors())
def test_shared_tables_match_fresh_slices_at_every_cap(pi):
    """A slice built at its tightest cap and at cap 12 (keys in radix
    tightest + 1 and 13) has the same differentials, Poisson or not.
    ``stein_homology`` shares one set of tables and of monomial keys
    across its weights: for a Poisson bivector each weight must come out
    as a fresh ``stein_complex`` gives it, and any other is refused."""
    n, cap = pi.n, 12
    weights = range(-2 if pi.degree == 0 else 0, 5)
    for w in weights:
        assert built_slice(pi, w, tightest_cap(pi, w)) == built_slice(pi, w, cap), w
    if oracle_jacobiator(pi):
        with pytest.raises(NotPoissonOnSlice, match="^bivector not Poisson: "):
            stein_homology(n, pi, weights, cap)
        return
    expected = {}
    for w in weights:
        h = homology_dims(stein_complex(n, pi, w, cap))
        expected.update({(w, n - p): h.get(-p, 0) for p in range(n + 1)})
    assert stein_homology(n, pi, weights, cap) == expected
