"""The integer fast paths against the dense Fraction oracles in support.py.

Every output compared here is unique (rank, the unit-at-free-column kernel
basis, the greedy leftmost pivot columns, the solution supported on the
pivot columns, page dimensions, matrix products, slice differentials in
the fixed monomial order), so the implementations must agree entry for
entry.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kbhom.complexes import (
    Complex,
    les_from_ses,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom.engine import kb_double_complex
from kbhom.linalg import (
    Matrix,
    Subspace,
    complement_in,
    kernel_basis,
    rank,
    solve,
    solve_columns,
)
from kbhom.stein import PolyBivector, stein_complex
from kbhom.zoo import parallelizable, torus
from support import (
    oracle_complement_in,
    oracle_kernel_basis,
    oracle_les_from_ses,
    oracle_product,
    oracle_rank,
    oracle_solve,
    oracle_spanned_by,
    oracle_spectral_pages,
    oracle_stein_differentials,
    random_complex,
    random_double_complex,
    random_split_ses,
    staircase_double_complex,
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
    assert Subspace.spanned_by(m).basis == oracle_spanned_by(m).basis


@SETTINGS
@given(st.data())
def test_solve_matches_oracle(data):
    m = data.draw(deficient_matrices())
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    consistent = (m * Matrix(m.cols, 1, {(j, 0): v for j, v in enumerate(x)})).column(0)
    arbitrary = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    for b in (consistent, arbitrary):
        assert solve(m, b) == oracle_solve(m, b)


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
            columns.append(oracle_product(m, Matrix.from_column(x)).column(0)
                           if m.cols else [Fraction(0)] * m.rows)
        else:
            columns.append(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    rhs = Matrix(m.rows, len(columns), {(i, j): v for j, col in enumerate(columns)
                                        for i, v in enumerate(col)})
    assert solve_columns(m, rhs) == [oracle_solve(m, col) for col in columns]


def test_solve_columns_edge_shapes():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])          # rank 1, dependent columns
    rhs = Matrix.from_rows([[1, 1, 0], [2, 3, 0]])         # solvable, not, zero
    assert solve_columns(m, rhs) == [oracle_solve(m, rhs.column(j)) for j in range(3)]
    assert solve_columns(m, rhs)[1] is None
    assert solve_columns(m, Matrix(2, 0)) == []
    assert solve_columns(Matrix(0, 3), Matrix(0, 2)) == [[Fraction(0)] * 3] * 2
    assert solve_columns(Matrix(2, 0), Matrix.from_rows([[0, 0], [0, 1]])) == [[], None]


@SETTINGS
@given(st.data())
def test_complement_matches_oracle(data):
    m = data.draw(deficient_matrices())
    within = Subspace.spanned_by(m)
    mix = data.draw(sparse_matrices(m.cols, data.draw(st.integers(0, 4))))
    sub = Subspace.spanned_by(m * mix)
    assert complement_in(sub, within) == oracle_complement_in(sub, within)


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
    consistent = oracle_product(m, Matrix.from_column(x)).column(0)
    arbitrary = data.draw(st.lists(big_rationals, min_size=m.rows, max_size=m.rows))
    for b in (consistent, arbitrary):
        assert solve(m, b) == oracle_solve(m, b)


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


SO3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
QUADRATIC = [(1, 2, 1, (1, 1))]
RATIONAL = [(1, 2, "1/2", (0, 0, 1)), (2, 3, "-2/3", (1, 0, 0))]


def test_stein_slices_match_fraction_builder():
    for n, terms, weights, cap in ((3, SO3, range(0, 9), 40),
                                   (2, QUADRATIC, range(-2, 9), 8),
                                   (3, RATIONAL, range(0, 7), 40)):
        pi = PolyBivector.from_terms(n, terms)
        for w in weights:
            assert stein_complex(n, pi, w, cap).diffs == \
                oracle_stein_differentials(pi, w, cap), (terms, w)


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
