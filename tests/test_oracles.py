"""The sparse column reduction against the dense oracles in support.py.

Every output compared here is unique (rank, the unit-at-free-column kernel
basis, the greedy leftmost pivot columns, the solution supported on the
pivot columns, page dimensions), so the two implementations must agree
entry for entry.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kbhom.complexes import spectral_pages, tensor_double
from kbhom.engine import kb_double_complex
from kbhom.linalg import Matrix, Subspace, complement_in, kernel_basis, rank, solve
from kbhom.zoo import parallelizable, torus
from support import (
    oracle_complement_in,
    oracle_kernel_basis,
    oracle_rank,
    oracle_solve,
    oracle_spanned_by,
    oracle_spectral_pages,
    random_double_complex,
    staircase_double_complex,
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
def test_complement_matches_oracle(data):
    m = data.draw(deficient_matrices())
    within = Subspace.spanned_by(m)
    mix = data.draw(sparse_matrices(m.cols, data.draw(st.integers(0, 4))))
    sub = Subspace.spanned_by(m * mix)
    assert complement_in(sub, within) == oracle_complement_in(sub, within)


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
