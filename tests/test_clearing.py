"""Clearing in the complex reductions against the unclearing oracles.

``homology_dims``, ``kb_homology`` and ``spectral_pages`` reduce d^k with
the pivot rows of d^{k-1} cleared (``complexes._cleared_owners``), the
last two as the columns are drawn from a bicomplex
(``complexes._total_columns``).  Their results must equal one Bareiss rank
per differential (``oracle_homology_dims``) and the subspace-arithmetic
pages (``oracle_spectral_pages``), ``total_complex`` must equal the dense
assembly (``oracle_total_complex``), and the lemma behind clearing, that
each cleared column reduces to zero in the full reduction, is checked on
its own.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbhom.complexes import (
    Complex,
    _cleared_owners,
    _homology,
    _total_sources,
    homology_dims,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom.engine import HodgeDiamond, kb_double_complex, kb_homology
from kbhom.linalg import Matrix, _owners, _stored_columns
from kbhom.models import product_model
from kbhom.stein import PolyBivector, stein_complex
from kbhom.zoo import hodge_formal, parallelizable, point, torus
from support import (
    dc_from_complex,
    elementary_complex,
    oracle_homology_dims,
    oracle_spectral_pages,
    oracle_total_complex,
    rescaled,
)

SO3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
QUADRATIC = [(1, 2, 1, (1, 1))]

ZOO = {
    "point": point,
    "torus1": lambda: torus(1),
    "torus2-pi": lambda: torus(2, {(1, 2): 1}),
    "torus3-pi": lambda: torus(3, {(1, 2): 1}),
    "heis2": lambda: parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}),
    "heis3": lambda: parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}),
    "heis4": lambda: parallelizable(4, {(1, 2, 3): 1}, {(1, 2): 1}),
    "heis3-rational": lambda: parallelizable(3, {(1, 2, 3): Fraction(2, 3)},
                                             {(1, 2): Fraction(-1, 7)}),
    "filiform4": lambda: parallelizable(4, {(1, 2, 3): 1, (1, 3, 4): 1}),
    "torus1-x-heis2": lambda: product_model(
        torus(1), parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})),
    "hodge-p1": lambda: hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})),
    "hodge-p2": lambda: hodge_formal(HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})),
}


def zoo_complexes(model):
    """The model's KB total complex, as the dense oracle builds it too, and
    its Hodge columns under delbar."""
    total = total_complex(kb_double_complex(model))
    assert total == oracle_total_complex(kb_double_complex(model))
    yield total
    n = model.n
    for p in range(n + 1):
        yield Complex({q: model.dim(p, q) for q in range(n + 1)},
                      {q: model.delbar_at(p, q) for q in range(n + 1)})


def recording(m: Matrix, drawn: list):
    """A column source of m that appends to ``drawn`` each column it yields."""
    def columns(skip):
        for j, col in _stored_columns(m, skip):
            drawn.append(j)
            yield j, col
    return columns


def assert_clearing_is_exact(c: Complex) -> int:
    """The lemma behind clearing: every pivot row of d^{k-1} indexes a
    column of d^k that the full reduction reduces to zero, so owns nothing;
    the owners found with clearing are those of the full reductions; and
    clearing draws every stored column of d^k but those.  Returns the
    number of columns cleared."""
    full = {k: _owners(_stored_columns(m)) for k, m in c.diffs.items()}
    cleared = 0
    for k, owner in full.items():
        if k - 1 in full:
            for i in full[k - 1]:
                assert i not in owner.values(), (k, i)
                cleared += 1
    drawn = {k: [] for k in c.diffs}
    assert _cleared_owners([(k, recording(m, drawn[k]))
                            for k, m in sorted(c.diffs.items())]) == full
    for k, m in c.diffs.items():
        assert drawn[k] == sorted(set(m._lines) - set(full.get(k - 1, ()))), k
    return cleared


@st.composite
def elementary_complexes(draw, length=5, count=3):
    """``(c, homology)``: a sum of lone Q's and Q -> Q in random bases
    (``support.elementary_complex``), up to ``count`` of each per degree
    over up to ``length`` degrees, and its known homology, on the degrees
    where c is not zero."""
    lo, length = draw(st.integers(-2, 1)), draw(st.integers(1, length))
    degrees = range(lo, lo + length)
    homology = {k: draw(st.integers(0, count)) for k in degrees}
    edges = {k: draw(st.integers(0, count)) for k in degrees[:-1]}
    c = elementary_complex(random.Random(draw(st.integers(0, 2**32 - 1))), homology, edges)
    return c, {k: homology[k] for k in c.degrees()}


@settings(max_examples=150, deadline=None)
@given(elementary_complexes())
def test_homology_of_elementary_complexes_is_known(case):
    c, homology = case
    assert homology_dims(c) == homology == oracle_homology_dims(c)
    assert_clearing_is_exact(c)


@settings(max_examples=30, deadline=None)
@given(elementary_complexes(3, 2), elementary_complexes(3, 2), st.integers(1, 3))
def test_pages_of_elementary_bicomplexes_match_oracle(row, col, r_max):
    dc = tensor_double(dc_from_complex(row[0], 1), dc_from_complex(col[0], 2))
    new, old = spectral_pages(dc, r_max), oracle_spectral_pages(dc, r_max)
    assert new.pages == old.pages
    assert new.degeneration_page == old.degeneration_page


@st.composite
def rescaled_bicomplexes(draw):
    """A row complex ⊗ a column complex, each elementary (``support``) in
    a rescaled basis (``support.rescaled``), so the blocks are fractional
    and, each complex having an edge from degree 0, some total columns
    are fed by both d1 and d2, with parts over different denominators."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for direction in (1, 2):
        homology = {k: draw(st.integers(0, 2)) for k in range(3)}
        edges = {0: draw(st.integers(1, 2)), 1: draw(st.integers(0, 2))}
        parts.append(dc_from_complex(rescaled(rng, elementary_complex(rng, homology, edges)),
                                     direction))
    return tensor_double(*parts)


@settings(max_examples=40, deadline=None)
@given(rescaled_bicomplexes(), st.integers(1, 3))
def test_total_columns_match_the_dense_oracles(dc, r_max):
    total = oracle_total_complex(dc)
    assert total_complex(dc) == total
    layouts, sources = _total_sources(dc)
    assert _homology({k: t for k, (_, t) in layouts.items()}, sources) \
        == oracle_homology_dims(total)
    new, old = spectral_pages(dc, r_max), oracle_spectral_pages(dc, r_max)
    assert new.pages == old.pages
    assert new.degeneration_page == old.degeneration_page


@pytest.mark.parametrize("w", range(17))
def test_so3_slices_match_oracle(w):
    c = stein_complex(3, PolyBivector.from_terms(3, SO3), w, 40)
    assert homology_dims(c) == oracle_homology_dims(c)
    cleared = assert_clearing_is_exact(c)
    assert cleared or w == 0  # w = 0 has one differential, nothing to clear


def test_quadratic_slices_match_oracle():
    pi = PolyBivector.from_terms(2, QUADRATIC)
    for w in range(9):
        c = stein_complex(2, pi, w, 8)
        assert homology_dims(c) == oracle_homology_dims(c), w
        assert_clearing_is_exact(c)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_totals_and_hodge_columns_match_oracle(name):
    model = ZOO[name]()
    total = oracle_total_complex(kb_double_complex(model))
    assert kb_homology(model).dims == {k + model.n: h for k, h in
                                       oracle_homology_dims(total).items() if h}
    for c in zoo_complexes(model):
        assert homology_dims(c) == oracle_homology_dims(c)
        assert_clearing_is_exact(c)


def test_cleared_columns_are_never_drawn():
    # d^0 owns pivot row 1, so column 1 of d^1, which is minus column 0 and
    # not zero, is never drawn from its source; the owners are the full ones
    d0 = Matrix.from_rows([[1], [1], [0]])
    d1 = Matrix.from_rows([[1, -1, 0], [0, 0, 1]])
    drawn = {0: [], 1: []}
    owners = _cleared_owners([(0, recording(d0, drawn[0])), (1, recording(d1, drawn[1]))])
    assert owners == {0: {1: 0}, 1: {0: 0, 1: 2}}
    assert drawn == {0: [0], 1: [0, 2]}
    assert _owners(_stored_columns(d1)) == {0: 0, 1: 2}
