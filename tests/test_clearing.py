"""Clearing in the complex reductions against the unclearing oracles.

``homology_dims``, ``kb_homology`` and ``spectral_pages`` reduce d^k with
the pivot rows of d^{k-1} cleared (``complexes._cleared_owners``), the
last two as the columns are drawn from a bicomplex
(``complexes._total_columns``).  Their results must equal one Bareiss rank
per differential (``oracle_homology_dims``) and the subspace-arithmetic
pages (``oracle_spectral_pages``), ``total_complex`` must equal the dense
assembly (``oracle_total_complex``), and the lemma behind clearing, that
each cleared column reduces to zero in the full reduction, is checked on
its own.  Every column source keeps the column-stream contract of
``kbhom.linalg`` and stands for its matrix, and the owners of a stream do
not depend on the scale of its columns.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbhom.complexes import (
    Complex,
    _class_coords,
    _cleared_owners,
    _homology,
    _homology_bases,
    _total_sources,
    homology_dims,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom.engine import HodgeDiamond, kb_double_complex, kb_homology
from kbhom.linalg import Matrix, _from_columns, _owners, _stored_columns
from kbhom.models import product_model
from kbhom.stein import PolyBivector, _KoszulTables, _slice_sources, stein_complex
from kbhom.zoo import hodge_formal, parallelizable, point, torus
from support import (
    dc_from_complex,
    elementary_complex,
    oracle_homology_dims,
    oracle_pivot_rows,
    oracle_product,
    oracle_rank,
    oracle_spectral_pages,
    oracle_stein_differentials,
    oracle_total_complex,
    random_split_ses,
    rescaled,
)

SO3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
# a Lie-Poisson bivector of the same shape, with coefficients over L = 105
RATIONAL_SO3 = [(1, 2, Fraction(2, 3), (0, 0, 1)), (2, 3, Fraction(-1, 5), (1, 0, 0)),
                (3, 1, Fraction(3, 7), (0, 1, 0))]
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
        for j, col, d in _stored_columns(m, skip):
            drawn.append(j)
            yield j, col, d
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


def assert_classes_read_off_the_pivots(c: Complex) -> None:
    """The lemma behind ``_homology_bases``: per degree k, the reduced
    pivot columns of d^{k-1} (the echelon columns with no class
    coordinates) and the representatives end at distinct rows, each column
    at its key; there are dim Z^k of them, all cycles, rank d^{k-1} of them
    boundaries, and as many representatives as the oracle's dim H^k."""
    if not c.spaces:
        return
    homology = oracle_homology_dims(c)
    degrees = c.degrees()
    for k, (classes, reps) in _homology_bases(c, range(degrees[0], degrees[-1] + 1)).items():
        rows = sorted(classes.pivots)
        assert classes.combos.keys() == classes.pivots.keys() and not classes.free, k
        assert all(i == max(classes.pivots[i]) for i in rows), k
        echelon = Matrix(c.dim(k), len(rows), {(i, n): v for n, row in enumerate(rows)
                                               for i, v in classes.pivots[row].items()})
        assert len(rows) == c.dim(k) - oracle_rank(c.d(k)) == oracle_rank(echelon), k
        assert oracle_product(c.d(k), echelon).is_zero()
        assert sum(not classes.combos[i] for i in rows) == oracle_rank(c.d(k - 1)), k
        assert reps.cols == classes.cols == homology.get(k, 0), k
        assert oracle_product(c.d(k), reps).is_zero()


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), elementary_complexes())
def test_homology_classes_are_read_off_the_pivots(seed, case):
    """On the three complexes of a random split sequence and on an
    elementary complex (pivots anywhere, homology known)."""
    f, g = random_split_ses(random.Random(seed), -1, 2)
    for c in (f.source, f.target, g.target, case[0]):
        assert_classes_read_off_the_pivots(c)


def test_class_coords_refuse_a_non_cycle_where_homology_is_zero():
    """Q -> Q has H^0 = 0, and its e_0 is not a cycle: the class
    coordinates refuse it there as in every other degree, and take the
    zero cycle to no coordinates."""
    c = Complex({0: 1, 1: 1}, {0: Matrix(1, 1, {(0, 0): 1})})
    bases = _homology_bases(c, range(0, 2))
    assert bases[0][1].cols == 0
    with pytest.raises(AssertionError, match="vector is not a cycle modulo boundaries"):
        _class_coords(bases[0], Matrix(1, 1, {(0, 0): 1}))
    assert _class_coords(bases[0], Matrix(1, 1)) == Matrix(0, 1)


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
    assert _homology(*_total_sources(dc)) == oracle_homology_dims(total)
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


def assert_stream(source, rows: int, cols: int, m: Matrix) -> None:
    """``source`` keeps the column-stream contract of ``kbhom.linalg`` and
    stands for the rows×cols matrix m: j strictly ascending in range(cols),
    d > 0, rows in range(rows) and no zero entry; each draw fresh, so that
    emptying every col of one draw leaves the next as it was;
    ``source(skip)`` the same stream without skip; and the pieces of one
    draw sum to m in ``_from_columns``."""
    first = list(source(()))
    want = [(j, dict(col), d) for j, col, d in first]
    js = [j for j, _, _ in first]
    assert all(a < b for a, b in zip(js, js[1:])) and all(0 <= j < cols for j in js)
    for j, col, d in first:
        assert d > 0 and all(col.values()) and all(0 <= i < rows for i in col), j
        col.clear()
        col[-1] = 1
    assert list(source(())) == want
    skip = set(js[::2])
    assert list(source(skip)) == [piece for piece in want if piece[0] not in skip]
    assert _from_columns(rows, cols, source(())) == m


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stored_columns_keep_the_stream_contract(data):
    """Fractional entries, stored in the random order of their keys."""
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    entries = data.draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)))) if rows and cols else {}
    m = Matrix(rows, cols, entries)
    assert_stream(partial(_stored_columns, m), rows, cols, m)


@settings(max_examples=40, deadline=None)
@given(rescaled_bicomplexes())
def test_total_sources_keep_the_stream_contract(dc):
    """Each total column is fed by blocks over denominators, so it is
    yielded over their lcm L; the dense oracle assembles the same d^k."""
    total = oracle_total_complex(dc)
    spaces, sources = _total_sources(dc)
    assert spaces == dict(total.spaces)
    assert {k for k, _ in sources} >= set(total.diffs)
    for k, source in sources:
        assert_stream(source, spaces.get(k + 1, 0), spaces[k], total.d(k))


@pytest.mark.parametrize("terms", [SO3, RATIONAL_SO3], ids=["so3", "rational"])
def test_slice_sources_keep_the_stream_contract(terms):
    """Each slice column is yielded as L·delpi(z^α dz_I) over L; the
    Fraction oracle builds the same d^{-p}, and so does ``stein_complex``."""
    pi, cap = PolyBivector.from_terms(3, terms), 12
    for w in range(7):
        spaces, sources = _slice_sources(_KoszulTables(pi, cap), w)
        c, oracle = stein_complex(3, pi, w, cap), oracle_stein_differentials(pi, w, cap)
        assert dict(c.spaces) == {k: v for k, v in spaces.items() if v}
        for k, source in sources:
            rows, cols = spaces.get(k + 1, 0), spaces[k]
            assert c.d(k) == oracle.get(k, Matrix(rows, cols))
            assert_stream(source, rows, cols, c.d(k))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_owners_do_not_depend_on_the_scale_of_a_column(data):
    """The scale lemma of ``linalg._owners``: a stream of random sparse
    integer columns and the same stream with each column times a random
    nonzero int, under any d, have the same owners, whose rows are the
    pivot rows that Bareiss ranks predict for the matrix of the first."""
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 7))
    stream = []
    for j in range(cols):
        col = data.draw(st.dictionaries(st.integers(0, rows - 1),
                                        st.integers(-2, 2).filter(bool), max_size=rows))
        if col:
            stream.append((j, col, data.draw(st.integers(1, 12))))
    nonzero = st.integers(-9, 9).filter(bool)
    scaled = [(j, {i: s * v for i, v in col.items()}, d)
              for j, col, _ in stream for s, d in [(data.draw(nonzero), data.draw(nonzero))]]
    owners = _owners((j, dict(col), d) for j, col, d in stream)
    assert _owners(scaled) == owners
    m = _from_columns(rows, cols, [(j, dict(col), d) for j, col, d in stream])
    assert set(owners) == oracle_pivot_rows(m)
