import random
import re

import pytest

from kbhom.complexes import (
    BlockMap,
    ChainMap,
    Complex,
    ComplexInvariantError,
    DoubleComplex,
    NotShortExactError,
    _composite,
    homology_dims,
    koszul_tensor,
    les_from_ses,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom import complexes, linalg
from kbhom.engine import kb_double_complex, kb_homology, kb_spectral
from kbhom.linalg import Matrix, rank
from kbhom.zoo import parallelizable, torus

from support import (
    convolve,
    dense,
    oracle_pivot_rows,
    oracle_total_complex,
    random_complex,
    random_double_complex,
    random_split_ses,
    split_ses,
    twisted_ses,
)


def one_torus_bicomplex():
    """Four dim-1 cells at (-1,0), (-1,1), (0,0), (0,1), zero differentials."""
    return DoubleComplex({(-1, 0): 1, (-1, 1): 1, (0, 0): 1, (0, 1): 1})


def test_total_single_cell():
    dc = DoubleComplex({(0, 0): 1})
    t = total_complex(dc)
    assert t.spaces == {0: 1}


def test_total_one_torus():
    t = total_complex(one_torus_bicomplex())
    assert t.spaces == {-1: 1, 0: 2, 1: 1}


def test_total_complex_orders_a_degree_by_descending_p():
    # every F^p is a prefix of the coordinates: spectral_pages reduces D as built
    assert complexes._total_layout(one_torus_bicomplex())[0] == ([((0, 0), 0), ((-1, 1), 1)], 2)
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        d1={(0, 0): Matrix.from_rows([[2]]), (0, 1): Matrix.from_rows([[2]])},
        d2={(0, 0): Matrix.from_rows([[3]]), (1, 0): Matrix.from_rows([[-3]])},
    )
    t = total_complex(dc)
    assert dense(t.d(0)) == [[2], [3]]   # rows (1, 0), (0, 1)
    assert dense(t.d(1)) == [[-3, 2]]    # columns (1, 0), (0, 1)


@pytest.mark.parametrize("build", [
    lambda: Complex({0: 2.7}),
    lambda: Complex({0.5: 1}),
    lambda: Complex({(0, 0): 1}),
    lambda: Complex({0: "2"}),
    lambda: Complex({0: -1}),
    lambda: DoubleComplex({(0.5, 0): 1}),
    lambda: DoubleComplex({(0, 0): 1.0}),
    lambda: DoubleComplex({0: 1}),
    lambda: DoubleComplex({(0, 0, 0): 1}),
], ids=["float-dim", "float-degree", "cell-degree", "string-dim", "negative-dim",
        "float-cell", "float-cell-dim", "degree-cell", "triple-cell"])
def test_constructors_reject_dimensions_that_are_not_graded_ints(build):
    # int() truncated 2.7 to 2, and a cell (0.5, 0) got pages of its own
    with pytest.raises((TypeError, ValueError)):
        build()


def test_total_differential_squares_to_zero():
    # anticommuting unit square: the DoubleComplex constructor verifies
    # d1² = 0, d2² = 0 and d1d2 + d2d1 = 0, the blocks of D∘D, so
    # total_complex does not check D∘D = 0 again
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        d1={(0, 0): Matrix.from_rows([[1]]), (0, 1): Matrix.from_rows([[-1]])},
        d2={(0, 0): Matrix.from_rows([[1]]), (1, 0): Matrix.from_rows([[1]])},
    )
    t = total_complex(dc)
    assert (t.d(1) * t.d(0)).is_zero()


def test_double_complex_rejects_commuting_differentials():
    with pytest.raises(ComplexInvariantError, match=re.escape("d1∘d2 + d2∘d1 ≠ 0 at (0, 0)")):
        DoubleComplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            d1={(0, 0): Matrix.from_rows([[1]]), (0, 1): Matrix.from_rows([[1]])},
            d2={(0, 0): Matrix.from_rows([[1]]), (1, 0): Matrix.from_rows([[1]])},
        )


@pytest.mark.parametrize("build, message", [
    (lambda one: DoubleComplex({(0, 0): 1, (1, 0): 1, (2, 0): 1},
                               d1={(0, 0): one, (1, 0): one}), "d1∘d1 ≠ 0 at (0, 0)"),
    (lambda one: DoubleComplex({(0, 0): 1, (0, 1): 1, (0, 2): 1},
                               d2={(0, 0): one, (0, 1): one}), "d2∘d2 ≠ 0 at (0, 0)"),
    (lambda one: ChainMap(Complex({0: 1, 1: 1}, {0: one}), Complex({0: 1, 1: 1}),
                          {0: one, 1: one}), "square does not commute at degree 0"),
], ids=["d1∘d1", "d2∘d2", "ChainMap"])
def test_identity_failures_name_the_identity_and_where(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(Matrix.from_rows([[1]]))


def test_block_map_steps_and_shapes_by_its_degree():
    diffs = BlockMap({}, {0: 2, 1: 3}, 1)
    assert (diffs.step(0), diffs.shape(0), diffs.shape(1)) == (1, (3, 2), (0, 3))
    contraction = BlockMap({}, {(0, 0): 4, (2, 0): 1}, (-2, 0))
    assert contraction.step((2, 0)) == (0, 0)
    assert (contraction.shape((2, 0)), contraction.shape((0, 0))) == ((4, 1), (0, 4))
    chain = BlockMap({}, {0: 2}, 0, {0: 5, 1: 1})
    assert (chain.step(1), chain.shape(0), chain.shape(1)) == (1, (5, 2), (1, 0))
    assert chain.at(0) == Matrix(5, 2)


def test_koszul_tensor_refuses_operators_of_different_degrees():
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    with pytest.raises(ValueError, match=re.escape("bidegrees (1, 0) and (0, 1)")):
        koszul_tensor(BlockMap({}, dims, (1, 0)), BlockMap({}, dims, (0, 1)))


def test_composites_refuse_blocks_that_do_not_compose():
    # a's block at 1 reads 2 coordinates, b's block at 0 writes 3
    a = BlockMap({1: Matrix(1, 2, {(0, 0): 1})}, {1: 2, 2: 1}, 1)
    b = BlockMap({0: Matrix(3, 1, {(0, 0): 1})}, {0: 1, 1: 3}, 1)
    with pytest.raises(ValueError, match="do not compose"):
        _composite([(1, a, b)], 0)


@pytest.mark.parametrize("build, message", [
    # the higher failing key is inserted first: the lowest one is reported
    (lambda one: Complex({0: 1, 1: 1, 2: 1, 3: 1}, {2: one, 1: one, 0: one}),
     "differential does not square to zero at degree 0"),
    (lambda one: DoubleComplex({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 0): 1},
                               d1={(2, 0): one, (1, 0): one, (0, 0): one}),
     "d1∘d1 ≠ 0 at (0, 0)"),
    (lambda one: ChainMap(Complex({2: 1, 1: 1, 0: 1}, {0: one}),
                          Complex({2: 1, 1: 1, 0: 1}, {1: one}), {2: one, 1: one, 0: one}),
     "square does not commute at degree 0"),
], ids=["Complex", "DoubleComplex", "ChainMap"])
def test_identity_failures_report_the_lowest_key(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(Matrix.from_rows([[1]]))


def test_double_complex_reports_its_identities_in_order():
    # d2∘d2 fails at (0, 0), below d1∘d1 at (5, 0); d1∘d1 is checked first
    one = Matrix.from_rows([[1]])
    with pytest.raises(ComplexInvariantError, match=re.escape("d1∘d1 ≠ 0 at (5, 0)")):
        DoubleComplex({(0, 0): 1, (0, 1): 1, (0, 2): 1, (5, 0): 1, (6, 0): 1, (7, 0): 1},
                      d1={(5, 0): one, (6, 0): one}, d2={(0, 0): one, (0, 1): one})


def unit_square():
    """A complex 0 -> Q -> Q -> 0, the anticommuting unit square and the
    identity chain map of the complex."""
    one, minus = Matrix.from_rows([[1]]), Matrix.from_rows([[-1]])
    c = Complex({0: 1, 1: 1}, {0: one})
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                       d1={(0, 0): one, (0, 1): minus}, d2={(0, 0): one, (1, 0): one})
    return c, dc, ChainMap(c, c, {0: one, 1: one})


@pytest.mark.parametrize("graded", [
    lambda c, dc, f: c.diffs,
    lambda c, dc, f: c.spaces,
    lambda c, dc, f: dc.d1,
    lambda c, dc, f: dc.d2,
    lambda c, dc, f: dc.spaces,
    lambda c, dc, f: f.blocks,
], ids=["Complex.diffs", "Complex.spaces", "DoubleComplex.d1", "DoubleComplex.d2",
        "DoubleComplex.spaces", "ChainMap.blocks"])
def test_graded_mappings_are_read_only(graded):
    # a block added after construction would skip the shape and d² checks
    mapping = graded(*unit_square())
    before = dict(mapping)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]
    with pytest.raises(AttributeError):  # a read-only mapping has no clear()
        mapping.clear()
    assert dict(mapping) == before


@pytest.mark.parametrize("build, key", [
    (lambda bad: Complex({0: 1, 1: 1}, {0: bad}), 0),
    (lambda bad: DoubleComplex({(0, 0): 1, (1, 0): 1}, d1={(0, 0): bad}), (0, 0)),
    (lambda bad: DoubleComplex({(0, 0): 1, (0, 1): 1}, d2={(0, 0): bad}), (0, 0)),
    (lambda bad: ChainMap(unit_square()[0], unit_square()[0], {1: bad}), 1),
], ids=["Complex", "DoubleComplex.d1", "DoubleComplex.d2", "ChainMap"])
def test_constructors_reject_wrong_shaped_blocks(build, key):
    message = f"block at {key} has shape (1, 2), expected (1, 1)"
    with pytest.raises(ComplexInvariantError, match=re.escape(message)):
        build(Matrix(1, 2, {(0, 1): 1}))


def test_double_complex_rejects_a_block_on_a_missing_cell():
    with pytest.raises(ComplexInvariantError, match=re.escape("expected (0, 0)")):
        DoubleComplex({(0, 0): 1}, d2={(7, 7): Matrix(5, 5, {(0, 0): 1})})


def test_tensor_single_cells():
    a = DoubleComplex({(0, 0): 1})
    assert tensor_double(a, a).spaces == {(0, 0): 1}


def test_tensor_one_torus_squared():
    dc = tensor_double(one_torus_bicomplex(), one_torus_bicomplex())
    t = total_complex(dc)
    assert t.spaces == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}


def test_tensor_with_zero():
    a = one_torus_bicomplex()
    z = DoubleComplex({})
    assert tensor_double(a, z).spaces == {}


def test_tensor_of_random_complexes_is_valid():
    # the Koszul sign bookkeeping must always produce a valid bicomplex;
    # the DoubleComplex constructor re-checks all three identities
    rng = random.Random(11)
    for _ in range(10):
        dc = random_double_complex(rng)
        dc.validate()


def test_homology_zero_differentials():
    c = Complex({0: 2, 1: 3})
    assert homology_dims(c) == {0: 2, 1: 3}


def test_homology_exact_two_term():
    c = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    assert homology_dims(c) == {0: 0, 1: 0}


def test_homology_rank_nullity():
    c = Complex({0: 2, 1: 1}, {0: Matrix.from_rows([[1, 0]])})
    assert homology_dims(c) == {0: 1, 1: 0}


def test_euler_characteristic_identity():
    # χ of homology equals χ of the underlying spaces, degree by degree
    rng = random.Random(17)
    for _ in range(15):
        c = random_complex(rng)
        h = homology_dims(c)
        chi_h = sum((-1) ** k * v for k, v in h.items())
        chi_c = sum((-1) ** k * v for k, v in c.spaces.items())
        assert chi_h == chi_c


def test_kunneth_convolution_at_chain_level():
    rng = random.Random(19)
    for _ in range(8):
        a = random_double_complex(rng, max_dim=2)
        b = random_double_complex(rng, max_dim=2)
        ha = homology_dims(total_complex(a))
        hb = homology_dims(total_complex(b))
        hab = homology_dims(total_complex(tensor_double(a, b)))
        expected = convolve(ha, hb)
        assert {k: v for k, v in hab.items() if v} == expected


def test_spectral_zero_differentials():
    dc = one_torus_bicomplex()
    sp = spectral_pages(dc, 2)
    expected = {(-1, 0): 1, (-1, 1): 1, (0, 0): 1, (0, 1): 1}
    assert sp.page(1) == expected
    assert sp.infinity == expected
    assert sp.degeneration_page == 1


@pytest.mark.parametrize("r_max", [True, 2.0, "2"])
def test_spectral_pages_refuse_a_non_int_r_max(r_max):
    with pytest.raises(TypeError, match="r_max must be an int"):
        spectral_pages(one_torus_bicomplex(), r_max)
    with pytest.raises(TypeError, match="r_max must be an int"):
        kb_spectral(torus(1), r_max)


def test_spectral_two_cell_collapse_at_page_two():
    dc = DoubleComplex({(0, 0): 1, (1, 0): 1},
                       d1={(0, 0): Matrix.identity(1)})
    sp = spectral_pages(dc, 3)
    assert sp.page(1) == {(0, 0): 1, (1, 0): 1}
    assert sp.page(2) == {}
    assert sp.degeneration_page == 2


def test_spectral_abutment_and_monotonicity():
    rng = random.Random(23)
    for _ in range(10):
        dc = random_double_complex(rng, max_dim=2)
        sp = spectral_pages(dc, 3)
        total_h = homology_dims(total_complex(dc))
        # abutment: E_infinity sums over the antidiagonal to total homology
        by_degree = {}
        for (p, q), d in sp.infinity.items():
            by_degree[p + q] = by_degree.get(p + q, 0) + d
        assert by_degree == {k: v for k, v in total_h.items() if v}
        # monotone pages
        previous = None
        for r, dims in sp.pages:
            if previous is not None:
                for cell, d in dims.items():
                    assert d <= previous.get(cell, 0)
            previous = dims


def test_spectral_second_page_is_row_cohomology_when_d2_vanishes():
    # with d2 = 0 the page-1 differential is d1 itself, so E_2 must equal
    # rowwise d1-cohomology and nothing can move afterwards
    rng = random.Random(53)
    for _ in range(10):
        row_complexes = {q: random_complex(rng, 0, 2, 3) for q in range(2)}
        spaces = {}
        d1 = {}
        for q, c in row_complexes.items():
            for p, d in c.spaces.items():
                spaces[(p, q)] = d
            for p, blk in c.diffs.items():
                d1[(p, q)] = blk
        dc = DoubleComplex(spaces, d1=d1)
        sp = spectral_pages(dc, 2)
        expected = {}
        for q, c in row_complexes.items():
            for p, h in homology_dims(c).items():
                if h:
                    expected[(p, q)] = h
        assert sp.page(2) == expected
        assert sp.infinity == expected
        assert sp.degeneration_page <= 2


def test_spectral_first_page_is_column_cohomology():
    rng = random.Random(29)
    for _ in range(10):
        dc = random_double_complex(rng, max_dim=2)
        sp = spectral_pages(dc, 1)
        by_column = {}
        for p in sorted({p for (p, _) in dc.spaces}):
            col = Complex({q: dc.dim(p, q) for q in range(-5, 8)},
                          {q: dc.d2.at((p, q)) for q in range(-5, 8)})
            for q, h in homology_dims(col).items():
                if h:
                    by_column[(p, q)] = h
        assert sp.page(1) == by_column


def test_les_zero_subcomplex_gives_isomorphisms():
    rng = random.Random(31)
    a = Complex({})
    c = random_complex(rng)
    f, g = split_ses(a, c)
    les = les_from_ses(f, g)
    assert les.check_exact()
    for i in range(len(les.maps)):
        src_label, src_dim = les.entries[i]
        tgt_label, tgt_dim = les.entries[i + 1]
        if "(B)" in src_label and "(C)" in tgt_label:
            assert src_dim == tgt_dim == rank(les.maps[i])
    assert all(dim == 0 for label, dim in les.entries if "(A)" in label)


def test_les_split_case_connecting_maps_vanish():
    rng = random.Random(37)
    a = random_complex(rng)
    c = random_complex(rng)
    f, g = split_ses(a, c)
    les = les_from_ses(f, g)
    assert les.check_exact()
    # maps come in groups of three per degree: f, g, connecting
    for i in range(2, len(les.maps), 3):
        assert les.maps[i].is_zero()


def test_les_connecting_isomorphism():
    # B = (Q --id--> Q) in degrees 0,1; A = the degree-1 subcomplex.
    # The snake map H^0(C) -> H^1(A) is then an isomorphism.
    a = Complex({1: 1})
    b = Complex({0: 1, 1: 1}, {0: Matrix.identity(1)})
    c = Complex({0: 1})
    f = ChainMap(a, b, {1: Matrix.identity(1)})
    g = ChainMap(b, c, {0: Matrix.identity(1)})
    les = les_from_ses(f, g)
    assert les.check_exact()
    entry_index = les.entries.index(("H^0(C)", 1))
    delta = les.maps[entry_index]
    assert delta.shape == (1, 1) and rank(delta) == 1


def test_les_rejects_non_injective_f():
    a = Complex({0: 1})
    b = Complex({0: 1})
    c = Complex({0: 1})
    with pytest.raises(NotShortExactError, match="injective at degree 0"):
        les_from_ses(ChainMap(a, b, {0: Matrix.zero(1, 1)}),
                     ChainMap(b, c, {0: Matrix.identity(1)}))


def test_les_rejects_wrong_middle_dimension():
    a = Complex({0: 1})
    b = Complex({0: 3})
    c = Complex({0: 1})
    f = ChainMap(a, b, {0: Matrix.from_rows([[1], [0], [0]])})
    g = ChainMap(b, c, {0: Matrix.from_rows([[0, 0, 1]])})
    with pytest.raises(NotShortExactError, match="im f"):
        les_from_ses(f, g)


def test_les_alternating_sum_zero_random():
    rng = random.Random(41)
    for _ in range(10):
        f, g = random_split_ses(rng)
        les = les_from_ses(f, g)
        assert les.check_exact()
        assert les.alternating_sum() == 0


def test_les_handles_negative_degrees():
    rng = random.Random(43)
    for _ in range(5):
        f, g = random_split_ses(rng, lo=-2, hi=1)
        les = les_from_ses(f, g)
        assert les.check_exact()
        assert les.alternating_sum() == 0


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_les_reduces_a_bounded_number_of_matrices_per_degree(monkeypatch):
    """Per degree: one tracked reduction of each differential in A, B and
    C, one of f^k and one of g^k, and 3 ranks in check_exact, however many
    homology classes the degree has (130 in all here); every _reduce and
    _owners call is counted, including the ones complexes makes itself.
    The classes are read off the reductions of the differentials, so no
    [B_k | Z_k] is stacked."""
    heis3 = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    a = total_complex(kb_double_complex(heis3))
    c = total_complex(kb_double_complex(torus(3, {(1, 2): 1})))
    f, g = twisted_ses(random.Random(0), a, c)
    calls = counting(monkeypatch, linalg, "_reduce")
    monkeypatch.setattr(complexes, "_reduce", linalg._reduce)
    ranks = counting(monkeypatch, linalg, "_owners")
    stacked = counting(monkeypatch, Matrix, "hstack")
    les = les_from_ses(f, g)
    degrees = {int(label[2:label.index("(")]) for label, _ in les.entries}
    assert sum(dim for _, dim in les.entries) == 130
    assert len(degrees) == 7
    assert ranks and len(calls) + len(ranks) <= 8 * len(degrees) + 2
    assert stacked == []


def test_kb_homology_and_pages_build_no_matrix(monkeypatch):
    """On a validated model, kb_homology and kb_spectral draw the columns of
    each total differential from the bicomplex as they reduce them: no
    total ``Matrix``, and no other one, is built."""
    heis3 = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    built = counting(monkeypatch, Matrix, "_of")
    assert kb_homology(heis3) == kb_spectral(heis3, 2)[0]
    assert built == []


@pytest.mark.parametrize("pages", [None, 2])
def test_kb_reductions_never_draw_a_cleared_column(monkeypatch, pages):
    """kb_homology and kb_spectral build, and eliminate once, each nonzero
    column of total d^k but those at the pivot rows of d^{k-1}: the dense
    total complex and the oracle's pivot rows give the columns expected."""
    heis4 = parallelizable(4, {(1, 2, 3): 1}, {(1, 2): 1})
    total = oracle_total_complex(kb_double_complex(heis4))
    nonzero = {k: {j for _, j in d.entries} for k, d in total.diffs.items()}
    expected = sorted((k, j) for k in nonzero
                      for j in nonzero[k] - oracle_pivot_rows(total.d(k - 1)))
    drawn, columns = [], complexes._total_columns

    def recording(*args):
        for j, col, d in columns(*args):
            drawn.append((args[2], j))
            yield j, col, d

    monkeypatch.setattr(complexes, "_total_columns", recording)
    calls = counting(monkeypatch, linalg, "_eliminate")
    if pages is None:
        kb_homology(heis4)
    else:
        kb_spectral(heis4, pages)
    assert drawn == expected
    assert len(calls) == len(expected) == 80 < sum(map(len, nonzero.values())) == 88


def test_check_exact_ranks_each_map_once(monkeypatch):
    f, g = random_split_ses(random.Random(53))
    les = les_from_ses(f, g)
    calls = counting(monkeypatch, complexes, "rank")
    assert les.check_exact()
    assert len(calls) == len(les.maps)
