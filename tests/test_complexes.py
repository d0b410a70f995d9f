import random

import pytest

from kbhom.complexes import (
    ChainMap,
    Complex,
    ComplexInvariantError,
    DoubleComplex,
    NotShortExactError,
    homology_dims,
    les_from_ses,
    shift,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom import complexes, linalg
from kbhom.engine import kb_double_complex
from kbhom.linalg import Matrix, rank
from kbhom.zoo import parallelizable, torus

from support import (
    convolve,
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


def test_total_differential_squares_to_zero():
    # anticommuting unit square: D∘D = 0 is verified by the constructor
    dc = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        d1={(0, 0): Matrix.from_rows([[1]]), (0, 1): Matrix.from_rows([[-1]])},
        d2={(0, 0): Matrix.from_rows([[1]]), (1, 0): Matrix.from_rows([[1]])},
    )
    t = total_complex(dc)
    assert (t.d(1) * t.d(0)).is_zero()


def test_double_complex_rejects_commuting_differentials():
    with pytest.raises(ComplexInvariantError):
        DoubleComplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            d1={(0, 0): Matrix.from_rows([[1]]), (0, 1): Matrix.from_rows([[1]])},
            d2={(0, 0): Matrix.from_rows([[1]]), (1, 0): Matrix.from_rows([[1]])},
        )


def test_shift_zero_is_identity():
    dc = one_torus_bicomplex()
    assert shift(dc, 0, 0) == dc


def test_shift_moves_single_cell():
    dc = DoubleComplex({(0, 0): 1})
    assert shift(dc, 1, -1).spaces == {(-1, 1): 1}


def test_shift_inverse():
    rng = random.Random(3)
    dc = random_double_complex(rng)
    assert shift(shift(dc, 2, -1), -2, 1) == dc


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
                          {q: dc.block2(p, q) for q in range(-5, 8)
                           if not dc.block2(p, q).is_zero()})
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
    """Per degree: 2 SES rank checks, 3 reductions for each of the 3
    homology bases, 5 for the maps (two induced maps, lift, pull-back and
    class coordinates of the connecting map) and 3 ranks in check_exact,
    however many homology classes the degree has (130 in all here)."""
    heis3 = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    a = total_complex(kb_double_complex(heis3))
    c = total_complex(kb_double_complex(torus(3, {(1, 2): 1})))
    f, g = twisted_ses(random.Random(0), a, c)
    calls = counting(monkeypatch, linalg, "_reduce")
    les = les_from_ses(f, g)
    degrees = {int(label[2:label.index("(")]) for label, _ in les.entries}
    assert sum(dim for _, dim in les.entries) == 130
    assert len(calls) <= 19 * len(degrees)


def test_check_exact_ranks_each_map_once(monkeypatch):
    f, g = random_split_ses(random.Random(53))
    les = les_from_ses(f, g)
    calls = counting(monkeypatch, complexes, "rank")
    assert les.check_exact()
    assert len(calls) == len(les.maps)
