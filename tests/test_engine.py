import re

import pytest

from kbhom.complexes import (
    Complex,
    ComplexInvariantError,
    DoubleComplex,
    spectral_pages,
    total_complex,
)
from kbhom.engine import (
    HHDims,
    HodgeDiamond,
    KBDims,
    euler_char,
    hkr_hochschild,
    hodge_diamond,
    kb_double_complex,
    kb_homology,
    kb_spectral,
)
from kbhom.linalg import Matrix
from kbhom.models import DolbeaultPoissonModel, ModelValidationError, validate_model
from kbhom.zoo import hodge_formal, parallelizable, point, torus


def heisenberg3(pi=None):
    return parallelizable(3, {(1, 2, 3): 1}, pi)


def test_kb_double_complex_torus1():
    dc = kb_double_complex(torus(1))
    assert dc.spaces == {(0, 0): 1, (0, 1): 1, (-1, 0): 1, (-1, 1): 1}
    assert not dc.d1 and not dc.d2


def test_kb_double_complex_point():
    dc = kb_double_complex(point())
    assert dc.spaces == {(0, 0): 1}


def test_kb_double_complex_heisenberg_has_nonzero_d1():
    dc = kb_double_complex(heisenberg3({(1, 2): 1}))
    assert dc.d1
    dc.validate()


def test_kb_homology_rejects_model_with_nonzero_delpi_square():
    # del² = 0 and delbar = 0, but delpi∘delpi ≠ 0 at (2,0); the bicomplex
    # is built unchecked, so the model validation must catch it
    m = DolbeaultPoissonModel(
        3, {(0, 0): ["e"], (1, 0): ["x"], (2, 0): ["y1", "y2"], (3, 0): ["w"]},
        del_blocks={(1, 0): Matrix(2, 1, {(0, 0): 1}),
                    (2, 0): Matrix(1, 2, {(0, 1): 1})},
        contraction_blocks={(2, 0): Matrix(1, 2, {(0, 0): 1}),
                            (3, 0): Matrix(1, 1, {(0, 0): 1})})
    with pytest.raises(ModelValidationError) as err:
        kb_homology(m)
    assert err.value.identity == "delpi∘delpi"
    assert err.value.bidegree == (2, 0)


def test_kb_homology_torus1():
    assert kb_homology(torus(1)).dims == {0: 1, 1: 2, 2: 1}


def test_kb_homology_point():
    assert kb_homology(point()).dims == {0: 1}


def test_kb_homology_torus2():
    assert kb_homology(torus(2)).dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}


def test_hkr_projective_line():
    hh = hkr_hochschild(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1}))
    assert hh.dims == {0: 2}


def test_hkr_one_torus():
    diamond = HodgeDiamond(1, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert hkr_hochschild(diamond).dims == {-1: 1, 0: 2, 1: 1}


def test_hkr_empty():
    assert hkr_hochschild(HodgeDiamond(0, {})).dims == {}


def test_euler_char_examples():
    assert euler_char(KBDims(1, {0: 1, 1: 2, 2: 1})) == 0
    assert euler_char(KBDims(0, {0: 1})) == 1
    assert euler_char(KBDims(2, {2: 3})) == 3


def test_dimension_tables_serialize_as_records():
    import json
    dims = kb_homology(torus(1))
    assert dims.records() == [{"k": 0, "dim": 1}, {"k": 1, "dim": 2},
                              {"k": 2, "dim": 1}]
    hh = hkr_hochschild(hodge_diamond(torus(1)))
    assert hh.records() == [{"k": -1, "dim": 1}, {"k": 0, "dim": 2},
                            {"k": 1, "dim": 1}]
    json.dumps(dims.records())


def test_kbdims_rejects_out_of_range():
    with pytest.raises(ValueError):
        KBDims(1, {3: 1})
    with pytest.raises(ValueError):
        KBDims(1, {0: -1})


@pytest.mark.parametrize("make, error", [
    (lambda: KBDims(1.5, {3: 1}), TypeError), (lambda: KBDims(True, {1: 1}), TypeError),
    (lambda: KBDims(1.5, {}), TypeError), (lambda: HodgeDiamond(-1, {}), ValueError),
])
def test_tables_check_n_as_a_model_does(make, error):
    # a float n used to be accepted, and broke records() later
    with pytest.raises(error, match="complex dimension must be"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: KBDims(1, {3: 1}), "dims[3] = 1 is outside [0, 2]"),
    (lambda: KBDims(1, {0: -1}), "dims[0] = -1 is negative"),
    (lambda: HodgeDiamond(1, {(2, 0): 1}), "h[(2, 0)] = 1 is outside [0, 1]"),
    (lambda: HodgeDiamond(1, {(0, -1): 2}), "h[(0, -1)] = 2 is outside [0, 1]"),
    (lambda: HHDims({-5: -1}), "dims[-5] = -1 is negative"),
    (lambda: HodgeDiamond(1, {0: 1}), "h[0] = 1: the key is not a cell (p, q)"),
    (lambda: HodgeDiamond(1, {(0, 0, 0): 1}), "h[(0, 0, 0)] = 1: the key is not a cell (p, q)"),
    (lambda: KBDims(1, {(1, 1): 1}), "dims[(1, 1)] = 1: the key is not a degree"),
    (lambda: HHDims({(0,): 1}), "dims[(0,)] = 1: the key is not a degree"),
])
def test_tables_reject_negative_and_out_of_range_values(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_tables_drop_zeros_cast_to_int_and_compare_by_class_and_fields():
    for make in (lambda: KBDims(1, {0: True, 1: 0, 7: 0}), lambda: KBDims(1, {True: 2}),
                 lambda: HodgeDiamond(1, {(True, 0): 1, (5, 5): 0})):
        with pytest.raises(TypeError, match="must be an int, not bool"):
            make()
    assert KBDims(1, {0: 1, 1: 0, 7: 0}).dims == {0: 1}
    assert HHDims({-9: 3, 2: 0}).dims == {-9: 3}
    assert KBDims(1, {0: 1, 2: 0}) == KBDims(1, {0: 1})
    assert KBDims(1, {0: 1}) != KBDims(2, {0: 1})
    assert KBDims(0, {0: 1}) != HHDims({0: 1})
    assert KBDims(1, {1: 2})[1] == 2 and HodgeDiamond(1, {})[(0, 0)] == 0
    for table in (KBDims(0), HHDims(), HodgeDiamond(0)):
        with pytest.raises(TypeError):
            hash(table)


@pytest.mark.parametrize("make", [
    lambda: KBDims(1, {1.5: 1}), lambda: KBDims(1, {1: 2.5}), lambda: KBDims(1, {"0": 1}),
    lambda: HHDims({"1_0": 1}), lambda: HodgeDiamond(1, {(0, 0.0): 1}),
])
def test_tables_reject_keys_and_values_that_are_not_integers(make):
    # int() would truncate 1.5 and 2.5 and parse "1_0" as 10
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: KBDims(1, {0: 1.0}), "dims[0] must be an int, not float"),
    (lambda: HHDims({0: True}), "dims[0] must be an int, not bool"),
    (lambda: HodgeDiamond(0, {(0, 0): True}), "h[(0, 0)] must be an int, not bool"),
    (lambda: Complex({0: True}), "spaces[0] must be an int, not bool"),
    (lambda: DoubleComplex({(True, 0): 1}), "spaces key (True, 0) must be an int, not bool"),
], ids=["kb-value-float", "hh-value-bool", "hodge-value-bool",
        "complex-value-bool", "double-complex-key-bool"])
def test_graded_dims_name_the_table_and_key_of_a_value_that_is_not_an_int(make, message):
    """Bools are ints to Python but never dimensions or degrees here."""
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("model", [
    torus(1), torus(2), heisenberg3(), heisenberg3({(1, 2): 1}),
])
def test_first_page_equals_hodge_diamond(model):
    diamond = hodge_diamond(model)
    sp = spectral_pages(kb_double_complex(model), 1)
    expected = {(-p, q): v for (p, q), v in diamond.h.items()}
    assert sp.page(1) == expected


@pytest.mark.parametrize("model", [
    point(), torus(2), heisenberg3(), heisenberg3({(1, 2): 1}),
    parallelizable(4, {(1, 2, 3): 1}, {(1, 2): 1}),
])
def test_kb_spectral_matches_kb_homology_and_spectral_pages(model):
    dims, sp = kb_spectral(model, 2)
    assert dims == kb_homology(model)
    expected = spectral_pages(kb_double_complex(model), 2)
    assert sp.pages == expected.pages
    assert sp.degeneration_page == expected.degeneration_page


@pytest.mark.parametrize("pi", [None, {(1, 2): 1}, {(1, 2): 2, (1, 3): -1},
                                {(2, 3): 1}, {(1, 2): 1, (1, 3): 1, (2, 3): 1}])
def test_euler_characteristic_is_pi_independent(pi):
    model = heisenberg3(pi)
    chi = euler_char(kb_homology(model))
    signed = sum((-1) ** (p + q) * model.dim(p, q)
                 for p in range(4) for q in range(4))
    assert chi == (-1) ** model.n * signed == 0


def test_pi_zero_reduction_to_antidiagonal_hodge_sums():
    for model in (torus(1), torus(2), heisenberg3()):
        n = model.n
        dims = kb_homology(model)
        diamond = hodge_diamond(model)
        for k in range(2 * n + 1):
            expected = sum(v for (p, q), v in diamond.h.items() if p - q == n - k)
            assert dims[k] == expected


def test_zero_bivector_homology_is_hochschild_reversed():
    # H_k at pi = 0 must equal HH_{n-k} of the same model's diamond
    for model in (torus(1), torus(2), heisenberg3()):
        dims = kb_homology(model)
        hh = hkr_hochschild(hodge_diamond(model))
        for k in range(2 * model.n + 1):
            assert dims[k] == hh[model.n - k]


def test_hodge_diamond_of_heisenberg():
    # columnwise delbar-cohomology of the 64-dim nilpotent model
    diamond = hodge_diamond(heisenberg3())
    assert diamond[(0, 0)] == 1
    assert diamond[(1, 0)] == 3
    assert diamond[(0, 1)] == 2
    assert diamond[(1, 1)] == 6
    assert diamond[(3, 3)] == 1
    total = sum(diamond.h.values())
    chi = sum((-1) ** (p + q) * v for (p, q), v in diamond.h.items())
    assert chi == 0
    assert total > 0


def test_hodge_diamond_squares_delbar_only_without_a_stored_proof(monkeypatch):
    """A model whose stored validation proved delbar∘delbar has no column
    squared again; an unvalidated model, or one whose validation failed
    there, has every column checked, and a nonzero delbar² raises as it
    always has."""
    squared = []
    validate = Complex.validate
    monkeypatch.setattr(Complex, "validate", lambda c: squared.append(c) or validate(c))
    heis = heisenberg3()
    diamond = hodge_diamond(heis)
    assert squared == []
    fresh = DolbeaultPoissonModel(heis.n, heis.basis, heis.del_blocks, heis.delbar_blocks,
                                  heis.contraction_blocks)
    assert hodge_diamond(fresh) == diamond and len(squared) == 4
    broken = DolbeaultPoissonModel(2, {(0, 0): ["a"], (0, 1): ["b"], (0, 2): ["c"]},
                                   delbar_blocks={(0, 0): Matrix(1, 1, {(0, 0): 1}),
                                                  (0, 1): Matrix(1, 1, {(0, 0): 1})})
    for validated in (False, True):
        if validated:
            assert validate_model(broken).first_failure().identity == "delbar∘delbar"
        with pytest.raises(ComplexInvariantError,
                           match="^differential does not square to zero at degree 0$"):
            hodge_diamond(broken)


def test_formal_model_homology_concentrates_antidiagonals():
    diamond = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    m = hodge_formal(diamond)
    assert kb_homology(m) == KBDims(2, {2: 3})
    assert hodge_diamond(m) == diamond


def test_total_complex_degree_range():
    dc = kb_double_complex(torus(2))
    t = total_complex(dc)
    assert min(t.spaces) == -2 and max(t.spaces) == 2


def test_heisenberg_spectral_sequence_collapses_at_page_two():
    # with a nonzero bivector both differentials act: E_1 carries the full
    # Hodge total (48) and the page-1 differential kills half of it
    model = heisenberg3({(1, 2): 1})
    sp = spectral_pages(kb_double_complex(model), 2)
    assert sum(sp.page(1).values()) == 48
    assert sum(sp.page(2).values()) == 24
    assert sp.degeneration_page == 2
    kb = kb_homology(model)
    assert kb.dims == {1: 2, 2: 6, 3: 8, 4: 6, 5: 2}
    by_degree = {}
    for (p, q), d in sp.infinity.items():
        by_degree[p + q + model.n] = by_degree.get(p + q + model.n, 0) + d
    assert by_degree == kb.dims
