from fractions import Fraction

import pytest

from kbhom.complexes import homology_dims
from kbhom.stein import (
    NonHomogeneousBivector,
    PolyBivector,
    SliceCapError,
    slice_basis,
    stein_complex,
    stein_homology,
)

CONSTANT = [(1, 2, 1, (0, 0))]          # ∂/∂z1 ∧ ∂/∂z2 on C², degree 0
LINEAR = [(1, 2, 1, (1, 0))]            # z1 ∂/∂z1 ∧ ∂/∂z2 on C², degree 1


def test_zero_bivector_weight_zero_slice():
    c = stein_complex(2, PolyBivector.zero(2), 0)
    # functions of weight 0: just the constant
    assert c.dim(0) == 1
    assert not c.diffs


def test_zero_bivector_homology_equals_slice_dims():
    h = stein_homology(1, PolyBivector.zero(1), range(0, 3))
    # weight w: the function z^w at p=0 (k=1) and z^{w+1} dz at p=1 (k=0)
    for w in range(3):
        assert h[(w, 1)] == 1
        assert h[(w, 0)] == 1


def test_constant_bivector_weight_minus_two():
    c = stein_complex(2, CONSTANT, -2)
    assert c.spaces == {-2: 1}
    assert homology_dims(c) == {-2: 1}


def test_constant_bivector_weight_zero_slice_is_exact():
    c = stein_complex(2, CONSTANT, 0)
    assert c.dim(0) == 1 and c.dim(-1) == 4 and c.dim(-2) == 3
    assert homology_dims(c) == {-2: 0, -1: 0, 0: 0}


def test_constant_bivector_weight_minus_one_exact():
    h = stein_homology(2, CONSTANT, [-1])
    assert h == {(-1, 0): 0, (-1, 1): 0, (-1, 2): 0}


def test_linear_bivector_weight_one():
    # hand computation: d from 2-forms has rank 2, d from 1-forms rank 1
    h = stein_homology(2, LINEAR, [1])
    assert h == {(1, 2): 1, (1, 1): 1, (1, 0): 0}


def test_per_slice_euler_identity():
    for pi in (CONSTANT, LINEAR):
        for w in range(-2, 4):
            c = stein_complex(2, pi, w)
            h = homology_dims(c)
            chi_h = sum((-1) ** k * v for k, v in h.items())
            chi_c = sum((-1) ** k * v for k, v in c.spaces.items())
            assert chi_h == chi_c


def test_slices_are_closed_and_squared_zero():
    # construction itself asserts closure and d∘d = 0; touch many weights
    for w in range(-3, 5):
        stein_complex(2, CONSTANT, w)
        stein_complex(2, LINEAR, w)


def test_empty_weight_range():
    assert stein_homology(2, CONSTANT, []) == {}


def test_cap_rejects_rather_than_truncates():
    with pytest.raises(SliceCapError):
        stein_complex(2, CONSTANT, 9, cap=8)
    # generous cap accepts the same request
    assert stein_complex(2, CONSTANT, 9, cap=20).dim(0) == 10


def test_non_homogeneous_rejected():
    with pytest.raises(NonHomogeneousBivector):
        PolyBivector.from_terms(2, [(1, 2, 1, (0, 0)), (1, 2, 1, (1, 0))])


def test_antisymmetry_normalization():
    pi = PolyBivector.from_terms(2, [(2, 1, 1, (0, 0))])
    assert pi.terms == {(1, 2): {(0, 0): Fraction(-1)}}
    cancel = PolyBivector.from_terms(2, [(1, 2, 1, (0, 0)), (2, 1, 1, (0, 0))])
    assert cancel.is_zero()


@pytest.mark.parametrize("term", [(1, 2, 0.1, (0, 0)), (1, 2, True, (0, 0)),
                                  (1, 2, 1, (True, False)), (True, 2, 1, (0, 0)),
                                  (1, 2.0, 1, (0, 0)), (1, 2, 1, (0.0, 1))])
def test_from_terms_rejects_inexact_and_boolean_terms(term):
    with pytest.raises(TypeError):
        PolyBivector.from_terms(2, [term])


def test_from_dict_terms():
    pi = PolyBivector.from_terms(
        2, [{"i": 1, "j": 2, "coeff": "1/2", "alpha": [1, 0]}])
    assert pi.degree == 1
    assert pi.terms[(1, 2)][(1, 0)] == Fraction(1, 2)


def test_slice_basis_ordering_is_deterministic():
    basis = slice_basis(2, 0, 0, 8)
    assert basis[1] == [((0, 1), (1,)), ((0, 1), (2,)),
                        ((1, 0), (1,)), ((1, 0), (2,))]


def test_three_variable_poisson_slice():
    # z1 ∂/∂z2 ∧ ∂/∂z3 is Poisson on C³; several slices must validate
    pi = PolyBivector.from_terms(3, [(2, 3, 1, (1, 0, 0))])
    h = stein_homology(3, pi, range(0, 3))
    for (w, k), v in h.items():
        assert v >= 0
    for w in range(3):
        c = stein_complex(3, pi, w)
        chi_h = sum((-1) ** k * v for k, v in homology_dims(c).items())
        chi_c = sum((-1) ** k * v for k, v in c.spaces.items())
        assert chi_h == chi_c
