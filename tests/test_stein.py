from fractions import Fraction

import pytest

from kbhom import complexes, linalg
from kbhom.complexes import Complex, _complex_of, _homology, homology_dims
from kbhom.stein import (
    NonHomogeneousBivector,
    NotPoissonOnSlice,
    PolyBivector,
    SliceCapError,
    _compositions,
    _KoszulTables,
    _slice_sources,
    stein_complex,
    stein_homology,
)
from support import BAD_RATIONALS, oracle_compositions, oracle_rank, slice_basis

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
    # construction itself asserts closure, and both bivectors are Poisson,
    # which proves d∘d = 0; touch many weights
    for w in range(-3, 5):
        stein_complex(2, CONSTANT, w)
        stein_complex(2, LINEAR, w)


def test_empty_weight_range():
    assert stein_homology(2, CONSTANT, []) == {}


def test_negative_cap_is_a_value_error():
    for call in (lambda: stein_complex(2, CONSTANT, 0, cap=-1),
                 lambda: stein_homology(2, CONSTANT, [0], cap=-1)):
        with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
            call()


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


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_from_terms_reads_string_coefficients_as_a_over_b_only(bad):
    with pytest.raises(ValueError, match="is not a rational"):
        PolyBivector.from_terms(2, [(1, 2, bad, (0, 0))])
    pi = PolyBivector.from_terms(2, [{"i": 1, "j": 2, "coeff": "-2/4", "alpha": [0, 0]}])
    assert pi.terms == {(1, 2): {(0, 0): Fraction(-1, 2)}}


@pytest.mark.parametrize("term, message", [
    ({"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0], "colour": "red"},
     "term 1: unknown fields ['colour']"),
    ({"i": 1, "j": 2, "alpha": [0, 0]}, "term 1: missing field 'coeff'"),
    ({"j": 2, "coeff": "1", "alpha": [0, 0]}, "term 1: missing field 'i'"),
    ({}, "term 1: missing field 'i'"),
])
def test_from_terms_dict_terms_have_exactly_four_fields(term, message):
    good = {"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0]}
    with pytest.raises(ValueError) as info:
        PolyBivector.from_terms(2, [good, term])
    assert str(info.value) == message


@pytest.mark.parametrize("term, error, message", [
    ([1, 2, "1"], ValueError,
     "term 1: a list term has the 4 entries [i, j, coeff, alpha], not 3"),
    ([1, 2, "1", [0, 0], 5], ValueError,
     "term 1: a list term has the 4 entries [i, j, coeff, alpha], not 5"),
    (5, TypeError, "term 1: a term is a list [i, j, coeff, alpha] or a dict, not int"),
    (None, TypeError, "term 1: a term is a list [i, j, coeff, alpha] or a dict, not NoneType"),
    ([1, 2, "1", 7], TypeError, "term 1: alpha must be a list of exponents, not int"),
    ({"i": 1, "j": 2, "coeff": "1", "alpha": 7}, TypeError,
     "term 1: alpha must be a list of exponents, not int"),
], ids=["short", "long", "int", "null", "list-alpha-int", "dict-alpha-int"])
def test_from_terms_names_a_misshapen_term(term, error, message):
    good = [1, 2, "1", [0, 0]]
    with pytest.raises(error) as info:
        PolyBivector.from_terms(2, [good, term])
    assert type(info.value) is error
    assert str(info.value) == message


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        PolyBivector.from_terms(-1, [])
    with pytest.raises(ValueError):
        PolyBivector.zero(-1)
    with pytest.raises(ValueError):
        stein_complex(-1, [], 0)
    with pytest.raises(ValueError):
        stein_homology(-1, [], [0])
    # n = 0 is C^0: one point, the constant function in weight 0
    assert stein_homology(0, [], [0, 1]) == {(0, 0): 1, (1, 0): 0}


def test_from_dict_terms():
    pi = PolyBivector.from_terms(
        2, [{"i": 1, "j": 2, "coeff": "1/2", "alpha": [1, 0]}])
    assert pi.degree == 1
    assert pi.terms[(1, 2)][(1, 0)] == Fraction(1, 2)


def test_compositions_keep_the_recursive_lex_order():
    for total in range(-2, 13):
        for parts in range(6):
            assert _compositions(total, parts) == list(oracle_compositions(total, parts))


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


SO3 = [(1, 2, 1, (0, 0, 1)), (2, 3, 1, (1, 0, 0)), (3, 1, 1, (0, 1, 0))]
# from_terms(3, [(2, 1, 1, (0, 0, 1))]) is -z3 ∂1∧∂2, stored as below
SWAPPED = {(1, 2): {(0, 0, 1): Fraction(-1)}}


@pytest.mark.parametrize("call, error, message", [
    (lambda: PolyBivector.from_terms(3.0, []), TypeError, "n must be an int, not float"),
    (lambda: PolyBivector.from_terms(True, []), TypeError, "n must be an int, not bool"),
    (lambda: PolyBivector.from_terms("3", SO3), TypeError, "n must be an int, not str"),
    (lambda: PolyBivector.from_terms(3, [], degree=1.5), TypeError,
     "degree must be an int, not float"),
    (lambda: PolyBivector.from_terms(3, SO3, degree=True), TypeError,
     "degree must be an int, not bool"),
    (lambda: PolyBivector.from_terms(3, [], degree=-1), ValueError, "degree = -1 is negative"),
    (lambda: PolyBivector.zero(2, -1), ValueError, "degree = -1 is negative"),
    (lambda: PolyBivector(2, 1.0, {}), TypeError, "degree must be an int, not float"),
    (lambda: PolyBivector(3, 1, {(2, 1): {(0, 0, 1): Fraction(1)}}), ValueError,
     "bivector key (2,1) is not stored as i < j"),
    (lambda: PolyBivector(3, 2, SWAPPED), NonHomogeneousBivector,
     "declared degree 2 does not match terms of degree 1"),
    (lambda: PolyBivector(3, 1, {(1, 2): {(0, 1): 1}}), ValueError,
     "monomial exponent (0, 1) is not a valid multi-index"),
    (lambda: PolyBivector(3, 1, {(1, 2): {(0, 0, 1): 1.0}}), TypeError,
     "1.0 is not an exact rational"),
    (lambda: PolyBivector(3, 1, {(1, 4): {(0, 0, 1): 1}}), ValueError,
     "bivector indices (1,4) out of range for n=3"),
    (lambda: PolyBivector(3, 1, {(1, 1): {(0, 0, 1): 1}}), ValueError,
     "bivector term with i == j"),
    (lambda: PolyBivector(3, 1, {(1, 2): {(0, 0, True): 1}}), TypeError,
     "bivector indices and exponents must be integers, not True"),
    (lambda: PolyBivector(3, 1, {(5, 9): {}}), ValueError,
     "bivector indices (5,9) out of range for n=3"),
    (lambda: PolyBivector(3, 1, {5: {}}), TypeError, "bivector key 5 is not a pair (i, j)"),
    (lambda: PolyBivector(3, 1, {(1, 2, 3): {(0, 0, 1): 1}}), TypeError,
     "bivector key (1, 2, 3) is not a pair (i, j)"),
    (lambda: stein_complex(3, SO3, True, 8), TypeError, "w must be an int, not bool"),
    (lambda: stein_complex(3, SO3, 1, 8.5), TypeError, "cap must be an int, not float"),
    (lambda: stein_complex(3, SO3, 1, True), TypeError, "cap must be an int, not bool"),
    (lambda: stein_homology(3, SO3, [0, 1.0]), TypeError, "w must be an int, not float"),
    (lambda: stein_complex(3.0, PolyBivector.from_terms(3, SO3), 1), TypeError,
     "n must be an int, not float"),
], ids=["n-float", "n-bool", "n-str", "degree-float", "degree-bool", "degree-negative",
        "zero-degree-negative", "init-degree-float", "init-swapped-key", "init-degree",
        "init-short-alpha", "init-float", "init-range", "init-diagonal",
        "init-bool-exponent", "init-empty-range", "init-int-key", "init-triple-key",
        "w-bool", "cap-float", "cap-bool", "homology-w-float", "complex-n-float"])
def test_stein_arguments_are_strictly_typed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_constructor_keeps_a_fresh_copy():
    """The bivector reads the same after its input dict changes, and
    integer or string coefficients are stored as Fractions, zeros dropped."""
    expected = stein_homology(3, PolyBivector.from_terms(3, [(2, 1, 1, (0, 0, 1))]), [1])
    terms = {(1, 2): {(0, 0, 1): -1, (1, 0, 0): "0"}}
    pi = PolyBivector(3, 1, terms)
    assert pi.terms == SWAPPED and pi.terms is not terms
    terms[(1, 2)][(0, 0, 1)] = 5
    terms[(2, 3)] = {(1, 0, 0): 1}
    assert pi.terms == SWAPPED
    assert stein_homology(3, pi, [1]) == expected


def test_stored_terms_are_read_only():
    """A built bivector's terms take no item assignment, neither a new key
    nor a new coefficient, so none skips the stored-form checks; they still
    compare equal to the plain dict."""
    pi = PolyBivector.from_terms(3, [(2, 1, 1, (0, 0, 1))])
    with pytest.raises(TypeError):
        pi.terms[(1, 3)] = {(1, 0, 0): Fraction(1)}
    with pytest.raises(TypeError):
        pi.terms[(1, 2)][(0, 0, 1)] = Fraction(5)
    assert pi.terms == SWAPPED


def test_only_non_poisson_slices_are_squared(monkeypatch):
    """No slice is squared: ``stein_homology`` reduces a Poisson bivector's
    slices as they are built, with no ``Complex`` and no ``Matrix`` (so no
    D² check, which [pi, pi] = 0 proves), and refuses any other bivector
    before a single per-I table of ``_KoszulTables`` is built."""
    squared, built, matrices, entries = [], [], [], []
    monkeypatch.setattr(Complex, "validate", lambda c: squared.append(c.spaces))
    complex_init = Complex.__init__
    monkeypatch.setattr(Complex, "__init__",
                        lambda c, *args, **kw: built.append(complex_init(c, *args, **kw)))
    from_columns = complexes._from_columns
    monkeypatch.setattr(complexes, "_from_columns",
                        lambda *args: matrices.append(1) or from_columns(*args))
    build = _KoszulTables._build
    monkeypatch.setattr(_KoszulTables, "_build",
                        lambda tables, i_set: entries.append(i_set) or build(tables, i_set))
    assert PolyBivector.from_terms(3, SO3).is_poisson()
    assert stein_homology(3, SO3, range(4), 40) == stein_homology(3, SO3, range(4), 40)
    assert entries
    entries.clear()
    not_poisson = [(1, 2, 1, (2, 0, 0)), (1, 3, 1, (0, 0, 2))]
    assert not PolyBivector.from_terms(3, not_poisson).is_poisson()
    with pytest.raises(NotPoissonOnSlice):
        stein_homology(3, not_poisson, range(3), 40)
    assert squared == built == matrices == entries == []


def test_stein_homology_eliminates_only_the_uncleared_columns(monkeypatch):
    """For a Poisson bivector each column of d^{-p} but those at the pivot
    rows of d^{-p-1} is built and eliminated once: Σ (dim Ω^p - rank
    d^{-p-1}) over the weights and the p >= 1, ranks by the dense oracle."""
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: calls.append(1) or eliminate(*args))
    stein_homology(3, SO3, range(13), 40)
    expected = 0
    for w in range(13):
        c = stein_complex(3, SO3, w, 40)
        expected += sum(c.dim(-p) - oracle_rank(c.d(-p - 1)) for p in range(1, 4))
    assert len(calls) == expected == 1820


def test_corrupted_tables_cannot_leave_the_slice():
    """Monomial keys are sound only for table terms that keep the weight and
    lower no exponent but α_g, by one, in a term weighted by α_g.  A term
    breaking that is refused as its table is built; a term corrupted after
    the build lands on a key outside the slice, which the builder refuses,
    naming the weight."""
    so3 = PolyBivector.from_terms(3, SO3)
    for poly, shift in (({(0, 0, 2): 1}, 1),     # degree 2 in a degree-1 bivector
                        ({(-1, 1, 1): 1}, 0)):   # an exponent -1 off the generator
        tables = _KoszulTables(so3, 40)
        tables.terms[(1, 2)] = poly
        with pytest.raises(AssertionError, match=rf"shifts the weight by {shift} or can take"):
            _complex_of(*_slice_sources(tables, 5))
    tables = _KoszulTables(so3, 40)
    [(g, offset, c), *rest], distinct = tables[(1, 2)]
    up = tables.key((1, 0, 0), ())  # one more z_1: the target's weight is 6
    tables._tables[(1, 2)] = ([(g, offset + up, c), *rest], distinct)
    for build in (_complex_of, _homology):  # the matrix and the rank path
        with pytest.raises(AssertionError, match=r"^delpi left the weight-5 slice from \("):
            build(*_slice_sources(tables, 5))
    fresh = _complex_of(*_slice_sources(_KoszulTables(so3, 40), 5))
    assert fresh.diffs == stein_complex(3, so3, 5, 40).diffs
