import doctest
import random

import pytest

import kbhom.rules
from kbhom.engine import (
    HHDims,
    HodgeDiamond,
    KBDims,
    euler_char,
    hkr_hochschild,
    kb_homology,
)
from kbhom.models import product_model
from kbhom.rules import (
    BlowupData,
    InconsistentBlowupError,
    blowup_hodge,
    blowup_kb,
    blowup_point_kb,
    flag_bundle_hh,
    flag_manifold_kb,
    kunneth_dims,
    leray_hirsch_hh,
    mv_euler_check,
    projective_bundle_hodge,
)
from kbhom.zoo import torus

TORUS1 = KBDims(1, {0: 1, 1: 2, 2: 1})
POINT = KBDims(0, {0: 1})
SURFACE = KBDims(2, {0: 1, 1: 4, 2: 6, 3: 4, 4: 1})


def test_doctests():
    results = doctest.testmod(kbhom.rules)
    assert results.failed == 0 and results.attempted > 0


def test_kunneth_point_is_unit():
    assert kunneth_dims(POINT, TORUS1) == TORUS1
    assert kunneth_dims(TORUS1, POINT) == TORUS1


def test_kunneth_torus_squared():
    assert kunneth_dims(TORUS1, TORUS1) == SURFACE


def test_kunneth_matches_chain_level_product():
    prod = product_model(torus(1), torus(1))
    assert kb_homology(prod) == kunneth_dims(TORUS1, TORUS1)


def test_kunneth_flag_product():
    p1 = flag_manifold_kb(1, 2)
    assert kunneth_dims(p1, p1) == KBDims(2, {2: 4})


def test_kunneth_commutative_associative():
    rng = random.Random(3)
    tables = [KBDims(n, {k: rng.randint(0, 3) for k in range(2 * n + 1)})
              for n in (1, 2, 1)]
    a, b, c = tables
    assert kunneth_dims(a, b) == kunneth_dims(b, a)
    assert kunneth_dims(kunneth_dims(a, b), c) == kunneth_dims(a, kunneth_dims(b, c))


def test_leray_hirsch_identity_class():
    hh = HHDims({-1: 1, 0: 2, 1: 1})
    assert leray_hirsch_hh(hh, [(0, 0)]) == hh


def test_leray_hirsch_p1_over_point():
    assert leray_hirsch_hh(HHDims({0: 1}), [(0, 0), (1, 1)]) == HHDims({0: 2})


def test_leray_hirsch_projective_space_over_point():
    for n in (2, 3, 4):
        classes = [(i, i) for i in range(n)]
        result = leray_hirsch_hh(HHDims({0: 1}), classes)
        assert result == HHDims({0: n})


def test_leray_hirsch_rejects_empty_classes():
    with pytest.raises(ValueError):
        leray_hirsch_hh(HHDims({0: 1}), [])


def test_leray_hirsch_degree_shift_sign():
    # a single class of bidegree (u, v) shifts HH by v - u
    hh = HHDims({0: 1})
    assert leray_hirsch_hh(hh, [(2, 0)]).dims == {2: 1}
    assert leray_hirsch_hh(hh, [(0, 2)]).dims == {-2: 1}


def test_flag_bundle_scalar():
    hh = HHDims({-1: 1, 0: 2, 1: 1})
    assert flag_bundle_hh(hh, 1) == hh
    assert flag_bundle_hh(hh, 6) == HHDims({-1: 6, 0: 12, 1: 6})
    assert flag_bundle_hh(HHDims({0: 1}), 2) == HHDims({0: 2})


def test_flag_manifold_examples():
    assert flag_manifold_kb(1, 2) == KBDims(1, {1: 2})
    assert flag_manifold_kb(2, 3) == KBDims(2, {2: 3})
    assert flag_manifold_kb(0, 1) == POINT


def test_projective_bundle_over_point_is_projective_space():
    for n in (1, 2, 3):
        diamond = projective_bundle_hodge(HodgeDiamond(0, {(0, 0): 1}), n + 1)
        assert diamond == HodgeDiamond(n, {(i, i): 1 for i in range(n + 1)})


def test_projective_bundle_r1_is_identity():
    hy = HodgeDiamond(1, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert projective_bundle_hodge(hy, 1) == hy


def test_projective_bundle_over_torus():
    hy = HodgeDiamond(1, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    he = projective_bundle_hodge(hy, 2)
    assert he.n == 2
    assert he[(1, 1)] == hy[(1, 1)] + hy[(0, 0)] == 2


def test_blowup_hodge_point_in_surface():
    surface = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    blown = blowup_hodge(surface, HodgeDiamond(0, {(0, 0): 1}), 2)
    assert blown[(1, 1)] == 2
    assert blown[(0, 0)] == blown[(2, 2)] == 1
    assert sum(blown.h.values()) == 4


def test_blowup_hodge_empty_center_is_identity():
    surface = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert blowup_hodge(surface, HodgeDiamond(0, {}), 2) == surface


def test_blowup_hodge_point_in_threefold():
    threefold = HodgeDiamond(3, {(i, i): 1 for i in range(4)})
    blown = blowup_hodge(threefold, HodgeDiamond(0, {(0, 0): 1}), 3)
    assert blown[(1, 1)] == 2 and blown[(2, 2)] == 2
    assert blown[(0, 0)] == blown[(3, 3)] == 1


def test_blowup_hodge_dimension_mismatch():
    with pytest.raises(ValueError):
        blowup_hodge(HodgeDiamond(2, {(0, 0): 1}), HodgeDiamond(1, {(0, 0): 1}), 2)


def test_two_sided_bookkeeping_identity_random():
    # h_blowup(p,q) + h_Y(p-r,q-r) = h_X(p,q) + h_E(p-1,q-1) everywhere
    rng = random.Random(11)
    for _ in range(100):
        ny = rng.randint(0, 2)
        r = rng.randint(2, 4)
        nx = ny + r
        hy = HodgeDiamond(ny, {(p, q): rng.randint(0, 5)
                               for p in range(ny + 1) for q in range(ny + 1)})
        hx = HodgeDiamond(nx, {(p, q): rng.randint(0, 5)
                               for p in range(nx + 1) for q in range(nx + 1)})
        he = projective_bundle_hodge(hy, r)
        blown = blowup_hodge(hx, hy, r)
        for p in range(nx + 1):
            for q in range(nx + 1):
                assert blown[(p, q)] + hy[(p - r, q - r)] == \
                    hx[(p, q)] + he[(p - 1, q - 1)], (p, q, r)


def test_blowup_kb_empty_center_is_identity():
    data = BlowupData(2, SURFACE, KBDims(0, {}), KBDims(1, {}))
    assert blowup_kb(data) == SURFACE


def test_blowup_kb_point_in_surface():
    data = BlowupData(2, SURFACE, POINT, flag_manifold_kb(1, 2))
    assert blowup_kb(data) == KBDims(2, {0: 1, 1: 4, 2: 7, 3: 4, 4: 1})


def test_blowup_kb_rejects_negative():
    data = BlowupData(2, KBDims(2, {}), POINT, KBDims(1, {}))
    with pytest.raises(InconsistentBlowupError, match="k=2"):
        blowup_kb(data)


def test_blowup_point_matches_general_rule():
    rng = random.Random(7)
    for n in (2, 3, 4):
        dims = KBDims(n, {k: rng.randint(1, 5) for k in range(2 * n + 1)})
        general = blowup_kb(BlowupData(n, dims, POINT, flag_manifold_kb(n - 1, n)))
        assert general == blowup_point_kb(dims)


def test_blowup_point_twice():
    once = blowup_point_kb(SURFACE)
    twice = blowup_point_kb(once)
    assert twice[2] == SURFACE[2] + 2


def test_blowup_point_requires_dimension_two():
    with pytest.raises(ValueError):
        blowup_point_kb(TORUS1)


def test_blowup_euler_additivity():
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randint(2, 3)
        ny = rng.randint(0, 1)
        nx = ny + r
        x = KBDims(nx, {k: rng.randint(0, 4) for k in range(2 * nx + 1)})
        y = KBDims(ny, {k: rng.randint(0, 4) for k in range(2 * ny + 1)})
        e = KBDims(nx - 1, {k: y[k - r + 1] + rng.randint(0, 4)
                            for k in range(2 * nx - 1)})
        try:
            blown = blowup_kb(BlowupData(r, x, y, e))
        except InconsistentBlowupError:
            continue
        chi_e_shift = -euler_char(e)
        chi_y_shift = (-1) ** r * euler_char(y)
        assert euler_char(blown) == euler_char(x) + chi_e_shift - chi_y_shift


def test_leray_hirsch_agrees_with_hkr_of_projective_bundle():
    rng = random.Random(17)
    for _ in range(20):
        ny = rng.randint(0, 2)
        r = rng.randint(1, 3)
        hy = HodgeDiamond(ny, {(p, q): rng.randint(0, 3)
                               for p in range(ny + 1) for q in range(ny + 1)})
        via_diamond = hkr_hochschild(projective_bundle_hodge(hy, r))
        via_classes = leray_hirsch_hh(hkr_hochschild(hy),
                                      [(i, i) for i in range(r)])
        assert via_diamond == via_classes


def test_mv_euler_check_reflexive():
    assert mv_euler_check(TORUS1, TORUS1, TORUS1, TORUS1)


def test_mv_euler_check_consistent_cover():
    u = KBDims(1, {0: 1})
    uv = KBDims(1, {0: 2})
    union = TORUS1
    assert euler_char(union) == 0
    assert mv_euler_check(u, u, uv, union)


def test_mv_euler_check_inconsistent():
    zero = KBDims(0, {})
    assert not mv_euler_check(zero, zero, zero, POINT)


def test_mv_euler_check_requires_same_n():
    with pytest.raises(ValueError):
        mv_euler_check(TORUS1, TORUS1, TORUS1, POINT)


PT_DIAMOND = HodgeDiamond(0, {(0, 0): 1})
SURFACE_DIAMOND = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})


@pytest.mark.parametrize("call, message", [
    (lambda: flag_manifold_kb(2, True), "b must be an int, not bool"),
    (lambda: flag_manifold_kb(2, 2.0), "b must be an int, not float"),
    (lambda: flag_bundle_hh(HHDims({0: 1}), True), "b_f must be an int, not bool"),
    (lambda: flag_bundle_hh(HHDims({0: 1}), "2"), "b_f must be an int, not str"),
    (lambda: leray_hirsch_hh(HHDims({0: 1}), [(True, 0)]),
     "a class bidegree entry must be an int, not bool"),
    (lambda: leray_hirsch_hh(HHDims({0: 1}), [(0, 0), (1, 1.0)]),
     "a class bidegree entry must be an int, not float"),
    (lambda: leray_hirsch_hh(HHDims({0: 1}), [(0, 0), (1,)]),
     "a class bidegree must be a pair (u, v), not (1,)"),
    (lambda: leray_hirsch_hh(HHDims({0: 1}), [1]),
     "a class bidegree must be a pair (u, v), not 1"),
    (lambda: leray_hirsch_hh(HHDims({0: 1}), [(1, 2, 3)]),
     "a class bidegree must be a pair (u, v), not (1, 2, 3)"),
    (lambda: projective_bundle_hodge(PT_DIAMOND, True), "r must be an int, not bool"),
    (lambda: projective_bundle_hodge(PT_DIAMOND, 2.0), "r must be an int, not float"),
    (lambda: blowup_hodge(SURFACE_DIAMOND, PT_DIAMOND, 2.0), "r must be an int, not float"),
    (lambda: blowup_hodge(SURFACE_DIAMOND, PT_DIAMOND, True), "r must be an int, not bool"),
    (lambda: BlowupData(2.0, SURFACE, POINT, TORUS1), "r must be an int, not float"),
    (lambda: BlowupData(True, SURFACE, POINT, TORUS1), "r must be an int, not bool"),
], ids=["flag-b-bool", "flag-b-float", "bundle-b_f-bool", "bundle-b_f-str",
        "leray-hirsch-bool", "leray-hirsch-float", "leray-hirsch-single",
        "leray-hirsch-int", "leray-hirsch-triple", "pbundle-r-bool", "pbundle-r-float",
        "blowup-hodge-r-float", "blowup-hodge-r-bool", "blowup-data-r-float",
        "blowup-data-r-bool"])
def test_rules_take_plain_int_arguments(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert type(info.value) is TypeError and str(info.value) == message
