import re
from collections.abc import Mapping
from fractions import Fraction

import pytest

from kbhom.complexes import BlockMap, ChainMap, Complex, DoubleComplex
from kbhom.linalg import Matrix, Subspace
from kbhom.models import (
    DolbeaultPoissonModel,
    ModelValidationError,
    WedgeBasis,
    factor_contraction,
    koszul_differential,
    normalize_bivector_coeffs,
    product_model,
    validate_model,
)
from kbhom.stein import PolyBivector
from kbhom.zoo import model_to_json, parallelizable, point, torus
from support import BAD_RATIONALS, OracleWedgeBasis, monomial_label


def heisenberg3(pi=None):
    return parallelizable(3, {(1, 2, 3): 1}, pi)


def label_index(model, cell, label):
    return model.basis[cell].index(label)


def test_zero_contraction_gives_zero_koszul():
    m = heisenberg3(None)
    assert not koszul_differential(m)


def test_torus_koszul_vanishes_even_with_contraction():
    m = torus(2, {(1, 2): 1})
    assert m.contraction_blocks
    assert not koszul_differential(m)


def test_heisenberg_koszul_nonzero_for_pi12():
    m = heisenberg3({(1, 2): 1})
    kos = koszul_differential(m)
    assert kos
    # dz3 |-> -1 at bidegree (1,0): the contraction eats del(dz3) = -dz1^dz2
    block = kos.at((1, 0))
    col = label_index(m, (1, 0), "dz3")
    row = label_index(m, (0, 0), "1")
    assert block[row, col] == Fraction(-1)
    assert block[label_index(m, (0, 0), "1"), label_index(m, (1, 0), "dz1")] == 0
    # dz1^dz2^dz3 |-> +dz1^dz2 at bidegree (3,0)
    top = kos.at((3, 0))
    col = label_index(m, (3, 0), "dz1^dz2^dz3")
    row = label_index(m, (2, 0), "dz1^dz2")
    assert top[row, col] == Fraction(1)


def test_heisenberg_koszul_vanishes_for_pi13():
    # the pair (1,3) never matches the dz1^dz2 created by del, so the
    # derived differential is identically zero for this bivector
    m = heisenberg3({(1, 3): 1})
    assert not koszul_differential(m)


def test_contraction_pairing_convention():
    m = torus(2, {(1, 2): 1})
    blocks = m.contraction_blocks
    top = blocks[(2, 0)]
    assert top[label_index(m, (0, 0), "1"),
               label_index(m, (2, 0), "dz1^dz2")] == Fraction(1)


def test_contraction_on_one_forms_is_zero():
    blocks = torus(2, {(1, 2): 1}).contraction_blocks
    assert (1, 0) not in blocks and (1, 1) not in blocks


def test_contraction_interior_product_signs():
    m = torus(3, {(1, 2): 1})
    blk = m.contraction_blocks[(3, 0)]
    col = label_index(m, (3, 0), "dz1^dz2^dz3")
    assert blk[label_index(m, (1, 0), "dz3"), col] == Fraction(1)
    # and with the pair (1,3) the middle generator survives with a sign
    blk13 = torus(3, {(1, 3): 1}).contraction_blocks[(3, 0)]
    assert blk13[label_index(m, (1, 0), "dz2"), col] == Fraction(-1)


def test_contraction_is_linear_in_the_bivector():
    wedge = WedgeBasis(3)
    one = factor_contraction(wedge, {(1, 2): 1, (2, 3): 1})
    scaled = factor_contraction(wedge, {(1, 2): Fraction(5), (2, 3): Fraction(5)})
    assert set(one) == set(scaled)
    for cell, blk in one.items():
        assert scaled[cell] == Fraction(5) * blk


def test_contraction_rejects_non_antisymmetric_matrix():
    with pytest.raises(ValueError, match="antisymmetric"):
        torus(2, [[0, 1], [1, 0]])


def test_validate_torus_passes():
    report = validate_model(torus(1))
    assert report.ok
    assert [c.identity for c in report.checks] == [
        "del∘del", "delbar∘delbar", "del∘delbar + delbar∘del",
        "delpi∘delpi", "delbar∘delpi + delpi∘delbar"]


def test_validate_single_dangling_block_passes():
    # one delbar block with nothing to compose against: every identity holds
    base = torus(1)
    m = DolbeaultPoissonModel(
        1, dict(base.basis),
        delbar_blocks={(0, 0): Matrix.from_rows([[7]])})
    assert validate_model(m).ok


def test_validate_heisenberg_64dim_passes():
    report = validate_model(heisenberg3({(1, 2): 1}))
    assert report.ok


def test_validate_reports_offending_bidegree():
    base = torus(2)
    # delbar that fails to square to zero: (0,0)->(0,1) onto dzb1, then
    # (0,1)->(0,2) sending dzb1 onto dzb1^dzb2
    b1 = Matrix(2, 1, {(0, 0): 1})
    b2 = Matrix(1, 2, {(0, 0): 1})
    m = DolbeaultPoissonModel(2, dict(base.basis),
                              delbar_blocks={(0, 0): b1, (0, 1): b2})
    report = validate_model(m)
    assert not report.ok
    bad = report.first_failure()
    assert bad.identity == "delbar∘delbar"
    assert bad.bidegree == (0, 0)
    assert not bad.residual.is_zero()


def test_koszul_differential_raises_on_invalid_model():
    base = torus(2)
    b1 = Matrix(2, 1, {(0, 0): 1})
    b2 = Matrix(1, 2, {(0, 0): 1})
    m = DolbeaultPoissonModel(2, dict(base.basis),
                              delbar_blocks={(0, 0): b1, (0, 1): b2})
    with pytest.raises(ModelValidationError, match="not a valid holomorphic Poisson model"):
        koszul_differential(m)


@pytest.mark.parametrize("field", [
    "basis", "dims", "del_blocks", "delbar_blocks", "contraction_blocks", "koszul"])
def test_model_mappings_are_read_only_after_validation(field):
    # the stored validation report must describe the model's current blocks
    m = heisenberg3({(1, 2): 1})
    assert validate_model(m).ok
    mapping = koszul_differential(m) if field == "koszul" else getattr(m, field)
    before = dict(mapping)
    with pytest.raises(TypeError):
        mapping[(0, 0)] = Matrix(3, 1, {(0, 0): 1})
    with pytest.raises(TypeError):
        del mapping[next(iter(mapping))]
    with pytest.raises(AttributeError):  # a read-only mapping has no clear()
        mapping.clear()
    # nor can an attribute, the stored proof or a block map's shape be deleted
    names = ["_validated"] + ([] if field == "koszul" else [field])
    shape = [(mapping, "source"), (mapping, "degree")] * isinstance(mapping, BlockMap)
    for owner, name in [(m, name) for name in names] + shape:
        with pytest.raises(AttributeError, match=f"^{type(owner).__name__} is immutable$"):
            delattr(owner, name)
    assert dict(mapping) == before
    assert validate_model(m).ok


def test_model_metadata_is_a_read_only_copy():
    """A validated model's file cannot change: its metadata takes no item
    assignment, and changing the dict it was built from changes nothing."""
    m = torus(1)
    assert validate_model(m).ok
    with pytest.raises(TypeError):
        m.metadata["family"] = "x"
    source = {"family": "hand-made"}
    hand_made = DolbeaultPoissonModel(1, {(0, 0): ["1"]}, metadata=source)
    before = model_to_json(hand_made)
    source["family"] = "x"
    assert model_to_json(hand_made) == before


def checked_value(kind: str):
    """A built value of class ``kind``, one whose checks are made once."""
    one = Matrix.from_rows([[1]])
    c = Complex({0: 1, 1: 1}, {0: one})
    m = heisenberg3({(1, 2): 1})
    return {"BlockMap": lambda: m.del_blocks, "Complex": lambda: c,
            "DoubleComplex": lambda: DoubleComplex({(0, 0): 1, (1, 0): 1}, d1={(0, 0): one}),
            "ChainMap": lambda: ChainMap(c, c, {0: one, 1: one}),
            "Subspace": lambda: Subspace(1, one), "DolbeaultPoissonModel": lambda: m,
            "PolyBivector": lambda: PolyBivector.from_terms(2, [(1, 2, 1, (1, 0))]),
            "ValidationReport": lambda: validate_model(m),
            "CheckResult": lambda: validate_model(m).checks[0]}[kind]()


@pytest.mark.parametrize("kind, fields", [
    ("BlockMap", ["source", "target", "degree"]),
    ("Complex", ["spaces", "diffs"]),
    ("DoubleComplex", ["spaces", "d1", "d2"]),
    ("ChainMap", ["source", "target", "blocks"]),
    ("Subspace", ["ambient_dim", "basis"]),
    ("DolbeaultPoissonModel", ["n", "basis", "dims", "del_blocks", "delbar_blocks",
                               "contraction_blocks", "name", "metadata"]),
    ("PolyBivector", ["n", "degree", "terms"]),
    ("ValidationReport", ["checks"]),
    ("CheckResult", ["identity", "ok", "bidegree", "residual"]),
])
def test_checked_values_cannot_be_reassigned(kind, fields):
    """No public attribute of a checked value can be reassigned or deleted,
    and none that is a mapping takes item assignment, so no check made on
    the value can go stale."""
    value = checked_value(kind)
    assert type(value).__name__ == kind
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
        if isinstance(before, Mapping):
            with pytest.raises(TypeError):
                before[(0, 0)] = None


@pytest.mark.parametrize("field, cell, expected", [
    ("del_blocks", (0, 0), (2, 1)),
    ("delbar_blocks", (0, 0), (2, 1)),
    ("contraction_blocks", (2, 0), (1, 1)),
])
def test_model_rejects_a_wrong_shaped_block(field, cell, expected):
    message = f"block at {cell} has shape (1, 2), expected {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        DolbeaultPoissonModel(2, dict(torus(2).basis), **{field: {cell: Matrix(1, 2)}})


@pytest.mark.parametrize("build, error", [
    (lambda: DolbeaultPoissonModel(1.5, {(0, 0): ["1"]}), TypeError),
    (lambda: DolbeaultPoissonModel(True, {(0, 0): ["1"]}), TypeError),
    (lambda: DolbeaultPoissonModel(-1, {}), ValueError),
    (lambda: DolbeaultPoissonModel(1, {(0.5, 1): ["a"]}), TypeError),
    (lambda: DolbeaultPoissonModel(1, {(0, 0): "ab"}), TypeError),
    (lambda: DolbeaultPoissonModel(1, {(0, 0): ["a", 1]}), TypeError),
    (lambda: DolbeaultPoissonModel(1, {0: ["a"]}), ValueError),
    (lambda: DolbeaultPoissonModel(1, {(2, 0): ["a"]}), ValueError),
], ids=["float-n", "bool-n", "negative-n", "float-cell", "string-labels", "int-label",
        "degree-key", "cell-out-of-range"])
def test_model_rejects_a_dimension_or_basis_that_is_not_strict(build, error):
    # a (0.5, 1) cell made an empty KB table, and "ab" two basis elements
    with pytest.raises(error):
        build()


def test_model_basis_drops_empty_cells_and_keeps_labels_as_given():
    m = DolbeaultPoissonModel(1, {(0, 0): ("1",), (5, 5): [], (1, 1): ["a", "b"]})
    assert dict(m.basis) == {(0, 0): ("1",), (1, 1): ("a", "b")}
    assert dict(m.dims) == {(0, 0): 1, (1, 1): 2}


def test_contraction_from_bivector_rejects_inexact_coefficients():
    for pi in ({(1, 2): 0.5}, {(1, 2): True}, [[0, 0.5], [-0.5, 0]]):
        with pytest.raises(TypeError):
            torus(2, pi)
    assert torus(2, {(1, 2): "1/2"}).contraction_blocks == \
        torus(2, [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]).contraction_blocks


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bivector_matrix_entries_are_a_over_b_only(bad):
    with pytest.raises(ValueError, match="is not a rational"):
        normalize_bivector_coeffs(2, [["0", bad], ["-1", "0"]])
    assert normalize_bivector_coeffs(2, [["0", "1/2"], ["-1/2", "0"]]) == \
        {(1, 2): Fraction(1, 2)}


def test_product_with_point_is_isomorphic_copy():
    m = heisenberg3({(1, 2): 1})
    prod = product_model(m, point())
    assert prod.n == m.n
    for cell in m.cells():
        assert prod.dim(*cell) == m.dim(*cell)
    for cell, blk in m.del_blocks.items():
        assert prod.del_blocks[cell] == blk
    for cell, blk in m.contraction_blocks.items():
        assert prod.contraction_blocks[cell] == blk


def test_product_of_two_tori():
    prod = product_model(torus(1), torus(1))
    assert prod.n == 2
    assert prod.total_dim() == 16
    for p in range(3):
        for q in range(3):
            from math import comb
            assert prod.dim(p, q) == comb(2, p) * comb(2, q)


def test_product_model_validates():
    mx = parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})
    prod = product_model(mx, torus(1))
    assert validate_model(prod).ok


def test_product_koszul_satisfies_leibniz_rule():
    """The derived differential of a product must split as
    delpi_x ⊗ 1 + (-1)^{deg} 1 ⊗ delpi_y on every pair of basis elements."""
    mx = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    my = parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})
    prod = product_model(mx, my)
    kos_x = koszul_differential(mx)
    kos_y = koszul_differential(my)
    kos_p = koszul_differential(prod)

    def column_as_labels(model, kos, cell, col):
        blk = kos.at(cell)
        tgt = model.basis.get((cell[0] - 1, cell[1]), ())
        return {tgt[i]: v for (i, j), v in blk.entries.items() if j == col}

    for cx in mx.cells():
        sign = -1 if (cx[0] + cx[1]) % 2 else 1
        for cy in my.cells():
            cell = (cx[0] + cy[0], cx[1] + cy[1])
            for i, lx in enumerate(mx.basis[cx]):
                left = column_as_labels(mx, kos_x, cx, i)
                for j, ly in enumerate(my.basis[cy]):
                    right = column_as_labels(my, kos_y, cy, j)
                    expected = {}
                    for lab, v in left.items():
                        expected[f"{lab}*{ly}"] = v
                    for lab, v in right.items():
                        key = f"{lx}*{lab}"
                        expected[key] = expected.get(key, 0) + sign * v
                    expected = {k: v for k, v in expected.items() if v}
                    col = prod.basis[cell].index(f"{lx}*{ly}")
                    actual = column_as_labels(prod, kos_p, cell, col)
                    assert actual == expected, (cx, cy, lx, ly)


def test_product_of_formal_models_convolves_homology():
    from kbhom.engine import HodgeDiamond, kb_homology
    from kbhom.zoo import hodge_formal

    p1 = hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1}))
    prod = product_model(p1, p1)
    assert kb_homology(prod).dims == {2: 4}


def test_wedge_labels():
    w = WedgeBasis(2)
    assert monomial_label(((), ())) == "1"
    assert w.labels(1, 1) == ["dz1^dzb1", "dz1^dzb2", "dz2^dzb1", "dz2^dzb2"]


@pytest.mark.parametrize("n", range(9))
def test_wedge_labels_match_the_oracle_label_formula(n):
    """The per-factor join against ``monomial_label`` on every monomial
    of every cell."""
    w, oracle = WedgeBasis(n), OracleWedgeBasis(n)
    for (p, q), monos in oracle.monomials.items():
        assert w.labels(p, q) == [monomial_label(m) for m in monos], (p, q)
