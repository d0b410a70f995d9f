import json
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbhom import models
from kbhom.engine import HodgeDiamond, kb_homology
from kbhom.linalg import Matrix
from kbhom.models import (
    DolbeaultPoissonModel,
    ModelValidationError,
    koszul_differential,
    product_model,
    validate_model,
)
from kbhom.zoo import (
    ModelFileError,
    StructureConstantError,
    _cell_key,
    _encode,
    hodge_formal,
    load_model,
    model_to_json,
    parallelizable,
    point,
    read_model,
    save_model,
    torus,
    write_model,
)
from support import BAD_RATIONALS, dense, oracle_model_to_json


def test_torus1_shape():
    m = torus(1)
    assert m.total_dim() == 4
    assert not m.del_blocks and not m.delbar_blocks and not m.contraction_blocks


def test_torus_with_bivector_still_has_zero_koszul():
    m = torus(2, {(1, 2): 1})
    assert m.contraction_blocks
    assert not koszul_differential(m)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_torus_dimensions_are_binomial(n):
    m = torus(n)
    for p in range(n + 1):
        for q in range(n + 1):
            assert m.dim(p, q) == comb(n, p) * comb(n, q)


def test_torus_alternating_dimension_sum_vanishes():
    for n in (1, 2, 3):
        m = torus(n)
        total = sum((-1) ** (p + q) * m.dim(p, q)
                    for p in range(n + 1) for q in range(n + 1))
        assert total == 0


def test_parallelizable_without_structure_is_a_torus():
    m = parallelizable(2, {})
    t = torus(2)
    assert m.basis == t.basis
    assert not m.del_blocks and not m.delbar_blocks


def test_heisenberg_differential_entries():
    m = parallelizable(3, {(1, 2, 3): 1})
    blk = m.del_blocks[(1, 0)]
    col = m.basis[(1, 0)].index("dz3")
    row = m.basis[(2, 0)].index("dz1^dz2")
    assert blk[row, col] == Fraction(-1)
    assert validate_model(m).ok
    bar = m.delbar_blocks[(0, 1)]
    colb = m.basis[(0, 1)].index("dzb3")
    rowb = m.basis[(0, 2)].index("dzb1^dzb2")
    assert bar[rowb, colb] == Fraction(-1)


def test_heisenberg_with_poisson_bivector_validates():
    m = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    assert validate_model(m).ok
    assert koszul_differential(m)


def test_jacobi_violation_rejected():
    with pytest.raises(StructureConstantError, match="Jacobi"):
        parallelizable(3, {(1, 2, 3): 1, (1, 3, 1): 1})


@pytest.mark.parametrize("structure", [{(1, 2, 3): 0.1}, {(1, 2, 3): True}])
def test_parallelizable_rejects_inexact_structure_constants(structure):
    with pytest.raises(TypeError):
        parallelizable(3, structure)


@pytest.mark.parametrize("pi", [
    {(1, 2): True}, {(1, 2): 0.5}, [[0, 1.0], [-1.0, 0]], [[False, True], [-1, 0]]])
def test_builders_reject_inexact_bivector_coefficients(pi):
    with pytest.raises(TypeError):
        torus(2, pi)
    with pytest.raises(TypeError):
        parallelizable(2, {(1, 2, 1): 1}, pi)


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_builders_read_string_coefficients_as_a_over_b_only(bad):
    with pytest.raises(ValueError, match="is not a rational"):
        torus(2, {(1, 2): bad})
    with pytest.raises(ValueError, match="is not a rational"):
        parallelizable(3, {(1, 2, 3): bad}, {(1, 2): 1})
    with pytest.raises(ValueError, match="is not a rational"):
        parallelizable(3, {(1, 2, 3): 1}, {(1, 2): bad})


@pytest.mark.parametrize("pi", [{(True, 2): 1}, {(1, True): 1}, {(1.0, 2): 1},
                                {("1", 2): 1}])
def test_builders_reject_non_int_bivector_indices(pi):
    with pytest.raises(TypeError, match="generator indices"):
        torus(2, pi)
    with pytest.raises(TypeError, match="generator indices"):
        parallelizable(2, {(1, 2, 1): 1}, pi)


@pytest.mark.parametrize("structure", [{(True, 2, 3): 1}, {(1, 2, True): 1},
                                       {(1, 2.0, 3): 1}, {(1, 2, "3"): 1}])
def test_parallelizable_rejects_non_int_structure_indices(structure):
    with pytest.raises(TypeError, match="generator indices"):
        parallelizable(3, structure)


@pytest.mark.parametrize("build, error, message", [
    (lambda: torus(2, {1: 1}), TypeError, "bivector key 1 is not a pair (i, j)"),
    (lambda: torus(2, {(1, 2, 3): 1}), TypeError, "bivector key (1, 2, 3) is not a pair (i, j)"),
    (lambda: parallelizable(3, {(1, 2): 1}), StructureConstantError,
     "structure constant key (1, 2) is not a triple (i, j, k)"),
    (lambda: torus(2.0), TypeError, "complex dimension must be int, not float"),
    (lambda: DolbeaultPoissonModel(2.0, {}), TypeError, "complex dimension must be int, not float"),
], ids=["pi-int-key", "pi-triple-key", "structure-pair-key", "torus-float-n", "model-float-n"])
def test_builders_name_a_malformed_key_or_dimension(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_structure_key_order_enforced():
    with pytest.raises(StructureConstantError):
        parallelizable(2, {(2, 1, 1): 1})


def test_hodge_formal_p1():
    m = hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1}))
    assert m.total_dim() == 2
    assert m.dim(0, 0) == 1 and m.dim(1, 1) == 1


def test_hodge_formal_empty():
    m = hodge_formal(HodgeDiamond(0, {}))
    assert m.total_dim() == 0


def test_hodge_formal_p2_matches_flag_dimensions():
    diamond = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    dims = kb_homology(hodge_formal(diamond))
    assert dims.dims == {2: 3}


def test_round_trip_torus():
    m = torus(1)
    loaded = load_model(save_model(m))
    assert loaded.basis == m.basis
    assert loaded.del_blocks == m.del_blocks
    assert loaded.delbar_blocks == m.delbar_blocks
    assert loaded.contraction_blocks == m.contraction_blocks
    assert loaded.name == m.name


def test_round_trip_is_byte_stable(tmp_path):
    m = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    write_model(m, path1)
    write_model(read_model(path1), path2)
    assert path1.read_bytes() == path2.read_bytes()


def test_round_trip_preserves_kb_dims(tmp_path):
    m = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    path = tmp_path / "m.json"
    write_model(m, path)
    assert kb_homology(read_model(path)) == kb_homology(m)


def test_load_rejects_broken_square(tmp_path):
    m = torus(2)
    data = save_model(m)
    data["delbar"] = [
        {"from": [0, 0], "matrix": [["1"], ["0"]]},
        {"from": [0, 1], "matrix": [["1", "0"]]},
    ]
    with pytest.raises(ModelValidationError) as err:
        load_model(data)
    assert err.value.identity == "delbar∘delbar"
    assert err.value.bidegree == (0, 0)


def test_load_rejects_a_second_block_from_the_same_cell():
    data = save_model(parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}))
    at = next(i for i, b in enumerate(data["del"]) if b["from"] == [1, 0])
    zero = [["0"] * len(row) for row in data["del"][at]["matrix"]]
    data["del"].insert(at + 1, {"from": [1, 0], "matrix": zero})
    with pytest.raises(ModelFileError, match=r"del\[\d+\]: a second block from \[1, 0\]"):
        load_model(data)


def test_load_rejects_two_basis_keys_for_one_cell():
    data = save_model(torus(1))
    data["basis"]["00,0"] = ["x"]
    with pytest.raises(ModelFileError, match="'00,0' names cell \\(0, 0\\) a second time"):
        load_model(data)


def test_load_rejects_a_basis_cell_outside_the_range():
    data = save_model(torus(1))
    data["basis"]["2,0"] = ["x"]
    with pytest.raises(ModelFileError, match=re.escape("basis bidegree (2, 0) outside [0,1]²")):
        load_model(data)
    data["basis"]["2,0"] = []
    assert load_model(data).total_dim() == 4


@pytest.mark.parametrize("key", ["00,0", "-0,0", "0,00"])
def test_cell_keys_with_leading_zeros_name_the_cell(key):
    assert _cell_key(key) == (0, 0)


@pytest.mark.parametrize("key", [
    "1_0,0", " 1,+0", "+1,0", "1, 0", "1,0\n", "\u0661,0", "1,0,0", "1", "", ","])
def test_cell_keys_are_strict_integers(key):
    with pytest.raises(ValueError):
        _cell_key(key)


def test_load_rejects_unknown_field_unless_lax():
    data = save_model(torus(1))
    data["surprise"] = 1
    with pytest.raises(ModelFileError, match="unknown fields"):
        load_model(data)
    assert load_model(data, lax=True).total_dim() == 4


def test_load_rejects_float_entries():
    data = save_model(torus(1))
    data["contraction"] = [{"from": [1, 0], "matrix": [["0.5"]]}]
    with pytest.raises(ModelFileError, match="rational"):
        load_model(data)


def test_load_rejects_boolean_n():
    data = save_model(torus(1))
    data["n"] = True
    with pytest.raises(ModelFileError, match="'n'"):
        load_model(data)


def test_load_rejects_boolean_matrix_entry():
    data = save_model(torus(1))
    data["contraction"] = [{"from": [1, 0], "matrix": [[True]]}]
    with pytest.raises(ModelFileError, match="rational"):
        load_model(data)


def test_load_rejects_boolean_from_index():
    data = save_model(torus(1))
    data["contraction"] = [{"from": [True, 0], "matrix": [["0"]]}]
    with pytest.raises(ModelFileError, match="'from'"):
        load_model(data)


def _one_entry_delbar(entry):
    # torus(1) with a single 1x1 delbar block (0,0) -> (0,1)
    data = save_model(torus(1))
    data["delbar"] = [{"from": [0, 0], "matrix": [[entry]]}]
    return data


@pytest.mark.parametrize("entry", ["0", "-0", "+0", "00", "0/7", 0])
def test_load_reads_zero_spellings_as_absent(entry):
    m = load_model(_one_entry_delbar(entry))
    assert m.delbar_blocks == {}


@pytest.mark.parametrize("entry", ["0.0", " 0", 0.0, False])
def test_load_rejects_inexact_zero_spellings(entry):
    with pytest.raises(ModelFileError, match="rational"):
        load_model(_one_entry_delbar(entry))


@pytest.mark.parametrize("entry", ["1\n", "\u0661", "\u0661/2", "1/\u0662", "1 ", "1_0",
                                   "\uff11"])
def test_load_rejects_blanks_and_non_ascii_digits(entry):
    with pytest.raises(ModelFileError, match=r"delbar\[0\]\.matrix\[0\]\[0\]"):
        load_model(_one_entry_delbar(entry))


@pytest.mark.parametrize("entry, value", [("-3/4", Fraction(-3, 4)), ("+2", 2),
                                          ("6/4", Fraction(3, 2)), (7, 7)])
def test_load_reads_signed_and_fraction_entries(entry, value):
    m = load_model(_one_entry_delbar(entry))
    assert m.delbar_at(0, 0) == Matrix(1, 1, {(0, 0): value})


def _one_block_delbar(rows):
    # torus(2) with a single 2x4 delbar block (1,1) -> (1,2)
    data = save_model(torus(2))
    data["delbar"] = [{"from": [1, 1], "matrix": rows}]
    return data


@pytest.mark.parametrize("row, j", [(["0", "0.5", "0", "0"], 1), (["0", 0.0, "0", "0"], 1),
                                    (["0", "0", "0", True], 3), (["0", "x", "0", "0"], 1),
                                    ([None, "0", "0", "0"], 0)])
def test_a_bad_entry_in_a_mostly_zero_row_names_its_position(row, j):
    with pytest.raises(ModelFileError, match=rf"delbar\[0\]\.matrix\[1\]\[{j}\]: "):
        load_model(_one_block_delbar([["0"] * 4, row]))


@pytest.mark.parametrize("row", [["0", 0, "0", "0"], ["00", "0", "-0", "0"], [0, 0, 0, 0],
                                 ["0", "+0", "0/5", "0"]])
def test_rows_of_zero_spellings_load_as_zero(row):
    m = load_model(_one_block_delbar([row, ["0"] * 4]))
    assert m.delbar_blocks == {}


def test_all_zero_rows_are_skipped_but_ragged_rows_are_not():
    with pytest.raises(ModelFileError, match="ragged"):
        load_model(_one_block_delbar([["0"] * 4, ["0"] * 3]))
    with pytest.raises(ModelFileError, match="ragged"):
        load_model(_one_block_delbar([["0"] * 4, ["0"] * 5]))


@pytest.mark.parametrize("rows, message", [
    ([["0", "x"], ["0"]], "delbar[0].matrix[0][1]: 'x' is not a rational 'a/b' or integer string"),
    ([["0", "0"], ["0"], ["x", "0"]], "delbar[0]: ragged matrix rows"),
    ([["0", "0"], ["x"]], "delbar[0]: ragged matrix rows"),
], ids=["entry-then-ragged", "ragged-then-entry", "ragged-row-with-a-bad-entry"])
def test_the_first_bad_row_names_the_error(rows, message):
    # rows are read in order, each checked for its length before its entries
    data = save_model(torus(1))
    data["delbar"] = [{"from": [0, 0], "matrix": rows}]
    with pytest.raises(ModelFileError) as err:
        load_model(data)
    assert str(err.value) == message


@pytest.mark.parametrize("first", ["1", 1])
def test_true_is_refused_after_an_equal_entry(first):
    # each entry string is parsed once per file; True == 1, so nothing else
    # may be looked up among them
    data = save_model(torus(1))
    data["del"] = [{"from": [0, 0], "matrix": [[first]]}]
    data["delbar"] = [{"from": [0, 0], "matrix": [[first, True]]}]
    with pytest.raises(ModelFileError,
                       match=r"^delbar\[0\]\.matrix\[0\]\[1\]: True is not a rational"):
        load_model(json.loads(json.dumps(data)), validate=False)


# every spelling of 0 the reader takes, str(0) a "0" that is not the json
# parser's one "0" object, then nonzero strings and ints
ENTRIES = ["0", str(0), "-0", "+0", "00", "0/7", 0, "1", "-1", "+2", "12", "3/4", "-6/4",
           "5/10", 7, -2]


@st.composite
def entry_matrices(draw, rows, cols):
    return [[draw(st.sampled_from(ENTRIES)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_read_blocks_match_a_dense_fraction_oracle(data, d00, d10, d01):
    """The del and delbar blocks from (0, 0) of an n = 1 model, read as given
    and through json, equal the entries read one by one as Fractions."""
    blocks = {"del": data.draw(entry_matrices(d10, d00)),
              "delbar": data.draw(entry_matrices(d01, d00))}
    raw = {"format": "kbmodel/1", "n": 1, "contraction": [],
           "basis": {"0,0": ["a"] * d00, "1,0": ["b"] * d10, "0,1": ["c"] * d01},
           **{field: [{"from": [0, 0], "matrix": rows}] for field, rows in blocks.items()}}
    for file in (raw, json.loads(json.dumps(raw))):
        m = load_model(file, validate=False)
        for field, rows in blocks.items():
            block = getattr(m, f"{field}_blocks").at((0, 0))
            assert dense(block) == [[Fraction(x) for x in row] for row in rows], field


@pytest.mark.parametrize("build", [
    lambda: parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}),
    lambda: product_model(torus(1), parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})),
    lambda: point(), lambda: torus(3, {(1, 2): Fraction(-3, 4), (2, 3): "5/12"}),
    lambda: parallelizable(3, {(1, 2, 3): Fraction(2, 3)}, {(1, 2): Fraction(-1, 7)}),
    lambda: parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}),
    lambda: hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})),
], ids=["heis3", "t1xheis3", "point", "torus3-rational", "heis3-rational", "par2", "formal"])
def test_load_of_save_gives_identical_blocks(build):
    m = build()
    text = model_to_json(m)
    loaded = load_model(json.loads(text))
    assert loaded.basis == m.basis
    for field in ("del_blocks", "delbar_blocks", "contraction_blocks"):
        assert getattr(loaded, field) == getattr(m, field), field
    assert model_to_json(loaded) == text


def test_load_rejects_bad_shape():
    data = save_model(torus(1))
    data["delbar"] = [{"from": [0, 0], "matrix": [["1", "1"]]}]
    with pytest.raises(ModelFileError):
        load_model(data)


def test_read_reports_json_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFileError, match="line"):
        read_model(path)


def test_kb_homology_of_read_model_builds_koszul_blocks_once(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    write_model(parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}), path)
    calls = []
    build = models._koszul_blocks

    def counted(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(models, "_koszul_blocks", counted)
    kb_homology(read_model(path))
    assert len(calls) == 1


def test_save_is_deterministic():
    a = model_to_json(parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}))
    b = model_to_json(parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}))
    assert a == b
    json.loads(a)


def test_point_is_trivial_model():
    m = point()
    assert m.n == 0 and m.total_dim() == 1


# the characters json escapes: a quote, a backslash and the C0 controls
ESCAPED = '"\\' + "".join(map(chr, range(32)))
AWKWARD_LABELS = ['say "hi"', "back\\slash", "tab\there", "nul\x00", "\x1f", "\x7f\x85",
                  "\u00e9\u2202\u03b6", "\U0001d54a", "", "plain"]


def hand_made(labels, metadata=None, name="hand-made"):
    """A model on n = 1 whose (0,0) cell has the given labels, with an
    empty (1,1) cell (dropped) and one del block, entries (j - 1)/3."""
    k = len(labels)
    blocks = {(0, 0): Matrix(1, k, {(0, j): Fraction(j - 1, 3) for j in range(k)})}
    return DolbeaultPoissonModel(1, {(0, 0): labels, (1, 0): ["dz1"], (1, 1): []},
                                 del_blocks=blocks, name=name, metadata=metadata)


@pytest.mark.parametrize("build", [
    lambda: hand_made(AWKWARD_LABELS),
    lambda: hand_made(["plain", 'one "quoted"', "plain"]),
    lambda: hand_made([c for c in ESCAPED]),
    lambda: hand_made(["", ""], name='a "name"\n'),
    lambda: hand_made(["\u00e9"] * 3, name="\u00e9t\u00e9"),
    lambda: DolbeaultPoissonModel(1, {(0, 0): ["1"], (1, 1): []}),
    lambda: DolbeaultPoissonModel(0, {}),
    lambda: hand_made(["x"], metadata={
        "nested": {"b": [1, 2.5, None], "a": {"deep": True, "deeper": {"z": [[]]}}},
        "int_keys": {10: "ten", 2: "two"}, "float_keys": {0.5: 1, -1.25: 2},
        "bool_keys": {True: "t", False: "f"}, "none_key": {None: 0},
        "float": 0.1, "big": 1e300, "none": None, "flags": [True, False],
        "empty": {}, "list": [], "tuple": (1, "x", ()), "text": "line\nbreak \u00e9"}),
    point,
    lambda: hodge_formal(HodgeDiamond(0, {})),
    lambda: hodge_formal(HodgeDiamond(2, {(0, 0): 1, (1, 1): 2, (2, 0): 1, (0, 2): 1, (2, 2): 1})),
    lambda: product_model(torus(1), hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1}))),
], ids=["awkward-labels", "one-quoted-label", "every-escaped-character", "empty-labels",
        "non-ascii", "no-blocks", "empty-basis", "metadata", "point", "formal-empty",
        "formal-n2", "product"])
def test_model_to_json_matches_json_dumps(build):
    m = build()
    assert model_to_json(m) == oracle_model_to_json(m)


any_text = st.text(st.characters(), max_size=5)
plain_text = st.text(st.characters(exclude_characters=ESCAPED), max_size=5)


@st.composite
def one_escaped(draw):
    """A list of strings of which exactly one needs an escape."""
    row = draw(st.lists(plain_text, max_size=5))
    odd = draw(plain_text) + draw(st.sampled_from(ESCAPED)) + draw(plain_text)
    row.insert(draw(st.integers(0, len(row))), odd)
    return row


json_trees = st.recursive(
    st.one_of(any_text, st.integers(), st.floats(allow_nan=False, allow_infinity=False),
              st.booleans(), st.none(), st.lists(plain_text, max_size=4), one_escaped()),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(any_text, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(json_trees)
def test_model_encoder_matches_json_dumps_on_random_trees(tree):
    out = []
    _encode(tree, "\n", out)
    assert "".join(out) == json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=False)
