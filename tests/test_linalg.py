import random
from fractions import Fraction

import pytest

from kbhom.linalg import (
    Matrix,
    Subspace,
    _reduce,
    kernel_basis,
    rank,
)
from support import (
    BAD_RATIONALS,
    column_matrix,
    coordinate_subspace,
    dense,
    full_subspace,
    image_subspace,
    oracle_contains,
    oracle_spanned_by,
    preimage_subspace,
    reduction_solve,
    subspace_arithmetic,
    subspace_intersection,
    subspace_sum,
    transpose,
    zero_subspace,
)


def gauss_rank(dense):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in dense]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, ncols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
    return r


def random_matrix(rng, rows, cols, density=0.6):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Matrix(rows, cols, entries)


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
def test_matrix_rejects_float_and_bool_entries(bad):
    with pytest.raises(TypeError):
        Matrix(1, 1, {(0, 0): bad})
    with pytest.raises(TypeError):
        Matrix.from_rows([[bad]])


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_matrix_string_entries_are_a_over_b_only(bad):
    with pytest.raises(ValueError, match="is not a rational"):
        Matrix(1, 1, {(0, 0): bad})
    with pytest.raises(ValueError, match="is not a rational"):
        Matrix.from_rows([[bad]])
    assert Matrix(1, 1, {(0, 0): "-3/6"})[0, 0] == Fraction(-1, 2)


@pytest.mark.parametrize("rows, cols", [(2.5, 2), (True, 2), (2, 2.0), (2, False), ("2", 2)])
def test_matrix_dimensions_must_be_ints(rows, cols):
    with pytest.raises(TypeError):
        Matrix(rows, cols)


def test_matrix_dimensions_must_be_nonnegative():
    with pytest.raises(ValueError):
        Matrix(-1, 2)


@pytest.mark.parametrize("key", [(1.0, 0), (0, 1.0), (True, 0), (0, False), ("0", 0)])
def test_matrix_entry_indices_must_be_ints(key):
    # a float index used to build, and broke dense reads later
    with pytest.raises(TypeError):
        Matrix(2, 2, {key: 1})


@pytest.mark.parametrize("key", [(0,), 0, (0, 0, 0)])
def test_matrix_entry_keys_must_be_pairs(key):
    # each used to raise a bare unpacking error that did not name the key
    with pytest.raises(TypeError) as err:
        Matrix(2, 2, {key: 1})
    assert str(err.value) == f"matrix entry key {key!r} is not a pair (row, col) of ints"


@pytest.mark.parametrize("key", [(0,), 0, (0, 0, 0)])
def test_matrix_indices_must_be_pairs(key):
    # each used to raise a bare unpacking error that did not name the key
    with pytest.raises(TypeError) as err:
        Matrix(2, 2, {(0, 1): 1})[key]
    assert str(err.value) == f"matrix index {key!r} is not a pair (row, col) of ints"


@pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_matrix_entry_out_of_bounds(key):
    with pytest.raises(ValueError):
        Matrix(2, 2, {key: 1})


@pytest.mark.parametrize("j", [2, 5, -1])
def test_column_out_of_range_raises(j):
    with pytest.raises(IndexError):
        Matrix(2, 2).column(j)


@pytest.mark.parametrize("key", [(7, 7), (2, 0), (0, 2), (-1, 0)])
def test_getitem_out_of_range_raises(key):
    with pytest.raises(IndexError):
        Matrix(2, 2, {(0, 0): 1})[key]


@pytest.mark.parametrize("key", [(0.0, 0), (0, True)])
def test_getitem_index_must_be_int(key):
    with pytest.raises(TypeError):
        Matrix(2, 2)[key]


def test_getitem_and_column_read_the_stored_entries():
    m = Matrix(2, 3, {(0, 1): Fraction(1, 2), (1, 1): 3, (1, 2): "-2/4"})
    assert m[0, 1] == Fraction(1, 2) and m[1, 1] == 3 and m[1, 2] == Fraction(-1, 2)
    assert m[0, 0] == 0 and m.column(0) == [0, 0]
    assert m.column(1) == [Fraction(1, 2), 3]


def test_matrix_is_immutable():
    m = Matrix(1, 1, {(0, 0): 1})
    with pytest.raises(AttributeError):
        m.rows = 2
    with pytest.raises(TypeError):  # a read-only mapping
        m.entries[(0, 0)] = 2
    assert m[0, 0] == 1


def test_rank_empty():
    assert rank(Matrix(0, 0)) == 0
    assert rank(Matrix(0, 5)) == 0
    assert rank(Matrix(5, 0)) == 0


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_dependent_rows():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_of_identity_is_zero():
    k = kernel_basis(Matrix.identity(2))
    assert k.ambient_dim == 2 and k.dim == 0


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(Matrix.zero(2, 3))
    assert k.ambient_dim == 3 and k.dim == 3


def test_kernel_one_equation():
    k = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert k.dim == 1
    v = k.basis.column(0)
    assert v[0] == -v[1] != 0


def test_kernel_columns_are_actual_kernel_vectors():
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        assert (m * k.basis).is_zero()
        assert rank(m) + k.dim == m.cols


def test_rank_matches_plain_gaussian_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == gauss_rank(dense(m))


def test_rank_stress_larger_and_rank_deficient():
    rng = random.Random(101)
    for _ in range(10):
        rows, cols = rng.randint(8, 12), rng.randint(8, 12)
        m = random_matrix(rng, rows, cols, density=0.8)
        # adjoin multiples of existing rows: more rows, same rank
        extra = {}
        base = dense(m)
        for i in range(rows):
            for j in range(cols):
                extra[(i, j)] = base[i][j]
        for d in range(3):
            src = rng.randrange(rows)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for j in range(cols):
                if base[src][j]:
                    extra[(rows + d, j)] = c * base[src][j]
        stacked = Matrix(rows + 3, cols, extra)
        assert rank(stacked) == gauss_rank(dense(stacked))
        assert rank(stacked) + kernel_basis(stacked).dim == cols
        assert (stacked * kernel_basis(stacked).basis).is_zero()


def test_rank_equals_rank_of_transpose():
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert rank(m) == rank(transpose(m))


def test_determinism_bitwise():
    rng = random.Random(5)
    m = random_matrix(rng, 5, 5)
    k1 = kernel_basis(m)
    k2 = kernel_basis(m)
    assert k1.basis.entries == k2.basis.entries


def test_subspace_arithmetic_equal_lines():
    e1 = coordinate_subspace(2, [0])
    assert subspace_arithmetic(e1, e1) == (1, 1, 0)


def test_subspace_arithmetic_transverse_lines():
    e1 = coordinate_subspace(2, [0])
    e2 = coordinate_subspace(2, [1])
    assert subspace_arithmetic(e1, e2) == (2, 0, 1)


def test_subspace_arithmetic_line_in_plane():
    u = Subspace(3, Matrix.from_rows([[1], [1], [0]]))
    v = coordinate_subspace(3, [0, 1])
    assert subspace_arithmetic(u, v) == (2, 1, 0)


def test_subspace_arithmetic_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_arithmetic(zero_subspace(2), zero_subspace(3))


def test_modular_identity_random():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        u = oracle_spanned_by(random_matrix(rng, n, rng.randint(0, n)))
        v = oracle_spanned_by(random_matrix(rng, n, rng.randint(0, n)))
        s, i, q = subspace_arithmetic(u, v)
        assert s + i == u.dim + v.dim
        assert q == s - v.dim
        inter = subspace_intersection(u, v)
        assert inter.dim == i
        assert oracle_contains(u, inter) and oracle_contains(v, inter)
        total = subspace_sum(u, v)
        assert total.dim == s
        assert oracle_contains(total, u) and oracle_contains(total, v)


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        Subspace(2, Matrix.from_rows([[1, 2], [2, 4]]))


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    x, unsolvable = reduction_solve(m, [[1, 2], [1, 3]])
    assert x is not None
    col = m * column_matrix(x)
    assert col.column(0) == [Fraction(1), Fraction(2)]
    assert unsolvable is None


@pytest.mark.parametrize("rhs", [Matrix(3, 1, {(2, 0): 1}), Matrix(1, 1, {(0, 0): 1})],
                         ids=["taller", "shorter"])
def test_solve_refuses_a_right_hand_side_of_another_height(rhs):
    # both used to give an answer: a missing column, or a 2x1 "solution"
    with pytest.raises(ValueError, match=f"has {rhs.rows} rows, not 2"):
        _reduce(Matrix.identity(2)).solve(rhs)


def test_solve_random_in_image():
    rng = random.Random(23)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        target = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
        b = (m * column_matrix(target)).column(0)
        [x] = reduction_solve(m, [b])
        assert x is not None
        assert (m * column_matrix(x)).column(0) == b


def test_image_and_preimage():
    rng = random.Random(29)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        s = oracle_spanned_by(random_matrix(rng, m.rows, rng.randint(0, m.rows)))
        pre = preimage_subspace(m, s)
        # m(pre) must land inside s, and pre must contain the kernel
        img = image_subspace(m, pre)
        assert oracle_contains(s, img)
        assert oracle_contains(pre, kernel_basis(m))
        # dimension count: dim pre = dim ker m + dim (im m ∩ s)
        im_m = oracle_spanned_by(m)
        expected = kernel_basis(m).dim + subspace_arithmetic(im_m, s)[1]
        assert pre.dim == expected


def test_preimage_of_zero_is_kernel():
    m = Matrix.from_rows([[1, 1], [0, 0]])
    pre = preimage_subspace(m, zero_subspace(2))
    assert pre == kernel_basis(m)


def test_preimage_of_full_is_everything():
    m = Matrix.from_rows([[1, 1], [0, 0]])
    pre = preimage_subspace(m, full_subspace(2))
    assert pre.dim == 2
