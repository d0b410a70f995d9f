"""The one Koszul tensor routine against the former builders in support.py.

``tensor_double``, ``product_model`` and the exterior models (``torus``,
``parallelizable``, built as holomorphic ⊗ antiholomorphic factors) must
give the same cells, blocks, labels, names and metadata as the former
builders, which tensored with their own loops and built exterior models
on all 4^n wedge monomials.  The product property test checks the
Künneth rule on random valid factors.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kbhom.complexes import tensor_double
from kbhom.engine import HodgeDiamond, kb_homology
from kbhom.models import ModelValidationError, product_model
from kbhom.rules import kunneth_dims
from kbhom.zoo import (
    StructureConstantError,
    hodge_formal,
    model_to_json,
    parallelizable,
    point,
    torus,
)
from support import (
    oracle_parallelizable,
    oracle_product_model,
    oracle_tensor_double,
    oracle_torus,
    random_double_complex,
)


def filiform(n: int) -> dict:
    """c^{i+1}_{1,i} = 1 for 2 <= i < n."""
    return {(1, i, i + 1): 1 for i in range(2, n)}


def outcome(build):
    """The built model, or the type of the exception raised (every
    rejection, StructureConstantError and ModelValidationError included,
    is a ValueError)."""
    try:
        return build()
    except ValueError as exc:
        return type(exc)


def assert_same_model(new, old):
    assert not isinstance(new, type) and not isinstance(old, type), (new, old)
    assert new.n == old.n
    assert dict(new.basis) == dict(old.basis)
    for field in ("del_blocks", "delbar_blocks", "contraction_blocks"):
        assert dict(getattr(new, field)) == dict(getattr(old, field)), field
    assert new.name == old.name
    assert new.metadata == old.metadata
    # model_to_json reads only the fields compared above; past n = 6 its
    # dense output runs to hundreds of MB, so it is compared up to there
    if new.total_dim() <= 4 ** 6:
        assert model_to_json(new) == model_to_json(old)


def assert_same_outcome(build, build_oracle):
    new, old = outcome(build), outcome(build_oracle)
    if isinstance(new, type) or isinstance(old, type):
        assert new == old
    else:
        assert_same_model(new, old)


ZOO = {f"torus{n}": (n, {}, None) for n in range(5)}
ZOO.update({f"torus{n}-pi": (n, {}, {(1, 2): 1, (n - 1, n): 3}) for n in (2, 3, 4)})
ZOO.update({f"heis{n}": (n, {(1, 2, 3): 1}, {(1, 2): 1}) for n in range(3, 8)})
ZOO.update({f"filiform{n}": (n, filiform(n), None) for n in range(3, 7)})
ZOO.update({f"filiform{n}-pi": (n, filiform(n), {(n - 1, n): 1}) for n in range(3, 7)})
ZOO.update({
    "filiform5-pi12": (5, filiform(5), {(1, 2): 1}),
    "par2": (2, {(1, 2, 1): 1}, {(1, 2): 1}),
    "heis3-nopi": (3, {(1, 2, 3): 1}, None),
    "jacobi-fails": (3, {(1, 2, 3): 1, (1, 3, 1): 1}, None),
})


@pytest.mark.parametrize("name", sorted(ZOO))
def test_exterior_builders_match_oracle(name):
    n, structure, pi = ZOO[name]
    if not structure:
        assert_same_outcome(lambda: torus(n, pi), lambda: oracle_torus(n, pi))
    assert_same_outcome(lambda: parallelizable(n, structure, pi),
                        lambda: oracle_parallelizable(n, structure, pi))


def test_zoo_cases_include_rejections():
    assert outcome(lambda: parallelizable(5, filiform(5), {(1, 2): 1})) is ModelValidationError
    assert outcome(lambda: parallelizable(*ZOO["jacobi-fails"])) is StructureConstantError


coeffs = st.one_of(st.integers(-2, 2),
                   st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def exterior_inputs(draw):
    n = draw(st.sampled_from([3, 4, 2, 1, 0]))
    keys = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for k in range(1, n + 1)]
    structure = {}
    if keys:
        structure = draw(st.dictionaries(st.sampled_from(keys), coeffs,
                                         min_size=1, max_size=3))
    if draw(st.sampled_from([False, False, False, True])):
        # a key out of order or out of range
        idx = st.integers(0, n + 1)
        structure[draw(st.tuples(idx, idx, idx))] = draw(coeffs)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pi = None
    if pairs and draw(st.sampled_from([True, True, True, False])):
        pi = draw(st.dictionaries(st.sampled_from(pairs), coeffs,
                                  min_size=1, max_size=3))
    return n, structure, pi


@settings(max_examples=150, deadline=None)
@given(exterior_inputs())
def test_exterior_builders_match_oracle_on_random_inputs(inputs):
    n, structure, pi = inputs
    assert_same_outcome(lambda: parallelizable(n, structure, pi),
                        lambda: oracle_parallelizable(n, structure, pi))
    assert_same_outcome(lambda: torus(n, pi), lambda: oracle_torus(n, pi))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_double_matches_oracle(seed):
    rng = random.Random(seed)
    a = random_double_complex(rng)
    b = random_double_complex(rng)
    assert tensor_double(a, b) == oracle_tensor_double(a, b)
    assert tensor_double(b, a) == oracle_tensor_double(b, a)


PRODUCTS = {
    "t1xt1": lambda: (torus(1), torus(1)),
    "t1xheis3": lambda: (torus(1), parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})),
    "heis3xpoint": lambda: (parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}), point()),
    "par2xt1": lambda: (parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}), torus(1)),
    "heis3xpar2": lambda: (parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}),
                           parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})),
    "p1xp1": lambda: (hodge_formal(HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})),) * 2,
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_model_matches_oracle(name):
    x, y = PRODUCTS[name]()
    assert_same_model(product_model(x, y), oracle_product_model(x, y))


@st.composite
def diamonds(draw):
    n = draw(st.integers(0, 2))
    h = {(p, q): draw(st.integers(0, 2)) for p in range(n + 1) for q in range(n + 1)}
    return HodgeDiamond(n, h)


@st.composite
def product_factors(draw):
    kind = draw(st.sampled_from(["torus0", "torus1", "torus2", "heis3", "par2", "formal"]))
    if kind == "formal":
        return hodge_formal(draw(diamonds()))
    n, structure = {"torus0": (0, {}), "torus1": (1, {}), "torus2": (2, {}),
                    "heis3": (3, {(1, 2, 3): 1}), "par2": (2, {(1, 2, 1): 1})}[kind]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pi = draw(st.dictionaries(st.sampled_from(pairs), coeffs, max_size=3)) if pairs else None
    try:
        return parallelizable(n, structure, pi) if structure else torus(n, pi)
    except ModelValidationError:
        assume(False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(product_factors(), product_factors())
def test_product_homology_convolves(x, y):
    assume(x.total_dim() * y.total_dim() <= 256)
    assert kb_homology(product_model(x, y)) == kunneth_dims(kb_homology(x), kb_homology(y))
