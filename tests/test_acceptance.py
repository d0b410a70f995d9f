"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its time budget (run with -s to see the lines)."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

from kbhom.cli import main as cli_main
from kbhom.complexes import (
    homology_dims,
    les_from_ses,
    spectral_pages,
    total_complex,
)
from kbhom.engine import (
    HodgeDiamond,
    KBDims,
    euler_char,
    hodge_diamond,
    kb_double_complex,
    kb_homology,
)
from kbhom.models import (
    DolbeaultPoissonModel,
    ModelValidationError,
    product_model,
    validate_model,
)
from kbhom.rules import (
    BlowupData,
    blowup_hodge,
    blowup_kb,
    blowup_point_kb,
    flag_manifold_kb,
    kunneth_dims,
    projective_bundle_hodge,
)
from kbhom.stein import PolyBivector, stein_complex
from kbhom.zoo import (
    hodge_formal,
    load_model,
    parallelizable,
    point,
    save_model,
    torus,
    write_model,
)

from support import dense, random_complex, random_split_ses


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, \
        f"criterion {num} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"criterion {num:02d} {name}: PASS ({elapsed:.2f}s)")


def heisenberg3(pi=None):
    return parallelizable(3, {(1, 2, 3): 1}, pi)


def test_criterion_1_pi_zero_equals_antidiagonal_hodge_sums():
    with criterion(1, "pi=0 homology equals antidiagonal Hodge sums", 2.0):
        for model in (torus(1), torus(2), heisenberg3()):
            n = model.n
            dims = kb_homology(model)
            diamond = hodge_diamond(model)
            for k in range(2 * n + 1):
                expected = sum(v for (p, q), v in diamond.h.items()
                               if p - q == n - k)
                assert dims[k] == expected, (model.name, k)


def test_criterion_2_flag_formula():
    with criterion(2, "flag formula matches formal-model homology", 1.0):
        pt = HodgeDiamond(0, {(0, 0): 1})
        for n in (1, 2, 3):
            diamond = projective_bundle_hodge(pt, n + 1)
            via_model = kb_homology(hodge_formal(diamond))
            assert via_model == flag_manifold_kb(n, n + 1)
            assert via_model.dims == {n: n + 1}


def test_criterion_3_kunneth_cross_check():
    with criterion(3, "Kunneth rule matches chain-level products", 5.0):
        t1 = torus(1)
        prod = product_model(t1, t1)
        chain = kb_homology(prod)
        rule = kunneth_dims(kb_homology(t1), kb_homology(t1))
        assert chain == rule
        assert chain.dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
        nil = heisenberg3()
        prod2 = product_model(t1, nil)
        assert kb_homology(prod2) == kunneth_dims(kb_homology(t1),
                                                  kb_homology(nil))


def test_criterion_4_blowup_consistency():
    with criterion(4, "blow-up rules: point case and Hodge bookkeeping", 1.0):
        pt_dims = KBDims(0, {0: 1})
        rng = random.Random(2024)
        for n in (2, 3, 4):
            x = KBDims(n, {k: rng.randint(1, 6) for k in range(2 * n + 1)})
            via_general = blowup_kb(
                BlowupData(n, x, pt_dims, flag_manifold_kb(n - 1, n)))
            assert via_general == blowup_point_kb(x)
        surface = KBDims(2, {0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
        assert blowup_point_kb(surface).dims == {0: 1, 1: 4, 2: 7, 3: 4, 4: 1}
        for _ in range(100):
            ny = rng.randint(0, 2)
            r = rng.randint(2, 4)
            nx = ny + r
            hy = HodgeDiamond(ny, {(p, q): rng.randint(0, 4)
                                   for p in range(ny + 1) for q in range(ny + 1)})
            hx = HodgeDiamond(nx, {(p, q): rng.randint(0, 4)
                                   for p in range(nx + 1) for q in range(nx + 1)})
            he = projective_bundle_hodge(hy, r)
            blown = blowup_hodge(hx, hy, r)
            for p in range(nx + 1):
                for q in range(nx + 1):
                    assert blown[(p, q)] + hy[(p - r, q - r)] == \
                        hx[(p, q)] + he[(p - 1, q - 1)]


def random_delbar_model(rng, n=2, max_dim=3):
    """A model with random delbar columns (honest delbar² = 0), pi = 0."""
    basis = {}
    delbar = {}
    for p in range(n + 1):
        column = random_complex(rng, 0, n, max_dim)
        for q in range(n + 1):
            d = column.dim(q)
            if d:
                basis[(p, q)] = [f"b{p}.{q}.{i}" for i in range(d)]
        for q, blk in column.diffs.items():
            delbar[(p, q)] = blk
    return DolbeaultPoissonModel(n, basis, delbar_blocks=delbar, name="random")


def test_criterion_5_spectral_sequence_on_random_models():
    with criterion(5, "E_1 page, monotonicity and abutment on 50 models", 10.0):
        rng = random.Random(7)
        for _ in range(50):
            model = random_delbar_model(rng)
            assert validate_model(model).ok
            dc = kb_double_complex(model)
            sp = spectral_pages(dc, 3)
            diamond = hodge_diamond(model)
            assert sp.page(1) == {(-p, q): v for (p, q), v in diamond.h.items()}
            previous = None
            for r, page in sp.pages:
                if previous is not None:
                    for cell, d in page.items():
                        assert d <= previous.get(cell, 0)
                previous = page
            total_h = homology_dims(total_complex(dc))
            by_degree = {}
            for (p, q), d in sp.infinity.items():
                by_degree[p + q] = by_degree.get(p + q, 0) + d
            assert by_degree == {k: v for k, v in total_h.items() if v}


def test_criterion_6_euler_characteristic_invariance():
    with criterion(6, "chi is 0 for every valid bivector in the family", 10.0):
        triples = [t for t in iproduct((0, 1, -1), repeat=3)][:20]
        assert len(triples) == 20
        checked = 0
        for (a, b, c) in triples:
            coeffs = {k: v for k, v in
                      {(1, 2): a, (1, 3): b, (2, 3): c}.items() if v}
            try:
                model = heisenberg3(coeffs or None)
            except ModelValidationError:
                continue
            checked += 1
            chi = euler_char(kb_homology(model))
            signed = sum((-1) ** (p + q) * model.dim(p, q)
                         for p in range(4) for q in range(4))
            assert chi == (-1) ** model.n * signed == 0
        assert checked >= 10


def test_criterion_7_les_machinery():
    with criterion(7, "long exact sequence on 100 random split SES", 5.0):
        rng = random.Random(11)
        for _ in range(100):
            f, g = random_split_ses(rng)
            les = les_from_ses(f, g)
            assert les.check_exact()
            assert les.alternating_sum() == 0


def _dense(mat):
    """(rows, cols, data) triple: shapes travel with the data so that
    zero-dimension matrices multiply correctly."""
    return (mat.rows, mat.cols, dense(mat))


def _dmult(a, b):
    ar, ac, ad = a
    br, bc, bd = b
    assert ac == br, "dense product shape mismatch"
    out = [[Fraction(0)] * bc for _ in range(ar)]
    for i in range(ar):
        for t in range(ac):
            x = ad[i][t]
            if x:
                for j in range(bc):
                    out[i][j] += x * bd[t][j]
    return (ar, bc, out)


def _dcombine(a, b, sign):
    ar, ac, ad = a
    br, bc, bd = b
    assert (ar, ac) == (br, bc), "dense sum shape mismatch"
    return (ar, ac, [[x + sign * y for x, y in zip(ra, rb)]
                     for ra, rb in zip(ad, bd)])


def _dense_residual(model, identity, bidegree):
    """Recompute the named identity at the named bidegree with plain
    dense arithmetic, independent of the sparse validator."""
    p, q = bidegree

    def delbar(pp, qq):
        return _dense(model.delbar_at(pp, qq))

    def dl(pp, qq):
        return _dense(model.del_blocks.at((pp, qq)))

    def contraction(pp, qq):
        return _dense(model.contraction_blocks.at((pp, qq)))

    def delpi(pp, qq):
        return _dcombine(_dmult(contraction(pp + 1, qq), dl(pp, qq)),
                         _dmult(dl(pp - 2, qq), contraction(pp, qq)), -1)

    if identity == "del∘del":
        out = _dmult(dl(p + 1, q), dl(p, q))
    elif identity == "delbar∘delbar":
        out = _dmult(delbar(p, q + 1), delbar(p, q))
    elif identity == "del∘delbar + delbar∘del":
        out = _dcombine(_dmult(dl(p, q + 1), delbar(p, q)),
                        _dmult(delbar(p + 1, q), dl(p, q)), 1)
    elif identity == "delpi∘delpi":
        out = _dmult(delpi(p - 1, q), delpi(p, q))
    elif identity == "delbar∘delpi + delpi∘delbar":
        out = _dcombine(_dmult(delbar(p - 1, q), delpi(p, q)),
                        _dmult(delpi(p, q + 1), delbar(p, q)), 1)
    else:
        raise AssertionError(f"unknown identity {identity!r}")
    return any(any(row) for row in out[2])


def test_criterion_8_operator_identities_and_mutations():
    with criterion(8, "validator passes constructors, localizes mutations", 5.0):
        constructors = [
            torus(0), torus(1), torus(2, {(1, 2): 1}), torus(3),
            heisenberg3(), heisenberg3({(1, 2): 1}),
            parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}),
            hodge_formal(HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})),
        ]
        for model in constructors:
            assert validate_model(model).ok, model.name

        rng = random.Random(99)
        bases = [heisenberg3({(1, 2): 1}),
                 parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1})]
        found = 0
        attempts = 0
        while found < 20:
            attempts += 1
            assert attempts < 500, "could not build 20 invalid mutations"
            data = save_model(bases[rng.randrange(len(bases))])
            op = rng.choice(["del", "delbar", "contraction"])
            blocks = data[op]
            if not blocks:
                continue
            entry = rng.choice(blocks)
            matrix = entry["matrix"]
            if not matrix or not matrix[0]:
                continue
            i = rng.randrange(len(matrix))
            j = rng.randrange(len(matrix[0]))
            matrix[i][j] = str(Fraction(matrix[i][j]) + rng.choice((1, -1, 2)))
            mutated = load_model(data, validate=False)
            report = validate_model(mutated)
            if report.ok:
                continue
            found += 1
            bad = report.first_failure()
            # the diagnostic must name a bidegree where an independent
            # dense recomputation also sees a nonzero residual
            assert _dense_residual(mutated, bad.identity, bad.bidegree), \
                (op, bad.identity, bad.bidegree)
        assert found == 20


def test_criterion_9_stein_slices():
    with criterion(9, "Stein weight slices closed, squared-zero, chi-exact", 10.0):
        constant = PolyBivector.from_terms(2, [(1, 2, 1, (0, 0))])
        linear = PolyBivector.from_terms(2, [(1, 2, 1, (1, 0))])
        for pi in (constant, linear):
            for w in range(-3, 5):
                c = stein_complex(2, pi, w)
                for k in sorted(c.spaces):
                    assert (c.d(k + 1) * c.d(k)).is_zero()
                h = homology_dims(c)
                chi_h = sum((-1) ** k * v for k, v in h.items())
                chi_c = sum((-1) ** k * v for k, v in c.spaces.items())
                assert chi_h == chi_c


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    with criterion(10, "CLI save/load/compute is byte-stable", 2.0):
        models = [
            torus(1), torus(2, {(1, 2): 1}),
            heisenberg3({(1, 2): 1}),
            parallelizable(2, {(1, 2, 1): 1}, {(1, 2): 1}),
            hodge_formal(HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})),
            point(),
        ]
        for idx, model in enumerate(models):
            p1 = tmp_path / f"m{idx}a.json"
            p2 = tmp_path / f"m{idx}b.json"
            write_model(model, p1)
            write_model(load_model(json.loads(p1.read_text())), p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert cli_main(["compute", str(p1), "--json", "--no-timestamp"]) == 0
            first = capsys.readouterr().out
            assert cli_main(["compute", str(p1), "--json", "--no-timestamp"]) == 0
            second = capsys.readouterr().out
            assert first == second
            report = json.loads(first)
            expected = kb_homology(model)
            assert report["results"]["kb"]["dims"] == {
                str(k): expected[k] for k in range(2 * model.n + 1)}
