"""Workloads of the kbhom benchmark: inputs, jobs, correctness checks, replays.

A workload is a fixed list of jobs.  Each job has

* ``run``    - the timed call: ``kbhom.cli.main(argv)`` with output captured,
               or a library call where no CLI command exists;
* ``check``  - raises ``CheckFailed`` when the output is wrong: CLI JSON is
               compared byte for byte with ``golden/<job>.json`` (written by
               the seed code), and an identity is checked that does not go
               through the code path under test;
* ``replay`` - the same work as a sequence of public calls into the layers,
               each timed from outside by a :class:`Trace`.

Inputs depend only on the workload seed.  Seed-derived inputs (random
bicomplexes, the SES twist, the check mutations) have fixed shapes, so the
amount of work does not depend on the seed; only entries do.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from kbhom import cli
from kbhom.complexes import (
    ChainMap,
    Complex,
    DoubleComplex,
    les_from_ses,
    spectral_pages,
    tensor_double,
    total_complex,
)
from kbhom.engine import hkr_hochschild, hodge_diamond, kb_double_complex
from kbhom.linalg import Matrix, kernel_basis, rank
from kbhom.models import koszul_differential, product_model, validate_model
from kbhom.stein import PolyBivector, stein_complex
from kbhom.zoo import model_to_json, parallelizable, read_model, save_model, torus

GOLDEN = Path(__file__).resolve().parent / "golden"
WORK = "perfbench/.work"  # relative to the checkout root; CLI JSON records it

SO3_TERMS = [  # linear so(3)*: {z1,z2} = z3, {z2,z3} = z1, {z3,z1} = z2
    {"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0, 1]},
    {"i": 2, "j": 3, "coeff": "1", "alpha": [1, 0, 0]},
    {"i": 1, "j": 3, "coeff": "-1", "alpha": [0, 1, 0]},
]
QUAD_TERMS = [{"i": 1, "j": 2, "coeff": "1", "alpha": [1, 1, 0]}]  # z1 z2 d1^d2

# (row dims, row ranks, column dims, column ranks) of the random bicomplexes;
# d^k has rank ranks[k], so the homology, and the pages, are known in advance
TENSOR_SHAPES = [((2, 3, 2), (1, 1), (2, 3, 2), (1, 1)),
                 ((1, 3, 2), (1, 1), (2, 4, 2), (1, 2))]
N_RANDOM_BICOMPLEXES = 8
MUTATION_BASES = ["heis4", "t1xheis3", "heis3", "heis4",
                  "t1xheis3", "heis3", "heis4", "t1xheis3"]

IDENTITIES = ("del∘del", "delbar∘delbar", "del∘delbar + delbar∘del",
              "delpi∘delpi", "delbar∘delpi + delpi∘delbar")


def heis(n: int):
    """Heisenberg-type parallelizable model: c^3_{12} = 1, pi^{12} = 1."""
    return parallelizable(n, {(1, 2, 3): 1}, {(1, 2): 1})


# ----------------------------------------------------------------------------
# Tracing from outside


class Trace:
    """Busy time and exact counts of the layer calls replayed in one pass.

    ``call(..., top=True)`` marks calls that together make up the job, so
    their sum can be compared with the job's own wall time; ``top=False``
    marks a call that the job makes inside another one (its time is also
    inside the enclosing call).
    """

    def __init__(self):
        self.busy = defaultdict(float)
        self.max = defaultdict(float)
        self.counts = defaultdict(int)
        self.jobs = {}
        self.top = 0.0
        self._job = None

    def start_job(self, name):
        self.top = 0.0
        self._job = self.jobs.setdefault(name, defaultdict(list))

    def call(self, name, fn, *args, top=True, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        self.busy[name] += dt
        self.max[name] = max(self.max[name], dt)
        if top:
            self.top += dt
        return out

    def note(self, key, value):
        self._job[key].append(value)

    def rank(self, m, top=True):
        r = self.call("linalg.rank", rank, m, top=top)
        nnz = len(m.entries)
        self.counts["linalg.rank.calls"] += 1
        self.counts["linalg.rank.nnz"] += nnz
        self.counts["linalg.rank.cells"] += m.rows * m.cols
        self.counts["linalg.rank.rank_sum"] += r
        self.note("rank", [m.rows, m.cols, nnz, r])
        return r

    def model_file(self, path):
        size = Path(path).stat().st_size
        self.counts["zoo.model_file.bytes"] += size
        self.note("file_bytes", size)


def _replay_compute(t: Trace, path: str, pages=None):
    """cmd_compute: read_model (parse + validate), kb_homology, spectral_pages."""
    t.model_file(path)
    model = t.call("zoo.read_model", read_model, path, validate=False)
    t.call("models.validate_model", validate_model, model)
    t.call("models.koszul_differential", koszul_differential, model, top=False)
    dc = t.call("engine.kb_double_complex", kb_double_complex, model)
    total = t.call("complexes.total_complex", total_complex, dc)
    for k in sorted(total.diffs):
        t.rank(total.diffs[k])
    if pages:
        dc = t.call("engine.kb_double_complex", kb_double_complex, model)
        t.call("complexes.spectral_pages", spectral_pages, dc, pages)


def _replay_check(t: Trace, path: str):
    """cmd_check: parse, then one validate_model report."""
    t.model_file(path)
    model = t.call("zoo.read_model", read_model, path, validate=False)
    t.call("models.validate_model", validate_model, model)


def _replay_stein(t: Trace, pi_path: str, n: int, weights, cap: int):
    """cmd_stein: one slice complex per weight, then a rank per differential."""
    pi = PolyBivector.from_terms(n, json.loads(Path(pi_path).read_text()))
    for w in weights:
        c = t.call("stein.stein_complex", stein_complex, n, pi, w, cap)
        dims = sum(c.spaces.values())
        t.counts["stein.slice_dim"] += dims
        t.note("slice_dim", dims)
        for k in sorted(c.diffs):
            t.rank(c.diffs[k])


def _replay_spectral(t: Trace, dc):
    t.note("blocks", sorted([m.rows, m.cols, len(m.entries)]
                            for m in list(dc.d1.values()) + list(dc.d2.values())))
    t.call("complexes.spectral_pages", spectral_pages, dc, 3)


def _replay_les(t: Trace, f, g):
    middle = f.target.diffs
    t.note("blocks", [[middle[k].rows, middle[k].cols, len(middle[k].entries)]
                      for k in sorted(middle)])
    t.call("complexes.les_from_ses", les_from_ses, f, g)


def _replay_hodge(t: Trace, model):
    """hodge_diamond, with each column's delbar ranks timed on their own."""
    t.call("engine.hodge_diamond", hodge_diamond, model)
    for p in range(model.n + 1):
        for q in range(model.n + 1):
            block = model.delbar_at(p, q)
            if not block.is_zero():
                t.rank(block, top=False)


# ----------------------------------------------------------------------------
# Jobs


@dataclass
class Job:
    name: str
    small: bool
    run: Callable[[], object]
    check: Callable[[object], None]
    replay: Callable[[Trace], None]
    cli: bool
    golden: Callable[[object], str] | None = None  # output -> golden/<name>.json text


def cli_call(argv):
    """kbhom.cli.main(argv) in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CheckFailed(Exception):
    """A job's output is wrong."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _check_golden(name, out, code=0):
    got_code, text = out
    expect(got_code == code, f"{name}: exit {got_code}, expected {code}")
    expect(text == golden(name), f"{name}: output differs from golden/{name}.json")
    return json.loads(text)["results"]


def _cli_job(name, small, argv, replay, check=None, code=0):
    def checker(out):
        results = _check_golden(name, out, code)
        if check:
            check(results)
    return Job(name, small, lambda: cli_call(argv), checker, replay, cli=True,
               golden=lambda out: out[1])


def _kb_from_results(results) -> dict:
    return {int(k): v for k, v in results["kb"]["dims"].items()}


def _check_euler(model):
    """Σ(-1)^k dim H_k = Σ(-1)^k dim of the chains; cell (a,q) sits in k = q - a + n."""
    chain = sum((-1) ** (q - a + model.n) * model.dim(a, q) for a, q in model.cells())

    def check(results):
        kb = _kb_from_results(results)
        chi = sum((-1) ** k * v for k, v in kb.items())
        expect(chi == results["euler_characteristic"] == chain,
               "KB Euler characteristic differs from the chain-level one")
    return check


def convolve(a: dict, b: dict) -> dict:
    out = defaultdict(int)
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] += x * y
    return {k: v for k, v in out.items() if v}


def _pages_abut(results):
    """E_∞ (the last recorded page) summed over p+q = k-n is H_k."""
    kb = _kb_from_results(results)
    n = results["kb"]["n"]
    last = results["pages"][max(results["pages"], key=int)]
    abut = defaultdict(int)
    for key, d in last.items():
        p, q = (int(x) for x in key.split(","))
        abut[p + q + n] += d
    expect({k: v for k, v in abut.items() if v} == {k: v for k, v in kb.items() if v},
           "E_infinity does not sum to the KB table")


# ----------------------------------------------------------------------------
# Seed-derived inputs


def _unimodular(rng, n):
    """Random integer matrix of determinant ±1 and its inverse, as row lists."""
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in b]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]  # b <- (1 + c e_ij) b
        for row in inv:                                  # inv <- inv (1 - c e_ij)
            row[j] -= c * row[i]
    return b, inv


def random_complex(rng, dims, ranks) -> Complex:
    """A complex with the given dims and ranks, in a random integer basis.

    d^k = B_{k+1} E_k B_k^{-1}, where E_k maps the coordinates after the
    image of d^{k-1} onto the first ranks[k] coordinates of degree k+1.
    """
    bases = [_unimodular(rng, d) for d in dims]
    diffs = {}
    for k, r in enumerate(ranks):
        before = ranks[k - 1] if k else 0
        e = Matrix(dims[k + 1], dims[k], {(i, before + i): 1 for i in range(r)})
        diffs[k] = (Matrix.from_rows(bases[k + 1][0]) * e
                    * Matrix.from_rows(bases[k][1]))
    return Complex(dict(enumerate(dims)), diffs)


def _homology_of(dims, ranks) -> dict:
    return {k: d - (ranks[k] if k < len(ranks) else 0) - (ranks[k - 1] if k else 0)
            for k, d in enumerate(dims)}


def expected_pages(shape) -> dict:
    """Pages of row ⊗ column: E_1 = row ⊗ H(col), E_r = H(row) ⊗ H(col), r >= 2."""
    rdims, rranks, cdims, cranks = shape
    hrow, hcol = _homology_of(rdims, rranks), _homology_of(cdims, cranks)
    e1 = {(p, q): rdims[p] * h for p in range(len(rdims)) for q, h in hcol.items()}
    e2 = {(p, q): hp * h for p, hp in hrow.items() for q, h in hcol.items()}
    return {1: {c: v for c, v in e1.items() if v}, 2: {c: v for c, v in e2.items() if v}}


def random_bicomplex(rng, shape) -> DoubleComplex:
    rdims, rranks, cdims, cranks = shape
    row = random_complex(rng, rdims, rranks)
    col = random_complex(rng, cdims, cranks)
    return tensor_double(
        DoubleComplex({(k, 0): d for k, d in row.spaces.items()},
                      d1={(k, 0): m for k, m in row.diffs.items()}),
        DoubleComplex({(0, k): d for k, d in col.spaces.items()},
                      d2={(0, k): m for k, m in col.diffs.items()}))


def twisted_ses(rng, a: Complex, c: Complex):
    """0 -> A -> B -> C -> 0, degreewise split, B twisted by h: C^k -> Z^{k+1}(A).

    C must have zero differential, so d_A h = 0 is all that d_B² = 0 needs;
    the connecting map of the sequence is then [h], which is not zero.  h
    takes dense ±1 coefficients on a basis of the cycles: only the signs
    depend on the seed, so the sizes and the work do not.
    """
    expect(not c.diffs, "the twist needs a complex C with zero differential")
    spaces = {k: a.dim(k) + c.dim(k) for k in set(a.spaces) | set(c.spaces)}
    diffs = {}
    for k in sorted(spaces):
        entries = dict(a.d(k).entries)
        cycles = kernel_basis(a.d(k + 1)).basis if a.dim(k + 1) else None
        if cycles is not None and cycles.cols and c.dim(k):
            coeff = Matrix(cycles.cols, c.dim(k),
                           {(i, j): rng.choice((-1, 1)) for i in range(cycles.cols)
                            for j in range(c.dim(k))})
            for (i, j), v in (cycles * coeff).entries.items():
                entries[(i, a.dim(k) + j)] = v
        m = Matrix(spaces.get(k + 1, 0), spaces[k], entries)
        if not m.is_zero():
            diffs[k] = m
    b = Complex(spaces, diffs)
    f = ChainMap(a, b, {k: Matrix(b.dim(k), a.dim(k), {(i, i): 1 for i in range(a.dim(k))})
                        for k in a.spaces})
    g = ChainMap(b, c, {k: Matrix(c.dim(k), b.dim(k),
                                  {(i, a.dim(k) + i): 1 for i in range(c.dim(k))})
                        for k in c.spaces})
    return f, g


# Independent validator for the mutations: sparse matrices as {row: {col: q}}.

def _sparse(rows) -> dict:
    out = {}
    for i, row in enumerate(rows):
        r = {j: Fraction(s) for j, s in enumerate(row) if s != "0"}
        if r:
            out[i] = r
    return out


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for i, row in a.items():
        acc = defaultdict(Fraction)
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] += x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _add(a: dict, b: dict, sign=1) -> dict:
    out = {i: dict(r) for i, r in a.items()}
    for i, row in b.items():
        r = out.setdefault(i, {})
        for j, v in row.items():
            r[j] = r.get(j, 0) + sign * v
            if not r[j]:
                del r[j]
        if not r:
            del out[i]
    return out


def first_failures(data: dict) -> list:
    """[(identity, [p, q] or None)] for the five identities, cells in order."""
    ops = {name: {tuple(b["from"]): _sparse(b["matrix"]) for b in data[name]}
           for name in ("del", "delbar", "contraction")}

    def at(op, p, q):
        return ops[op].get((p, q), {})

    def delpi(p, q):
        return _add(_mul(at("contraction", p + 1, q), at("del", p, q)),
                    _mul(at("del", p - 2, q), at("contraction", p, q)), -1)

    residual = {
        "del∘del": lambda p, q: _mul(at("del", p + 1, q), at("del", p, q)),
        "delbar∘delbar": lambda p, q: _mul(at("delbar", p, q + 1), at("delbar", p, q)),
        "del∘delbar + delbar∘del": lambda p, q: _add(
            _mul(at("del", p, q + 1), at("delbar", p, q)),
            _mul(at("delbar", p + 1, q), at("del", p, q))),
        "delpi∘delpi": lambda p, q: _mul(delpi(p - 1, q), delpi(p, q)),
        "delbar∘delpi + delpi∘delbar": lambda p, q: _add(
            _mul(at("delbar", p - 1, q), delpi(p, q)),
            _mul(delpi(p, q + 1), at("delbar", p, q))),
    }
    cells = sorted(tuple(int(x) for x in key.split(","))
                   for key, labels in data["basis"].items() if labels)
    return [(name, next(([p, q] for p, q in cells if residual[name](p, q)), None))
            for name in IDENTITIES]


def mutate(rng, data: dict):
    """A copy of data with one operator entry changed, rejected by the validator."""
    for _ in range(500):
        op = rng.choice(["del", "delbar", "contraction"])
        if not data[op]:
            continue
        idx = rng.randrange(len(data[op]))
        matrix = [list(r) for r in data[op][idx]["matrix"]]
        i, j = rng.randrange(len(matrix)), rng.randrange(len(matrix[0]))
        matrix[i][j] = str(Fraction(matrix[i][j]) + rng.choice((1, -1, 2)))
        blocks = list(data[op])
        blocks[idx] = dict(blocks[idx], matrix=matrix)
        mutated = dict(data, **{op: blocks})
        failures = first_failures(mutated)
        if any(b is not None for _, b in failures):
            return mutated, failures
    raise RuntimeError("no invalid single-entry mutation found")


# ----------------------------------------------------------------------------
# Workloads


class Workload:
    """One set-up of a workload: builds its models, writes its input files
    under WORK and makes its job list."""

    def __init__(self, name: str, seed: int, spans: Trace):
        self.name = name
        self.seed = seed
        self.spans = spans  # times the zoo and models calls of set-up
        self.models = {}
        self.jobs = []
        build = {"kb-ladder": self._kb_ladder, "spectral-les": self._spectral_les,
                 "stein-so3": self._stein_so3, "model-check": self._model_check}
        build[name]()

    # --- input files ---

    def _path(self, stem):
        return f"{WORK}/{stem}.json"

    def _write_text(self, stem, text):
        Path(self._path(stem)).write_text(text, encoding="utf-8")
        return self._path(stem)

    def _model(self, stem, span, build, *args):
        model = self.spans.call(span, build, *args)
        self.models[stem] = model
        return model

    def _model_file(self, stem, model):
        self.models[stem] = model
        return self._write_text(stem, model_to_json(model))

    def _heis(self, n):
        return self._model(f"heis{n}", "zoo.parallelizable", heis, n)

    def _ladder_files(self) -> dict:
        h3 = self._heis(3)
        t1 = torus(1)
        prod = self._model("t1xheis3", "models.product_model", product_model, t1, h3)
        files = {"torus4": self._model_file("torus4", torus(4, {(1, 2): 1, (3, 4): 1})),
                 "heis3": self._model_file("heis3", h3),
                 "heis4": self._model_file("heis4", self._heis(4)),
                 "heis5": self._model_file("heis5", self._heis(5)),
                 "t1xheis3": self._model_file("t1xheis3", prod)}
        # torus(1) has no operators, so its table is read off its chain dims
        expect(not (t1.del_blocks or t1.delbar_blocks or t1.contraction_blocks),
               "torus(1) should carry no operators")
        self.torus1_kb = defaultdict(int)
        for (a, q) in t1.cells():
            self.torus1_kb[q - a + 1] += t1.dim(a, q)
        return files

    # --- the four workloads ---

    def _kb_ladder(self):
        files = self._ladder_files()
        self._heis(6)
        small = {"torus4", "heis3", "heis4", "t1xheis3"}
        for stem, path in files.items():
            check = _check_euler(self.models[stem])
            if stem == "t1xheis3":
                check = self._kunneth_check(check)
            self.jobs.append(_cli_job(
                f"compute-{stem}", stem in small,
                ["compute", path, "--json", "--no-timestamp"],
                lambda t, p=path: _replay_compute(t, p), check))
        for n in (5, 6):
            model = self.models[f"heis{n}"]
            self.jobs.append(Job(
                f"hochschild-heis{n}", False,
                lambda m=model: _hochschild(m),
                lambda out, m=model, n=n: _check_hodge(f"hochschild-heis{n}", m, *out),
                lambda t, m=model: _replay_hodge(t, m), cli=False, golden=_hh_text))

    def _kunneth_check(self, euler):
        def check(results):
            euler(results)
            heis3 = _kb_from_results(json.loads(golden("compute-heis3"))["results"])
            want = convolve(self.torus1_kb, heis3)
            got = {k: v for k, v in _kb_from_results(results).items() if v}
            expect(got == want, "torus1 x heis3 is not the Kunneth convolution")
        return check

    def _spectral_les(self):
        files = {"heis3": self._model_file("heis3", self._heis(3)),
                 "torus3": self._model_file(
                     "torus3", self._model("torus3", "zoo.torus", torus, 3, {(1, 2): 1}))}
        for stem, path in files.items():
            self.jobs.append(_cli_job(
                f"pages-{stem}", False,
                ["compute", path, "--pages", "2", "--json", "--no-timestamp"],
                lambda t, p=path: _replay_compute(t, p, pages=2), _pages_abut))
        rng = random.Random(self.seed)
        for i in range(N_RANDOM_BICOMPLEXES):
            shape = TENSOR_SHAPES[i % len(TENSOR_SHAPES)]
            dc = random_bicomplex(rng, shape)
            self.jobs.append(Job(
                f"spectral-{i}", False, lambda dc=dc: spectral_pages(dc, 3),
                lambda sp, s=shape: _check_tensor_pages(sp, s),
                lambda t, dc=dc: _replay_spectral(t, dc), cli=False))
        a = total_complex(kb_double_complex(self.models["heis3"]))
        c = total_complex(kb_double_complex(self.models["torus3"]))
        f, g = twisted_ses(rng, a, c)
        self.jobs.append(Job(
            "les-heis3-torus3", True, lambda: les_from_ses(f, g),
            lambda les: _check_les(les, a, c),
            lambda t: _replay_les(t, f, g), cli=False))

    def _stein_so3(self):
        so3 = self._write_text("so3", json.dumps(SO3_TERMS) + "\n")
        quad = self._write_text("quad", json.dumps(QUAD_TERMS) + "\n")
        for name, small, path, deg, hi, cap in [("stein-so3-w12", False, so3, 1, 12, 40),
                                                ("stein-so3-w6", True, so3, 1, 6, 40),
                                                ("stein-quad-w8", True, quad, 2, 8, 8)]:
            argv = ["stein", path, "--n", "3", "--weights", f"0..{hi}", "--json",
                    "--no-timestamp"] + (["--cap", str(cap)] if cap != 8 else [])
            self.jobs.append(_cli_job(
                name, small, argv,
                lambda t, p=path, hi=hi, cap=cap: _replay_stein(t, p, 3, range(hi + 1), cap),
                lambda results, deg=deg: _check_stein_euler(results, deg)))

    def _model_check(self):
        files = self._ladder_files()
        for stem, path in files.items():
            self.jobs.append(_cli_job(
                f"check-{stem}", stem in {"heis3", "torus4"},
                ["check", path, "--json", "--no-timestamp"],
                lambda t, p=path: _replay_check(t, p)))
        rng = random.Random(self.seed)
        data = {base: save_model(self.models[base]) for base in set(MUTATION_BASES)}
        for i, base in enumerate(MUTATION_BASES):
            mutated, failures = mutate(rng, data[base])
            path = self._write_text(f"mutant{i}", json.dumps(
                mutated, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
            argv = ["check", path, "--json", "--no-timestamp"]
            self.jobs.append(Job(
                f"check-mutant{i}", False, lambda a=argv: cli_call(a),
                lambda out, f=failures, b=self.models[base].name: _check_mutant(out, f, b),
                lambda t, p=path: _replay_check(t, p), cli=True))


def _hochschild(model):
    diamond = hodge_diamond(model)
    return diamond, hkr_hochschild(diamond)


def _hh_text(out) -> str:
    hh = out[1]
    return json.dumps({"hh": {str(k): v for k, v in sorted(hh.dims.items())}},
                      indent=2, sort_keys=True) + "\n"


def _check_hodge(name, model, diamond, hh):
    """Golden HH table; per column, Σ(-1)^q h^{p,q} = Σ(-1)^q dim A^{p,q}."""
    expect(_hh_text((diamond, hh)) == golden(name),
           f"{name}: Hochschild table differs from golden/{name}.json")
    for p in range(model.n + 1):
        qs = range(model.n + 1)
        expect(sum((-1) ** q * diamond[(p, q)] for q in qs)
               == sum((-1) ** q * model.dim(p, q) for q in qs),
               f"{name}: column {p} Euler characteristic")
    sums = {}
    for (p, q), v in diamond.h.items():
        sums[p - q] = sums.get(p - q, 0) + v
    expect(sums == hh.dims, f"{name}: HH is not the antidiagonal sum")


def _check_tensor_pages(sp, shape):
    want = expected_pages(shape)
    for r, page in sp.pages:
        expect(page == want[min(r, 2)], f"page {r} of a random bicomplex")
    expect(sp.degeneration_page == (1 if want[1] == want[2] else 2),
           "degeneration page of a random bicomplex")


def _check_les(les, a, c):
    expect(les.alternating_sum() == 0, "LES dimensions do not alternate to 0")
    h3 = _kb_from_results(json.loads(golden("compute-heis3"))["results"])
    for label, dim in les.entries:
        k = int(label[2:label.index("(")])
        if label.endswith("(A)"):
            expect(dim == h3.get(k + 3, 0), f"{label} is not the heis3 KB group")
        elif label.endswith("(C)"):
            expect(dim == c.dim(k), f"{label} is not the torus3 chain group")


def _check_stein_euler(results, degree):
    """Per weight, χ of homology = χ of the slice, counted by binomials."""
    n = results["n"]
    for w, h in results["homology"].items():
        chi_h = sum((-1) ** int(k) * v for k, v in h.items())
        chi_c = 0
        for p in range(n + 1):
            a = int(w) - (degree - 1) * p
            if a >= 0:
                chi_c += (-1) ** (n - p) * math.comb(a + n - 1, n - 1) * math.comb(n, p)
        expect(chi_h == chi_c, f"weight {w}: homology chi {chi_h} != slice chi {chi_c}")


def _check_mutant(out, failures, model_name):
    code, text = out
    expect(code == 2, f"mutant check exited {code}, expected 2")
    results = json.loads(text)["results"]
    expect(results["ok"] is False and results["model"] == model_name,
           "mutant should be reported as an invalid copy of its base model")
    got = [(c["identity"], c["bidegree"]) for c in results["checks"]]
    expect(got == failures, f"mutant reported {got}, expected {failures}")
