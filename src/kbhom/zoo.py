"""Model constructors and the "kbmodel/1" JSON serialization.

Constructors build invariant-form models on wedge-monomial bases; the
exterior models are the Koszul tensor of a holomorphic and an
antiholomorphic factor Λ(n), each operator built on one factor:

* ``torus(n, pi)`` — all differentials zero, contraction from a constant
  bivector; the derived Koszul differential vanishes identically.
* ``parallelizable(n, c, pi)`` — Chevalley-Eilenberg differentials
  d(dz^k) = -Σ c^k_{ij} dz^i ∧ dz^j on the holomorphic generators,
  mirrored on the antiholomorphic ones (structure constants are
  rational, so conjugation is the identity).
* ``hodge_formal(diamond)`` — dimensions only, every operator zero.

Whether a model computes the Dolbeault cohomology of an actual manifold
is provenance recorded in metadata, never used in computation.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from fractions import Fraction
from functools import cache
from itertools import compress, repeat
from json.encoder import encode_basestring as _json_str
from operator import is_not
from pathlib import Path

from .engine import HodgeDiamond
from .linalg import Matrix, _from_columns, _is_int, _q, _rational_pair
from .models import (
    DolbeaultPoissonModel,
    ModelValidationError,
    WedgeBasis,
    _complex_dimension,
    _generator_index,
    derivation_blocks,
    factor_contraction,
    normalize_bivector_coeffs,
    require_valid,
)

FORMAT = "kbmodel/1"

_INT_RE = re.compile(r"-?[0-9]+")


class ModelFileError(ValueError):
    """A model file is malformed (parse-level problem, not a math one)."""


class StructureConstantError(ValueError):
    """Structure constants are inconsistent (antisymmetry or Jacobi)."""


def torus(n: int, pi_coeffs=None) -> DolbeaultPoissonModel:
    """Invariant-form torus model: del = delbar = 0 on wedge monomials."""
    return _exterior_model("torus", n, {}, pi_coeffs)


def point() -> DolbeaultPoissonModel:
    """The n = 0 model: a single basis element, every operator zero."""
    return torus(0)


def _structure_images(n: int, structure: dict) -> dict:
    images: dict = {}
    for key, c in structure.items():
        if not (isinstance(key, tuple) and len(key) == 3):
            raise StructureConstantError(
                f"structure constant key {key!r} is not a triple (i, j, k)")
        i, j, k = (_generator_index(x) for x in key)
        if not (1 <= i < j <= n):
            raise StructureConstantError(
                f"structure constant key ({i},{j},{k}) must have 1 <= i < j <= n")
        if not 1 <= k <= n:
            raise StructureConstantError(f"generator index {k} out of range")
        c = _q(c)
        if c:
            images.setdefault(k, []).append((-c, (i, j)))
    return images


def parallelizable(n: int, structure: dict,
                   pi_coeffs=None) -> DolbeaultPoissonModel:
    """Invariant-form model of a complex parallelizable quotient.

    ``structure`` maps (i, j, k) with i < j to the rational constant
    c^k_{ij}; the holomorphic differential is the Chevalley-Eilenberg one
    and the antiholomorphic differential mirrors it on conjugate
    generators.  The Jacobi identity is checked before anything else;
    a bivector whose derived differential breaks the operator identities
    is rejected.
    """
    return _exterior_model("parallelizable", n, structure, pi_coeffs)


def _exterior_model(family: str, n: int, structure: dict,
                    pi_coeffs) -> DolbeaultPoissonModel:
    """The model Λ(n) ⊗ Λ(n) of holomorphic ⊗ antiholomorphic forms.

    The Chevalley-Eilenberg differential ce is built once, on one factor:
    del = ce ⊗ 1 and delbar = 1 ⊗ ce (the structure constants are
    rational, so conjugation is the identity), and the contraction is
    l_pi ⊗ 1.
    """
    _complex_dimension(n)
    wedge = WedgeBasis(n)
    ce = derivation_blocks(wedge, _structure_images(n, structure))
    # Jacobi <=> the CE differential squares to zero on the generators
    if 1 in ce and 2 in ce and not (ce[2] * ce[1]).is_zero():
        raise StructureConstantError(
            "structure constants violate the Jacobi identity")
    contraction = {}
    if pi_coeffs is not None:
        contraction = factor_contraction(wedge, normalize_bivector_coeffs(n, pi_coeffs))
    model = DolbeaultPoissonModel(
        n, {(p, q): wedge.labels(p, q) for p in range(n + 1) for q in range(n + 1)},
        del_blocks=wedge.tensor(ce, {}, (1, 0)),
        delbar_blocks=wedge.tensor({}, ce, (0, 1)),
        contraction_blocks=wedge.tensor(contraction, {}, (-2, 0)),
        name=f"{family}{n}",
        metadata={"family": family,
                  "asserts": "invariant forms compute the Dolbeault cohomology"})
    require_valid(model, "bivector rejected")
    return model


def hodge_formal(h: HodgeDiamond) -> DolbeaultPoissonModel:
    """A formal model carrying only dimensions; all operators are zero.

    Only the zero bivector makes sense downstream: there is no wedge
    structure to contract against.
    """
    basis = {}
    for (p, q), d in sorted(h.h.items()):
        basis[(p, q)] = [f"e{p},{q}:{i}" for i in range(d)]
    return DolbeaultPoissonModel(h.n, basis, name="formal",
                                 metadata={"family": "formal"})


def _matrix_to_strings(m: Matrix) -> list:
    rows = [["0"] * m.cols for _ in range(m.rows)]
    for j, col, d in m._columns():
        for i, v in col.items():
            rows[i][j] = str(v if d == 1 else Fraction(v, d))
    return rows


def _int_key(key: str) -> int:
    """The integer named by a key: an optional minus sign and ASCII digits,
    nothing else (``int`` would also take blanks, signs, underscores and
    non-ASCII digits); ValueError otherwise."""
    if not _INT_RE.fullmatch(key):
        raise ValueError(f"{key!r} is not an integer")
    return int(key)


def _cell_key(key: str) -> tuple:
    """The cell (p, q) named by a "p,q" key; ValueError if it names none."""
    try:
        p, q = (_int_key(x) for x in key.split(","))
    except ValueError:
        raise ValueError(f"{key!r} is not 'p,q'") from None
    return p, q


def _parse_rational(s) -> tuple:
    """A matrix entry as ``(a, b)``, the value a/b with b > 0: an int, or a
    string that ``linalg._rational_pair`` reads; ValueError otherwise."""
    if isinstance(s, str):
        return _rational_pair(s)
    if not _is_int(s):
        raise ValueError(s)
    return s, 1


def save_model(m: DolbeaultPoissonModel) -> dict:
    """The kbmodel/1 dictionary for m."""

    def blocks_out(blocks: dict) -> list:
        return [{"from": [p, q], "matrix": _matrix_to_strings(mat)}
                for (p, q), mat in sorted(blocks.items())]

    return {
        "format": FORMAT,
        "name": m.name,
        "n": m.n,
        "basis": {f"{p},{q}": list(labels)
                  for (p, q), labels in sorted(m.basis.items())},
        "del": blocks_out(m.del_blocks),
        "delbar": blocks_out(m.delbar_blocks),
        "contraction": blocks_out(m.contraction_blocks),
        "metadata": dict(sorted(m.metadata.items())),
    }


_TOP_KEYS = {"format", "name", "n", "basis", "del", "delbar", "contraction",
             "metadata"}


def load_model(data: dict, lax: bool = False,
               validate: bool = True) -> DolbeaultPoissonModel:
    """Rebuild and validate a model from a kbmodel/1 dictionary.

    Unknown fields are rejected unless ``lax``.  The operator identities
    are checked before the model is returned; ``validate=False`` defers
    that to the caller (used by the checker to print a full report).
    """
    if not isinstance(data, dict):
        raise ModelFileError("model file must be a JSON object")
    if data.get("format") != FORMAT:
        raise ModelFileError(
            f"unsupported format {data.get('format')!r}, expected {FORMAT!r}")
    if not lax:
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ModelFileError(f"unknown fields: {sorted(unknown)}")
    n = data.get("n")
    if not _is_int(n) or n < 0:
        raise ModelFileError("field 'n' must be a nonnegative integer")
    raw_basis = data.get("basis")
    if not isinstance(raw_basis, dict):
        raise ModelFileError("field 'basis' must be an object")
    basis = {}
    for key, labels in raw_basis.items():
        try:
            cell = _cell_key(key)
        except ValueError:
            raise ModelFileError(f"basis key {key!r} is not 'p,q'") from None
        if cell in basis:
            raise ModelFileError(f"basis key {key!r} names cell {cell} a second time")
        if not isinstance(labels, list) or not all(map(isinstance, labels, repeat(str))):
            raise ModelFileError(f"basis[{key!r}] must be a list of strings")
        if labels and not (0 <= cell[0] <= n and 0 <= cell[1] <= n):
            raise ModelFileError(f"basis bidegree {cell} outside [0,{n}]²")
        basis[cell] = labels

    def blocks_in(field_name: str) -> dict:
        raw = data.get(field_name, [])
        if not isinstance(raw, list):
            raise ModelFileError(f"field {field_name!r} must be a list of blocks")
        out = {}
        for idx, entry in enumerate(raw):
            where = f"{field_name}[{idx}]"
            if not isinstance(entry, dict):
                raise ModelFileError(f"{where}: block must be an object")
            if not lax and set(entry) - {"from", "matrix"}:
                raise ModelFileError(
                    f"{where}: unknown fields {sorted(set(entry) - {'from', 'matrix'})}")
            src = entry.get("from")
            if (not isinstance(src, list) or len(src) != 2
                    or not all(_is_int(x) for x in src)):
                raise ModelFileError(f"{where}: 'from' must be [p, q]")
            if tuple(src) in out:
                raise ModelFileError(f"{where}: a second block from {src}")
            rows = entry.get("matrix")
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ModelFileError(f"{where}: 'matrix' must be a list of rows")
            ncols = len(rows[0]) if rows else 0
            cols, pieces = {}, []  # integer columns; (j, {i: a}, b) for the a/b, b > 1
            for i, row in enumerate(rows):
                if len(row) != ncols:
                    raise ModelFileError(f"{where}: ragged matrix rows")
                # most entries are "0", absent from the sparse matrix: skip
                # all-zero rows, and the json parser's one "0" object in the
                # others, at C speed (an equal "0" object is parsed and dropped)
                if row.count("0") == ncols:
                    continue
                for j in compress(range(ncols), map(is_not, row, repeat("0"))):
                    s = row[j]
                    try:
                        num, den = parse(s) if type(s) is str else _parse_rational(s)
                    except ValueError:
                        raise ModelFileError(f"{where}.matrix[{i}][{j}]: {s!r} is not "
                                             "a rational 'a/b' or integer string") from None
                    if num and den == 1:
                        cols.setdefault(j, {})[i] = num
                    elif num:
                        pieces.append((j, {i: num}, den))
            out[tuple(src)] = _from_columns(
                len(rows), ncols, [(j, col, 1) for j, col in cols.items()] + pieces)
        return out

    # each entry str is parsed once per file; no other type is cached, as True == 1
    parse = cache(_rational_pair)

    name = data.get("name", "model")
    if not isinstance(name, str):
        raise ModelFileError("field 'name' must be a string")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFileError("field 'metadata' must be an object")
    try:
        model = DolbeaultPoissonModel(
            n, basis, del_blocks=blocks_in("del"),
            delbar_blocks=blocks_in("delbar"),
            contraction_blocks=blocks_in("contraction"),
            name=name, metadata=metadata)
    except ValueError as exc:
        if isinstance(exc, (ModelFileError, ModelValidationError)):
            raise
        raise ModelFileError(str(exc)) from None
    if validate:
        require_valid(model, "invalid model file")
    return model


def model_to_json(m: DolbeaultPoissonModel) -> str:
    """The kbmodel/1 text of m: ``json.dumps(save_model(m), indent=2,
    sort_keys=True, ensure_ascii=False)`` and a newline, byte for byte,
    built by one join (json's indenting encoder is pure Python and yields
    one string per list item; a model file is mostly lists of strings)."""
    out: list = []
    _encode(save_model(m), "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(v, pad: str, out: list) -> None:
    """Append ``json.dumps(v, indent=2, sort_keys=True, ensure_ascii=False)``
    to out, each of its line breaks written as pad."""
    inner = pad + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        opener, closer = "{", "}"
        items = [(_json_str(k) + ": ", v[k]) for k in sorted(v)]
    elif type(v) is list and v:
        try:
            text = "".join(v)
            # strings that need no escape: quoting them all adds two quotes
            plain = len(_json_str(text)) == len(text) + 2
        except TypeError:
            plain = False
        if plain:
            out += ("[", inner, '"', ('",' + inner + '"').join(v), '"', pad, "]")
            return
        opener, closer, items = "[", "]", [("", x) for x in v]
    else:
        # JSON strings hold no raw newline, so this indents v exactly
        out.append(json.dumps(v, indent=2, sort_keys=True,
                              ensure_ascii=False).replace("\n", pad))
        return
    sep = opener + inner
    for head, x in items:
        out += (sep, head)
        _encode(x, inner, out)
        sep = "," + inner
    out += (pad, closer)


def write_model(m: DolbeaultPoissonModel, path) -> None:
    Path(path).write_text(model_to_json(m), encoding="utf-8")


def read_json(path) -> tuple:
    """Parse the UTF-8 JSON file at path, reading it once.

    Returns the data and the sha256 hex digest of the bytes parsed.
    Unreadable files, bytes that are not UTF-8 and JSON syntax errors raise
    ``ModelFileError``.
    """
    try:
        raw = Path(path).read_bytes()
        # decoded as read_text would: strict UTF-8, universal newlines
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        return json.loads(text), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path}: not UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc.strerror or exc}") from None


def read_model(path, lax: bool = False,
               validate: bool = True) -> DolbeaultPoissonModel:
    data, _ = read_json(path)
    return load_model(data, lax=lax, validate=validate)
