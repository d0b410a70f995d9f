"""Command-line driver.

Commands: check, compute, stein, kunneth, leray-hirsch, flag, pbundle,
blowup, blowup-point, mv-check.  Exit codes are stable: 0 success,
1 parse/usage error, 2 validation or model error, 3 inconsistency,
4 internal error (a failed internal consistency check or an arithmetic
fault, i.e. a bug in kbhom rather than in the input).
JSON and text output carry the same numbers; --json --no-timestamp
output is byte-identical across runs on identical inputs.

Geometric hypotheses are never assumed silently: pass --assert-compact
(Künneth) or --assert-star (blow-ups) to record them; they are echoed
in the report metadata.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone

from . import __version__
from .complexes import ComplexInvariantError
from .engine import (
    HHDims,
    HodgeDiamond,
    KBDims,
    euler_char,
    kb_homology,
    kb_spectral,
)
from .linalg import _is_int
from .models import ModelValidationError, validate_model
from .rules import (
    BlowupData,
    InconsistentBlowupError,
    blowup_kb,
    blowup_point_kb,
    flag_manifold_kb,
    kunneth_dims,
    leray_hirsch_hh,
    mv_euler_check,
    projective_bundle_hodge,
)
from .stein import (
    NonHomogeneousBivector,
    NotPoissonOnSlice,
    PolyBivector,
    SliceCapError,
    stein_homology,
)
from .zoo import ModelFileError, _cell_key, _int_key, load_model, read_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL = 4


class TableError(ValueError):
    """A dimension-table input file is malformed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_PARSE)


def _load_json(path, inputs: list):
    """Parse one input file and record its path and the sha256 of the
    bytes parsed in ``inputs``, the report's input list."""
    data, digest = read_json(path)
    inputs.append({"path": str(path), "sha256": digest})
    return data


def _read_table(cls, path, inputs: list, key=_int_key):
    """The table of class cls (``KBDims``, ``HHDims`` or ``HodgeDiamond``)
    in the JSON file at path: an object with the class's fields, each but
    the last a nonnegative integer, and the last an object whose keys
    ``key`` parses and whose values are nonnegative integers.  Any fault,
    the class's own range check included, raises one TableError naming
    path once."""
    data = _load_json(path, inputs)
    *scalars, table = (f.name for f in fields(cls))
    try:
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        extra = set(data) - {*scalars, table}
        if extra:
            raise ValueError(f"unknown fields {sorted(extra)}")
        values = {name: data.get(name) for name in scalars}
        for name, value in values.items():
            if not _is_int(value) or value < 0:
                raise ValueError(f"{name!r} must be a nonnegative integer")
        raw = data.get(table, {})
        if not isinstance(raw, dict):
            raise ValueError(f"{table!r} must be an object")
        entries = {}
        for text, value in raw.items():
            try:
                k = key(text)
            except ValueError as exc:
                raise ValueError(f"{table!r} key {exc}") from None
            if k in entries:
                raise ValueError(f"{table!r} key {text!r} names {k} a second time")
            if not _is_int(value) or value < 0:
                raise ValueError(f"{table}[{text!r}] must be a nonnegative integer")
            entries[k] = value
        return cls(**values, **{table: entries})
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from None


def _hypotheses(args) -> dict:
    meta = {}
    if hasattr(args, "assert_compact"):
        meta["compact_factor_asserted"] = bool(args.assert_compact)
    if hasattr(args, "assert_star"):
        meta["abelian_conormal_asserted"] = bool(args.assert_star)
    return meta


def _emit(args, inputs, results, lines) -> None:
    """Print the report of ``args.command``; its metadata are the
    geometric hypotheses the command records (``_hypotheses``)."""
    metadata = _hypotheses(args)
    report = {
        "command": args.command,
        "engine": {"name": "kbhom", "version": __version__},
        "inputs": inputs,
        "metadata": metadata,
        "results": results,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {args.command}")
    for item in inputs:
        print(f"input: {item['path']}  sha256 {item['sha256'][:16]}")
    for key, value in sorted(metadata.items()):
        print(f"{key}: {value}")
    for line in lines:
        print(line)


def _kb_results(dims: KBDims) -> dict:
    """The KB part of a report: the full table and its Euler characteristic."""
    return {"kb": {"n": dims.n, "dims": {str(k): dims[k] for k in range(2 * dims.n + 1)}},
            "euler_characteristic": euler_char(dims)}


def _kb_lines(dims: KBDims) -> list:
    return ["  k  dim H_k"] + [f"  {k}  {dims[k]}" for k in range(2 * dims.n + 1)]


def _emit_kb(args, inputs, dims: KBDims, header: str) -> int:
    """Emit the KB report of a rule's result, its table under ``header``."""
    _emit(args, inputs, _kb_results(dims), [header] + _kb_lines(dims))
    return EXIT_OK


def cmd_check(args) -> int:
    inputs = []
    model = load_model(_load_json(args.path, inputs),
                       lax=args.lax, validate=False)
    report = validate_model(model)
    results = {
        "model": model.name,
        "n": model.n,
        "ok": report.ok,
        "checks": [{"identity": c.identity, "ok": c.ok,
                    "bidegree": list(c.bidegree) if c.bidegree else None}
                   for c in report.checks],
    }
    lines = [f"model: {model.name}  (n={model.n}, {model.total_dim()} basis elements)"]
    for c in report.checks:
        if c.ok:
            lines.append(f"  PASS  {c.identity}")
        else:
            lines.append(f"  FAIL  {c.identity}  at bidegree {c.bidegree}")
    lines.append("result: PASS" if report.ok else "result: FAIL")
    _emit(args, inputs, results, lines)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_compute(args) -> int:
    inputs = []
    model = load_model(_load_json(args.path, inputs), lax=args.lax)
    if args.pages is None:
        dims = kb_homology(model)
    else:
        dims, sp = kb_spectral(model, args.pages)
    results = {"model": model.name, **_kb_results(dims)}
    lines = [f"model: {model.name}  (n={model.n})"]
    lines += _kb_lines(dims)
    lines.append(f"euler characteristic: {results['euler_characteristic']}")
    if args.pages is not None:
        results["pages"] = {
            str(r): {f"{p},{q}": d for (p, q), d in sorted(page.items())}
            for r, page in sp.pages}
        results["degeneration_page"] = sp.degeneration_page
        for r, page in sp.pages:
            lines.append(f"page E_{r}:")
            for (p, q), d in sorted(page.items()):
                lines.append(f"  ({p},{q})  {d}")
        lines.append(f"degeneration page: {sp.degeneration_page}")
    _emit(args, inputs, results, lines)
    return EXIT_OK


def _integer(text: str) -> int:
    """The argparse type of every integer option: an integer key (``_int_key``)."""
    try:
        return _int_key(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_weights(text: str) -> list:
    try:
        lo, dots, hi = text.partition("..")
        lo, hi = _int_key(lo), _int_key(hi if dots else lo)
        if hi < lo:
            raise ValueError
        return list(range(lo, hi + 1))
    except ValueError:
        raise TableError(f"--weights must be 'a..b' or a single integer, got {text!r}") \
            from None


def cmd_stein(args) -> int:
    inputs = []
    raw = _load_json(args.pi, inputs)
    if not isinstance(raw, list):
        raise TableError(f"{args.pi}: bivector file must be a JSON list of terms")
    try:
        pi = PolyBivector.from_terms(args.n, raw)
    except NonHomogeneousBivector:
        raise
    except (ValueError, TypeError) as exc:
        raise TableError(f"{args.pi}: {exc}") from None
    weights = _parse_weights(args.weights)
    table = stein_homology(args.n, pi, weights, cap=args.cap)
    per_weight: dict = {}
    for (w, k), v in table.items():
        per_weight.setdefault(w, {})[k] = v
    results = {"n": args.n, "degree": pi.degree, "cap": args.cap,
               "homology": {str(w): {str(k): kv[k] for k in sorted(kv)}
                            for w, kv in sorted(per_weight.items())}}
    lines = [f"n: {args.n}  bivector degree: {pi.degree}", "  w  k  dim H_k"]
    for w in sorted(per_weight):
        for k in sorted(per_weight[w]):
            lines.append(f"  {w}  {k}  {per_weight[w][k]}")
    _emit(args, inputs, results, lines)
    return EXIT_OK


def cmd_kunneth(args) -> int:
    inputs = []
    result = kunneth_dims(_read_table(KBDims, args.x, inputs),
                          _read_table(KBDims, args.y, inputs))
    return _emit_kb(args, inputs, result, f"n: {result.n}")


def cmd_leray_hirsch(args) -> int:
    inputs = []
    hh = _read_table(HHDims, args.table, inputs)
    try:
        classes = []
        for chunk in args.classes.replace(";", " ").split():
            classes.append(_cell_key(chunk))
    except ValueError:
        raise TableError(f"--classes must look like 'u,v;u,v', got {args.classes!r}") \
            from None
    if not classes:
        raise TableError("--classes must contain at least one bidegree")
    result = leray_hirsch_hh(hh, classes)
    results = {"hh": {"dims": {str(k): v for k, v in sorted(result.dims.items())}},
               "classes": [list(c) for c in classes]}
    lines = ["  k  dim HH_k"]
    lines += [f"  {k}  {v}" for k, v in sorted(result.dims.items())]
    _emit(args, inputs, results, lines)
    return EXIT_OK


def cmd_flag(args) -> int:
    result = flag_manifold_kb(args.n, args.betti)
    return _emit_kb(args, [], result, f"n: {args.n}  betti sum: {args.betti}")


def cmd_pbundle(args) -> int:
    inputs = []
    result = projective_bundle_hodge(
        _read_table(HodgeDiamond, args.diamond, inputs, _cell_key), args.r)
    h = sorted(result.h.items())
    results = {"hodge": {"n": result.n, "h": {f"{p},{q}": v for (p, q), v in h}}}
    lines = [f"n: {result.n}", "  (p,q)  h^{p,q}"]
    lines += [f"  ({p},{q})  {v}" for (p, q), v in h]
    _emit(args, inputs, results, lines)
    return EXIT_OK


def cmd_blowup(args) -> int:
    inputs = []
    x, y, e = (_read_table(KBDims, path, inputs) for path in (args.x, args.y, args.e))
    result = blowup_kb(BlowupData(args.r, x, y, e))
    return _emit_kb(args, inputs, result, f"n: {result.n}  codimension: {args.r}")


def cmd_blowup_point(args) -> int:
    inputs = []
    result = blowup_point_kb(_read_table(KBDims, args.x, inputs))
    return _emit_kb(args, inputs, result, f"n: {result.n}")


def cmd_mv_check(args) -> int:
    inputs = []
    tables = [_read_table(KBDims, path, inputs)
              for path in (args.u, args.v, args.uv, args.union)]
    verdict = mv_euler_check(*tables)
    chi = dict(zip(("u", "v", "uv", "union"), map(euler_char, tables)))
    lines = [f"chi(U)={chi['u']}  chi(V)={chi['v']}  "
             f"chi(U∩V)={chi['uv']}  chi(U∪V)={chi['union']}",
             f"verdict: {'consistent' if verdict else 'inconsistent'}"]
    _emit(args, inputs, {"consistent": verdict, "euler": chi}, lines)
    return EXIT_OK if verdict else EXIT_INCONSISTENT


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field (byte-stable output)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kbhom",
                     description="Exact Koszul-Brylinski homology toolkit")
    parser.add_argument("--version", action="version",
                        version=f"kbhom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model file's operator identities")
    p.add_argument("path")
    p.add_argument("--lax", action="store_true", help="ignore unknown fields")
    _add_output_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compute", help="KB homology table of a model file")
    p.add_argument("path")
    p.add_argument("--pages", type=_integer, metavar="R",
                   help="also print spectral pages E_1..E_R")
    p.add_argument("--lax", action="store_true", help="ignore unknown fields")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("stein", help="per-weight homology of C^n with a "
                                     "homogeneous polynomial bivector")
    p.add_argument("pi", help="JSON list of terms {i, j, coeff, alpha}")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--weights", required=True, metavar="A..B",
                   help="a weight W or a range A..B; write --weights=-2..3 "
                        "when A is negative")
    p.add_argument("--cap", type=_integer, default=8)
    _add_output_flags(p)
    p.set_defaults(func=cmd_stein)

    p = sub.add_parser("kunneth", help="convolve two KB tables")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--assert-compact", action="store_true",
                   help="record that one factor is compact")
    _add_output_flags(p)
    p.set_defaults(func=cmd_kunneth)

    p = sub.add_parser("leray-hirsch", help="shift an HH table by class bidegrees")
    p.add_argument("table")
    p.add_argument("--classes", required=True, metavar="U,V;U,V")
    _add_output_flags(p)
    p.set_defaults(func=cmd_leray_hirsch)

    p = sub.add_parser("flag", help="KB table of a flag manifold")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--betti", type=_integer, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("pbundle", help="Hodge diamond of a projective bundle")
    p.add_argument("diamond")
    p.add_argument("-r", type=_integer, required=True, help="fiber rank (P^{r-1})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_pbundle)

    p = sub.add_parser("blowup", help="KB table of a blow-up from X, Y, E tables")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("e")
    p.add_argument("-r", type=_integer, required=True, help="codimension of the center")
    p.add_argument("--assert-star", action="store_true",
                   help="record the abelian-conormal hypothesis")
    _add_output_flags(p)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("blowup-point", help="KB table after blowing up a point")
    p.add_argument("x")
    p.add_argument("--assert-star", action="store_true",
                   help="record the abelian-conormal hypothesis")
    _add_output_flags(p)
    p.set_defaults(func=cmd_blowup_point)

    p = sub.add_parser("mv-check", help="Mayer-Vietoris Euler consistency")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("uv")
    p.add_argument("union")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mv_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing never
    changes it, and each call parses into a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelFileError, TableError) as exc:
        print(f"kbhom: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelValidationError, NonHomogeneousBivector, NotPoissonOnSlice) as exc:
        print(f"kbhom: validation error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (InconsistentBlowupError, SliceCapError) as exc:
        print(f"kbhom: inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ComplexInvariantError, AssertionError, ArithmeticError) as exc:
        # every input is validated before a complex is built from it, so a
        # broken complex invariant is a bug, like a failed assertion
        print(f"kbhom: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"kbhom: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
