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
import json
import sys
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
from .zoo import ModelFileError, _is_int, load_model, read_json

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


def _expect_keys(data, keys, path):
    if not isinstance(data, dict):
        raise TableError(f"{path}: expected a JSON object")
    extra = set(data) - set(keys)
    if extra:
        raise TableError(f"{path}: unknown fields {sorted(extra)}")


def _int_keyed(raw, path, what):
    if not isinstance(raw, dict):
        raise TableError(f"{path}: {what} must be an object")
    out = {}
    for key, value in raw.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise TableError(f"{path}: {what} key {key!r} is not an integer") from None
        if not _is_int(value) or value < 0:
            raise TableError(f"{path}: {what}[{key}] must be a nonnegative integer")
        out[k] = value
    return out


def _parse_kb_table(path, inputs) -> KBDims:
    data = _load_json(path, inputs)
    _expect_keys(data, {"n", "dims"}, path)
    n = data.get("n")
    if not _is_int(n) or n < 0:
        raise TableError(f"{path}: 'n' must be a nonnegative integer")
    try:
        return KBDims(n, _int_keyed(data.get("dims", {}), path, "dims"))
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from None


def _parse_hh_table(path, inputs) -> HHDims:
    data = _load_json(path, inputs)
    _expect_keys(data, {"dims"}, path)
    return HHDims(_int_keyed(data.get("dims", {}), path, "dims"))


def _parse_diamond(path, inputs) -> HodgeDiamond:
    data = _load_json(path, inputs)
    _expect_keys(data, {"n", "h"}, path)
    n = data.get("n")
    if not _is_int(n) or n < 0:
        raise TableError(f"{path}: 'n' must be a nonnegative integer")
    raw = data.get("h", {})
    if not isinstance(raw, dict):
        raise TableError(f"{path}: 'h' must be an object")
    h = {}
    for key, value in raw.items():
        try:
            p, q = (int(x) for x in key.split(","))
        except ValueError:
            raise TableError(f"{path}: h key {key!r} is not 'p,q'") from None
        if not _is_int(value) or value < 0:
            raise TableError(f"{path}: h[{key!r}] must be a nonnegative integer")
        h[(p, q)] = value
    try:
        return HodgeDiamond(n, h)
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from None


def _kb_out(dims: KBDims) -> dict:
    return {"n": dims.n, "dims": {str(k): dims[k] for k in range(2 * dims.n + 1)}}


def _hh_out(dims: HHDims) -> dict:
    return {"dims": {str(k): v for k, v in sorted(dims.dims.items())}}


def _diamond_out(d: HodgeDiamond) -> dict:
    return {"n": d.n, "h": {f"{p},{q}": v for (p, q), v in sorted(d.h.items())}}


def _kb_lines(dims: KBDims, title="dim H_k") -> list:
    lines = [f"  k  {title}"]
    for k in range(2 * dims.n + 1):
        lines.append(f"  {k}  {dims[k]}")
    return lines


def _emit(args, command, inputs, results, metadata=None, lines=None) -> None:
    report = {
        "command": command,
        "engine": {"name": "kbhom", "version": __version__},
        "inputs": inputs,
        "metadata": metadata or {},
        "results": results,
    }
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {command}")
    for item in report["inputs"]:
        print(f"input: {item['path']}  sha256 {item['sha256'][:16]}")
    for key, value in sorted((metadata or {}).items()):
        print(f"{key}: {value}")
    for line in lines or []:
        print(line)


def _hypotheses(args) -> dict:
    meta = {}
    if hasattr(args, "assert_compact"):
        meta["compact_factor_asserted"] = bool(args.assert_compact)
    if hasattr(args, "assert_star"):
        meta["abelian_conormal_asserted"] = bool(args.assert_star)
    return meta


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
    _emit(args, "check", inputs, results, lines=lines)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_compute(args) -> int:
    inputs = []
    model = load_model(_load_json(args.path, inputs), lax=args.lax)
    if args.pages is None:
        dims = kb_homology(model)
    else:
        dims, sp = kb_spectral(model, args.pages)
    results = {"model": model.name, "kb": _kb_out(dims),
               "euler_characteristic": euler_char(dims)}
    lines = [f"model: {model.name}  (n={model.n})"]
    lines += _kb_lines(dims)
    lines.append(f"euler characteristic: {euler_char(dims)}")
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
    _emit(args, "compute", inputs, results, lines=lines)
    return EXIT_OK


def _parse_weights(text: str) -> list:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
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
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
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
    _emit(args, "stein", inputs, results, lines=lines)
    return EXIT_OK


def cmd_kunneth(args) -> int:
    inputs = []
    a = _parse_kb_table(args.x, inputs)
    b = _parse_kb_table(args.y, inputs)
    result = kunneth_dims(a, b)
    results = {"kb": _kb_out(result), "euler_characteristic": euler_char(result)}
    lines = [f"n: {result.n}"] + _kb_lines(result)
    _emit(args, "kunneth", inputs, results,
          metadata=_hypotheses(args), lines=lines)
    return EXIT_OK


def cmd_leray_hirsch(args) -> int:
    inputs = []
    hh = _parse_hh_table(args.table, inputs)
    try:
        classes = []
        for chunk in args.classes.replace(";", " ").split():
            u, v = (int(x) for x in chunk.split(","))
            classes.append((u, v))
    except ValueError:
        raise TableError(f"--classes must look like 'u,v;u,v', got {args.classes!r}") \
            from None
    if not classes:
        raise TableError("--classes must contain at least one bidegree")
    result = leray_hirsch_hh(hh, classes)
    results = {"hh": _hh_out(result),
               "classes": [list(c) for c in classes]}
    lines = ["  k  dim HH_k"]
    lines += [f"  {k}  {v}" for k, v in sorted(result.dims.items())]
    _emit(args, "leray-hirsch", inputs, results, lines=lines)
    return EXIT_OK


def cmd_flag(args) -> int:
    result = flag_manifold_kb(args.n, args.betti)
    results = {"kb": _kb_out(result), "euler_characteristic": euler_char(result)}
    lines = [f"n: {args.n}  betti sum: {args.betti}"] + _kb_lines(result)
    _emit(args, "flag", [], results, lines=lines)
    return EXIT_OK


def cmd_pbundle(args) -> int:
    inputs = []
    hy = _parse_diamond(args.diamond, inputs)
    result = projective_bundle_hodge(hy, args.r)
    results = {"hodge": _diamond_out(result)}
    lines = [f"n: {result.n}", "  (p,q)  h^{p,q}"]
    lines += [f"  ({p},{q})  {v}" for (p, q), v in sorted(result.h.items())]
    _emit(args, "pbundle", inputs, results, lines=lines)
    return EXIT_OK


def cmd_blowup(args) -> int:
    inputs = []
    data = BlowupData(args.r, _parse_kb_table(args.x, inputs),
                      _parse_kb_table(args.y, inputs), _parse_kb_table(args.e, inputs))
    result = blowup_kb(data)
    results = {"kb": _kb_out(result), "euler_characteristic": euler_char(result)}
    lines = [f"n: {result.n}  codimension: {args.r}"] + _kb_lines(result)
    _emit(args, "blowup", inputs, results,
          metadata=_hypotheses(args), lines=lines)
    return EXIT_OK


def cmd_blowup_point(args) -> int:
    inputs = []
    x = _parse_kb_table(args.x, inputs)
    result = blowup_point_kb(x)
    results = {"kb": _kb_out(result), "euler_characteristic": euler_char(result)}
    lines = [f"n: {result.n}"] + _kb_lines(result)
    _emit(args, "blowup-point", inputs, results,
          metadata=_hypotheses(args), lines=lines)
    return EXIT_OK


def cmd_mv_check(args) -> int:
    inputs = []
    u = _parse_kb_table(args.u, inputs)
    v = _parse_kb_table(args.v, inputs)
    uv = _parse_kb_table(args.uv, inputs)
    union = _parse_kb_table(args.union, inputs)
    verdict = mv_euler_check(u, v, uv, union)
    results = {"consistent": verdict,
               "euler": {"u": euler_char(u), "v": euler_char(v),
                         "uv": euler_char(uv), "union": euler_char(union)}}
    lines = [f"chi(U)={euler_char(u)}  chi(V)={euler_char(v)}  "
             f"chi(U∩V)={euler_char(uv)}  chi(U∪V)={euler_char(union)}",
             f"verdict: {'consistent' if verdict else 'inconsistent'}"]
    _emit(args, "mv-check", inputs, results, lines=lines)
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
    p.add_argument("--pages", type=int, metavar="R",
                   help="also print spectral pages E_1..E_R")
    p.add_argument("--lax", action="store_true", help="ignore unknown fields")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("stein", help="per-weight homology of C^n with a "
                                     "homogeneous polynomial bivector")
    p.add_argument("pi", help="JSON list of terms {i, j, coeff, alpha}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", required=True, metavar="A..B")
    p.add_argument("--cap", type=int, default=8)
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--betti", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("pbundle", help="Hodge diamond of a projective bundle")
    p.add_argument("diamond")
    p.add_argument("-r", type=int, required=True, help="fiber rank (P^{r-1})")
    _add_output_flags(p)
    p.set_defaults(func=cmd_pbundle)

    p = sub.add_parser("blowup", help="KB table of a blow-up from X, Y, E tables")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("e")
    p.add_argument("-r", type=int, required=True, help="codimension of the center")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
