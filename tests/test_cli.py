import hashlib
import json
from pathlib import Path

import pytest

from kbhom import cli, engine
from kbhom.cli import main
from kbhom.complexes import ComplexInvariantError
from kbhom.engine import HodgeDiamond, hodge_diamond, kb_homology
from kbhom.models import product_model
from kbhom.zoo import hodge_formal, parallelizable, save_model, torus, write_model


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def torus1_file(tmp_path):
    p = tmp_path / "torus1.json"
    write_model(torus(1), p)
    return str(p)


@pytest.fixture
def torus1_table(tmp_path):
    return write_json(tmp_path / "t1.json",
                      {"n": 1, "dims": {"0": 1, "1": 2, "2": 1}})


@pytest.fixture
def surface_table(tmp_path):
    return write_json(tmp_path / "surface.json",
                      {"n": 2, "dims": {"0": 1, "1": 4, "2": 6, "3": 4, "4": 1}})


def run_json(capsys, argv):
    rc = main(argv + ["--json", "--no-timestamp"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_check_valid_model(torus1_file, capsys):
    assert main(["check", torus1_file]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_check_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert main(["check", str(p)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 1


def test_reported_sha256_is_of_the_input_bytes(torus1_file, torus1_table,
                                               surface_table, capsys):
    for argv, paths in ((["compute", torus1_file], [torus1_file]),
                        (["kunneth", torus1_table, surface_table],
                         [torus1_table, surface_table])):
        rc, report = run_json(capsys, argv)
        assert rc == 0
        assert report["inputs"] == [
            {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in paths]


@pytest.mark.parametrize("command", ["check", "kunneth"])
def test_missing_input_names_path_and_exits_1(tmp_path, torus1_table, capsys,
                                              command):
    missing = str(tmp_path / "nope.json")
    argv = [command, missing] + ([torus1_table] if command == "kunneth" else [])
    assert main(argv) == 1
    assert f"{missing}: No such file or directory" in capsys.readouterr().err


def test_utf16_inputs_exit_1(tmp_path, torus1_table, capsys):
    model = tmp_path / "m16.json"
    model.write_text(json.dumps(save_model(torus(1))), encoding="utf-16")
    table = tmp_path / "t16.json"
    table.write_text(Path(torus1_table).read_text(encoding="utf-8"),
                     encoding="utf-16")
    assert main(["check", str(model)]) == 1
    assert main(["kunneth", str(table), torus1_table]) == 1


def test_check_corrupted_matrix_shape_exits_1(tmp_path, capsys):
    data = save_model(torus(1))
    data["delbar"] = [{"from": [0, 0], "matrix": [["1", "1"]]}]
    p = tmp_path / "shape.json"
    write_json(p, data)
    assert main(["check", str(p)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_check_broken_anticommutation(tmp_path, capsys):
    data = save_model(torus(1))
    data["del"] = [{"from": [0, 0], "matrix": [["1"]]},
                   {"from": [0, 1], "matrix": [["1"]]}]
    data["delbar"] = [{"from": [0, 0], "matrix": [["1"]]},
                      {"from": [1, 0], "matrix": [["1"]]}]
    p = tmp_path / "anti.json"
    write_json(p, data)
    assert main(["check", str(p)]) == 2
    out = capsys.readouterr().out
    assert "FAIL  del∘delbar + delbar∘del  at bidegree (0, 0)" in out


def test_check_json_report(torus1_file, capsys):
    rc, report = run_json(capsys, ["check", torus1_file])
    assert rc == 0
    assert report["results"]["ok"] is True
    assert len(report["results"]["checks"]) == 5


def test_compute_torus(torus1_file, capsys):
    rc, report = run_json(capsys, ["compute", torus1_file, "--pages", "1"])
    assert rc == 0
    assert report["results"]["kb"] == {"n": 1, "dims": {"0": 1, "1": 2, "2": 1}}
    assert report["results"]["euler_characteristic"] == 0
    assert report["results"]["degeneration_page"] == 1


def test_compute_formal_p2(tmp_path, capsys):
    model = hodge_formal(HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1}))
    p = tmp_path / "p2.json"
    write_model(model, p)
    rc, report = run_json(capsys, ["compute", str(p)])
    assert rc == 0
    assert report["results"]["kb"]["dims"] == {"0": 0, "1": 0, "2": 3, "3": 0, "4": 0}
    assert report["results"]["euler_characteristic"] == 3


def test_compute_parallelizable_matches_hodge_sums(tmp_path, capsys):
    model = parallelizable(3, {(1, 2, 3): 1})
    p = tmp_path / "nil3.json"
    write_model(model, p)
    rc, report = run_json(capsys, ["compute", str(p)])
    assert rc == 0
    diamond = hodge_diamond(model)
    for k in range(7):
        expected = sum(v for (pp, q), v in diamond.h.items() if pp - q == 3 - k)
        assert report["results"]["kb"]["dims"][str(k)] == expected


def test_compute_text_and_json_agree(torus1_file, capsys):
    assert main(["compute", torus1_file]) == 0
    text = capsys.readouterr().out
    rc, report = run_json(capsys, ["compute", torus1_file])
    for k, dim in report["results"]["kb"]["dims"].items():
        assert f"  {k}  {dim}" in text
    assert f"euler characteristic: {report['results']['euler_characteristic']}" in text


def test_compute_json_deterministic(torus1_file, capsys):
    main(["compute", torus1_file, "--json", "--no-timestamp"])
    first = capsys.readouterr().out
    main(["compute", torus1_file, "--json", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second


def test_compute_timestamp_present_by_default(torus1_file, capsys):
    main(["compute", torus1_file, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert "timestamp" in report


def test_stein_zero_bivector(tmp_path, capsys):
    pi = write_json(tmp_path / "pi0.json", [])
    rc, report = run_json(capsys, ["stein", pi, "--n", "1", "--weights", "0..2"])
    assert rc == 0
    hom = report["results"]["homology"]
    for w in ("0", "1", "2"):
        assert hom[w] == {"0": 1, "1": 1}


def test_stein_constant_bivector_weight_zero(tmp_path, capsys):
    pi = write_json(tmp_path / "pi.json",
                    [{"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0]}])
    rc, report = run_json(capsys, ["stein", pi, "--n", "2", "--weights", "0"])
    assert rc == 0
    assert report["results"]["homology"]["0"] == {"0": 0, "1": 0, "2": 0}


def test_stein_mixed_degree_exits_2(tmp_path, capsys):
    pi = write_json(tmp_path / "bad.json",
                    [{"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0]},
                     {"i": 1, "j": 2, "coeff": "1", "alpha": [1, 0]}])
    assert main(["stein", pi, "--n", "2", "--weights", "0"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_stein_cap_exceeded_exits_3(tmp_path, capsys):
    pi = write_json(tmp_path / "pi.json",
                    [{"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0]}])
    assert main(["stein", pi, "--n", "2", "--weights", "40"]) == 3
    assert "inconsistency" in capsys.readouterr().err


def test_kunneth_cli(torus1_table, capsys):
    rc, report = run_json(capsys, ["kunneth", torus1_table, torus1_table,
                                   "--assert-compact"])
    assert rc == 0
    assert report["results"]["kb"]["dims"] == {
        "0": 1, "1": 4, "2": 6, "3": 4, "4": 1}
    assert report["metadata"]["compact_factor_asserted"] is True


def test_kunneth_without_assert_flag_is_recorded(torus1_table, capsys):
    rc, report = run_json(capsys, ["kunneth", torus1_table, torus1_table])
    assert report["metadata"]["compact_factor_asserted"] is False


def test_leray_hirsch_cli(tmp_path, capsys):
    table = write_json(tmp_path / "hh.json", {"dims": {"0": 1}})
    rc, report = run_json(capsys, ["leray-hirsch", table,
                                   "--classes", "0,0;1,1"])
    assert rc == 0
    assert report["results"]["hh"]["dims"] == {"0": 2}


def test_flag_cli(capsys):
    rc, report = run_json(capsys, ["flag", "--n", "2", "--betti", "3"])
    assert rc == 0
    assert report["results"]["kb"]["dims"]["2"] == 3
    assert report["results"]["euler_characteristic"] == 3


def test_pbundle_cli(tmp_path, capsys):
    diamond = write_json(tmp_path / "pt.json", {"n": 0, "h": {"0,0": 1}})
    rc, report = run_json(capsys, ["pbundle", diamond, "-r", "3"])
    assert rc == 0
    assert report["results"]["hodge"] == {
        "n": 2, "h": {"0,0": 1, "1,1": 1, "2,2": 1}}


def test_blowup_cli(surface_table, tmp_path, capsys):
    y = write_json(tmp_path / "y.json", {"n": 0, "dims": {"0": 1}})
    e = write_json(tmp_path / "e.json", {"n": 1, "dims": {"1": 2}})
    rc, report = run_json(capsys, ["blowup", surface_table, y, e, "-r", "2",
                                   "--assert-star"])
    assert rc == 0
    assert report["results"]["kb"]["dims"] == {
        "0": 1, "1": 4, "2": 7, "3": 4, "4": 1}
    assert report["metadata"]["abelian_conormal_asserted"] is True


def test_blowup_inconsistent_exits_3(tmp_path, capsys):
    x = write_json(tmp_path / "x.json", {"n": 2, "dims": {}})
    y = write_json(tmp_path / "y.json", {"n": 0, "dims": {"0": 1}})
    e = write_json(tmp_path / "e.json", {"n": 1, "dims": {}})
    assert main(["blowup", x, y, e, "-r", "2"]) == 3
    assert "inconsistency" in capsys.readouterr().err


def test_blowup_point_cli(surface_table, capsys):
    rc, report = run_json(capsys, ["blowup-point", surface_table])
    assert rc == 0
    assert report["results"]["kb"]["dims"]["2"] == 7


def test_mv_check_consistent(torus1_table, capsys):
    rc, report = run_json(capsys, ["mv-check", torus1_table, torus1_table,
                                   torus1_table, torus1_table])
    assert rc == 0
    assert report["results"]["consistent"] is True


def test_mv_check_inconsistent_exits_3(tmp_path, capsys):
    zero = write_json(tmp_path / "zero.json", {"n": 0, "dims": {}})
    pt = write_json(tmp_path / "pt.json", {"n": 0, "dims": {"0": 1}})
    rc = main(["mv-check", zero, zero, zero, pt])
    out = capsys.readouterr().out
    assert rc == 3
    assert "verdict: inconsistent" in out


def test_table_with_unknown_field_exits_1(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"n": 1, "dims": {}, "extra": 1})
    assert main(["blowup-point", bad]) == 1


@pytest.mark.parametrize("command, table", [
    ("blowup-point", {"n": True, "dims": {}}),
    ("blowup-point", {"n": 1, "dims": {"0": True}}),
    ("leray-hirsch", {"dims": {"0": True}}),
    ("pbundle", {"n": True, "h": {}}),
    ("pbundle", {"n": 0, "h": {"0,0": True}}),
])
def test_table_rejects_booleans_exits_1(tmp_path, capsys, command, table):
    path = write_json(tmp_path / "bool.json", table)
    extra = {"leray-hirsch": ["--classes", "0,0"], "pbundle": ["-r", "2"]}
    assert main([command, path] + extra.get(command, [])) == 1
    assert "must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("pages", ["0", "-1"])
def test_compute_rejects_nonpositive_pages(torus1_file, capsys, pages):
    assert main(["compute", torus1_file, "--pages", pages]) == 1
    assert "r_max must be >= 1" in capsys.readouterr().err


PAGED_MODELS = {
    "heis3": lambda: parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1}),
    "torus3": lambda: torus(3, {(1, 2): 1}),
    "t1xheis3": lambda: product_model(torus(1),
                                      parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})),
}


@pytest.mark.parametrize("name", sorted(PAGED_MODELS))
def test_compute_pages_prints_the_same_kb_table(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    write_model(PAGED_MODELS[name](), path)
    _, plain = run_json(capsys, ["compute", str(path)])
    _, paged = run_json(capsys, ["compute", str(path), "--pages", "2"])
    for key in ("model", "kb", "euler_characteristic"):
        assert paged["results"][key] == plain["results"][key]
    assert main(["compute", str(path)]) == 0
    plain_text = capsys.readouterr().out
    assert main(["compute", str(path), "--pages", "2"]) == 0
    paged_text = capsys.readouterr().out
    assert paged_text.split("page E_1:")[0] == plain_text


def test_compute_pages_builds_the_bicomplex_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = engine.kb_double_complex

    def counting(model):
        calls.append(model.name)
        return build(model)

    monkeypatch.setattr(engine, "kb_double_complex", counting)
    monkeypatch.setattr(cli, "kb_double_complex", counting, raising=False)
    path = tmp_path / "heis3.json"
    write_model(PAGED_MODELS["heis3"](), path)
    assert main(["compute", str(path), "--pages", "2"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fault", [AssertionError("delpi left the slice"),
                                   ZeroDivisionError("division by zero")])
def test_internal_faults_exit_4(tmp_path, capsys, monkeypatch, fault):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "stein_homology", broken)
    pi = write_json(tmp_path / "pi0.json", [])
    assert main(["stein", pi, "--n", "1", "--weights", "0"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("kbhom: internal error: ")
    assert str(fault) in err


def test_complex_invariant_error_exits_4(capsys, monkeypatch, torus1_file):
    def broken(*args, **kwargs):
        raise ComplexInvariantError("negative homology at degree 0")

    monkeypatch.setattr(cli, "kb_homology", broken)
    assert main(["compute", torus1_file]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("kbhom: internal error: ComplexInvariantError: ")
    assert "negative homology at degree 0" in err


@pytest.mark.parametrize("change", [{"coeff": 0.1}, {"coeff": True},
                                    {"alpha": [True, False, False]}, {"i": True}],
                         ids=["float-coeff", "true-coeff", "bool-alpha", "bool-index"])
def test_stein_inexact_terms_are_parse_errors(tmp_path, capsys, change):
    term = {"i": 1, "j": 2, "coeff": "1", "alpha": [0, 0, 1]} | change
    pi = write_json(tmp_path / "pi.json", [term])
    assert main(["stein", pi, "--n", "3", "--weights", "0"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_stein_zero_denominator_is_a_parse_error(tmp_path, capsys):
    pi = write_json(tmp_path / "pi.json",
                    [{"i": 1, "j": 2, "coeff": "1/0", "alpha": [0, 0]}])
    assert main(["stein", pi, "--n", "2", "--weights", "0"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_round_trip_reports_identical(tmp_path, capsys):
    model = parallelizable(3, {(1, 2, 3): 1}, {(1, 2): 1})
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    write_model(model, p1)
    from kbhom.zoo import read_model
    write_model(read_model(p1), p2)
    main(["compute", str(p1), "--json", "--no-timestamp"])
    first = capsys.readouterr().out
    main(["compute", str(p2), "--json", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first.replace(str(p1), "X") == second.replace(str(p2), "X")
    assert kb_homology(model).dims == {
        int(k): v
        for k, v in json.loads(first)["results"]["kb"]["dims"].items() if v}
