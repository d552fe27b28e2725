"""The JSON document schema, the check subcommand, and report rendering.

Golden output files under fixtures/golden/ pin the exact report bytes;
scripts/make_fixtures.py regenerates both sides when the corpus changes.
tests/text_golden/ pins the --format text output of the same documents.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bimodcheck import cli, exactlin
from bimodcheck.cli import (
    InputDocument, RunOptions, load_document, main, parse_document,
    parse_field, parse_scalar, render_scalar, run_document,
    serialize_document, validate_document,
)
from bimodcheck.errors import SchemaError
from bimodcheck.exactlin import PRIME_LIMIT, Field, QQ
from bimodcheck.structures import ValidationResult

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
GOLDEN_DIR = FIXTURE_DIR / "golden"
TEXT_GOLDEN_DIR = Path(__file__).resolve().parent / "text_golden"
DOC_NAMES = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))


def minimal_doc(tasks=(), extra_algebras=None):
    algebras = {
        "B": {
            "dim": 2,
            "mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            "unit": ["1", "0"],
        },
        "k": {"dim": 1, "mult": [[["1"]]], "unit": ["1"]},
    }
    algebras.update(extra_algebras or {})
    return {
        "field": "Q",
        "algebras": algebras,
        "bimodules": {
            "M": {
                "left": "B", "right": "k", "dim": 2,
                "left_action": [[["1", "0"], ["0", "1"]],
                                [["0", "0"], ["1", "0"]]],
                "right_action": [[["1", "0"], ["0", "1"]]],
            },
        },
        "maps": {
            "unit": {"source": "k", "target": "B", "matrix": [["1"], ["0"]]},
        },
        "tasks": list(tasks),
    }


# ---------------------------------------------------------------------------
# Scalars and fields


def test_parse_field_forms():
    assert parse_field("Q") == QQ
    assert parse_field({"prime": 5}) == Field(5)


def test_parse_field_rejections():
    with pytest.raises(SchemaError):
        parse_field("R")
    with pytest.raises(SchemaError) as exc:
        parse_field({"prime": 4})
    assert exc.value.path == "$.field.prime"
    with pytest.raises(SchemaError):
        parse_field({"prime": True})


def test_parse_field_names_the_prime_limit():
    with pytest.raises(SchemaError) as exc:
        parse_field({"prime": (2 ** 61 - 1) * (2 ** 31 - 1)})
    assert exc.value.path == "$.field.prime"
    assert str(PRIME_LIMIT) in str(exc.value)
    assert parse_field({"prime": 2 ** 61 - 1}) == Field(2 ** 61 - 1)


def test_parse_scalar_rational_forms():
    assert parse_scalar(QQ, 3, "$") == QQ.scalar(3)
    assert parse_scalar(QQ, "-2/6", "$") == QQ.scalar("-1/3")
    with pytest.raises(SchemaError):
        parse_scalar(QQ, "1/0", "$")
    with pytest.raises(SchemaError):
        parse_scalar(QQ, 1.5, "$")
    with pytest.raises(SchemaError):
        parse_scalar(QQ, True, "$")


def test_parse_scalar_modular_forms():
    f5 = Field(5)
    assert parse_scalar(f5, 7, "$") == f5.scalar(2)
    with pytest.raises(SchemaError):
        parse_scalar(f5, "1/2", "$")


def test_scalar_rendering_round_trips():
    for text, shown in (("0", "0"), ("5", "5"), ("-3/7", "-3/7"),
                        ("22/7", "22/7"), ("3", "3"), ("6/3", "2"),
                        ("-1/2", "-1/2")):
        val = parse_scalar(QQ, text, "$")
        assert render_scalar(QQ, val) == shown
        assert parse_scalar(QQ, render_scalar(QQ, val), "$") == val
    assert render_scalar(QQ, parse_scalar(QQ, 3, "$")) == "3"
    f5 = Field(5)
    assert render_scalar(f5, f5.scalar(9)) == 4


# ---------------------------------------------------------------------------
# Document parsing


def test_minimal_document_parses_and_validates():
    doc = parse_document(minimal_doc(tasks=["generator M", "separable M"]))
    validate_document(doc)
    assert set(doc.algebras) == {"B", "k"}
    assert doc.bimodules["M"].dim == 2
    assert doc.tasks[0].op == "generator"
    assert doc.tasks[0].args == ("M",)


def test_task_string_form_with_options():
    doc = parse_document(minimal_doc(tasks=["hochschild M B nmax=3"]))
    task = doc.tasks[0]
    assert task.op == "hochschild"
    assert task.args == ("M", "B")
    assert task.options == {"nmax": 3}


def test_task_object_form_with_expectation():
    raw = minimal_doc(tasks=[{
        "op": "separable", "args": ["M"],
        "expect": {"verdict": False},
    }])
    doc = parse_document(raw)
    assert doc.tasks[0].expect == {"verdict": False}


def test_unknown_task_option_is_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_document(minimal_doc(tasks=["hochschild M B depth=2 bogus=1"]))
    assert "bogus" in str(exc.value)


def test_unknown_top_level_key_is_rejected():
    raw = minimal_doc()
    raw["extras"] = {}
    with pytest.raises(SchemaError) as exc:
        parse_document(raw)
    assert exc.value.path == "$"


def test_malformed_mult_cell_names_the_entry():
    raw = minimal_doc()
    raw["algebras"]["B"]["mult"][0][1] = ["1", "0", "0"]
    with pytest.raises(SchemaError) as exc:
        parse_document(raw)
    assert exc.value.path == "$.algebras.B.mult[0][1]"


def test_bad_scalar_inside_action_names_the_coordinate():
    raw = minimal_doc()
    raw["bimodules"]["M"]["left_action"][1][0][1] = "no"
    with pytest.raises(SchemaError) as exc:
        parse_document(raw)
    assert exc.value.path == "$.bimodules.M.left_action[1][0][1]"


def test_unknown_algebra_reference_is_caught():
    raw = minimal_doc()
    raw["bimodules"]["M"]["left"] = "C"
    with pytest.raises(SchemaError) as exc:
        parse_document(raw)
    assert exc.value.path == "$.bimodules.M.left"


@pytest.mark.parametrize("section, obj, key", [
    ("bimodules", "M", "left"), ("bimodules", "M", "right"),
    ("maps", "unit", "source"), ("maps", "unit", "target"),
])
@pytest.mark.parametrize("name", [["k"], {"a": 1}], ids=["list", "dict"])
def test_non_string_object_reference_is_a_schema_error(section, obj, key,
                                                       name):
    raw = minimal_doc()
    raw[section][obj][key] = name
    with pytest.raises(SchemaError) as exc:
        parse_document(raw)
    assert exc.value.path == f"$.{section}.{obj}.{key}"


@pytest.mark.parametrize("task", [
    "hochschild M M depth=7", "bar M nmax=9", "generator M nmax=3",
    {"op": "homotopy", "args": ["M"], "options": {"nmax": 1}},
])
def test_option_the_op_does_not_read_is_a_task_error(task, tmp_path,
                                                     capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc(tasks=[task])))
    rc = main(["check", str(p), "--format", "json"])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["error"]["kind"] == "SchemaError"
    assert "$.tasks[0]" in report["error"]["message"]
    assert set(report) == {"op", "args", "error"}


@pytest.mark.parametrize("val", ["٣", "１", "1_0", "0x3", "+-3", "", "-"])
def test_task_string_option_is_an_ascii_integer(val):
    with pytest.raises(SchemaError, match="option nmax: bad integer"):
        parse_document(minimal_doc(tasks=[f"hdim M nmax={val}"]))


def test_task_string_option_takes_a_sign():
    doc = parse_document(minimal_doc(tasks=["hdim M nmax=+3",
                                            "bar M depth=007"]))
    assert [t.options for t in doc.tasks] == [{"nmax": 3}, {"depth": 7}]


def test_unknown_object_name_becomes_a_task_error():
    doc = parse_document(minimal_doc(tasks=["generator XX"]))
    reports = run_document(doc, RunOptions())
    assert reports[0]["error"]["kind"] == "SchemaError"
    assert "XX" in reports[0]["error"]["message"]


def test_unknown_op_fails_at_run_time():
    doc = parse_document(minimal_doc(tasks=["frobenius M"]))
    with pytest.raises(SchemaError):
        run_document(doc, RunOptions())


def test_invalid_json_is_position_annotated(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q",\n  broken\n}')
    with pytest.raises(SchemaError) as exc:
        load_document(str(bad))
    assert str(bad) in exc.value.path
    assert ":2:" in exc.value.path


@pytest.mark.parametrize("where", ["options", "document"])
def test_repeated_keys_are_schema_errors(tmp_path, capsys, where):
    # json keeps the last of a repeated key, so nmax 1 would be dropped
    # without a word and the task run at nmax 3
    if where == "options":
        text = json.dumps(minimal_doc(tasks=[
            {"op": "hdim", "args": ["M"], "options": {"nmax": 0}}]))
        text = text.replace('{"nmax": 0}', '{"nmax": 1, "nmax": 3}')
        key = "nmax"
    else:
        text = json.dumps(minimal_doc())
        text = text.replace('{"field": "Q"', '{"field": "Q", "field": "Q"')
        key = "field"
    assert text.count(f'"{key}"') == 2
    bad = tmp_path / "doc.json"
    bad.write_text(text)
    with pytest.raises(SchemaError, match=f"repeated key '{key}'") as exc:
        load_document(str(bad))
    assert exc.value.path == str(bad)
    assert main(["check", str(bad), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repeated key '{key}'" in captured.err


@pytest.mark.parametrize("content, message", [
    (b'{"field": "Q", "name": "\xff\xfe"}', "not UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
], ids=["non-utf8", "deep-nesting"])
def test_unreadable_documents_are_schema_errors(tmp_path, capsys, content,
                                                message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(SchemaError, match=message) as exc:
        load_document(str(bad))
    assert str(bad) in exc.value.path
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def test_nesting_that_some_decoders_read_is_still_a_schema_error(tmp_path,
                                                                capsys):
    # 5,000 nested lists overflow the decoder before Python 3.13 and are
    # read from 3.13 on, and then the document is no object
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"[" * 5000 + b"]" * 5000)
    with pytest.raises(SchemaError) as exc:
        load_document(str(bad))
    assert exc.value.path == str(bad)
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_schema_errors_name_the_file_and_the_json_path(tmp_path, capsys):
    raw = minimal_doc()
    del raw["algebras"]["B"]["mult"]
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(SchemaError, match="missing key 'mult'") as exc:
        load_document(str(bad))
    assert exc.value.path == str(bad)
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err \
        == f"error: {bad}: $.algebras.B: missing key 'mult'\n"


# ---------------------------------------------------------------------------
# Serialization round trips


@pytest.mark.parametrize("name", DOC_NAMES)
def test_serialize_parse_round_trip(name):
    raw = json.loads((FIXTURE_DIR / name).read_text())
    doc = parse_document(raw)
    once = serialize_document(doc)
    twice = serialize_document(parse_document(once))
    assert json.dumps(once, sort_keys=True) == json.dumps(twice,
                                                          sort_keys=True)


def test_serialized_documents_validate():
    raw = json.loads((FIXTURE_DIR / "fx6.json").read_text())
    doc = parse_document(serialize_document(parse_document(raw)))
    validate_document(doc)


# ---------------------------------------------------------------------------
# The check subcommand


@pytest.mark.parametrize("name", DOC_NAMES)
def test_check_matches_golden_reports(name, capsys):
    rc = main(["check", str(FIXTURE_DIR / name), "--format", "json",
               "--assert"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN_DIR / name).read_text()


def test_reports_are_byte_identical_across_runs(capsys):
    path = str(FIXTURE_DIR / "fx3.json")
    rc1 = main(["check", path, "--format", "json"])
    first = capsys.readouterr().out
    rc2 = main(["check", path, "--format", "json"])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second


def test_text_format_marks_expectations(capsys):
    rc = main(["check", str(FIXTURE_DIR / "fx3.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[ok]" in out
    assert "[EXPECT FAILED]" not in out
    assert "> 3" in out                  # unbounded hdim rendering


@pytest.mark.parametrize("name", DOC_NAMES)
def test_text_format_matches_pinned_output(name, capsys):
    # between them the corpus documents run every op
    rc = main(["check", str(FIXTURE_DIR / name)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (TEXT_GOLDEN_DIR / name).with_suffix(".txt").read_text()


def test_text_format_of_errors_failed_expectations_and_failed_checks(
        tmp_path, capsys, monkeypatch):
    # the three summary forms the corpus never prints
    monkeypatch.setattr(cli, "homotopy_check", lambda m, depth, dim_cap=None:
                        ValidationResult(False, "contraction identity "
                                                "fails at 1"))
    raw = minimal_doc(tasks=[
        "generator XX",
        {"op": "generator", "args": ["M"], "expect": {"verdict": False}},
        "homotopy M",
        "bar M depth=3",
    ])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p), "--dim-cap", "10"])
    assert rc == 2
    assert capsys.readouterr().out == (
        "generator  XX  ERROR SchemaError: $.tasks[0]: unknown bimodule "
        "'XX'\n"
        "generator  M   true  [EXPECT FAILED]\n"
        "homotopy   M   FAILED: contraction identity fails at 1\n"
        "bar        M   ERROR DimensionCapError: bar growth: bar object 2 "
        "(2 x 8) needs dimension 16, above the cap 10\n")


def test_hdim_is_rendered_as_a_string():
    golden3 = json.loads((GOLDEN_DIR / "fx3.json").read_text())
    hdims = [r["hdim"] for r in golden3["reports"] if r["op"] == "hdim"]
    assert hdims == ["> 3"]
    golden4 = json.loads((GOLDEN_DIR / "fx4.json").read_text())
    hdims4 = [r["hdim"] for r in golden4["reports"] if r["op"] == "hdim"]
    assert hdims4 == ["1"]


def test_failed_expectation_exits_one(tmp_path, capsys):
    raw = minimal_doc(tasks=[{
        "op": "generator", "args": ["M"], "expect": {"verdict": False},
    }])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p), "--format", "json", "--assert"])
    out = capsys.readouterr().out
    assert rc == 1
    report = json.loads(out)["reports"][0]
    assert report["verdict"] is True
    assert report["expect_ok"] is False


def test_expectations_are_type_strict(tmp_path, capsys):
    # verdict true must not match the integer 1
    raw = minimal_doc(tasks=[{
        "op": "generator", "args": ["M"], "expect": {"verdict": 1},
    }])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p), "--format", "json", "--assert"])
    capsys.readouterr()
    assert rc == 1


def test_invalid_algebra_exits_two(tmp_path, capsys):
    raw = minimal_doc()
    raw["algebras"]["B"]["unit"] = ["0", "1"]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "algebra B" in err


_I, _N = [["1", "0"], ["0", "1"]], [["0", "0"], ["1", "0"]]


@pytest.mark.parametrize("bimodule, message", [
    ({"left": "B", "right": "k", "left_action": [[["1", "0"], ["0", "0"]], _N],
      "right_action": [_I]}, "left unit does not act as identity"),
    ({"left": "B", "right": "k", "left_action": [_I, _N],
      "right_action": [[["2", "0"], ["0", "2"]]]},
     "right unit does not act as identity"),
    # x acts as the identity on the right, but x * x = 0
    ({"left": "k", "right": "B", "left_action": [_I],
      "right_action": [_I, _I]},
     "right action is not multiplicative at pair (1, 1)"),
    # x sends e0 to e1 on the left and e1 to e0 on the right
    ({"left": "B", "right": "B", "left_action": [_I, _N],
      "right_action": [_I, [["0", "1"], ["0", "0"]]]},
     "left/right actions do not commute at pair (1, 1)"),
], ids=["left-unit", "right-unit", "right-multiplicative", "commuting"])
def test_bimodule_breaking_an_axiom_exits_two(tmp_path, capsys, bimodule,
                                              message):
    raw = minimal_doc()
    raw["bimodules"]["M"] = {"dim": 2, **bimodule}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 2
    assert f"bimodule M: {message}" in capsys.readouterr().err


def test_ring_map_breaking_multiplicativity_exits_two(tmp_path, capsys):
    # B -> B fixing 1 and sending x to 1: x * x = 0 but 1 * 1 = 1
    raw = minimal_doc()
    raw["maps"]["bad"] = {"source": "B", "target": "B",
                          "matrix": [["1", "1"], ["0", "0"]]}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    assert main(["check", str(p)]) == 2
    assert "map bad: multiplicativity fails on basis pair (1, 1)" \
        in capsys.readouterr().err


def test_expectations_compare_objects_key_by_key_and_type_strictly():
    raw = minimal_doc()
    raw["bimodules"]["K"] = {"left": "k", "right": "k", "dim": 1,
                             "left_action": [[["1"]]],
                             "right_action": [[["1"]]]}
    dims = {"tensor_square": 1, "centralizer": 1}
    expects = [dims, {**dims, "centralizer": True}, {"tensor_square": 1}]
    raw["tasks"] = [{"op": "separable", "args": ["K"],
                     "expect": {"dimensions": want}} for want in expects]
    reports = run_document(parse_document(raw), RunOptions())
    assert [r["dimensions"] for r in reports] == [dims] * 3
    assert [r["expect_ok"] for r in reports] == [True, False, False]


def test_missing_file_exits_two(tmp_path, capsys):
    rc = main(["check", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error" in err


def test_task_error_reports_and_exits_two(tmp_path, capsys):
    raw = minimal_doc(tasks=["bar M depth=3"])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p), "--format", "json", "--dim-cap", "10"])
    out = capsys.readouterr().out
    assert rc == 2
    report = json.loads(out)["reports"][0]
    assert report["error"]["kind"] == "DimensionCapError"
    assert "bar object" in report["error"]["message"]


def test_dim_cap_env_mirrors_the_flag(tmp_path, capsys, monkeypatch):
    raw = minimal_doc(tasks=["bar M depth=3"])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    monkeypatch.setenv("BIMODCHECK_DIM_CAP", "10")
    rc = main(["check", str(p), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 2
    assert json.loads(out)["reports"][0]["error"]["kind"] \
        == "DimensionCapError"


def test_flag_overrides_env(tmp_path, capsys, monkeypatch):
    raw = minimal_doc(tasks=["hdim M nmax=3"])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    monkeypatch.setenv("BIMODCHECK_DIM_CAP", "10")
    rc = main(["check", str(p), "--format", "json", "--dim-cap", "100"])
    capsys.readouterr()
    assert rc == 0


def test_non_integer_env_cap_exits_two(tmp_path, capsys, monkeypatch):
    raw = minimal_doc()
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    monkeypatch.setenv("BIMODCHECK_DIM_CAP", "lots")
    rc = main(["check", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "BIMODCHECK_DIM_CAP" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_dim_cap_flag_must_be_positive(tmp_path, capsys, cap):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc(tasks=["hdim M nmax=3"])))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(p), f"--dim-cap={cap}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim-cap" in captured.err and "positive" in captured.err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_dim_cap_env_must_be_positive(tmp_path, capsys, monkeypatch, cap):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc(tasks=["hdim M nmax=3"])))
    monkeypatch.setenv("BIMODCHECK_DIM_CAP", cap)
    rc = main(["check", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "BIMODCHECK_DIM_CAP" in captured.err
    assert "positive" in captured.err


def test_parser_is_built_once(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc(tasks=["generator M"])))
    parser = cli.build_parser()
    assert main(["check", str(p)]) == 0
    assert main(["check", str(p), "--dim-cap", "10"]) == 0
    capsys.readouterr()
    assert cli.build_parser() is parser


def test_repeated_task_string_option_is_a_task_error(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc(
        tasks=["hdim M nmax=1 nmax=3", "hdim M nmax=1"])))
    rc = main(["check", str(p), "--format", "json"])
    assert rc == 2
    repeated, single = json.loads(capsys.readouterr().out)["reports"]
    assert repeated["error"]["kind"] == "SchemaError"
    assert "$.tasks[0]" in repeated["error"]["message"]
    assert "'nmax'" in repeated["error"]["message"]
    assert set(repeated) == {"op", "args", "error"}
    assert single["nmax"] == 1 and "error" not in single


@pytest.mark.parametrize("nmax", [sys.maxsize, 10 ** 20 - 1])
@pytest.mark.parametrize("name, task", [
    ("fx1", "hochschild M M"), ("fx6", "hochschild M BB"),
    ("fx6", "morita M BB")])
def test_an_nmax_past_any_list_length_is_a_task_error(tmp_path, capsys,
                                                      name, task, nmax):
    # the task sets no nmax, so --nmax does; nmax + 1 degrees cannot be
    # indexed, which once escaped as an untyped OverflowError
    raw = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    raw["tasks"] = [task]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    rc = main(["check", str(p), "--format", "json", "--nmax", str(nmax)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["error"]["kind"] == "PreconditionError"
    assert "nmax must be below" in report["error"]["message"]


def test_timings_are_opt_in(tmp_path, capsys):
    raw = minimal_doc(tasks=["generator M"])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(raw))
    main(["check", str(p), "--format", "json"])
    plain = json.loads(capsys.readouterr().out)
    assert "elapsed_ms" not in plain["reports"][0]
    main(["check", str(p), "--format", "json", "--timings"])
    timed = json.loads(capsys.readouterr().out)
    assert "elapsed_ms" in timed["reports"][0]


def test_empty_task_list_is_fine(tmp_path, capsys):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(minimal_doc()))
    rc = main(["check", str(p), "--format", "json", "--assert"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["reports"] == []


def test_module_invocation_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "bimodcheck.cli", "check",
         str(FIXTURE_DIR / "fx1.json"), "--format", "json", "--assert"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "fx1.json").read_text()


# Strings at the edge of "an integer": the ASCII -?[0-9]+ ones skip the
# rational parser, every other one still goes through it.
EDGE_SCALAR_STRINGS = (" 1 ", "+1", "-0", "01", "1_0", "1.0", "1/1",
                       "٣", "１", "+-1", "", "-", " -12/4 ", "1e3",
                       "007", "-5", "10\n")


def _through_the_rational_parser(text: str):
    """What every scalar string gave before the integer fast path: the
    backend rational of the stripped text, an int when integral."""
    q = exactlin._rational(text.strip())
    return int(q) if q.denominator == 1 else q


def test_integer_strings_parse_as_the_rational_parser_does():
    for text in EDGE_SCALAR_STRINGS:
        try:
            want = _through_the_rational_parser(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(SchemaError, match="bad rational"):
                parse_scalar(QQ, text, "$.x")
            continue
        got = parse_scalar(QQ, text, "$.x")
        assert got == want and type(got) is type(want), text


def test_only_ascii_integer_strings_skip_the_rational_parser(monkeypatch):
    def refuse(*args):
        raise AssertionError("reached the rational parser")

    monkeypatch.setattr(exactlin, "_rational", refuse)
    for text, want in (("0", 0), ("1", 1), (" -7 ", -7), ("0003", 3)):
        got = parse_scalar(QQ, text, "$.x")
        assert got == want and type(got) is int
    for text in ("٣", "１", "1_0", "1.0", "1/1", "+-1", "", "+12"):
        with pytest.raises(AssertionError, match="rational parser"):
            parse_scalar(QQ, text, "$.x")
