import contextlib
import io
import json

import pytest

from kxstit.cli import build_parser, main


@pytest.fixture(scope="module")
def fig1a_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "fig1a.model"
    assert main(["gen", "--figure1", "a", "--out", str(path)]) == 0
    return str(path)


def test_check_exit_codes(fig1a_path, capsys):
    assert main(["check", fig1a_path, "--world", "m4_h9", "--formula", "[Ags] X s"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", fig1a_path, "--world", "m4_h10", "--formula", "K{luther} [luther] X d_L"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_error_exit_code_and_record(fig1a_path, capsys):
    assert main(["check", fig1a_path, "--world", "nowhere", "--formula", "p"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "UnknownWorld"
    assert main(["check", fig1a_path, "--world", "m1_h1", "--formula", "(p"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "FormulaSyntaxError"


def test_report_subcommand(fig1a_path, capsys):
    assert main(["report", fig1a_path, "--world", "m4_h10", "--agent", "luther",
                 "--formula", "d_L"]) == 0
    out = capsys.readouterr().out
    assert "does       true" in out
    assert "ex_interim false" in out


def test_expand_subcommand(capsys):
    assert main(["expand", "--formula", "Kh(luther,d_L)"]) == 0
    assert capsys.readouterr().out.strip() == \
        "[](K{luther}(<>(K{luther}([luther](X(d_L))))))"


def test_validate_subcommand(fig1a_path, capsys):
    code = main(["validate", fig1a_path, "--mode", "actual", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 1  # wrap-around conditions fail on the compiled scenario
    assert "UNIF_H     pass" in out and "NX         FAIL" in out


def test_validate_generated_model(tmp_path, capsys):
    path = tmp_path / "m.model"
    assert main(["gen", "--seed", "5", "--out", str(path)]) == 0
    assert main(["validate", str(path), "--mode", "actual", "--n", "2"]) == 0


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    main(["gen", "--seed", "9", "--out", str(p1)])
    main(["gen", "--seed", "9", "--out", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_gen_scenario_document_loads(tmp_path, capsys):
    path = tmp_path / "fig1b.scenario"
    assert main(["gen", "--figure1", "b", "--scenario", "--out", str(path)]) == 0
    assert main(["check", str(path), "--world", "m4_h10", "--formula",
                 "K{luther} [luther] X d_L"]) == 0


def test_dot_output_stable(fig1a_path, capsys):
    assert main(["dot", fig1a_path]) == 0
    first = capsys.readouterr().out
    assert main(["dot", fig1a_path]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("digraph kxstit {") and first.rstrip().endswith("}")


def test_transform_subcommand(tmp_path, capsys):
    path = tmp_path / "m.model"
    main(["gen", "--seed", "5", "--out", str(path)])
    doc = json.loads(path.read_text())
    root = doc["worlds"][0]
    assert main(["transform", str(path), "unravel", "--root", root, "--depth", "2"]) == 0
    out = capsys.readouterr().out
    emitted = json.loads(out)
    assert emitted["kind"] == "window" and emitted["projection"]
    assert main(["transform", str(path), "actualize", "--root", root, "--depth", "2"]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["kind"] == "matrix" and sorted(emitted["projection"]) == emitted["worlds"]


def test_transform_refuses_an_oversized_matrix(tmp_path, capsys, super_additive_fixture):
    path = tmp_path / "fx.model"
    path.write_text(super_additive_fixture.dumps())
    args = ["transform", str(path), "actualize", "--root", "a", "--depth", "3", "--n", "2", "--force"]
    assert main([*args, "--max-worlds", "1000"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "MatrixTooLarge",
                      "message": "the matrix would have 14336 worlds, over the limit of 1000"}


def test_soundness_subcommand(capsys):
    assert main(["soundness", "--models", "4"]) == 0
    out = capsys.readouterr().out
    assert "violations: 0" in out


def test_validate_non_string_world_ids_is_schema_error(tmp_path, capsys):
    path = tmp_path / "mixed.model"
    path.write_text(json.dumps({
        "format_version": 1, "agents": ["a"], "worlds": ["w", 1],
        "r_box": [["w", 1]], "succ": {"w": "w", "1": 1},
        "choice": {"a": [["w", 1]]}, "epistemic": {"a": [["w", 1]]}}))
    assert main(["validate", str(path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SchemaError" and "world ids must be strings" in record["message"]


def test_check_too_deep_formula_is_internal_error(fig1a_path, capsys):
    formula = "~" * 2000 + "p"
    assert main(["check", fig1a_path, "--world", "m1_h1", "--formula", formula]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "internal" and record["type"] == "RecursionError"
    assert record["message"]


def test_expand_prints_a_ten_thousand_deep_formula_back(capsys):
    deep = "~" * 10_000 + "p"
    assert main(["expand", "--formula", deep]) == 0
    assert capsys.readouterr().out.strip() == deep


def test_parser_is_built_once_and_not_changed_by_parsing():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["check", "m", "--world", "w", "--formula", "p", "--allow-c"])
    second = parser.parse_args(["check", "m", "--world", "w", "--formula", "q"])
    assert first.allow_c and not second.allow_c and second.formula == "q"


def _fig1a_doc(scenario=False):
    argv = ["gen", "--figure1", "a"] + (["--scenario"] if scenario else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("kind, path, value", [
    ("model", ["r_box"], 5),
    ("model", ["valuation", "d"], 5),
    ("model", ["r_box", 0, 0], ["m2_h1"]),
    ("model", ["succ", "m1_h1"], ["m2_h1"]),
    ("scenario", ["moments"], 5),
    ("scenario", ["agents"], "luther"),
], ids=["r_box-int", "valuation-int", "list-world-id-in-cell", "list-succ-value",
        "moments-int", "agents-string"])
def test_mistyped_fields_are_schema_errors(tmp_path, capsys, kind, path, value):
    doc = _fig1a_doc(scenario=kind == "scenario")
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--world", "m1_h1", "--formula", "p"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SchemaError", record


def test_invalid_json_is_schema_error_and_decoded_once(tmp_path, capsys, monkeypatch, fig1a_path):
    bad = tmp_path / "bad.model"
    bad.write_text("{nope")
    assert main(["check", str(bad), "--world", "w", "--formula", "p"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "SchemaError", "message":
                      "not valid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"}
    decodes = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decodes.append(1) or loads(*a, **k))
    assert main(["check", fig1a_path, "--world", "m4_h9", "--formula", "[Ags] X s"]) == 0
    assert len(decodes) == 1


@pytest.mark.parametrize("kind, spoil", [
    ("model", lambda doc: doc["r_box"][0].extend(["zz", 5])),
    ("model", lambda doc: doc["valuation"].update(p=["zz", 5])),
    ("scenario", lambda doc: doc["valuation_sit"].update(p=["zz", 5])),
], ids=["r_box-cell", "valuation", "valuation_sit"])
def test_unknown_ids_of_mixed_types_are_schema_errors(tmp_path, capsys, kind, spoil):
    doc = _fig1a_doc(scenario=kind == "scenario")
    spoil(doc)
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--world", "m1_h1", "--formula", "p"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SchemaError" and "[5, 'zz']" in record["message"], record
