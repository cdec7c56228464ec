from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stickforge.arc_presentation import catalog
from stickforge.cli import main
from stickforge.documents import presentation_to_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_validate_catalog_entry(capsys):
    code, out, _ = run(capsys, "validate", "catalog:trefoil")
    assert code == 0
    assert "valid: n=5" in out
    assert "params: c=3 b=1 k=1" in out


def test_classify_prints_counts(capsys):
    code, out, _ = run(capsys, "classify", "catalog:trefoil")
    assert code == 0
    assert "initiating pages: 3,1,2,1,2" in out
    assert "(n_2,n_1,n_0)=(2,1,2)" in out


def test_build_stick_and_verify_roundtrip(tmp_path, capsys):
    emb = tmp_path / "trefoil.json"
    obj = tmp_path / "trefoil.obj"
    code, out, _ = run(capsys, "build-stick", "catalog:trefoil",
                       "-o", str(emb), "--obj", str(obj))
    assert code == 0
    assert "sticks: 7" in out
    assert "max height: 6" in out
    assert "verified" in out

    vlines = [ln for ln in obj.read_text().splitlines() if ln.startswith("v ")]
    assert len(vlines) == 14

    code, out, _ = run(capsys, "verify", str(emb), "catalog:trefoil")
    assert code == 0
    assert "pass" in out.lower()


def test_build_eq_and_verify(tmp_path, capsys):
    emb = tmp_path / "eq.json"
    code, out, _ = run(capsys, "build-eq", "catalog:trefoil", "-o", str(emb))
    assert code == 0
    assert "sticks: 9" in out
    assert "certificate: pass" in out

    code, out, _ = run(capsys, "verify", str(emb), "catalog:trefoil")
    assert code == 0


def test_build_eq_several_presentations_assemble(capsys):
    cases = [
        (("catalog:unknot", "catalog:unknot"), ("sticks: 6", "components: 2")),
        # unknot needs M > 1/2 and trefoil M > 2: both retry together to one M
        (("catalog:unknot", "catalog:trefoil", "-M", "0.51"), ("M: 2.04", "components: 2")),
    ]
    for argv, expect in cases:
        code, out, _ = run(capsys, "build-eq", *argv)
        assert code == 0, argv
        for text in expect:
            assert text in out, argv


@pytest.mark.parametrize("built, against, code_want", [
    ("trefoil", "trefoil", 0),
    ("unlink(2)", "unlink(2)", 0),
    ("trefoil", "unknot", 1),
    ("trefoil", "hopf", 1),
])
def test_verify_decimal_checks_presentation(tmp_path, capsys, built, against, code_want):
    emb = tmp_path / "eq.json"
    code, _, _ = run(capsys, "build-eq", f"catalog:{built}", "-o", str(emb))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(emb), f"catalog:{against}")
    assert code == code_want
    if code_want:
        assert "equilateral.presentation: FAIL" in out


def test_bounds_text_report(capsys):
    code, out, _ = run(capsys, "bounds", "--c", "3", "--e", "1", "--v", "1",
                       "--b", "1", "--alpha", "5", "--n0", "2", "--torus", "3,4")
    assert code == 0
    assert "stick.main = 15/2" in out and "floor 7" in out
    assert "eq.main = 9" in out
    assert "stick.from_n0 = 7" in out
    assert "knot.torus = 8" in out


def test_catalog_listing_and_export(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    names = out.split()
    assert "trefoil" in names and "theta51" in names

    path = tmp_path / "p.json"
    code, _, _ = run(capsys, "catalog", "trefoil", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "valid" in out


def test_random_is_seed_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STICKFORGE_SEED", "11")
    code, out1, _ = run(capsys, "random", "--profile", "theta")
    assert code == 0
    code, out2, _ = run(capsys, "random", "--profile", "theta")
    assert out1 == out2
    code, out3, _ = run(capsys, "random", "--profile", "theta", "--seed", "12")
    assert out3 != out1

    doc = json.loads(out1)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 0


# ---------------------------------------------------------------------------
# failure paths


def test_verify_flags_tampering(tmp_path, capsys):
    emb = tmp_path / "e.json"
    run(capsys, "build-stick", "catalog:trefoil", "-o", str(emb))
    doc = json.loads(emb.read_text())
    doc["sticks"][0]["a"][0] = "9999/7"
    emb.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(emb), "catalog:trefoil")
    assert code == 1
    assert "fail" in out.lower()


@pytest.mark.parametrize("command, stray, failing", [
    ("build-stick",
     lambda doc: {"a": ["10", "0", "0"], "b": ["11", "0", "0"], "page": 99, "edge": "l",
                  "piece": "whole"},
     "projection.tiling: FAIL  [page 99 has sticks but no chord in the diagram]"),
    ("build-eq",
     lambda doc: {"a": [1000.0, 0.0, 0.0], "b": [1000.0 + doc["M"], 0.0, 0.0], "component": 7,
                  "tag": "stray", "ja": "x", "jb": "y"},
     "equilateral.counts: FAIL  [component 7: 1 sticks, not a listed component]"),
], ids=["exact", "decimal"])
def test_verify_rejects_stray_stick(tmp_path, capsys, command, stray, failing):
    # a far-away stick outside every page or component breaks no other check
    path = tmp_path / "e.json"
    code, _, _ = run(capsys, command, "catalog:trefoil", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["sticks"].append(stray(doc))
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "catalog:trefoil")
    assert code == 1
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == [failing]


def test_verify_rejects_repeated_component_index(tmp_path, capsys):
    # two records of one component would match two presentation parts
    path = tmp_path / "u.json"
    code, _, _ = run(capsys, "build-eq", "catalog:unknot", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["components"].append(doc["components"][0])
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "catalog:unlink(2)")
    assert code == 1
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == \
        ["equilateral.counts: FAIL  [component 0 is listed 2 times]"]


@pytest.mark.parametrize("table, key, value, failing", [
    ("junctions", "99", ["0", "0", "1"],
     "projection.junctions: FAIL  [junction key 99 names no boundary point (the diagram has 5)]"),
    ("heights", "99", 5,
     "projection.heights: FAIL  [page 99 has a height but no chord in the diagram]"),
], ids=["junction", "height"])
def test_verify_rejects_stray_table_entry(tmp_path, capsys, table, key, value, failing):
    # an entry for a point or page the diagram lacks fails with a report
    path = tmp_path / "e.json"
    run(capsys, "build-stick", "catalog:trefoil", "-o", str(path))
    doc = json.loads(path.read_text())
    doc[table][key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "catalog:trefoil")
    assert code == 1 and "Traceback" not in out + err
    assert [ln for ln in out.splitlines() if "FAIL" in ln] == [failing]


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 1
    assert "error:" in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "validate", "catalog:granny")
    assert code == 1
    assert "error:" in err


def test_bad_torus_flag(capsys):
    code, _, err = run(capsys, "bounds", "--c", "3", "--e", "1", "--v", "1",
                       "--b", "1", "--torus", "3")
    assert code == 2
    assert "p,q" in err


def test_flag_domain_error_exit1(capsys):
    code, _, err = run(capsys, "bounds", "--c", "4", "--e", "1", "--v", "1",
                       "--b", "1", "--two-bridge")
    assert code == 1
    assert "error:" in err


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_installed():
    exe = shutil.which("stickforge")
    assert exe is not None
    proc = subprocess.run([exe, "classify", "catalog:theta51"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "(n_2,n_1,n_0)=(2,3,3)" in proc.stdout


@pytest.mark.parametrize("edit, failing", [
    (lambda doc: doc["sticks"][0]["a"].__setitem__(1, float("nan")),
     "equilateral.input: FAIL  [stick 0 end a has coordinate nan]"),
    (lambda doc: doc.__setitem__("M", float("nan")),
     "equilateral.input: FAIL  [M = nan is not a finite positive length]"),
    (lambda doc: doc.__setitem__("M", 0),
     "equilateral.input: FAIL  [M = 0.0 is not a finite positive length]"),
], ids=["nan-coordinate", "nan-M", "zero-M"])
def test_verify_rejects_non_finite_or_zero_input(tmp_path, capsys, edit, failing):
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "build-eq", "catalog:trefoil", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "catalog:trefoil")
    assert code == 1
    assert failing in out.splitlines()


def _set_coordinate(doc, value):
    doc["sticks"][0]["a"][1] = value


def _set_deleted_tags(doc, value):
    doc["components"][0]["deleted_tags"] = value


def _put_first(doc, table, key, value):
    doc[table] = {key: value, **doc[table]}


@pytest.mark.parametrize("build, edit, field", [
    ("build-eq", lambda doc: doc.__setitem__("M", "8"), "M"),
    ("build-eq", lambda doc: doc.__setitem__("M", None), "M"),
    ("build-eq", lambda doc: doc.__setitem__("M", True), "M"),
    ("build-eq", lambda doc: _set_coordinate(doc, "abc"), "sticks[0].a[1]"),
    ("build-eq", lambda doc: _set_coordinate(doc, "1.5"), "sticks[0].a[1]"),
    ("build-eq", lambda doc: doc.pop("sticks"), "'sticks'"),
    ("build-eq", lambda doc: doc["components"][0].__setitem__("n_arcs", "5"),
     "components[0].n_arcs"),
    ("build-stick", lambda doc: _set_coordinate(doc, "abc"), "sticks[0].a[1]"),
    ("build-stick", lambda doc: _set_coordinate(doc, 1.5), "sticks[0].a[1]"),
    ("build-stick", lambda doc: doc["heights"].__setitem__("1", "x"), "heights[1]"),
    ("build-stick", lambda doc: doc["sticks"][0].__setitem__("page", "1"), "sticks[0].page"),
    ("build-eq", lambda doc: _set_deleted_tags(doc, "arc5.upper"), "components[0].deleted_tags"),
    ("build-eq", lambda doc: _set_deleted_tags(doc, [1, 2]), "components[0].deleted_tags[0]"),
    ("build-eq", lambda doc: doc["components"][0]["deleted_tags"].append(None),
     "components[0].deleted_tags[2]"),
    # a key with a leading zero would stand for the entry of its canonical
    # key, and whichever came last would be kept unchecked
    ("build-stick", lambda doc: _put_first(doc, "junctions", "01", ["5", "5", "5"]),
     "junction must be a non-negative integer key without leading zeros, found '01'"),
    ("build-stick", lambda doc: _put_first(doc, "heights", "01", 99), "height page"),
    ("build-stick", lambda doc: _put_first(doc, "junctions", "00", ["1", "0", "0"]), "junction"),
], ids=["string-M", "null-M", "boolean-M", "decimal-abc", "decimal-string-number",
        "no-sticks", "string-count", "exact-abc", "exact-float", "string-height", "string-page",
        "string-deleted-tags", "number-deleted-tags", "null-deleted-tag", "junction-01",
        "height-01", "junction-00"])
def test_verify_malformed_document_is_an_error_line(tmp_path, capsys, build, edit, field):
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, build, "catalog:trefoil", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "catalog:trefoil")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and field in line


def _trefoil_arc0(key, value):
    doc = presentation_to_doc(catalog("trefoil"))
    doc["arcs"][0][key] = value
    return doc


def _trefoil_params(**params):
    doc = presentation_to_doc(catalog("trefoil"))
    doc["params"] = {**doc["params"], **params}
    return doc


@pytest.mark.parametrize("doc, field", [
    ({"format": "stickforge/presentation/1", "graph": {"vertices": ["v"]}}, "'edges'"),
    ([1, 2], "malformed document"),
    (_trefoil_arc0("ends", [0, 1.5]), "arcs[0].ends[1]"),
    (_trefoil_arc0("ends", [0, 1, 2]), "arcs[0].ends"),
    (_trefoil_arc0("page", True), "arcs[0].page"),
    (_trefoil_params(c=1.5, b=True, k=2.0, heuristic="yes"), "params.c"),
    (_trefoil_params(c=3.0), "params.c"),
    (_trefoil_params(b=True), "params.b"),
    (_trefoil_params(k=1.0), "params.k"),
    (_trefoil_params(k="1"), "params.k"),
    (_trefoil_params(heuristic="yes"), "params.heuristic"),
    (_trefoil_params(heuristic=1), "params.heuristic"),
], ids=["no-edges", "not-an-object", "float-end", "three-ends", "boolean-page", "params-all",
        "float-c", "boolean-b", "float-k", "string-k", "string-heuristic", "number-heuristic"])
def test_validate_malformed_presentation_is_an_error_line(tmp_path, capsys, doc, field):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and field in line


@pytest.mark.parametrize("argv, seed, code_want, line", [
    (["build-eq", "catalog:trefoil", "-M", "-3"], None, 1,
     "error: M=-3.0 is not a finite positive length"),
    (["build-eq", "catalog:trefoil", "-M", "0"], None, 1,
     "error: M=0.0 is not a finite positive length"),
    (["build-eq", "catalog:trefoil", "-M", "inf"], None, 1,
     "error: M=inf is not a finite positive length"),
    (["build-eq", "catalog:trefoil", "-M", "nan"], None, 1,
     "error: M=nan is not a finite positive length"),
    (["random"], "abc", 2, "error: STICKFORGE_SEED must be an integer, got 'abc'"),
], ids=["negative-M", "zero-M", "inf-M", "nan-M", "seed-abc"])
def test_outside_number_is_one_error_line(capsys, monkeypatch, argv, seed, code_want, line):
    # refused as given, not after M doublings or with a traceback
    if seed is not None:
        monkeypatch.setenv("STICKFORGE_SEED", seed)
    code, out, err = run(capsys, *argv)
    assert code == code_want
    assert out == ""
    assert err.splitlines() == [line]


@pytest.mark.parametrize("M", ["1e152", "1e200"])
def test_build_eq_at_a_huge_M_stops_and_names_the_overflow(M):
    # once M squares past the float range every rotation gap is infinite;
    # the build must stop with one error line, not loop in its bisection
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "stickforge.cli", "build-eq", "catalog:trefoil", "-M", M]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: arc ") and "overflows floats" in line


@pytest.mark.parametrize("argv, line", [
    (["validate", "{dir}"], "Is a directory"),
    (["verify", "{dir}", "catalog:trefoil"], "Is a directory"),
    (["verify", "{latin1}", "catalog:trefoil"], "can't decode byte 0xff"),
], ids=["validate-directory", "verify-directory", "verify-not-utf8"])
def test_unreadable_path_is_one_error_line(tmp_path, capsys, argv, line):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"format": "\xff"}'.encode("latin-1"))
    argv = [a.format(dir=tmp_path, latin1=latin1) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    [got] = err.splitlines()
    assert got.startswith("error: ") and line in got
