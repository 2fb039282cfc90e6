import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semimod as sm
from semimod import Flavor
from semimod.cli import build_parser, main
from semimod.serialize import hom_to_doc, module_from_doc, module_to_doc, resolve_module_ref

from conftest import diamond_m3, recording_searches
from oracles import check_hom_all_pairs, residual_section


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_d0_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "D0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 9
    assert doc["flavor"] == "B"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "Dn"], "error: unrecognized module reference 'Dn'"),
        (["construct", "Dn", "--n", "2", "--flavor", "Finf"],
         "unrecognized arguments: --n 2 --flavor Finf"),
        (["construct", "free", "--rank", "2"], "unrecognized arguments: --rank 2"),
        (["export-dot", "E2"], "invalid choice: 'export-dot'"),
    ],
    ids=["Dn", "Dn-flags", "free-rank", "export-dot"],
)
def test_removed_construct_forms_are_input_errors(argv, message, capsys):
    # a module is named by its reference (D2, free:B:2) or a file, never by
    # a family name and flags, which let --flavor go unread for Dn
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert message in err


def test_construct_d0_dot(capsys):
    code, out, _ = run_cli(capsys, "construct", "D0", "--format", "dot")
    assert code == 0
    nodes = [l for l in out.splitlines() if l.endswith('";') and "->" not in l]
    assert len(nodes) == 9


def test_construct_free(capsys):
    code, out, _ = run_cli(capsys, "construct", "free:Finf:2")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "D0"),
        ("construct", "E0"),
        ("construct", "D5"),
        ("construct", "E3"),
        ("construct", "free:B:3"),
        ("construct", "free:Finf:2"),
    ],
)
def test_construct_then_validate_round_trip(argv, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "mod.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out2.strip() == "valid"


def test_validate_reports_violations(tmp_path, capsys):
    f = sm.scalar_module(Flavor.FINF)
    doc = module_to_doc(f, canonical=False)
    one = f.index_of_name["1"]
    doc["add"][f.zero * f.size + one] = one
    doc["add"][one * f.size + f.zero] = one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "zero_absorbing" in out


def test_validate_structural_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"flavor": "B", "elements": ["0"], "zero": 0, "add": []}))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "error" in err


def test_homs_enumeration_stream(capsys):
    code, out, err = run_cli(capsys, "homs", "--source", "B", "--target", "B")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert [tuple(l["map"]) for l in lines] == [(0, 0), (0, 1)]
    assert "2 morphisms" in err


def test_back_to_back_calls_do_not_share_flags(capsys):
    # main reuses one parser; a flag given in one call must not leak into the next
    argv = ["homs", "--source", "D2", "--target", "D3"]
    counts = []
    for extra in (["--injective"], [], ["--injective"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0
        counts.append(len(out.splitlines()))
    assert counts == [20, 240, 20]


def test_homs_with_pins_file(tmp_path, capsys):
    pins = {"pins": [["a_1_2", "a_2_2"]]}
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    code, out, _ = run_cli(
        capsys, "homs", "--source", "D2", "--target", "D2", "--pins", str(path)
    )
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("pair", [["nope", "a_2_2"], ["a_1_2", "nope"]])
def test_unknown_pin_name_is_an_input_error(pair, tmp_path, capsys):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"pins": [pair]}))
    code, out, err = run_cli(
        capsys, "homs", "--source", "D2", "--target", "D3", "--pins", str(path)
    )
    assert code == 3 and not out
    assert err == "error: pinned element 'nope' is not in the module\n"


@pytest.mark.parametrize("pair, bad", [([99, 0], 99), ([0, 99], 99), ([-1, 0], -1), ([0, -1], -1)])
def test_pin_id_outside_the_module_is_an_input_error(pair, bad, tmp_path, capsys):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps({"pins": [pair]}))
    code, out, err = run_cli(
        capsys, "homs", "--source", "D2", "--target", "D3", "--pins", str(path)
    )
    assert code == 3 and not out
    assert err == f"error: pinned element {bad} is not an element id\n"


_NOT_A_HOM = {"source": "free:B:2", "target": "free:B:2", "map": [0, 1, 2, 0]}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("homs", [["a_1_2", "a_2_2"]]),
        ("homs", {"pins": 5}),
        ("homs", {"pins": [1, 2]}),
        ("homs", {"pins": [[None, "a_2_2"]]}),
        ("homs", {"pins": [[True, 1]]}),
        ("factor-matrix", [1, 2]),
        ("factor-matrix", {"flavor": "B", "entries": 5}),
        ("factor-matrix", {"flavor": "B", "entries": [[1, None]]}),
        ("dualize", _NOT_A_HOM),
        ("split-check", _NOT_A_HOM),
        ("factor-matrix", {"flavor": "B", "entries": [[1.7, 0], ["1", 1]]}),
        ("factor-matrix", {"flavor": "Finf", "entries": [[True, 0], [0, 1]]}),
        ("split-check", {"source": "free:B:1", "target": "free:B:1", "map": [0, 1.9]}),
        ("validate", {"flavor": "B", "elements": ["0"], "zero": "0", "add": [0]}),
        ("factor-matrix", [[1, 0], [1, 0], [0, 1]]),
        ("factor-matrix", {"entries": [[1, 0], [1, 0], [0, 1]]}),
        ("validate", [1, 2]),
        ("validate", 7),
        ("split-check", [1, 2]),
        ("split-check", {"source": [1, 2], "target": "B", "map": [0, 0]}),
        ("factor-matrix", 7),
        ("witness", [1, 2]),
        ("witness", 7),
    ],
    ids=[
        "pins-as-list", "pins-not-a-list", "pins-not-pairs", "pin-of-null", "pin-of-bool",
        "matrix-of-numbers", "entries-not-rows", "null-entry",
        "dualize-non-hom", "split-check-non-hom",
        "matrix-float-and-string-entries", "matrix-bool-entry", "map-float-entry",
        "module-string-zero", "matrix-as-rows", "matrix-without-flavor",
        "module-array", "module-number", "morphism-array", "morphism-endpoint-array",
        "matrix-number", "witness-array", "witness-number",
    ],
)
def test_malformed_input_documents_are_input_errors(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "homs":
        argv = ["homs", "--source", "D2", "--target", "D2", "--pins", str(path)]
    elif command == "witness":
        argv = ["witness", "--spec", str(path)]
    else:
        argv = [command, str(path)]
    # an uncaught exception, which would exit 1 with a traceback, fails here
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith("error:")
    if not isinstance(doc, dict):
        # a shape message, not the Python error of indexing a list or a number
        assert err.endswith(" is a JSON object\n"), err


_ONE_ELEMENT = {"flavor": "B", "elements": ["0"], "zero": 0, "add": [0]}


@pytest.mark.parametrize(
    "argv, doc, key",
    [
        (["validate"], dict(_ONE_ELEMENT, negs=[0]), "negs"),
        (["split-check"], {"source": _ONE_ELEMENT, "target": "B", "map": [0], "mapp": [0]}, "mapp"),
        (["split-check"], {"source": dict(_ONE_ELEMENT, zer=0), "target": "B", "map": [0]}, "zer"),
        (["factor-matrix"], {"flavour": "Finf", "entries": [[1, 1], [1, 1], [0, 1]]}, "flavour"),
        (["homs", "--source", "D0", "--target", "D4", "--injective", "--pins"],
         {"pin": [["A_1_1", "a_1_1"]]}, "pin"),
        (["witness", "--spec"], {"flavor": "B", "max_n": 2, "clas": "all"}, "clas"),
        (["witness", "--spec"], {"flavor": "B", "max_n": 2, "budget": 5}, "budget"),
    ],
    ids=["module", "morphism", "inline-module", "matrix", "pins", "witness", "witness-budget"],
)
def test_documents_refuse_keys_their_reader_does_not_read(argv, doc, key, tmp_path, capsys):
    # a misspelled key would otherwise read as absent: the pins as none, the
    # witness class as injections; the budget is --budget, not a key
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 3 and not out
    assert err.startswith("error: malformed ") and err.endswith(f": unknown key {key!r}\n")


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    # a directory and malformed JSON; exit 1 would read as a verified negative
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    for path in (tmp_path, bad):
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 3 and not out
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "D725"),
        ("construct", "E363"),
        ("projective", "D100000"),
        ("witness", "--flavor", "B", "--max-n", "800"),
        ("witness", "--flavor", "Finf", "--max-n", "360"),
    ],
)
def test_family_members_too_large_for_a_table_are_refused_at_once(argv, capsys):
    # 2897 elements is the least size whose table exceeds DENSE_TABLE_LIMIT
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not out
    assert "too many for a dense table" in err


def test_homs_bad_reference_is_input_error(capsys):
    code, _, err = run_cli(capsys, "homs", "--source", "nonsense", "--target", "B")
    assert code == 3
    assert "error" in err


def test_projective_budget_exhaustion_is_inconclusive(capsys):
    code, _, err = run_cli(capsys, "projective", "D5", "--budget", "3")
    assert code == 2
    assert "inconclusive" in err


def test_homs_budget_exceeded_is_inconclusive(capsys):
    code, _, err = run_cli(
        capsys, "homs", "--source", "D4", "--target", "D5", "--budget", "10"
    )
    assert code == 2
    assert "inconclusive" in err


def test_rigidity_identity_case(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--flavor", "B", "--n", "3", "--m", "3")
    assert code == 0
    assert "1 morphism (identity)" in out


def test_rigidity_mismatch_case(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--flavor", "Finf", "--n", "3", "--m", "4")
    assert code == 0
    assert "0 morphisms" in out


def test_finf_rigidity_budget_bounds_the_search_on_the_halves(capsys):
    # the E5 -> E5 search runs on the halves, in 20 ticks (36 on the doubles)
    code, _, err = run_cli(capsys, "rigidity", "--flavor", "Finf", "--n", "5", "--m", "5",
                           "--budget", "19")
    assert code == 2 and "inconclusive" in err
    code, out, _ = run_cli(capsys, "rigidity", "--flavor", "Finf", "--n", "5", "--m", "5",
                           "--budget", "20")
    assert code == 0 and "1 morphism (identity)" in out


def test_split_check_positive(tmp_path, capsys):
    emb = sm.corner_embedding(4, Flavor.B)
    doc = hom_to_doc(emb, source_ref="D0", target_ref="D4")
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "split-check", str(path))
    assert code == 0
    res = json.loads(out)
    assert res["injective"] and res["left_inverse"] is not None


def test_split_check_negative(tmp_path, capsys):
    m3 = diamond_m3()
    free = sm.free_module(Flavor.B, 3)
    img = {"0": [], "a": [(0, 1), (1, 1)], "b": [(1, 1), (2, 1)],
           "c": [(0, 1), (2, 1)], "1": [(0, 1), (1, 1), (2, 1)]}
    emb = sm.Hom(
        m3, free, tuple(sm.element_of_support(free, img[m3.name(e)]) for e in range(m3.size))
    )
    doc = hom_to_doc(emb, target_ref="free:B:3")
    path = tmp_path / "m3emb.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "split-check", str(path))
    assert code == 1
    res = json.loads(out)
    assert res["left_inverse"] is None and res["right_inverse"] is None


def test_split_check_rejects_non_hom(tmp_path, capsys):
    d2 = sm.family(Flavor.B, 2).module
    bad = sm.Hom(d2, d2, tuple([d2.size - 1] * d2.size))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(hom_to_doc(bad, source_ref="D2", target_ref="D2")))
    code, _, err = run_cli(capsys, "split-check", str(path))
    assert code == 3
    assert "not a homomorphism" in err


@pytest.mark.parametrize("target, code", [("D2", 0), ("M3", 1)])
def test_split_check_of_a_cover_reports_its_section(target, code, tmp_path, capsys):
    # the one section a cover can have is the residual section; the
    # non-distributive M3 has none
    mod = resolve_module_ref(target) if target == "D2" else diamond_m3()
    cover = sm.canonical_free_cover(mod)
    doc = hom_to_doc(cover, source_ref=f"free:B:{cover.source.free_rank}")
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    got, out, _ = run_cli(capsys, "split-check", str(path))
    assert got == code
    res = json.loads(out)
    assert res["surjective"] and not res["injective"] and res["left_inverse"] is None
    want = list(residual_section(mod).map) if code == 0 else None
    assert res["right_inverse"] == want


def test_projective_positive(capsys):
    code, out, _ = run_cli(capsys, "projective", "D4")
    assert code == 0
    res = json.loads(out)
    assert res["projective"] and res["distributive"] and res["criteria_agree"]


def test_projective_negative(tmp_path, capsys):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(module_to_doc(diamond_m3())))
    code, out, _ = run_cli(capsys, "projective", str(path))
    assert code == 1
    res = json.loads(out)
    assert not res["projective"] and not res["distributive"] and res["criteria_agree"]


def _short_add(doc):
    doc["add"].pop()


def _neg_out_of_range(doc):
    doc["neg"][1] = len(doc["elements"])


def _duplicate_names(doc):
    doc["elements"][1] = doc["elements"][2]


@pytest.mark.parametrize(
    "ref, corrupt",
    [("D2", _short_add), ("E2", _neg_out_of_range), ("D2", _duplicate_names)],
)
def test_projective_rejects_malformed_document(ref, corrupt, tmp_path, capsys):
    doc = module_to_doc(resolve_module_ref(ref), canonical=False)
    corrupt(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "projective", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_factor_matrix_worked_example(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"flavor": "B", "entries": [[1, 1], [1, 1], [0, 1]]}))
    code, out, _ = run_cli(capsys, "factor-matrix", str(path))
    assert code == 0
    res = json.loads(out)
    assert res["reduced"]["entries"] == [[1, 1], [0, 1]]
    assert res["duplicator"]["entries"] == [[1, 0], [1, 0], [0, 1]]
    assert res["row_class"] == [0, 0, 1]


@pytest.mark.parametrize(
    "flavor, rows", [("B", [[1, 0, 1], [0, 1, 1]]), ("Finf", [[1, -1, 0], [0, 1, 1]])]
)
def test_factor_matrix_of_a_tall_matrix(flavor, rows, tmp_path, capsys):
    # the factorization is checked on the matrices: no free module of rank
    # 20, above the carrier cap, is built
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"flavor": flavor, "entries": rows * 10}))
    code, out, _ = run_cli(capsys, "factor-matrix", str(path))
    assert code == 0
    res = json.loads(out)
    assert sorted(res) == ["certificate", "duplicator", "reduced", "row_class"]
    assert res["reduced"]["entries"] == rows
    assert res["row_class"] == [0, 1] * 10


def test_dualize(tmp_path, capsys):
    mat = sm.BoolMatrix.from_rows(Flavor.B, [[1, 0], [1, 1], [0, 0]])
    f = sm.hom_of_matrix(mat)
    doc = hom_to_doc(f, source_ref="free:B:2", target_ref="free:B:3")
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "dualize", str(path))
    assert code == 0
    res = json.loads(out)
    assert res["matrix"]["entries"] == [[1, 1, 0], [0, 1, 0]]


def test_dualize_rejects_non_free(tmp_path, capsys):
    emb = sm.corner_embedding(4, Flavor.B)
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(hom_to_doc(emb, source_ref="D0", target_ref="D4")))
    code, _, err = run_cli(capsys, "dualize", str(path))
    assert code == 3


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "--flavor", "B", "--max-n", "2")
    assert code == 0
    assert "witness holds up to N=2" in out


def test_witness_failure_is_a_verified_negative(capsys):
    # in the all-homs class the corner embedding into D5 factors through D4
    code, out, _ = run_cli(capsys, "witness", "--flavor", "B", "--max-n", "2", "--class", "all")
    assert code == 1
    assert out.splitlines() == [
        "witness fails: some morphism factors through an earlier level",
        "  f_2 through D4: factors",
    ]


def test_witness_inconclusive_budget(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--flavor", "B", "--max-n", "2", "--budget", "5"
    )
    assert code == 2
    assert "inconclusive" in out


def test_witness_from_spec_file(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"flavor": "B", "max_n": 2, "class": "injections"}))
    code, out, _ = run_cli(capsys, "witness", "--spec", str(path))
    assert code == 0
    assert "witness holds up to N=2" in out


@pytest.mark.parametrize(
    "entries, bad",
    [
        ({"max_n": 2.9}, "2.9"),
        ({"max_n": True}, "true"),
        ({"max_n": "3"}, '"3"'),
    ],
)
def test_witness_spec_numbers_must_be_json_integers(entries, bad, tmp_path, capsys):
    # int() would run N=2 for 2.9, N=1 for true and N=3 for "3"
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"flavor": "B", **entries}))
    code, out, err = run_cli(capsys, "witness", "--spec", str(path))
    assert code == 3
    assert out == ""
    assert f"{bad} is not an integer" in err


@pytest.mark.parametrize("flag", [["--flavor", "B"], ["--max-n", "2"], ["--class", "all"]])
def test_witness_spec_refuses_run_flags(flag, tmp_path, capsys):
    # the spec file describes the whole run; a flag next to it used to be
    # ignored without a word
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"flavor": "B", "max_n": 2}))
    code, out, err = run_cli(capsys, "witness", "--spec", str(path), *flag)
    assert code == 3
    assert out == ""
    assert f"drop {flag[0]}" in err


def test_witness_spec_needs_a_positive_max_n(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"flavor": "B", "max_n": 0}))
    code, out, err = run_cli(capsys, "witness", "--spec", str(path))
    assert code == 3
    assert out == ""
    assert "max_n of at least 1" in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_budget_must_be_a_positive_integer(value, capsys):
    code, out, err = run_cli(capsys, "projective", "D2", "--budget", value)
    assert code == 3
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("budget, code", [("1000", 2), ("1200", 2), ("1201", 0)])
def test_the_budget_bounds_the_whole_witness_run(budget, code, capsys):
    # B N=3 takes 1,201 ticks over its three checks, at most 757 in one:
    # a budget that each check fits in alone no longer decides the run
    got, out, _ = run_cli(capsys, "witness", "--flavor", "B", "--max-n", "3", "--budget", budget)
    assert got == code
    assert out.count(": inconclusive") == (code == 2)


def _bijection_doc():
    # negation on E3, a hom and a bijection: split-check runs both searches
    e3 = sm.family(Flavor.FINF, 3).module
    neg = sm.Hom(e3, e3, tuple(map(e3.neg_of, range(e3.size))))
    return hom_to_doc(neg, source_ref="E3", target_ref="E3")


@pytest.mark.parametrize(
    "argv, searches",
    [
        ("witness --flavor B --max-n 2 --class all", 2),
        ("witness --flavor B --max-n 3 --class all", 6),
        ("witness --flavor Finf --max-n 2 --class all", 2),
        ("split-check neg.json", 2),
    ],
)
def test_the_least_deciding_budget_is_the_ticks_the_run_takes(
    argv, searches, tmp_path, monkeypatch, capsys
):
    # the all-homs class runs a q search for each p while the p stream is
    # suspended, and split-check runs two searches; all draw on one budget
    # live, so the run decides on exactly the ticks it takes, one less
    # leaves a check inconclusive, and each search's own ticks add up to it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "neg.json").write_text(json.dumps(_bijection_doc()))
    argv = argv.split()
    recorded = recording_searches(monkeypatch)
    full = run_cli(capsys, *argv)
    budget = recorded[0].budget
    assert len(recorded) == searches and all(s.budget is budget for s in recorded)
    ticks = budget.spent
    assert sum(s.explored for s in recorded) == ticks
    assert run_cli(capsys, *argv, "--budget", str(ticks)) == full
    code, out, _ = run_cli(capsys, *argv, "--budget", str(ticks - 1))
    assert code == 2 or ": inconclusive" in out


def test_a_spent_budget_starts_no_further_search(capsys, monkeypatch):
    # the first of the 28 checks runs out of its 10 ticks; the other 27 are
    # inconclusive without a search
    recorded = recording_searches(monkeypatch)
    code, out, _ = run_cli(capsys, "witness", "--flavor", "B", "--max-n", "8", "--budget", "10")
    assert code == 2 and out.count(": inconclusive") == 28
    assert len(recorded) == 1


def test_witness_spec_takes_the_budget_flag(tmp_path, capsys):
    # a budget bounds the searches of a run; the description names the run
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"flavor": "B", "max_n": 2}))
    code, out, _ = run_cli(capsys, "witness", "--spec", str(path), "--budget", "5")
    assert code == 2
    assert "inconclusive" in out


def test_searching_subcommands_share_the_budget_default():
    parser = build_parser()
    for argv in (["witness"], ["projective", "D2"], ["homs", "--source", "D2", "--target", "D3"]):
        assert parser.parse_args(argv).budget == sm.DEFAULT_BUDGET


SUBCOMMANDS = (
    "construct", "validate", "homs", "rigidity", "split-check",
    "projective", "factor-matrix", "dualize", "witness",
)

# representative command lines of each subcommand, defaults included
PARSE_CASES = {
    "construct": [
        ["construct", "D0"],
        ["construct", "free:Finf:2", "--format", "text"],
    ],
    "validate": [["validate", "mod.json"]],
    "homs": [
        ["homs", "--source", "D2", "--target", "D3"],
        ["homs", "--source", "D2", "--target", "D2", "--pins", "p.json", "--injective",
         "--budget", "9"],
    ],
    "rigidity": [
        ["rigidity", "--flavor", "B", "--n", "3", "--m", "4"],
        ["rigidity", "--flavor", "Finf", "--n", "2", "--m", "2", "--budget", "5"],
    ],
    "split-check": [["split-check", "f.json"], ["split-check", "f.json", "--budget", "3"]],
    "projective": [["projective", "D2"], ["projective", "E4", "--budget", "10"]],
    "factor-matrix": [["factor-matrix", "mat.json"]],
    "dualize": [["dualize", "f.json"]],
    "witness": [
        ["witness"],
        ["witness", "--spec", "s.json"],
        ["witness", "--flavor", "B", "--max-n", "8", "--budget", "10", "--class", "all",
         "--format", "json"],
    ],
}

USAGE_ERRORS = [
    ["projective"], ["projective", "D2", "--zzz", "1"], ["projective", "D2", "extra"],
    ["projective", "--budget", "0", "D2"], ["rigidity", "--flavor", "X", "--n", "3", "--m", "3"],
    ["rigidity", "--n", "3"], ["construct", "D0", "--budget", "5"], ["construct"],
    ["construct", "Dn", "--n", "x"], ["construct", "D0", "--format", "svg"],
    ["witness", "--max-n", "0"], ["witness", "--class", "bogus"], ["homs", "--source", "D2"],
    ["validate"], ["dualize"], ["split-check"], ["factor-matrix", "a", "b"],
]


def _full_parser_run(capsys, argv):
    """Exit code, stdout and stderr of the full parser alone on argv."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return int(exc.value.code or 0), captured.out, captured.err


def test_parse_cases_cover_every_subcommand():
    assert set(PARSE_CASES) == set(SUBCOMMANDS)
    assert {argv[0] for argv in USAGE_ERRORS} == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_one_subcommand_parser_parses_as_the_full_parser(command):
    for argv in PARSE_CASES[command]:
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_is_the_full_parsers(command, capsys):
    for flag in ("--help", "-h"):
        expected = _full_parser_run(capsys, [command, flag])
        assert expected[0] == 0 and expected[1].startswith(f"usage: semimod {command}")
        assert run_cli(capsys, command, flag) == expected


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_the_full_parsers(argv, capsys):
    expected = _full_parser_run(capsys, argv)
    assert expected[0] == 3 and not expected[1]
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["frobnicate"], ["-h", "projective"]])
def test_top_level_output_lists_every_subcommand(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == _full_parser_run(capsys, argv)
    assert code == (0 if "-h" in argv or "--help" in argv else 3)
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out + err


def test_cold_run_registers_one_subparser():
    script = (
        "import argparse\n"
        "registered = []\n"
        "add_parser = argparse._SubParsersAction.add_parser\n"
        "def counting(self, name, **kwargs):\n"
        "    registered.append(name)\n"
        "    return add_parser(self, name, **kwargs)\n"
        "argparse._SubParsersAction.add_parser = counting\n"
        "from semimod.cli import main\n"
        "code = main(['projective', 'D2'])\n"
        "print(code, registered)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['projective']"


def test_witness_needs_parameters(capsys):
    code, _, err = run_cli(capsys, "witness")
    assert code == 3


def test_witness_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--flavor", "Finf", "--max-n", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True


def test_all_homs_witness_fails_at_depth(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--flavor", "Finf", "--max-n", "4", "--class", "all",
        "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False and doc["inconclusive"] is False
    checks = [check for lv in doc["levels"] for check in lv["checks"]]
    assert checks == [[f"E{j + 4}", "factors"] for i in range(4) for j in range(i)]


def test_export_dot(capsys):
    code, out, _ = run_cli(capsys, "construct", "E2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # each name stays one quoted DOT ID: \ and " are escaped inside it
    chain = sm.FinModule(
        flavor=Flavor.B, names=("0", 'a"b', "c\\"), zero=0, add_table=(0, 1, 2, 1, 1, 2, 2, 2, 2)
    )
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module_to_doc(chain)))
    code, out, _ = run_cli(capsys, "construct", str(path), "--format", "dot")
    assert code == 0
    assert out.splitlines()[2:] == [
        '  "0";', '  "a\\"b";', '  "c\\\\";', '  "0" -> "a\\"b";', '  "a\\"b" -> "c\\\\";', "}"
    ]


def test_unknown_subcommand_exits_3(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 3
    assert "usage" in err


def test_unknown_flag_exits_3(capsys):
    code, _, err = run_cli(capsys, "rigidity", "--flavor", "B", "--n", "3", "--zzz", "1")
    assert code == 3


def test_bad_threads_value(capsys):
    # --threads is gone, and --budget belongs only to the subcommands that search
    code, _, err = run_cli(capsys, "construct", "D0", "--threads", "1")
    assert code == 3
    assert "unrecognized arguments" in err
    code, _, err = run_cli(capsys, "construct", "D0", "--budget", "5")
    assert code == 3
    assert "unrecognized arguments" in err


def test_console_entry_point_runs():
    # the semimod script of pyproject.toml, called as an installed
    # entry point calls it: sys.exit of the target with no arguments
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    target = re.search(r'^semimod = "([\w.]+):(\w+)"$', pyproject, re.M)
    script = f"import sys; from {target[1]} import {target[2]}; sys.exit({target[2]}())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "construct", "D0", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "9 elements" in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["construct", "D0", "--format", "text"], ["witness", "--flavor", "B", "--max-n", "2"]],
    ids=["construct", "witness"],
)
def test_closed_output_pipe_is_neither_a_traceback_nor_a_negative(argv, unbuffered):
    # the read end is closed before the CLI starts, so its first write (or,
    # with buffered output, its first flush) fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "semimod.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.returncode == 141  # never 1, which means a verified negative


def test_construct_refuses_modules_too_large_to_serialize(capsys):
    code, _, err = run_cli(capsys, "construct", "free:B:12")
    assert code == 3
    assert "too large to serialize" in err
    code, out, _ = run_cli(capsys, "construct", "free:B:12", "--format", "text")
    assert code == 0
    assert "4096 elements" in out
    # the Hasse diagram needs the n^2 order masks
    for ref in ("free:B:12", "free:Finf:8"):
        code, out, err = run_cli(capsys, "construct", ref, "--format", "dot")
        assert code == 3 and not out
        assert "too large to draw" in err
    code, out, _ = run_cli(capsys, "construct", "free:B:11", "--format", "dot")
    assert code == 0
    assert out.count(" -> ") == 11 * 2**10


def test_projective_d7_certifies(capsys):
    code, out, _ = run_cli(capsys, "projective", "D7")
    assert code == 0
    doc = json.loads(out)
    assert doc["projective"] is True
    assert doc["criteria_agree"] is True
    mod = resolve_module_ref("D7")
    cover = sm.canonical_free_cover(mod)
    section = sm.Hom(mod, cover.source, tuple(doc["section"]))
    assert check_hom_all_pairs(section).ok
    assert sm.compose(cover, section).is_identity()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_usage_error(budget, capsys):
    code, out, err = run_cli(capsys, "projective", "D2", "--budget", budget)
    assert code == 3
    assert out == ""
    assert "--budget: must be at least 1" in err


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_witness_max_n_below_one_is_usage_error(max_n, capsys):
    code, out, err = run_cli(capsys, "witness", "--flavor", "B", "--max-n", max_n)
    assert code == 3
    assert out == ""
    assert "--max-n: must be at least 1" in err


# Commutative, idempotent, with a neutral zero and a partial order as its
# induced order, but not associative: (c + d) + a = b + a = e while
# c + (d + a) = c + e = c.
NON_ASSOCIATIVE = {
    "flavor": "B",
    "elements": ["0", "a", "b", "c", "d", "e"],
    "zero": 0,
    "add": [
        0, 1, 2, 3, 4, 5,
        1, 1, 5, 3, 5, 3,
        2, 5, 2, 5, 4, 4,
        3, 3, 5, 3, 2, 3,
        4, 5, 4, 2, 4, 4,
        5, 3, 4, 3, 4, 5,
    ],
}
# f(c + d) = f(b) = 0 but f(c) + f(d) = 1: not a hom, yet it would pass
# every check on the generating set {a, b, e}, where the lemma behind the
# check needs associativity; the check reads the source's order, which
# refuses the module.
NON_HOM_MAP = [0, 1, 0, 1, 1, 1]


def test_document_modules_must_pass_the_axiom_scan(tmp_path, capsys):
    mod = module_from_doc(NON_ASSOCIATIVE)
    f = sm.Hom(mod, sm.scalar_module(Flavor.B), tuple(NON_HOM_MAP))
    with pytest.raises(sm.ModuleStructureError, match="add_associative"):
        sm.check_hom(f)
    assert not check_hom_all_pairs(f).ok

    module_path = tmp_path / "mod.json"
    module_path.write_text(json.dumps(NON_ASSOCIATIVE))
    hom_path = tmp_path / "hom.json"
    hom_path.write_text(
        json.dumps({"source": NON_ASSOCIATIVE, "target": "B", "map": NON_HOM_MAP})
    )
    for argv in (
        ("split-check", str(hom_path)),
        ("homs", "--source", str(module_path), "--target", "B"),
        ("homs", "--source", "B", "--target", str(module_path)),
        ("projective", str(module_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "fails the module axioms: add_associative" in err


def test_each_hom_and_certificate_is_checked_once(tmp_path, capsys, monkeypatch):
    # each Hom keeps its hom check, and each certificate is checked by the
    # function that makes it, so no reader checks it again
    checked = []
    real = sm.homs._hom_violation

    def counting(M, N, val):
        checked.append(tuple(val))
        return real(M, N, val)

    monkeypatch.setattr(sm.homs, "_hom_violation", counting)
    emb = sm.corner_embedding(5, Flavor.B)
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(hom_to_doc(emb, source_ref="D0", target_ref="D5")))
    checked.clear()
    # the five corner embeddings; their class test reads the kept check, and
    # the covering searches reach no complete map
    assert run_cli(capsys, "witness", "--flavor", "B", "--max-n", "5")[0] == 0
    assert len(checked) == 5 == len(set(checked))
    checked.clear()
    # the input map, then the left inverse the search checks as a hom
    code, out, _ = run_cli(capsys, "split-check", str(path))
    assert code == 0
    assert checked == [emb.map, tuple(json.loads(out)["left_inverse"])]
    checked.clear()
    # only the section the search checks as a hom: the cover is an extension
    # of generator images, which carries its check from its construction
    code, out, _ = run_cli(capsys, "projective", "E4")
    assert code == 0
    assert checked == [tuple(json.loads(out)["section"])]


def test_a_module_document_is_checked_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = sm.core._structural_check

    def counting(m):
        calls.append(m)
        real(m)

    monkeypatch.setattr(sm.core, "_structural_check", counting)
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(module_to_doc(resolve_module_ref("D3"))))
    calls.clear()
    assert run_cli(capsys, "projective", str(path))[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "D\u0664"),
        ("projective", "E\u0663"),
        ("homs", "--source", "free:B:\u0663", "--target", "B"),
    ],
    ids=["family-member", "projective", "free-module"],
)
def test_module_references_are_ascii(argv, capsys):
    # \u0663 and \u0664 are Arabic-Indic three and four, which int() reads
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith("error: unrecognized module reference")


ONE_ELEMENT = {"flavor": "B", "elements": ["0"], "zero": 0, "add": [0]}


def test_a_file_named_like_a_reference_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    # a word in the reference grammar names its module in any working
    # directory, also one it cannot build; a word outside it is read as a file
    monkeypatch.chdir(tmp_path)
    for name in ("D0", "E3", "free:Finf:2", "B", "Finf", "D725", "mine"):
        (tmp_path / name).write_text(json.dumps(ONE_ELEMENT))
    for ref in ("D0", "E3", "free:Finf:2", "B", "Finf"):
        code, out, _ = run_cli(capsys, "construct", ref)
        assert code == 0
        assert len(json.loads(out)["elements"]) == resolve_module_ref(ref).size > 1
    code, out, err = run_cli(capsys, "construct", "D725")
    assert code == 3 and not out
    assert "bad family reference 'D725'" in err
    code, out, _ = run_cli(capsys, "construct", "mine")
    assert code == 0 and json.loads(out)["elements"] == ["0"]


# The documents the byte cases below read, in the current forms.
_BYTE_CASE_DOCS = {
    "m3.json": module_to_doc(diamond_m3()),
    "emb.json": hom_to_doc(sm.corner_embedding(4, Flavor.B), source_ref="D0", target_ref="D4"),
    "dual.json": hom_to_doc(
        sm.hom_of_matrix(sm.BoolMatrix.from_rows(Flavor.B, [[1, 0], [1, 1], [0, 0]])),
        source_ref="free:B:2", target_ref="free:B:3",
    ),
    "spec-b.json": {"flavor": "B", "max_n": 2},
    "spec-finf.json": {"flavor": "Finf", "max_n": 2, "class": "all"},
    "spec-bad.json": {"flavor": "B", "max_n": 2.9},
    "pins.json": {"pins": [["a_1_2", "a_2_2"]]},
    "b.json": {"flavor": "B", "entries": [[1, 1], [1, 1], [0, 1]]},
    "finf.json": {"flavor": "Finf", "entries": [[1, -1], [1, -1], [0, 1]]},
}

# (command in the syntax before modules were named by reference, budgets
# given by --budget alone and matrix flavors stated; the same command now;
# the first 16 hex digits of the sha256 of the earlier form's exit code,
# stdout and stderr).  Before, b.json and finf.json were bare arrays of
# rows and spec-b.json held "budget": 5.
BYTE_CASES = [
    ("construct D0", "construct D0", "eee778945e8eed11"),
    ("construct D0 --format dot", "construct D0 --format dot", "071428c6cb2b5151"),
    ("construct D0 --format text", "construct D0 --format text", "ee8adb803ef13216"),
    ("construct E0 --format dot", "construct E0 --format dot", "0a0a0853fbb68c3a"),
    ("construct Dn --n 5", "construct D5", "14a725ec81decb06"),
    ("construct En --n 3 --format text", "construct E3 --format text", "06f13c77ee7686d7"),
    ("construct free --flavor B --rank 3 --format dot",
     "construct free:B:3 --format dot", "10ff247557279dc7"),
    ("construct free --flavor Finf --rank 2", "construct free:Finf:2", "2516c1152bb10fbf"),
    ("export-dot E2", "construct E2 --format dot", "fd706c2cce6da1d3"),
    ("export-dot free:Finf:1", "construct free:Finf:1 --format dot", "51eb7e82467725cc"),
    ("export-dot m3.json", "construct m3.json --format dot", "a81f900a31ad3f36"),
    ("projective D4", "projective D4", "adf26694970a596f"),
    ("projective E3", "projective E3", "a2049f21be08e5cf"),
    ("projective m3.json", "projective m3.json", "8a205757eaf00eb8"),
    ("projective E4 --budget 10", "projective E4 --budget 10", "6da4b22d154f47d9"),
    ("projective nonsense", "projective nonsense", "e66df80a61a41c08"),
    ("witness --flavor B --max-n 3", "witness --flavor B --max-n 3", "dd910263b357b055"),
    ("witness --flavor Finf --max-n 2 --format json",
     "witness --flavor Finf --max-n 2 --format json", "2d6ffe00059b71f3"),
    ("witness --flavor B --max-n 2 --class all --format json",
     "witness --flavor B --max-n 2 --class all --format json", "fa36f456b9a41b15"),
    ("witness --flavor B --max-n 3 --class splittable-injections",
     "witness --flavor B --max-n 3 --class splittable-injections", "dd910263b357b055"),
    ("witness --flavor B --max-n 8 --budget 10",
     "witness --flavor B --max-n 8 --budget 10", "f3a3764118280be5"),
    ("witness --spec spec-b.json", "witness --spec spec-b.json --budget 5", "cc094c4dd04f6728"),
    ("witness --spec spec-finf.json --format json",
     "witness --spec spec-finf.json --format json", "c0f2ac657ffa438a"),
    ("witness --spec spec-bad.json", "witness --spec spec-bad.json", "f825867c895b5314"),
    ("witness --flavor Finf --max-n 360", "witness --flavor Finf --max-n 360", "090570c518fdb821"),
    ("rigidity --flavor B --n 3 --m 3", "rigidity --flavor B --n 3 --m 3", "b4d8e6b589888bac"),
    ("rigidity --flavor Finf --n 3 --m 4", "rigidity --flavor Finf --n 3 --m 4", "745789faeaba1524"),
    ("homs --source D2 --target D3 --injective",
     "homs --source D2 --target D3 --injective", "a568eb80587f9b81"),
    ("homs --source D2 --target D2 --pins pins.json",
     "homs --source D2 --target D2 --pins pins.json", "5e48f7fece8173fc"),
    ("homs --source B --target Finf", "homs --source B --target Finf", "e20fce7fe562b223"),
    ("split-check emb.json", "split-check emb.json", "e9c9ceabf5ebcbc3"),
    ("factor-matrix b.json", "factor-matrix b.json", "5f4935a35a258725"),
    ("factor-matrix finf.json", "factor-matrix finf.json", "47074835ac283f4c"),
    ("dualize dual.json", "dualize dual.json", "309c6be6499296d3"),
    # recorded before the injective searches dropped candidates by mask
    ("witness --flavor B --max-n 12 --format json",
     "witness --flavor B --max-n 12 --format json", "b0abcc621b546d69"),
    ("witness --flavor Finf --max-n 8", "witness --flavor Finf --max-n 8", "bfce73f79aadcfb1"),
    ("rigidity --flavor Finf --n 5 --m 6", "rigidity --flavor Finf --n 5 --m 6", "745789faeaba1524"),
    ("homs --source D4 --target D6 --injective",
     "homs --source D4 --target D6 --injective", "3479fe8b6def8b48"),
    # recorded while the family members were still tabled
    ("construct E4", "construct E4", "062ac2e29d5103c0"),
]


@pytest.mark.parametrize("before, command, digest", BYTE_CASES, ids=[c[1] for c in BYTE_CASES])
def test_command_bytes_are_those_of_the_earlier_syntax(
    before, command, digest, tmp_path, monkeypatch, capsys
):
    # argparse's own usage and help text vary between Python versions, so
    # every case here is run by a subcommand
    monkeypatch.chdir(tmp_path)
    for name, doc in _BYTE_CASE_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command.split())
    got = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]
    assert got == digest, (before, code, out[:200], err)


# (command, the first 16 hex digits of the sha256 of its exit code, stdout
# and stderr, as for BYTE_CASES); the budget case is a byte case too
_COVER_CASES = [
    ("projective D6", "f5f33610989d36ec"),
    ("projective E4", "528bcbff81dca737"),
    ("projective E4 --budget 10", dict((c, d) for _, c, d in BYTE_CASES)["projective E4 --budget 10"]),
]


@pytest.mark.parametrize("command, digest", _COVER_CASES, ids=[c for c, _ in _COVER_CASES])
def test_the_cover_path_never_walks_the_free_module(command, digest, capsys, monkeypatch):
    # the cover, its check and the section search read the free module's
    # keys and walk, never its generic span walk (FinModule.basis)
    real = sm.core.generating_basis

    def refuse_free(m):
        if isinstance(m, sm.free.FreeModule):
            raise AssertionError("the free module was walked")
        return real(m)

    monkeypatch.setattr(sm.core, "generating_basis", refuse_free)
    sm.free_module.cache_clear()  # a cached free module may hold its basis
    code, out, err = run_cli(capsys, *command.split())
    got = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]
    assert got == digest, (code, out[:200], err)
