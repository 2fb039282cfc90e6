import json

import pytest

import semimod as sm
from semimod import Flavor
from semimod.serialize import (
    dot_hasse,
    hom_from_doc,
    hom_to_doc,
    matrix_from_doc,
    matrix_to_doc,
    module_from_doc,
    module_to_doc,
    module_to_json,
    resolve_module_ref,
)

from conftest import diamond_m3


def _isomorphic(a, b):
    return bool(
        [h for h in sm.enumerate_homs(a, b) if h.injective and h.surjective]
    )


def test_module_round_trip_is_isomorphic():
    for build in (
        lambda: sm.family(Flavor.B, 3).module,
        lambda: sm.family(Flavor.FINF, 2).module,
        lambda: sm.free_module(Flavor.B, 2),
        diamond_m3,
    ):
        mod = build()
        doc = module_to_doc(mod)
        back = module_from_doc(doc)
        assert sm.validate_module(back).ok
        assert back.size == mod.size
        assert sorted(back.names) == sorted(mod.names)
        assert _isomorphic(mod, back)


def test_canonical_serialization_is_byte_stable():
    mod = sm.family(Flavor.B, 3).module
    js = module_to_json(mod)
    again = module_to_json(module_from_doc(json.loads(js)))
    assert js == again
    assert json.loads(js)["elements"] == sorted(json.loads(js)["elements"])


def test_canonical_form_invariant_under_relabeling():
    import random as _random

    mod = sm.family(Flavor.FINF, 3).module
    rng = _random.Random(17)
    perm = list(range(mod.size))
    rng.shuffle(perm)  # perm[old] = new id
    inv = [0] * mod.size
    for old, new in enumerate(perm):
        inv[new] = old
    shuffled = sm.FinModule(
        mod.flavor,
        tuple(mod.names[inv[new]] for new in range(mod.size)),
        perm[mod.zero],
        tuple(
            perm[mod.add_of(inv[a], inv[b])]
            for a in range(mod.size)
            for b in range(mod.size)
        ),
        neg_table=tuple(perm[mod.neg_of(inv[a])] for a in range(mod.size)),
    )
    assert sm.validate_module(shuffled).ok
    assert module_to_json(shuffled) == module_to_json(mod)


def test_noncanonical_doc_preserves_order():
    mod = sm.family(Flavor.B, 2).module
    doc = module_to_doc(mod, canonical=False)
    assert tuple(doc["elements"]) == mod.names
    assert module_to_doc(module_from_doc(doc), canonical=False) == doc


def test_malformed_module_docs_raise():
    with pytest.raises(sm.ModuleStructureError):
        module_from_doc({"flavor": "B"})
    with pytest.raises(sm.ModuleStructureError):
        module_from_doc({"flavor": "X", "elements": ["0"], "zero": 0, "add": [0]})


@pytest.mark.parametrize("entry", [1.0, 1.7, "1", True, None, [1]])
def test_document_entries_must_be_json_integers(entry):
    # int() would truncate 1.7, parse "1" and read true as 1
    with pytest.raises(sm.ModuleStructureError, match="malformed module document"):
        module_from_doc({"flavor": "B", "elements": ["0", "a"], "zero": 0, "add": [0, 1, 1, entry]})
    with pytest.raises(sm.ModuleStructureError, match="malformed module document"):
        module_from_doc({"flavor": "B", "elements": ["0"], "zero": entry, "add": [0]})
    finf = {"flavor": "Finf", "elements": ["0"], "zero": 0, "add": [0], "neg": [entry]}
    with pytest.raises(sm.ModuleStructureError, match="malformed module document"):
        module_from_doc(finf)
    with pytest.raises(sm.ModuleStructureError, match="malformed morphism document"):
        hom_from_doc({"source": "free:B:1", "target": "free:B:1", "map": [0, entry]})
    for doc in ({"flavor": "Finf", "entries": [[1, entry]]},
                {"flavor": "B", "entries": [[entry, 0]]}):
        with pytest.raises(sm.ModuleStructureError, match="malformed matrix document"):
            matrix_from_doc(doc)


def test_module_refs():
    assert resolve_module_ref("B").size == 2
    assert resolve_module_ref("Finf").size == 3
    assert resolve_module_ref("D0").size == 9
    assert resolve_module_ref("E0").size == 17
    assert resolve_module_ref("D4").size == 13
    assert resolve_module_ref("E3").size == 17
    assert resolve_module_ref("free:B:3").size == 8
    assert resolve_module_ref("free:Finf:2").size == 9
    with pytest.raises(sm.ModuleStructureError):
        resolve_module_ref("D1")
    with pytest.raises(sm.ModuleStructureError):
        resolve_module_ref("nonsense")


def test_hom_doc_round_trip_inline_and_ref():
    g, h = sm.canonical_section(2, Flavor.B)
    doc = hom_to_doc(h, source_ref="D2", target_ref="free:B:3")
    back = hom_from_doc(doc)
    assert back.map == h.map
    assert back.is_hom

    inline = hom_to_doc(h)
    back2 = hom_from_doc(json.loads(json.dumps(inline)))
    assert back2.map == h.map


def test_matrix_doc_round_trip():
    mat = sm.BoolMatrix.from_rows(Flavor.B, [[1, 0], [1, 1]])
    assert matrix_from_doc(matrix_to_doc(mat)) == mat
    signed = sm.BoolMatrix.from_rows(Flavor.FINF, [[1, -1], [0, 1]])
    assert matrix_from_doc(matrix_to_doc(signed)) == signed
    # the flavor is stated, never guessed from the entries
    for doc in ([[1, 0], [0, 1]], {"entries": [[1, 0], [0, 1]]}):
        with pytest.raises(sm.ModuleStructureError, match="matrix document"):
            matrix_from_doc(doc)


def test_dot_export_d0():
    dot = dot_hasse(sm.corner_witness(Flavor.B).module)
    assert dot.startswith("digraph")
    node_lines = [l for l in dot.splitlines() if l.endswith('";') and "->" not in l]
    assert len(node_lines) == 9
    assert '"O" -> "A_1_1";' in dot
    assert '"A_2_2" -> "A_3_3";' in dot


def test_dot_export_signed():
    dot = dot_hasse(sm.family(Flavor.FINF, 2).module)
    assert '"a_1_1" -> "0";' in dot
    assert '"-a_1_1" -> "0";' in dot
