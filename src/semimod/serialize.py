"""JSON documents for modules, morphisms and matrices, plus DOT export.

Module document:
    {"flavor": "B"|"Finf", "elements": [names...], "zero": index,
     "add": row-major index table, "neg": optional index table}

Canonical serialization reorders elements by name so equal modules print
byte-identically.  Morphism documents name their endpoints either inline or
by a constructor reference string such as "D4", "E0", "free:B:3", "B".
"""
from __future__ import annotations

import json
import re
from typing import Any, Optional, Union

from .core import (
    DENSE_TABLE_LIMIT,
    FinModule,
    Flavor,
    ModuleStructureError,
)
from .families import corner_witness, family, flavor_of_letter
from .free import free_module
from .homs import Hom
from .matrices import BoolMatrix
from .core import scalar_module

ModuleRef = Union[str, dict]


def _flavor_of(tag: str) -> Flavor:
    try:
        return Flavor(tag)
    except ValueError:
        raise ModuleStructureError(f"unknown flavor {tag!r}") from None


def canonical_permutation(m: FinModule) -> list[int]:
    """old id -> new id, sorting elements by display name."""
    order = sorted(range(m.size), key=lambda e: m.names[e])
    rank = [0] * m.size
    for new, old in enumerate(order):
        rank[old] = new
    return rank


def module_to_doc(m: FinModule, canonical: bool = True) -> dict:
    n = m.size
    if n * n > DENSE_TABLE_LIMIT:
        raise ModuleStructureError(
            f"a {n}-element module is too large to serialize (its table has {n * n} entries)"
        )
    if canonical:
        rank = canonical_permutation(m)
        inv = sorted(range(n), key=lambda e: rank[e])
    else:
        rank = inv = list(range(n))
    add = m.add_of
    doc: dict[str, Any] = {
        "flavor": m.flavor.value,
        "elements": [m.names[e] for e in inv],
        "zero": rank[m.zero],
        "add": [rank[add(a, b)] for a in inv for b in inv],
    }
    if m.flavor is Flavor.FINF:
        doc["neg"] = [rank[m.neg_of(a)] for a in inv]
    return doc


def _ints(xs: Any) -> tuple[int, ...]:
    """The entries of a JSON array of integers.

    Only ints are accepted (``type`` is ``int``, so not bool): reading with
    ``int()`` would truncate 1.7, parse "1" and read true as 1, and a
    document with such entries is malformed.  The check runs at C level
    (``map(type, ...)``), as module tables have n^2 entries.
    """
    out = tuple(xs)
    if not set(map(type, out)) <= {int}:
        bad = next(x for x in out if type(x) is not int)
        raise ValueError(f"{json.dumps(bad)} is not an integer")
    return out


def refuse_unknown_keys(doc: Any, what: str, keys: set[str]) -> None:
    """Raise ModuleStructureError unless ``doc`` is a JSON object, and name
    each of its keys that its reader does not read: a misspelled key is not
    a default."""
    if not isinstance(doc, dict):
        raise ModuleStructureError(f"a {what} is a JSON object")
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ModuleStructureError(f"malformed {what}: unknown key {', '.join(map(repr, unknown))}")


def module_from_doc(doc: dict) -> FinModule:
    refuse_unknown_keys(doc, "module document", {"flavor", "elements", "zero", "add", "neg"})
    try:
        flavor = _flavor_of(doc["flavor"])
        names = tuple(str(x) for x in doc["elements"])
        (zero,) = _ints([doc["zero"]])
        add = _ints(doc["add"])
        neg = _ints(doc["neg"]) if "neg" in doc and doc["neg"] is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleStructureError(f"malformed module document: {exc}") from exc
    return FinModule(flavor, names, zero, add, neg_table=neg)


def module_to_json(m: FinModule) -> str:
    return json.dumps(module_to_doc(m), sort_keys=True, separators=(",", ":"))


# ASCII digits only: \d would read any Unicode decimal digit as well
_REF_FAMILY = re.compile(r"^(\D)([0-9]+)$")
_REF_FREE = re.compile(r"^free:(B|Finf):([0-9]+)$")


def is_module_ref(text: str) -> bool:
    """Whether ``text`` is in the reference grammar of
    :func:`resolve_module_ref` (D<n>, E<n>, free:<flavor>:<rank>, B or
    Finf), whether or not the module it names can be built."""
    text = text.strip()
    match = _REF_FAMILY.match(text)
    return (
        text in ("B", "Finf")
        or (match is not None and flavor_of_letter(match.group(1)) is not None)
        or _REF_FREE.match(text) is not None
    )


def resolve_module_ref(ref: ModuleRef) -> FinModule:
    """Inline document, or one of: D<n>, E<n> (D0 and E0 are the corner
    witnesses), free:<flavor>:<rank>, B, Finf."""
    if not isinstance(ref, str):
        return module_from_doc(ref)
    ref = ref.strip()
    if ref == "B":
        return scalar_module(Flavor.B)
    if ref == "Finf":
        return scalar_module(Flavor.FINF)
    match = _REF_FAMILY.match(ref)
    flavor = flavor_of_letter(match.group(1)) if match else None
    if flavor is not None:
        digits = match.group(2)
        try:
            lat = corner_witness(flavor) if digits == "0" else family(flavor, int(digits))
        except ValueError as exc:
            raise ModuleStructureError(f"bad family reference {ref!r}: {exc}") from exc
        return lat.module
    match = _REF_FREE.match(ref)
    if match:
        return free_module(_flavor_of(match.group(1)), int(match.group(2)))
    raise ModuleStructureError(f"unrecognized module reference {ref!r}")


def hom_to_doc(
    f: Hom,
    source_ref: Optional[str] = None,
    target_ref: Optional[str] = None,
) -> dict:
    """Morphism document; endpoints inline unless reference strings are given."""
    return {
        "source": source_ref if source_ref is not None else module_to_doc(f.source, canonical=False),
        "target": target_ref if target_ref is not None else module_to_doc(f.target, canonical=False),
        "map": list(f.map),
    }


def hom_from_doc(doc: dict) -> Hom:
    refuse_unknown_keys(doc, "morphism document", {"source", "target", "map"})
    try:
        source = resolve_module_ref(doc["source"])
        target = resolve_module_ref(doc["target"])
        mp = _ints(doc["map"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleStructureError(f"malformed morphism document: {exc}") from exc
    return Hom(source, target, mp)


def matrix_to_doc(mat: BoolMatrix) -> dict:
    return {"flavor": mat.flavor.value, "entries": mat.to_rows()}


def matrix_from_doc(doc: dict) -> BoolMatrix:
    """A matrix document ``{"flavor", "entries"}``: the flavor is stated,
    never guessed from the entries."""
    refuse_unknown_keys(doc, "matrix document", {"flavor", "entries"})
    try:
        flavor = _flavor_of(doc["flavor"])
        rows = [_ints(row) for row in doc["entries"]]
        if not rows:
            return BoolMatrix(flavor, 0, 0, ())
        return BoolMatrix.from_rows(flavor, rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleStructureError(f"malformed matrix document: {exc}") from exc


def dot_hasse(m: FinModule) -> str:
    """Hasse diagram of the induced order: one edge per covering relation,
    between names quoted as DOT IDs (with backslash and double quote escaped).

    Finding the covers reads the order masks, n^2 bits, so modules above
    ``DENSE_TABLE_LIMIT`` table entries are refused, as in
    :func:`module_to_doc`.
    """
    n = m.size
    if n * n > DENSE_TABLE_LIMIT:
        raise ModuleStructureError(
            f"a {n}-element module is too large to draw (its order has {n * n} pairs)"
        )
    ids = [m.name(e).replace("\\", "\\\\").replace('"', '\\"') for e in range(n)]
    lines = ["digraph hasse {", "  rankdir=BT;"] + [f'  "{i}";' for i in ids]
    for lower, upper in sorted(m.order.covering_pairs()):
        lines.append(f'  "{ids[lower]}" -> "{ids[upper]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
