"""The census workload: many small objects through the library in one warm process.

Inputs come from the seed alone:

* random flavor-B modules, built as union-closed families of subsets of a
  small universe (union is the join, the empty set the zero), with a fixed
  schedule of join-irreducible counts so every seed does the same amount of
  cover work;
* the flavor-Finf signed mirror of each family with at most
  ``FINF_MAX_GENS`` irreducibles: positives add by union, negatives mirror
  them, and mixed sums collapse to the absorbing zero;
* random 0/1 and signed matrices with forced duplicate rows.

Carriers stay within the 64-element axiom scan and free covers within 256
elements, so per-call overhead, axiom scans and exhaustion searches
dominate and the big-cover path is never taken.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from semimod import (
    BoolMatrix,
    FinModule,
    Flavor,
    Hom,
    check_hom,
    compose,
    distinct_row_factorization,
    dual_factorization,
    enumerate_homs,
    generated_congruence,
    induced_order,
    irreducible_generators,
    is_distributive_lattice,
    mat_mul,
    matrix_of_hom,
    projectivity_certificate,
    quotient_with_projection,
    scalar_module,
    validate_module,
)
from semimod.free import support_of
from semimod.homs import BudgetExceededError
from semimod.serialize import canonical_permutation, module_from_doc, module_to_json

UNIVERSE = 10
DENSITY = 0.3  # chance that a random generating set holds each point
# Join-irreducible count k of the B families (cycled; the cover has 2^k
# elements) and the band their carrier size must fall in, around the median
# size for k.  Fixing both keeps the work of a seed close to every other's.
SIZE_BANDS = {3: (7, 8), 4: (11, 13), 5: (17, 20), 6: (26, 30), 7: (36, 42), 8: (46, 54)}
FINF_MAX_GENS = 5  # Finf covers have 3^k elements; mirrors have 2|family|-1
FAMILIES = 72
B_MATRICES = 16
FINF_MATRICES = 12
# The inconclusive job: a budget of one node on the largest covers always runs out.
INCONCLUSIVE_BUDGET = 1
INCONCLUSIVE_GENS = 8


@dataclass(frozen=True)
class ModuleInput:
    name: str
    flavor: Flavor
    names: tuple[str, ...]
    add: tuple[int, ...]
    neg: Optional[tuple[int, ...]]
    gens: int
    pair: tuple[int, int]  # ids to identify in the random congruence

    @property
    def batch(self) -> str:
        return f"{self.flavor.value} k={self.gens}"

    def build(self) -> FinModule:
        return FinModule(self.flavor, self.names, 0, self.add, neg_table=self.neg)


@dataclass(frozen=True)
class MatrixInput:
    name: str
    matrix: BoolMatrix

    @property
    def batch(self) -> str:
        return f"{self.matrix.flavor.value} matrices"


def _set_name(s: int) -> str:
    return "x" + "".join(str(b) for b in range(UNIVERSE) if (s >> b) & 1)


def _union_closed_family(rng: random.Random, k: int) -> list[int]:
    """A union-closed family (with the empty set) with exactly k join-irreducibles."""
    lo, hi = SIZE_BANDS[k]
    while True:
        picks = {sum(1 << b for b in range(UNIVERSE) if rng.random() < DENSITY)
                 for _ in range(k)}
        picks.discard(0)
        if len(picks) != k:
            continue
        reducible = False
        for p in picks:
            below = 0
            for q in picks:
                if q != p and q & ~p == 0:
                    below |= q
            if below == p:
                reducible = True
                break
        if reducible:
            continue
        fam = {0}
        for p in picks:
            fam |= {s | p for s in fam}
        if lo <= len(fam) <= hi:
            return sorted(fam, key=lambda s: (s.bit_count(), s))


def _b_module(name: str, fam: list[int], k: int, rng: random.Random) -> ModuleInput:
    idx = {s: i for i, s in enumerate(fam)}
    add = tuple(idx[a | b] for a in fam for b in fam)
    n = len(fam)
    pair = tuple(rng.sample(range(n), 2))
    return ModuleInput(name, Flavor.B, tuple("0" if s == 0 else _set_name(s) for s in fam),
                       add, None, k, pair)


def _finf_mirror(name: str, fam: list[int], k: int, rng: random.Random) -> ModuleInput:
    pos = [s for s in fam if s]
    m = len(pos)
    idx = {s: i + 1 for i, s in enumerate(pos)}
    size = 2 * m + 1
    flat = [0] * (size * size)
    for a in pos:
        for b in pos:
            c = idx[a | b]
            flat[idx[a] * size + idx[b]] = c
            flat[(idx[a] + m) * size + idx[b] + m] = c + m
    neg = (0,) + tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
    names = ("0",) + tuple("+" + _set_name(s) for s in pos) + tuple("-" + _set_name(s) for s in pos)
    pair = tuple(rng.sample(range(size), 2))
    return ModuleInput(name, Flavor.FINF, names, tuple(flat), neg, k, pair)


def _matrix(name: str, flavor: Flavor, rng: random.Random) -> MatrixInput:
    """Random matrix whose rows repeat: distinct rows first, then forced duplicates."""
    max_rows = 8 if flavor is Flavor.B else 5  # free target of 2^8 or 3^5 elements
    rows = rng.randint(3, max_rows)
    cols = rng.randint(2, 6)
    values = (0, 1) if flavor is Flavor.B else (-1, 0, 1)
    distinct = rng.randint(1, rows - 1)
    base = [[rng.choice(values) for _ in range(cols)] for _ in range(distinct)]
    body = base + [rng.choice(base) for _ in range(rows - distinct)]
    rng.shuffle(body)
    return MatrixInput(name, BoolMatrix.from_rows(flavor, body))


def generate(seed: int) -> list:
    """Every census input, as plain data, from the seed alone."""
    rng = random.Random(seed)
    out: list = []
    ks = sorted(SIZE_BANDS)
    for i in range(FAMILIES):
        k = ks[i % len(ks)]
        fam = _union_closed_family(rng, k)
        out.append(_b_module(f"B{i}", fam, k, rng))
        if k <= FINF_MAX_GENS:
            out.append(_finf_mirror(f"F{i}", fam, k, rng))
    out += [_matrix(f"MB{i}", Flavor.B, rng) for i in range(B_MATRICES)]
    out += [_matrix(f"MF{i}", Flavor.FINF, rng) for i in range(FINF_MATRICES)]
    return out


# ---------------------------------------------------------------------------
# the pipeline; every library call sits in a span named after its layer


def run_module(inp: ModuleInput, tr) -> dict:
    m = inp.build()
    with tr.span("serialize.module_to_json"):
        text = module_to_json(m)
    doc = json.loads(text)
    with tr.span("serialize.module_from_doc"):
        m2 = module_from_doc(doc)
    with tr.span("core.validate_module"):
        report = validate_module(m2)
    with tr.span("core.induced_order"):
        order = induced_order(m2)
    with tr.span("core.irreducible_generators"):
        gens = irreducible_generators(m2)
    with tr.span("core.quotient"):
        cong = generated_congruence(m2, [inp.pair])
        q, cls = quotient_with_projection(m2, cong)
    dist = None
    if m2.flavor is Flavor.B:
        with tr.span("core.is_distributive_lattice"):
            dist = is_distributive_lattice(m2)
    with tr.span("projective.projectivity_certificate"):
        cert = projectivity_certificate(m2)
    with tr.span("homs.enumerate_homs"):
        duals = enumerate_homs(m2, scalar_module(m2.flavor))
    tr.count("homs.enumerate_homs.results", len(duals))
    return {"m": m, "text": text, "m2": m2, "report": report, "order": order,
            "gens": gens, "q": q, "cls": cls, "dist": dist, "cert": cert,
            "duals": len(duals)}


def run_matrix(inp: MatrixInput, tr) -> dict:
    mat = inp.matrix
    with tr.span("matrices.distinct_row_factorization"):
        fact = distinct_row_factorization(mat)
    dual = None
    if mat.flavor is Flavor.B:
        with tr.span("matrices.dual_factorization"):
            dual = dual_factorization(fact.duplicator_hom, fact.split_certificate)
    return {"fact": fact, "dual": dual}


def run_inconclusive(inp: ModuleInput, tr) -> bool:
    """True when a budget-bounded certificate reports inconclusive, as it must."""
    m = inp.build()
    try:
        with tr.span("projective.projectivity_certificate"):
            projectivity_certificate(m, budget=INCONCLUSIVE_BUDGET)
    except BudgetExceededError:
        return True
    return False


def inconclusive_inputs(inputs: list) -> list:
    return [x for x in inputs if isinstance(x, ModuleInput) and x.gens == INCONCLUSIVE_GENS]


# ---------------------------------------------------------------------------
# checks, run outside the timed calls


def section_ok(M: FinModule, F: FinModule, section: tuple[int, ...]) -> bool:
    """The section is a hom M -> F, and the canonical cover undoes it.

    The cover is evaluated independently on each support: the free
    generator ``A_{b+1}`` goes to the b-th irreducible generator of M.
    """
    if not check_hom(Hom(M, F, tuple(section))).ok:
        return False
    gens = irreducible_generators(M)
    for y in range(M.size):
        acc = None
        for b, sign in support_of(F, section[y]):
            v = gens[b] if sign > 0 else M.neg_of(gens[b])
            acc = v if acc is None else M.add_of(acc, v)
        if (M.zero if acc is None else acc) != y:
            return False
    return True


def check_module(inp: ModuleInput, out: dict) -> list[str]:
    bad = []
    m, m2 = out["m"], out["m2"]
    rank = canonical_permutation(m)
    n = m.size
    if module_to_json(m2) != out["text"] or m2.size != n:
        bad.append("round trip changed the document")
    elif any(m2.add_of(rank[a], rank[b]) != rank[m.add_of(a, b)]
             for a in range(n) for b in range(n)):
        bad.append("round trip changed the table")
    elif m.flavor is Flavor.FINF and any(m2.neg_of(rank[a]) != rank[m.neg_of(a)] for a in range(n)):
        bad.append("round trip changed the negation")
    if not out["report"].ok:
        bad.append("generated module fails its axioms")
    if len(out["gens"]) != inp.gens:
        bad.append(f"expected {inp.gens} irreducible generators, got {len(out['gens'])}")
    q, cls = out["q"], out["cls"]
    a, b = inp.pair
    if cls[a] != cls[b] or any(cls[m2.add_of(x, y)] != q.add_of(cls[x], cls[y])
                               for x in range(n) for y in range(n)):
        bad.append("quotient projection is not a hom identifying the pair")
    cert = out["cert"]
    if cert.section is not None and not (
            section_ok(m2, cert.cover.source, cert.section.map)
            and compose(cert.cover, cert.section).is_identity()):
        bad.append("section does not split the cover")
    if cert.projective != (cert.section is not None):
        bad.append("projective verdict without a section")
    if out["dist"] is not None and out["dist"].distributive != cert.projective:
        bad.append("projective differs from distributive")
    return bad


def check_matrix(inp: MatrixInput, out: dict) -> list[str]:
    bad = []
    mat, fact = inp.matrix, out["fact"]
    if mat_mul(fact.duplicator, fact.reduced) != mat:
        bad.append("duplicator . reduced differs from the input")
    for i in range(mat.rows):
        row = fact.duplicator.row(i)
        if sum(row) != 1 or row[fact.row_class[i]] != 1 \
                or fact.reduced.row(fact.row_class[i]) != mat.row(i):
            bad.append(f"row {i} is not duplicated from its class")
            break
    if len(set(fact.reduced.entries[r * mat.cols:(r + 1) * mat.cols]
               for r in range(fact.reduced.rows))) != fact.reduced.rows:
        bad.append("reduced rows repeat")
    dual = out["dual"]
    if dual is not None:
        if matrix_of_hom(dual.dual_map) != fact.duplicator.transpose():
            bad.append("dual map is not the transpose")
        if compose(dual.residual, dual.induced).map != dual.dual_map.map:
            bad.append("residual . induced differs from the dual map")
    return bad


def outcome(inp, out: dict) -> list:
    """What the run computed for one object, compared across traced and untraced passes."""
    if isinstance(inp, MatrixInput):
        fact, dual = out["fact"], out["dual"]
        return [inp.name, fact.reduced.rows, list(fact.row_class),
                None if dual is None else list(dual.set_surjection)]
    cert = out["cert"]
    return [inp.name, out["text"], list(out["order"].masks), list(out["gens"]),
            list(out["cls"]), out["q"].size,
            None if out["dist"] is None else out["dist"].distributive,
            cert.projective, None if cert.section is None else list(cert.section.map),
            out["duals"]]
