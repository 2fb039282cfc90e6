"""The witness lattice families and their canonical morphisms.

D_n is the diamond-chain distributive lattice of size 4n-3 on index pairs
(i,k); joins act componentwise by max.  E_n is its signed mirror of size
8n-7: positives add by componentwise min, negatives mirror, mixed-sign sums
collapse to the absorbing zero.  The corner witnesses D0 and E0 (size 9 and
17) are the same constructions on the corners {1,2}^2 and {3,4}^2 of D_4.

The two cached constructors, :func:`family` and :func:`corner_witness`,
build through one builder, ``_indexed``, which turns an index set into an
:class:`IndexedLattice`.  Its table is built a row at a time at C level: a
B row is the componentwise max of one index pair with all of them, a Finf
row the min, and a result outside the index set (a set not closed under
the flavor's operation) raises ``ModuleStructureError``.  The module is
then validated; ``family`` also refuses, before it is built, a member whose
table would exceed ``DENSE_TABLE_LIMIT`` entries, and asserts the size.
Only this module pairs a flavor with its family letter (D for B, E for
Finf): ``IndexedLattice.name`` and :func:`flavor_of_letter` read ``_LETTERS``.
The section, the corner embedding and its retraction (the lower adjoint)
pass the hom check before returning; the section and the retraction also
check their splitting identities.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .core import (
    DENSE_TABLE_LIMIT,
    FinModule,
    Flavor,
    ModuleStructureError,
    irreducible_generators,
    require_valid,
)
from .free import element_of_support, free_module
from .homs import DEFAULT_BUDGET, Hom, compose, enumerate_homs, extension_hom

Pair = tuple[int, int]


def _corners(k: int) -> tuple[Pair, ...]:
    """The corners {1,2}^2 and then {k-1,k}^2 of the k-th family member,
    each block in lexicographic order."""
    return tuple((a + i, a + j) for a in (0, k - 2) for i in (1, 2) for j in (1, 2))


CORNER_SET: tuple[Pair, ...] = _corners(4)

_LETTERS = {Flavor.B: "D", Flavor.FINF: "E"}


def flavor_of_letter(letter: str) -> Optional[Flavor]:
    """The flavor whose family is written ``letter`` (D for B, E for Finf),
    or None for any other letter."""
    return next((f for f, mark in _LETTERS.items() if mark == letter), None)


@dataclass(frozen=True)
class IndexedLattice:
    """A family member together with its (i,k) labelling.

    ``n`` is the family parameter; the fixed corner witnesses use n=0.
    ``label_ids`` maps an index pair to the id of the positive element.
    ``name`` is the family letter and n: "D4", "E0".
    """

    n: int
    flavor: Flavor
    module: FinModule
    index_pairs: tuple[Pair, ...]
    label_ids: Mapping[Pair, int]

    def label(self, i: int, k: int) -> int:
        return self.label_ids[(i, k)]

    def neg_label(self, i: int, k: int) -> int:
        return self.module.neg_of(self.label_ids[(i, k)])

    @property
    def name(self) -> str:
        return f"{_LETTERS[self.flavor]}{self.n}"


def family_index_pairs(n: int) -> tuple[Pair, ...]:
    """Diagonal, both off-diagonals, and the (i-1,i+1) band, sorted."""
    pairs = {(i, i) for i in range(1, n + 1)}
    pairs |= {(i, i + 1) for i in range(1, n)}
    pairs |= {(i + 1, i) for i in range(1, n)}
    pairs |= {(i - 1, i + 1) for i in range(2, n)}
    return tuple(sorted(pairs))


def _table_rows(pairs: tuple[Pair, ...], op) -> Iterator[list[int]]:
    """Row p of the componentwise ``op`` (max or min) on the index set, one
    at a time: the position (from 1) of ``op(p, q)`` for each q, built at C
    level.

    Row (a, b) zips op(a, -) over the first coordinates with op(b, -) over
    the second; each of these columns depends on one coordinate value, so
    it is computed once per value.  The pairs are sorted, so the first
    coordinates ascend and a first-coordinate column is two slices: with j
    the number of coordinates <= a, max(a, -) is j copies of a and then the
    coordinates from j on, and min(a, -) the coordinates before j and then
    copies of a.  A result outside the index set means the set is not
    closed under ``op``.
    """
    pos = {p: idx + 1 for idx, p in enumerate(pairs)}
    firsts = [a for a, _ in pairs]
    seconds = [b for _, b in pairs]
    n = len(firsts)
    by_first = {}
    for a in set(firsts):
        j = bisect_right(firsts, a)
        by_first[a] = [a] * j + firsts[j:] if op is max else firsts[:j] + [a] * (n - j)
    by_second = {b: list(map(op, repeat(b), seconds)) for b in set(seconds)}
    for a, b in pairs:
        try:
            yield list(map(pos.__getitem__, zip(by_first[a], by_second[b])))
        except KeyError as exc:
            raise ModuleStructureError(
                f"index set not {op.__name__}-closed at {(a, b)}: {exc.args[0]} is missing"
            ) from None


def _join_lattice(pairs: tuple[Pair, ...], label: str) -> FinModule:
    """Flavor B module on a max-closed index set plus a neutral bottom O."""
    size = len(pairs) + 1
    names = ("O",) + tuple(f"{label}_{i}_{k}" for (i, k) in pairs)
    # the bottom row is the identity, and every other row starts with
    # bottom + p = p; rows are made one at a time, so the table is the only
    # copy held
    rows = chain(
        [range(size)], ([ip, *row] for ip, row in enumerate(_table_rows(pairs, max), 1))
    )
    return FinModule(Flavor.B, names, 0, tuple(chain.from_iterable(rows)))


def _signed_lattice(pairs: tuple[Pair, ...], label: str) -> FinModule:
    """Flavor Finf module: signed copies of the index set around an absorbing zero."""
    k = len(pairs)
    size = 2 * k + 1
    names = (
        ("0",)
        + tuple(f"{label}_{i}_{j}" for (i, j) in pairs)
        + tuple(f"-{label}_{i}_{j}" for (i, j) in pairs)
    )
    mins = list(_table_rows(pairs, min))
    # 0 absorbs and mixed signs sum to 0; the negatives mirror the positives
    zeros = [0] * k
    rows = chain(
        [[0] * size],
        ([0, *row, *zeros] for row in mins),
        ([0, *zeros, *map(k.__add__, row)] for row in mins),
    )
    neg = [0] + [ip + k for ip in range(1, k + 1)] + [ip for ip in range(1, k + 1)]
    return FinModule(
        Flavor.FINF, names, 0, tuple(chain.from_iterable(rows)), neg_table=tuple(neg)
    )


def _indexed(flavor: Flavor, n: int, pairs: tuple[Pair, ...], label: str) -> IndexedLattice:
    """The module of ``flavor`` on the index set ``pairs``, its elements
    named ``label_i_k``, validated and labelled by index pair."""
    module = (_join_lattice if flavor is Flavor.B else _signed_lattice)(pairs, label)
    require_valid(module, "family module")
    labels = {p: idx + 1 for idx, p in enumerate(pairs)}
    return IndexedLattice(n, flavor, module, pairs, MappingProxyType(labels))


@lru_cache(maxsize=None)
def family(flavor: Flavor, n: int) -> IndexedLattice:
    """The n-th member of the family of ``flavor``: the size 4n-3
    distributive lattice D_n for B (2 <= n <= 724), the size 8n-7 signed
    mirror E_n for Finf (2 <= n <= 362).  A member whose table would exceed
    ``DENSE_TABLE_LIMIT`` entries is refused before its index pairs are
    listed."""
    letter = _LETTERS[flavor]
    if n < 2:
        raise ValueError(f"{letter}_n needs n >= 2")
    size = 4 * n - 3 if flavor is Flavor.B else 8 * n - 7
    if size * size > DENSE_TABLE_LIMIT:
        raise ModuleStructureError(f"{letter}_{n} has {size} elements, too many for a dense table")
    lat = _indexed(flavor, n, family_index_pairs(n), "a")
    if lat.module.size != size:
        raise ModuleStructureError(f"{letter}_{n} has {lat.module.size} elements, expected {size}")
    return lat


@lru_cache(maxsize=None)
def corner_witness(flavor: Flavor) -> IndexedLattice:
    """The corner witness of ``flavor``: the 9-element stacked diamonds D0
    for B, the 17-element signed corners E0 for Finf."""
    return _indexed(flavor, 0, CORNER_SET, "A")


# ---------------------------------------------------------------------------
# canonical sections


def _checked(f: Hom, what: str) -> Hom:
    """f, once its hom check passes; ModuleStructureError naming the failed
    identity and its witness otherwise."""
    chk = f.check
    if not chk.ok:
        raise ModuleStructureError(f"{what} is not a hom: {chk.kind} at {chk.witness}")
    return f


def canonical_section(n: int, flavor: Flavor) -> tuple[Hom, Hom]:
    """The splitting pair (g, h): g from the rank 2n-1 free module onto the
    family, h the section with g∘h = id.  g is the extension of its
    generator images, a hom by construction (:func:`extension_hom`); h is
    checked to be a hom, and g∘h = id element-wise.

    g sends A_j to the j-th irreducible g_j, in the order of the key
    (max(i,k), i) of the index pair (i,k) for flavor B, from the bottom of
    the chain up, and (-min(i,k), i) for flavor Finf, from its top down.
    h sends each positive element e to the sum of the A_j with g_j <= e in
    the induced order (and -e to its negation)."""
    if n < 2:
        raise ValueError("canonical sections need n >= 2")
    lat = family(flavor, n)
    mod = lat.module
    pair_of = {e: p for p, e in lat.label_ids.items()}

    def key(e: int) -> Pair:
        i, k = pair_of[e]
        return (max(i, k) if flavor is Flavor.B else -min(i, k), i)

    gen_ids = sorted(irreducible_generators(mod), key=key)
    F = free_module(flavor, 2 * n - 1)
    g = extension_hom(F, mod, gen_ids)
    if not g.surjective:
        raise ModuleStructureError("canonical surjection misses elements")

    leq = mod.leq
    hmap = [F.zero] * mod.size
    for p in lat.index_pairs:
        e = lat.label(*p)
        bits = [(j, 1) for j, gid in enumerate(gen_ids) if leq(gid, e)]
        hmap[e] = element_of_support(F, bits)
        if flavor is Flavor.FINF:
            hmap[mod.neg_of(e)] = F.neg_of(hmap[e])
    h = _checked(Hom(mod, F, tuple(hmap)), "section")
    if not compose(g, h).is_identity():
        raise ModuleStructureError("g∘h is not the identity")
    return g, h


# ---------------------------------------------------------------------------
# corner embeddings, retractions, rigidity


def corner_embedding(n: int, flavor: Flavor) -> Hom:
    """The embedding of the corner witness into the n-th family member that
    sends the corners of D_4 (or E_4) to the corners of the member."""
    if n <= 3:
        raise ValueError("corner embeddings need n > 3")
    src = corner_witness(flavor)
    dst = family(flavor, n)
    emap = [0] * src.module.size
    for p, q in zip(CORNER_SET, _corners(n)):
        emap[src.label(*p)] = dst.label(*q)
        if flavor is Flavor.FINF:
            emap[src.neg_label(*p)] = dst.neg_label(*q)
    emb = _checked(Hom(src.module, dst.module, tuple(emap)), "corner embedding")
    if not emb.injective:
        raise ModuleStructureError("corner embedding is not injective")
    return emb


def corner_retraction(n: int, flavor: Flavor) -> Hom:
    """The retraction r of the corner embedding e, computed as the lower
    adjoint of e: r(y) is the least c in the corner witness with y <= e(c)
    in the induced order.

    Lemma: let e be an injective hom between valid modules such that every
    U(y) = {c : y <= e(c)} has a least element r(y).  Then r is a hom and
    r∘e = id.  Proof: homs are monotone, and an injective hom reflects the
    order (e(c) <= e(d) gives e(c + d) = e(d), so c + d = d).  So
    r(e(c)) = c, and r(y) <= c holds exactly when y <= e(c) (a Galois
    connection).  As + is the join of the induced order, y + y' <= e(c)
    iff y <= e(c) and y' <= e(c), iff r(y) + r(y') <= c, so r(y + y') and
    r(y) + r(y') are the least element of the same set.  r(0) = 0 in both
    flavors: in B, 0 is the bottom; in Finf, 0 is the top, so
    U(0) = {0} by injectivity.  In Finf, negation is an order automorphism,
    so U(-y) = -U(y) and r(-y) = -r(y).

    A y whose U(y) has no least element raises ModuleStructureError; the
    map is still checked to be a hom with r∘e = id before returning.
    """
    emb = corner_embedding(n, flavor)
    src, dst = emb.target, emb.source
    rmap = []
    for y in range(src.size):
        above = [c for c, ec in enumerate(emb.map) if src.leq(y, ec)]
        least = [c for c in above if all(dst.leq(c, d) for d in above)]
        if not least:
            raise ModuleStructureError(f"no least corner lies above {src.name(y)}")
        rmap.append(least[0])
    ret = _checked(Hom(src, dst, tuple(rmap)), "corner retraction")
    if not compose(ret, emb).is_identity():
        raise ModuleStructureError("retraction ∘ embedding is not the identity")
    return ret


def rigidity_check(
    n: int, m: int, flavor: Flavor, *, budget: int = DEFAULT_BUDGET
) -> list[Hom]:
    """All injective homs between family members n and m that send each
    corner of member n to the matching corner of member m.

    Exhaustive search; the expected outcome is exactly the identity for
    n = m and nothing otherwise.  For n or m below 4 the corner blocks
    overlap, and pins that send one element to two give no morphism.
    """
    if n < 2 or m < 2:
        raise ValueError("rigidity checks need parameters >= 2")
    src, dst = family(flavor, n), family(flavor, m)
    pins: dict[int, tuple[int]] = {}
    for p, q in zip(_corners(n), _corners(m)):
        s, t = src.label(*p), dst.label(*q)
        if pins.setdefault(s, (t,)) != (t,):
            return []
    return enumerate_homs(src.module, dst.module, injective=True, allowed=pins, budget=budget)
