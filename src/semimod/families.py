"""The witness lattice families and their canonical morphisms.

D_n is the diamond-chain distributive lattice of size 4n-3 on index pairs
(i,k); joins act componentwise by max.  E_n is its signed mirror of size
8n-7: positives add by componentwise min, negatives mirror, mixed-sign sums
collapse to the absorbing zero.  The corner witnesses D0 and E0 (size 9 and
17) are the same constructions on the corners {1,2}^2 and {3,4}^2 of D_4.

The two cached constructors, :func:`family` and :func:`corner_witness`,
build through one builder, ``_indexed``, which turns an index set into an
:class:`IndexedLattice`.  Its module is a :class:`semimod.free.KeyedModule`,
as a free module is: in flavor B each index pair gets a key of unary codes
of its two coordinates, whose union is the key of the componentwise max,
so no table is built and no axiom scan runs.  A Finf member is the signed
double (:func:`semimod.free.signed_double`) of the B module on the
reflected coordinates t ↦ w - t, which turn max into min, and keeps that
B module as ``module.half``; ``_indexed`` proves that the keys give the
construction above.
``family`` refuses, before it is built, a member whose dense table (as the
axiom scan and serialization build it) would exceed ``DENSE_TABLE_LIMIT``
entries.
Only this module pairs a flavor with its family letter (D for B, E for
Finf): ``IndexedLattice.name`` and :func:`flavor_of_letter` read ``_LETTERS``.
The corner embedding and its retraction are built on the B halves, the
retraction by the closed formula of :func:`semimod.homs.retraction`, and
lifted to the doubles in Finf by :func:`semimod.homs.signed_lift`; the
Finf rigidity check searches the halves and lifts what it finds the same
way.  The section, the corner embedding and its retraction pass the hom
check before returning (in Finf, on the halves); the section and the
retraction also check their splitting identities.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .core import (
    DENSE_TABLE_LIMIT,
    FinModule,
    Flavor,
    ModuleStructureError,
    irreducible_generators,
)
from .free import KeyedModule, element_of_support, free_module, signed_double
from .homs import (
    DEFAULT_BUDGET,
    Hom,
    compose,
    enumerate_homs,
    extension_hom,
    retraction,
    signed_lift,
)

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


def _indexed(flavor: Flavor, n: int, pairs: tuple[Pair, ...], label: str) -> IndexedLattice:
    """The module of ``flavor`` on the index set ``pairs``, its elements
    named ``label_i_k``, as a :class:`KeyedModule`, labelled by index pair.

    Flavor B: a bottom O and the pairs, added by componentwise max, which
    is a semilattice operation on a closed set, with O neutral.  Flavor
    Finf: the signed double (:class:`semimod.free.SignedDouble`, which
    proves it valid) of the B module on the reflected coordinates
    t ↦ w - t; the reflection reverses the order of coordinates, so the max
    of reflected pairs is the reflection of the min, and the positives add
    by componentwise min.  The double's ids and names put the positives
    first and their negations after, in the order of ``pairs``.

    Keys.  With w = 1 + the largest coordinate and u(t) = 2^t - 1, pair
    (i, k) of the B module has key u(i) | u(k) << w (both coordinates lie
    in [1, w - 1], reflected or not).  The keys are nonzero and distinct,
    and u(s) | u(t) = u(max(s, t)), so the union of the keys of p and q is
    the key of their max.  So KeyedModule adds as above, and a <= b,
    a + b = b, is key inclusion.

    Closure.  The family set (:func:`family_index_pairs`) is the band
    -1 <= k - i <= 2 in [1, n]^2: for (a, b), (c, d) in it with a >= c,
    -1 <= b - a <= max(b, d) - a <= d - c <= 2 when d > b, and likewise
    for the min.  The corner set is the square {1,2}^2 below {3,4}^2.
    """
    w = 1 + max(map(max, pairs))
    coords = pairs if flavor is Flavor.B else [(w - i, w - k) for i, k in pairs]
    unary = [(1 << t) - 1 for t in range(w)]
    keys = [0] + [unary[i] | unary[k] << w for i, k in coords]
    half = KeyedModule(Flavor.B, keys, names=("O", *(f"{label}_{i}_{k}" for i, k in pairs)))
    module = half if flavor is Flavor.B else signed_double(half)
    labels = {p: idx + 1 for idx, p in enumerate(pairs)}
    return IndexedLattice(n, flavor, module, pairs, MappingProxyType(labels))


@lru_cache(maxsize=None)
def family(flavor: Flavor, n: int) -> IndexedLattice:
    """The n-th member of the family of ``flavor``: the size 4n-3
    distributive lattice D_n for B (2 <= n <= 724), the size 8n-7 signed
    mirror E_n for Finf (2 <= n <= 362).  A member whose dense table would
    exceed ``DENSE_TABLE_LIMIT`` entries is refused before its index pairs
    are listed."""
    letter = _LETTERS[flavor]
    if n < 2:
        raise ValueError(f"{letter}_n needs n >= 2")
    size = 4 * n - 3 if flavor is Flavor.B else 8 * n - 7
    if size * size > DENSE_TABLE_LIMIT:
        raise ModuleStructureError(f"{letter}_{n} has {size} elements, too many for a dense table")
    return _indexed(flavor, n, family_index_pairs(n), "a")


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
    sends the corners of D_4 (or E_4) to the corners of the member.  In
    Finf it is the lift Σ(e): x^± ↦ e(x)^± (:func:`semimod.homs.signed_lift`)
    of the embedding e of the halves, which is checked to be an injective
    hom on the halves."""
    if n <= 3:
        raise ValueError("corner embeddings need n > 3")
    src, dst = corner_witness(flavor), family(flavor, n)
    S, T = src.module, dst.module
    if flavor is Flavor.FINF:
        S, T = S.half, T.half
    emap = [0] * (1 + len(CORNER_SET))
    for p, q in zip(CORNER_SET, _corners(n)):
        emap[src.label(*p)] = dst.label(*q)
    emb = _checked(Hom(S, T, tuple(emap)), "corner embedding")
    if not emb.injective:
        raise ModuleStructureError("corner embedding is not injective")
    return emb if flavor is Flavor.B else signed_lift(emb, src.module, dst.module)


def corner_retraction(n: int, flavor: Flavor) -> Hom:
    """The retraction of the corner embedding: in flavor B
    :func:`semimod.homs.retraction` of it, whose docstring proves it; in
    Finf the lift Σ(r): x^± ↦ r(x)^± (:func:`semimod.homs.signed_lift`) of
    the retraction r of the embedding e of the halves (the half of E0 is a
    copy of D0 by reflection, so distributive).

    ``retraction`` checks on the halves that r is a hom with r∘e = id.
    When r sends only the zero to the zero, Σ(r) is a hom
    (:class:`semimod.free.SignedDouble`) and Σ(r)∘Σ(e) = Σ(r∘e) = id; a
    nonzero y that r sends to the zero raises ModuleStructureError.
    """
    emb = corner_embedding(n, flavor)
    if flavor is Flavor.B:
        return retraction(emb)
    src, dst = emb.source, emb.target
    r = retraction(Hom(src.half, dst.half, emb.map[: src.half.size]))
    if 0 in r.map[1:]:  # the first nonzero y that r sends to the zero
        raise ModuleStructureError(f"{dst.name(r.map.index(0, 1))} retracts to the zero")
    return signed_lift(r, dst, src)


def rigidity_check(
    n: int, m: int, flavor: Flavor, *, budget: int = DEFAULT_BUDGET
) -> list[Hom]:
    """All injective homs between family members n and m that send each
    corner of member n to the matching corner of member m.

    Exhaustive search; the expected outcome is exactly the identity for
    n = m and nothing otherwise.  For n or m below 4 the corner blocks
    overlap, and pins that send one element to two give no morphism.

    In Finf the search runs on the halves, with the same pins (a double's
    positive ids are its half's ids), and each result q is lifted to Σ(q)
    (:func:`semimod.homs.signed_lift`); the budget bounds the half search.
    By the lemma of :class:`semimod.free.SignedDouble` the injective homs
    between the doubles are the ±Σ(q) for q injective between the halves.
    The pins are positive, which -Σ(q) sends to negatives, so the pinned
    ones are exactly the Σ(q) with q pinned, in the same sorted order.
    """
    if n < 2 or m < 2:
        raise ValueError("rigidity checks need parameters >= 2")
    src, dst = family(flavor, n), family(flavor, m)
    pins: dict[int, tuple[int]] = {}
    for p, q in zip(_corners(n), _corners(m)):
        s, t = src.label(*p), dst.label(*q)
        if pins.setdefault(s, (t,)) != (t,):
            return []
    S, T = src.module, dst.module
    if flavor is Flavor.B:
        return enumerate_homs(S, T, injective=True, allowed=pins, budget=budget)
    found = enumerate_homs(S.half, T.half, injective=True, allowed=pins, budget=budget)
    return [signed_lift(q, S, T) for q in found]
