"""Keyed modules: the free modules on finite generator sets, and signed
doubles.

Flavor B: elements are the subsets of the generators, addition is union,
zero is the empty set (2^k elements).  Flavor Finf: elements are the sign
assignments on nonempty generator subsets plus a zero; addition unions
supports, collapsing the whole sum to zero on any sign conflict or zero
summand; negation flips every sign (3^k elements).

A keyed module (:class:`KeyedModule`) computes its addition, negation and
order from one integer key per element and never builds a table, so it
takes O(|M|) memory instead of O(|M|^2): a sum is the union of keys, or
the zero on a sign conflict, and its keys are the order keys of its
:class:`semimod.core.PartialOrder`, whose |M|^2 order masks are built only
if read.  A free module's order (:class:`FreeOrder`) gives the sizes of
down- and up-sets in closed form, so an injective search with a free
endpoint builds no masks.  The free modules (:class:`FreeModule`), the
family members (``semimod.families``) and the signed double Σ(L) of a B
keyed module L (:func:`signed_double`: a zero and x⁺, x⁻ for each nonzero
x of L, same signs adding as in L) are keyed modules.  A signed double
keeps L as ``half``, and its docstring proves that its injective homs are
the lifts ±Σ(q) of those of the halves.  A free
module's key is ``pos | neg << rank``, where ``pos`` and ``neg`` are the
bitmasks of the generators with sign + and - (``neg`` empty for flavor
B); the matrix layer reads a column as the key of its signed support.
Each nonzero element is an earlier element plus one signed generator, in
the walk that lists the elements generator by generator
(:func:`_along_walk`; ``FreeModule.walk`` holds each element's place in
it).  The extension of a generator assignment is folded along that walk:
one target operation per element, in one C-level ``map`` per generator and
sign, so a free cover is never walked as a generic module
(``FinModule.basis``, which a hom search out of a free module still
reads).  The keys, walk positions and negations are laid out the same way,
a block of elements per support at a time.  Element names are built on
first read only (``FreeModule.names``), along the same walk: a caller that
prints element ids, as ``projective`` does, never builds the |F| strings,
while ``construct``, serialization and name lookups build them once per
free module.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import repeat
from operator import add, or_
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import (
    CARRIER_CAP,
    FinModule,
    Flavor,
    FlavorMismatchError,
    ModuleStructureError,
    PartialOrder,
    _cached,
    _check_carrier,
)


def _layout(flavor: Flavor, rank: int) -> tuple[list[int], list[int], Optional[list[int]]]:
    """The keys ``pos | neg << rank`` of all elements in canonical order
    (zero, then by size, support and signs), each one's walk position
    (:func:`_along_walk`), and (flavor Finf) the id of each negation.

    A support's keys form a block, ordered by negative part.  With t the top
    generator of the support and R the block of the support less t (the
    zero's block for a single generator), the block is R plus +g_t, then R
    plus -g_t, since the negative parts without t come first; the walk
    positions follow the same rule (+3^t, +2·3^t).  Negation complements
    the negative part within the support, which reverses each block.  In
    flavor B a support is one element, whose key is its walk position.
    """
    # a stable sort of the ascending supports by size alone orders them by (size, support)
    supports = sorted(range(1, 1 << rank), key=int.bit_count)
    if flavor is Flavor.B:
        keys = [0, *supports]
        return keys, keys, None
    keys, walk, negs = [0], [0], [0]
    first = {0: 0}  # the id of the first element of each support's block
    for supp in supports:
        top = supp.bit_length() - 1
        start = first[supp ^ 1 << top]  # R, the block of the support less t
        half = 1 << supp.bit_count() - 1  # the size of R
        at = first[supp] = len(keys)
        rest_keys, rest_walk = keys[start : start + half], walk[start : start + half]
        for key_step, walk_step in ((1 << top, 3**top), (1 << top + rank, 2 * 3**top)):
            keys += map(add, rest_keys, repeat(key_step))
            walk += map(add, rest_walk, repeat(walk_step))
        negs += range(at + 2 * half - 1, at - 1, -1)
    return keys, walk, negs


def _along_walk(
    m: "FreeModule", zero: Any, join: Callable[[Any, Any], Any], signed: Sequence[Sequence[tuple]]
) -> tuple:
    """Values by element id of the v with v(0) = ``zero``, v(±g_t) = alone
    and v(e ± g_t) = ``join(v(e), term)`` for each nonzero e spanned by the
    generators before t; ``signed[t]`` holds the (alone, term) pair of +g_t
    and (flavor Finf) of -g_t.

    The walk lists the zero and then, per generator t and sign, the signed
    generator alone and every earlier nonzero element plus it: the element
    at walk position p has sign digit t of p in base 2 (B) or 3 (Finf), 0
    absent, 1 plus, 2 minus.  So the values take one C-level ``map`` per
    generator and sign, read back into id order through ``m.walk``.
    """
    vals = [zero]
    for pairs in signed:
        earlier = vals[1:]
        for alone, term in pairs:
            vals.append(alone)
            vals += map(join, earlier, repeat(term))
    return tuple(map(vals.__getitem__, m.walk))


def _key_neg(key: int, rank: int) -> int:
    """The key of -e from the key of e: its two halves swapped."""
    return key >> rank | (key & ((1 << rank) - 1)) << rank


def _key_sum(flavor: Flavor, rank: int, keys: Iterable[int]) -> int:
    """The key of the sum of the elements with these keys, zero for none.

    Flavor B: the union.  Flavor Finf: zero on a zero summand or a sign
    conflict, else the union."""
    out = 0
    if flavor is Flavor.B:
        for key in keys:
            out |= key
        return out
    for key in keys:
        if not key or out & _key_neg(key, rank):
            return 0
        out |= key
    return out


def _names(m: "FreeModule") -> tuple[str, ...]:
    """Element names such as ``A1+A3`` and ``-A1-A2+A4``: the signed
    generators of the support in index order, each name that of an earlier
    element followed by one term (:func:`_along_walk`)."""
    signed = []
    for b in range(m.free_rank):
        gen = f"{m.letter}{b + 1}"
        pairs = ((gen, "+" + gen), ("-" + gen, "-" + gen))
        signed.append(pairs if m.flavor is Flavor.FINF else pairs[:1])
    return _along_walk(m, "0", add, signed)


class KeyedModule(FinModule):
    """A module computed from element keys: element i has key ``keys[i]``,
    the zero has id 0 and key 0, and ``negs[i]`` is the id of -i (Finf).

    a + b is the element keyed by ``keys[a] | keys[b]``; in flavor Finf it
    is the zero when a summand is the zero or when ``keys[a]`` meets the key
    of -b.  The order keys are the keys, except that the Finf zero's has
    every key bit, and a <= b is their inclusion, the module's
    :class:`semimod.core.PartialOrder`.  ``add_of`` and ``neg_of`` cost a
    few integer operations each.  No axiom scan runs: the builder proves
    that its keys make a valid module ordered by inclusion
    (:class:`FreeModule`, :class:`SignedDouble`,
    ``semimod.families._indexed``); :func:`semimod.core.validate_module`
    still scans one on request.  A carrier above ``CARRIER_CAP`` elements
    is refused, as a tabled one is, before its key index is built.  Two
    keyed modules are equal when they have the same class, flavor, keys,
    negations and names, compared in that order, so unequal free modules
    build no names; the hash skips the names.  A keyed module built without
    ``names`` names its elements on first read, as a free module does: the
    zero ``0`` and every other element ``k`` and its key in binary.
    """

    def __init__(
        self, flavor: Flavor, keys: Sequence[int], negs: Optional[Sequence[int]] = None,
        names: Optional[Sequence[str]] = None,
    ):
        keys = tuple(keys)
        _check_carrier(len(keys))
        id_of_key = dict(zip(keys, range(len(keys))))
        if flavor is Flavor.B:

            def add(a: int, b: int) -> int:
                return id_of_key[keys[a] | keys[b]]

            top = 0
        else:
            negs = tuple(negs)  # type: ignore[arg-type]

            def add(a: int, b: int) -> int:
                if a == 0 or b == 0 or keys[a] & keys[negs[b]]:
                    return 0  # zero summand or sign conflict
                return id_of_key[keys[a] | keys[b]]

            object.__setattr__(self, "neg_of", negs.__getitem__)
            top = reduce(or_, keys, 0)  # so the zero lies below no other element
        if names is not None:
            object.__setattr__(self, "names", tuple(names))
        for name, value in (
            ("flavor", flavor),
            ("zero", 0),
            ("add_table", None),
            ("neg_table", None),
            ("size", len(keys)),
            ("keys", keys),
            ("_identity", (type(self), flavor, keys, negs)),
            ("id_of_key", id_of_key),
            ("order_keys", (top,) + keys[1:]),
            ("add_of", add),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        # keys before names: unequal free modules build no names
        same = isinstance(other, KeyedModule) and self._identity == other._identity
        return same and self.names == other.names

    def __hash__(self) -> int:
        return hash(self._identity)

    @_cached
    def names(self) -> tuple[str, ...]:
        return ("0", *(f"k{key:b}" for key in self.keys[1:]))


class FreeModule(KeyedModule):
    """The free module on ``rank`` generators, keyed by signed supports
    ``pos | neg << rank``; -e swaps the halves.  The rules of KeyedModule
    are the free module's: supports unite, a Finf sum with a generator of
    both signs is the zero, and the order is support inclusion with signs.
    ``walk[i]`` is i's position in the walk of :func:`_along_walk`.
    ``names`` are built on first read, from ``letter`` and the index.
    """

    letter = "A"

    def __init__(self, flavor: Flavor, rank: int):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        size = (2 if flavor is Flavor.B else 3) ** rank
        if size > CARRIER_CAP:
            raise ModuleStructureError(
                f"free module of rank {rank} has {size} elements, above the cap of {CARRIER_CAP}"
            )
        keys, walk, negs = _layout(flavor, rank)
        super().__init__(flavor, keys, negs)
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "walk", self.keys if flavor is Flavor.B else tuple(walk))
        object.__setattr__(
            self, "generators", tuple(self.id_of_key[1 << b] for b in range(rank))
        )

    @_cached
    def order(self) -> "FreeOrder":
        return FreeOrder(self.order_keys, self.flavor, self.free_rank)

    @_cached
    def names(self) -> tuple[str, ...]:
        return _names(self)


class SignedDouble(KeyedModule):
    """The signed double Σ(L) of a flavor-B keyed module L (``half``).

    Σ(L) has a zero and, for each nonzero x of L, elements x⁺ and x⁻.  Same
    signs add as in L: x⁺ + y⁺ = (x + y)⁺ and x⁻ + y⁻ = (x + y)⁻.  Mixed
    signs, and any sum with the zero, give the zero; -x⁺ = x⁻.  With c the
    number of nonzero elements of L, x⁺ has id x and x⁻ has id x + c, so
    the ids 0..c are L's own, and the names are L's, with ``-`` for x⁻.

    Σ(L) is a valid Finf module.  A sum of nonzero elements of L is nonzero
    (x <= x + y, and only 0 lies below 0), so each sign class is closed
    under + and is a copy of L less its zero, commutative, associative and
    idempotent as L is.  A sum of three is the zero in either bracketing
    when one summand is the zero or two have mixed signs, and else the sum
    in L with the common sign.  Negation swaps the signs: it is an
    involution, -(a + b) = -a + -b in the same-sign case by symmetry and
    in the other cases because both sides are the zero, and x⁺ + x⁻ = 0.

    Keys.  Let s = 2^b be a bit above every key of L (b the bit length of
    the largest).  x⁺ has key key(x) | s, and x⁻ has that key shifted left
    by b + 1, past s, so positives and negatives use disjoint bits, every
    key is nonzero and the keys are distinct.  In L, key union is the sum,
    so the union of the keys of x⁺ and y⁺ is the key of (x + y)⁺, and
    likewise for x⁻ and y⁻.  The key of x^± meets that of -y^∓ = y^± (both
    hold s, or s shifted) and never that of -y^± = y^∓.  So KeyedModule's
    rule adds as above, and orders by key inclusion: x^± <= y^± exactly
    when x <= y in L, and no two elements of opposite signs compare.

    A hom q: L -> L' that sends only the zero to the zero, as an injective
    one does, lifts to Σ(q): x^± ↦ q(x)^± (:meth:`lift` gives its map, and
    :func:`semimod.homs.signed_lift` the hom, ±Σ(q)).  Σ(q) is a hom:
    it preserves same-sign sums because q does, sends a mixed-sign or zero
    sum to the zero, as the images are mixed or zero too, and commutes with
    negation.

    Lemma.  Hom_inj(ΣL, ΣL') = {Σ(q), -Σ(q) : q ∈ Hom_inj(L, L')}, and for
    L nonzero these maps are distinct, so there are 2·|Hom_inj(L, L')|.
    Proof.  Σ(q) is an injective hom as q is, and so is -Σ(q), negation
    being an automorphism.  Conversely let f be an injective hom.  As
    f(0) = 0, every x^± goes to a nonzero element, which has a sign.  If
    x⁺ and y⁺ went to opposite signs, then f((x + y)⁺) = f(x⁺) + f(y⁺) = 0
    = f(0), though (x + y)⁺ is not the zero.  So f sends all positives to
    one sign; replacing f by -f, to positives: f(x⁺) = q(x)⁺ for a map q
    with q(0) = 0.  q(x + y)⁺ = f(x⁺ + y⁺) = (q(x) + q(y))⁺ makes q a hom,
    injective as f is, and f(x⁻) = f(-x⁺) = -f(x⁺) = q(x)⁻, so f = Σ(q).
    Σ(q) and -Σ(q') differ in the sign of each image, and Σ(q) = Σ(q')
    gives q = q' on the ids 0..c.

    Corollary.  For an injective hom f: X -> Y', Σ(f) = g∘h for injective
    homs h: ΣX -> ΣY and g: ΣY -> ΣY' exactly when f = q∘p for injective
    homs p: X -> Y and q: Y -> Y'.  Proof.  Σ(q∘p) = Σ(q)∘Σ(p).
    Conversely, by the lemma h = ±Σ(p) and g = ±Σ(q), so Σ(f) = ±Σ(q∘p),
    as Σ(q) commutes with negation.  For X nonzero, Σ(f) sends x⁺ to a
    positive, so the sign is + and f = q∘p on the ids 0..c; for X = 0 both
    sides factor.  So a witness in the injection class holds on the doubles
    exactly when it holds on the halves, at every depth.
    """

    def __init__(self, half: KeyedModule):
        _check_carrier(2 * half.size - 1)  # before the names of ``half`` are read
        c, b = half.size - 1, max(half.keys).bit_length()
        pos, names = [key | 1 << b for key in half.keys[1:]], half.names[1:]
        keys = [0, *pos, *(key << b + 1 for key in pos)]
        negs = [0, *range(c + 1, 2 * c + 1), *range(1, c + 1)]
        super().__init__(Flavor.FINF, keys, negs, ("0", *names, *("-" + nm for nm in names)))
        object.__setattr__(self, "half", half)

    def lift(self, values: Sequence[int]) -> tuple[int, ...]:
        """The map Σ(q) into this double, by element id, from the values
        q(0), .., q(c) in ``half`` of a map q that sends only the zero to
        the zero."""
        return (0, *values[1:], *(v + self.size // 2 for v in values[1:]))


def signed_double(half: FinModule) -> SignedDouble:
    """The signed double Σ(half) of a flavor-B keyed module, such as a
    family member or a free module (:class:`SignedDouble`)."""
    if half.flavor is not Flavor.B or not isinstance(half, KeyedModule):
        raise FlavorMismatchError("a signed double is built from a flavor B keyed module")
    return SignedDouble(half)


class FreeOrder(PartialOrder):
    """The induced order of a free module, whose ``counts`` have a closed
    form and read no masks."""

    def __init__(self, order_keys: tuple[int, ...], flavor: Flavor, rank: int):
        super().__init__(order_keys)
        self.flavor, self.rank = flavor, rank

    @_cached
    def counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """|down(x)| and |up(x)| from the support size s of x (its key's
        popcount) and the rank k.  Flavor B: 2^s and 2^(k-s), the subsets
        and supersets of the support.  Flavor Finf, x nonzero: 2^s - 1 and
        3^(k-s) + 1, the nonempty sub-supports with x's signs, and the signed
        extensions of x plus the zero on top; the zero: 3^k and 1."""
        k = self.rank
        sizes = [key.bit_count() for key in self.order_keys]
        if self.flavor is Flavor.B:
            return tuple(1 << s for s in sizes), tuple(1 << (k - s) for s in sizes)
        down = [3**k] + [(1 << s) - 1 for s in sizes[1:]]
        up = [1] + [3 ** (k - s) + 1 for s in sizes[1:]]
        return tuple(down), tuple(up)


@lru_cache(maxsize=None)
def free_module(flavor: Flavor, rank: int) -> FreeModule:
    """The free module on ``rank`` generators; generator i has id ``generator_ids()[i]``."""
    return FreeModule(flavor, rank)


def _free(m: FinModule) -> FreeModule:
    if not isinstance(m, FreeModule):
        raise FlavorMismatchError("module is not a free module built by free_module()")
    return m


def generator_ids(m: FinModule) -> tuple[int, ...]:
    """Ids of the free generators A_1 .. A_k."""
    return _free(m).generators


def support_of(m: FinModule, e: int) -> tuple[tuple[int, int], ...]:
    """Signed support of element ``e`` as (generator index, sign) pairs."""
    rank = _free(m).free_rank
    key = m.keys[e]
    pos, neg = key & ((1 << rank) - 1), key >> rank
    out = []
    for b in range(max(pos, neg).bit_length()):
        if (pos >> b) & 1:
            out.append((b, 1))
        elif (neg >> b) & 1:
            out.append((b, -1))
    return tuple(out)


def element_of_support(m: FinModule, items: Sequence[tuple[int, int]]) -> int:
    """Element id for a signed support, a list of (generator index, sign)
    pairs with sign 1 or -1; conflicting or empty input gives zero."""
    rank = _free(m).free_rank
    pos = neg = 0
    for b, sign in items:
        if not (0 <= b < rank and sign in (1, -1)):
            raise ModuleStructureError(f"support item ({b}, {sign}) is out of range")
        if sign > 0:
            pos |= 1 << b
        else:
            neg |= 1 << b
    if m.flavor is Flavor.B and neg:
        raise FlavorMismatchError("flavor B free module has no negative supports")
    if pos & neg:
        return 0
    return m.id_of_key[pos | neg << rank]


def extend_from_generators(
    free: FinModule, target: FinModule, images: Sequence[int]
) -> tuple[int, ...]:
    """Full map table of the unique hom extending a generator assignment.

    This is the universal property of the free module: zero goes to zero,
    generator i to ``images[i]``, and every other element, an earlier
    element plus one signed generator in the walk of the free module, to
    the target-side sum of the earlier element's value and that generator's
    signed image (:func:`_along_walk`): one target operation per element,
    in one C-level ``map`` per generator and sign.  The free module is
    never walked as a generic module (``FinModule.basis``).
    """
    if free.flavor is not target.flavor:
        raise FlavorMismatchError("free source and target must share a flavor")
    rank = free.free_rank
    if rank is None:
        raise FlavorMismatchError("source is not a free module")
    if len(images) != rank:
        raise ValueError(f"expected {rank} generator images, got {len(images)}")
    finf = free.flavor is Flavor.FINF
    signed = [((v, v), (target.neg_of(v),) * 2) if finf else ((v, v),) for v in images]
    return _along_walk(free, target.zero, target.add_of, signed)
