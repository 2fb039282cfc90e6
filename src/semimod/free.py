"""Free modules on finite generator sets.

Flavor B: elements are the subsets of the generators, addition is union,
zero is the empty set (2^k elements).  Flavor Finf: elements are the sign
assignments on nonempty generator subsets plus a zero; addition unions
supports, collapsing the whole sum to zero on any sign conflict or zero
summand; negation flips every sign (3^k elements).

An element is encoded by one integer, its key ``pos | neg << rank``, where
``pos`` and ``neg`` are the bitmasks of the generators with sign + and -
(``neg`` empty for flavor B).  A free module (:class:`FreeModule`)
computes its addition, negation and order from these keys and never builds
a table, so it takes O(|F|) memory instead of O(|F|^2); the matrix layer
reads a column as the key of its signed support.  Each nonzero element is
an earlier element plus one signed generator, in the walk that lists the
elements generator by generator (:func:`_along_walk`; ``FreeModule.walk``
holds each element's place in it).  The extension of a generator
assignment is folded along that walk: one target operation per element, in
one C-level ``map`` per generator and sign, so a free cover is never
walked as a generic module (``FinModule.basis``, which a hom search out of
a free module still reads).  The keys, walk positions and negations are
laid out the same way, a block of elements per support at a time.  Element
names are built on first read only (``FreeModule.names``), along the same
walk: a caller that prints element ids, as ``projective`` does, never
builds the |F| strings, while ``construct``, serialization and name
lookups build them once per free module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import (
    CARRIER_CAP,
    FinModule,
    Flavor,
    FlavorMismatchError,
    ModuleStructureError,
    PartialOrder,
    _cached,
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


class FreeModule(FinModule):
    """The free module on ``rank`` generators, computed from support keys.

    Element ``i`` has key ``keys[i] = pos | neg << rank``, the bitmasks of
    the generators with sign + and - in its support; the zero has id 0 and
    key 0.  ``walk[i]`` is its position in the walk of :func:`_along_walk`,
    along which the extension of generator images and the names are built.
    ``add_of`` and (flavor Finf) ``neg_of`` are plain functions of element
    ids that cost a few integer operations each; no table is built, so a
    free module takes O(|F|) memory however large it is.  ``names`` are
    built on first read, with generators named ``letter`` and their index.
    No structural check runs: the keys are correct by construction.
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
        keys = tuple(keys)
        id_of_key = dict(zip(keys, range(size)))
        if flavor is Flavor.B:

            def add(a: int, b: int) -> int:
                return id_of_key[keys[a] | keys[b]]

            top = 0
        else:
            negs = tuple(negs)

            def add(a: int, b: int) -> int:
                # the key of -b has the signs of b swapped
                if a == 0 or b == 0 or keys[a] & keys[negs[b]]:
                    return 0  # zero summand or sign conflict
                return id_of_key[keys[a] | keys[b]]

            object.__setattr__(self, "neg_of", negs.__getitem__)
            # every bit: inclusion of order keys then puts the zero on top
            top = (1 << (2 * rank)) - 1
        for name, value in (
            ("flavor", flavor),
            ("zero", 0),
            ("add_table", None),
            ("neg_table", None),
            ("free_rank", rank),
            ("size", size),
            ("keys", keys),
            ("walk", keys if flavor is Flavor.B else tuple(walk)),
            ("id_of_key", id_of_key),
            ("order_keys", (top,) + keys[1:]),
            ("generators", tuple(id_of_key[1 << b] for b in range(rank))),
            ("add_of", add),
        ):
            object.__setattr__(self, name, value)

    @_cached
    def order(self) -> "FreeOrder":
        return FreeOrder(self.order_keys, self.flavor, self.free_rank)

    @_cached
    def names(self) -> tuple[str, ...]:
        return _names(self)


class FreeOrder(PartialOrder):
    """The induced order of a free module: inclusion of supports with signs,
    with the zero at the bottom (flavor B) or on top (flavor Finf).

    ``leq`` compares two order keys.  ``masks`` are built on first read
    only, because they take |F|^2 bits: 3.9 GB for ``free:Finf:11``;
    ``counts`` has a closed form and reads no masks.
    """

    def __init__(self, order_keys: tuple[int, ...], flavor: Flavor, rank: int):
        object.__setattr__(self, "size", len(order_keys))
        object.__setattr__(self, "order_keys", order_keys)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "rank", rank)

    def __repr__(self) -> str:
        return f"FreeOrder(size={self.size})"

    def leq(self, a: int, b: int) -> bool:
        return not self.order_keys[a] & ~self.order_keys[b]

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

    @_cached
    def masks(self) -> tuple[int, ...]:
        keys = self.order_keys
        out = []
        for ka in keys:
            acc = 0
            for b, kb in enumerate(keys):
                if not ka & ~kb:
                    acc |= 1 << b
            out.append(acc)
        return tuple(out)


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
