"""Finite modules with idempotent addition, in two flavors.

Flavor B is a commutative idempotent monoid with a neutral zero, i.e. a
join-semilattice with bottom.  Flavor Finf carries a negation and an
*absorbing* zero: ``0 + a = 0`` and ``a + (-a) = 0``.  Everything here is
finite and table-driven: a module is an element list, a distinguished zero,
a flat addition table and (for Finf) a negation table, checked for structure
once, when the module is made.  Keyed modules (:class:`semimod.free.KeyedModule`:
free modules and the family members) compute their operations from element
keys instead.

Everything built from a generating set goes through one routine,
:func:`span_walk`: it adds the generators one at a time and lists, with a
recipe each, the elements every generator adds to the span of the earlier
ones, in one pass over that span, so O(|M|·|S|) sums in all.  Generated
submodules and the hom search's recipes use it; the universal-property
extension of a free module follows the free module's own walk instead
(:func:`semimod.free.extend_from_generators`).

Every module has one order object (:class:`PartialOrder`), built from one
order key per element: a <= b iff ``keys[a] & ~keys[b] == 0``.  The axiom
scan of a tabled module reads one cached pass per module
(``FinModule._scan``) over the addition table, a row at a time with
C-level loops (``map``, ``bytes``): each row a gives the bitmask of the
elements above a, and associativity is decided on those masks in O(n^2)
mask operations (:func:`_is_join`).  The order keys of a valid tabled
module are the complements of those masks, and its order takes the masks
themselves as its up masks; reading the keys, the order or ``leq`` of an
invalid module raises.  A keyed module's order keys are its element keys,
and its axiom scan runs only on request (:func:`validate_module`).

Distributivity is decided on the irreducible generators alone: each must
be join-prime (:func:`is_distributive_lattice`, O(|S|^2) sums), so no
meet table is built.

Modules are immutable after construction; all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress, count, repeat
from operator import and_, eq, getitem, itemgetter, ne, xor
from typing import Iterable, Iterator, Mapping, Optional, Sequence

# Carriers above this size are refused outright (runaway constructions).
CARRIER_CAP = 1 << 18

# Above this many table entries a module's addition table is never
# materialized: the axiom scan, serialization and the family constructors
# refuse it.  Only free modules, which compute their operations, can be
# that large.
DENSE_TABLE_LIMIT = 1 << 23


class _cached:
    """A computed attribute of an immutable object, stored on first read.

    Unlike ``functools.cached_property`` it stores with ``object.__setattr__``
    and never reads the instance ``__dict__``: on CPython 3.11 reading
    ``__dict__`` converts the instance's inline attribute storage to a dict,
    and attribute reads in hot loops (``add_of``, ``leq``) that see such an
    instance run about half as fast.
    """

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


class Flavor(str, Enum):
    B = "B"
    FINF = "Finf"


class ModuleStructureError(ValueError):
    """Malformed module data: bad table shape, unknown IDs, duplicate names.

    Distinct from axiom violations, which are reported, not raised, until
    the order of a module that fails an axiom is read (:attr:`FinModule.order`,
    :attr:`FinModule.order_keys`, :meth:`FinModule.leq`).
    """


class FlavorMismatchError(ValueError):
    """Operation applied across modules of different flavors."""


def _check_carrier(size: int) -> None:
    """Refuse a carrier above ``CARRIER_CAP`` elements; every module, tabled
    or keyed, runs this before it is built."""
    if size > CARRIER_CAP:
        raise ModuleStructureError(f"carrier of {size} elements exceeds the cap of {CARRIER_CAP}")


@dataclass(frozen=True)
class FinModule:
    """A finite module given by operation tables.

    ``names`` double as display labels and as the canonical sort key for
    serialization, so they must be unique.  ``add_table`` is row-major of
    size ``n*n``; ``neg_table`` is present exactly for flavor Finf.  The
    tables are checked for structure when the module is made
    (:func:`_structural_check`), so a malformed module is never built.
    Keyed modules, free ones included, are the subclass
    :class:`semimod.free.KeyedModule`, which carries no tables and computes
    its operations from element keys.
    """

    flavor: Flavor
    names: tuple[str, ...]
    zero: int
    add_table: Optional[tuple[int, ...]]
    neg_table: Optional[tuple[int, ...]] = None

    # number of free generators of a free module, None for other modules; a
    # class attribute, not a field, which ``FreeModule`` overrides
    free_rank = None

    def __post_init__(self) -> None:
        n = len(self.names)
        _check_carrier(n)
        # a plain attribute, not a property: ``add_of`` reads it per sum
        object.__setattr__(self, "size", n)
        _structural_check(self)

    def add_of(self, a: int, b: int) -> int:
        return self.add_table[a * self.size + b]  # type: ignore[index]

    def neg_of(self, a: int) -> int:
        if self.neg_table is None:
            raise ModuleStructureError("no negation on this module")
        return self.neg_table[a]

    def name(self, e: int) -> str:
        return self.names[e]

    @_cached
    def index_of_name(self) -> Mapping[str, int]:
        return {nm: i for i, nm in enumerate(self.names)}

    def leq(self, a: int, b: int) -> bool:
        """Induced order: a <= b iff a + b = b, read from :attr:`order`."""
        return self.order.leq(a, b)

    @_cached
    def order_keys(self) -> tuple[int, ...]:
        """Per element a, the bitmask of the c with a ≰ c: the complements
        of the up masks of the axiom scan, whose axioms make the induced
        order a partial order with the zero at the bottom (flavor B) or on
        top (flavor Finf); see :func:`_is_join`.  keys[a] lies within
        keys[b] iff up(b) lies within up(a), iff a <= b: b is in up(b), and
        a <= b puts every c above b above a.  Raises
        :class:`ModuleStructureError` for a module that fails an axiom.  A
        keyed module sets its element keys here instead."""
        require_valid(self, "module")
        full = (1 << self.size) - 1
        return tuple(map(xor, repeat(full), self._scan[1]))  # type: ignore[arg-type]

    @_cached
    def order(self) -> "PartialOrder":
        """The induced order, inclusion of :attr:`order_keys`.  A tabled
        module's ``masks`` are the up masks of its scan, which the keys
        would rebuild in |M|^2 key comparisons."""
        order = PartialOrder(self.order_keys)
        if self.add_table is not None:
            object.__setattr__(order, "masks", tuple(self._scan[1]))  # type: ignore[arg-type]
        return order

    @_cached
    def _scan(self) -> tuple["ValidationReport", Optional[list[int]]]:
        """The axiom report and the up masks of :func:`_scan_violations`."""
        violations, up = _scan_violations(self)
        return ValidationReport(tuple(violations)), up

    @_cached
    def generators(self) -> tuple[int, ...]:
        """A minimal generating set: :func:`irreducible_generators` (a free
        module stores its free generators instead)."""
        return irreducible_generators(self)

    @_cached
    def generating_set(self) -> tuple[int, ...]:
        """``generators`` closed under negation, sorted by id.

        ``homs.check_hom`` checks maps on this set only.
        """
        gens = self.generators
        if self.flavor is Flavor.FINF:
            gens = gens + tuple(self.neg_of(g) for g in gens)
        return tuple(sorted(set(gens)))

    @_cached
    def basis(self) -> "GeneratingBasis":
        """:func:`generating_basis` of this module, built on first read; every
        hom search from this module reads it."""
        return generating_basis(self)

    @_cached
    def _reflection(self) -> list[Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
        """Per depth of :attr:`basis`, None until an injective hom search
        first reaches that depth, with recipes in its layer, and fills it
        in (see :meth:`semimod.homs._Search._reflecting`)."""
        return [None] * len(self.basis.generators)

    @_cached
    def _clashes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(low, high)``: per element x, the c <= x and the c >= x, and in
        flavor Finf also the c <= -x and the c >= -x, whose sum with x is
        the zero (the top): c >= -x gives x + c >= x + -x, and c <= -x
        gives -c <= x, so x + c lies above c + -c."""
        down, up = self.order.down_masks, self.order.masks
        if self.flavor is Flavor.B:
            return down, up
        neg = list(map(self.neg_of, range(self.size)))
        return (
            tuple(d | down[y] for d, y in zip(down, neg)),
            tuple(u | up[y] for u, y in zip(up, neg)),
        )


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)

    def describe(self, m: FinModule) -> str:
        if self.ok:
            return "valid"
        lines = []
        for v in self.violations:
            w = ", ".join(m.name(e) for e in v.witness)
            lines.append(f"violated {v.axiom}: witness ({w})")
        return "\n".join(lines)


def _structural_check(m: FinModule) -> None:
    """Raise :class:`ModuleStructureError` unless the names are unique, the
    zero is an element and the tables are total and closed; run once, by
    ``FinModule.__post_init__``, on every tabled module."""
    n = m.size
    if len(set(m.names)) != n:
        raise ModuleStructureError("element names are not unique")
    if not (0 <= m.zero < n):
        raise ModuleStructureError(f"zero id {m.zero} out of range")
    if m.add_table is None:
        raise ModuleStructureError("module needs a flat add table")
    if len(m.add_table) != n * n:
        raise ModuleStructureError(
            f"add table has {len(m.add_table)} entries, expected {n * n}"
        )
    ids = range(n)
    if not set(ids).issuperset(m.add_table):
        pos, e = next((p, e) for p, e in enumerate(m.add_table) if e not in ids)
        raise ModuleStructureError(
            f"add table entry {e} at position ({pos // n}, {pos % n}) is not an element id"
        )
    if m.flavor is Flavor.B:
        if m.neg_table is not None:
            raise ModuleStructureError("flavor B modules carry no negation table")
    else:
        if m.neg_table is None:
            raise ModuleStructureError("flavor Finf modules need a negation table")
        if len(m.neg_table) != n:
            raise ModuleStructureError(
                f"neg table has {len(m.neg_table)} entries, expected {n}"
            )
        for a, e in enumerate(m.neg_table):
            if not (0 <= e < n):
                raise ModuleStructureError(f"neg table entry {e} at {a} is not an element id")


def _rows(m: FinModule) -> Iterator[tuple[int, ...]]:
    """Row a of the addition table, ``a + b`` over b, for each a in turn."""
    n = m.size
    if m.add_table is not None:
        t = m.add_table
        return (tuple(t[i : i + n]) for i in range(0, n * n, n))
    add = m.add_of
    return (tuple([add(a, b) for b in range(n)]) for a in range(n))


# byte 0 or 1 to the ASCII digit, so that int(..., 2) reads a bitmask
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: Iterable[bool]) -> int:
    """The bitmask with bit b set iff flag b is true, built at C level: for
    ``map(eq, row, range(n))`` over row a of the addition table, the
    elements above a in the induced order."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


def _first_diff(xs: Iterable[int], ys: Iterable[int]) -> Optional[int]:
    """The first position where two rows differ, or None."""
    return next(compress(count(), map(ne, xs, ys)), None)


def _first_row_diff(
    lefts: Iterable[tuple[int, ...]], rights: Iterable[tuple[int, ...]]
) -> Optional[tuple[int, int]]:
    """``(i, j)``: the first row i where two sequences of rows differ and
    the first position j in it, or None."""
    for i, (x, y) in enumerate(zip(lefts, rights)):
        if x != y:
            return i, _first_diff(x, y)
    return None


def _is_join(rows: Sequence[Sequence[int]], up: Sequence[int]) -> bool:
    """Whether a commutative idempotent addition table is associative,
    decided in O(n^2) mask operations on the induced order; ``up[x]`` is
    the bitmask of the c with x + c = c (:func:`_mask`).

    With up(x) = {c : x + c = c}, the table is associative iff
    up(a + b) = up(a) ∩ up(b) for all a < b, i.e. iff a + b is the least
    upper bound of a and b in the order a <= b iff a + b = b.  If + is
    associative and (a + b) + c = c, then a + c = a + ((a + b) + c) =
    ((a + a) + b) + c = c, and likewise b + c = c; if a + c = b + c = c,
    then (a + b) + c = a + (b + c) = c.  Conversely, up is injective: x
    lies in up(x) by idempotence, so up(x) = up(y) gives y + x = x and
    x + y = y, hence x = y by commutativity.  And up((a + b) + c) =
    up(a) ∩ up(b) ∩ up(c) = up(a + (b + c)).  Pairs with b < a follow by
    commutativity, and b = a by idempotence.  The condition says at once
    that <= is transitive, that a <= a + b, and that every common upper
    bound of a and b lies above a + b.  The other order laws need no test:
    a <= a is idempotence; a <= b and b <= a give a = b + a = a + b = b by
    commutativity; the zero law 0 + a = a puts 0 below every a (flavor B),
    and 0 + a = 0 puts every a below 0, as a + 0 = 0 + a (flavor Finf).
    """
    for a, row in enumerate(rows):
        ua = up[a]
        if any(map(ne, map(and_, repeat(ua), up[a + 1 :]), map(up.__getitem__, row[a + 1 :]))):
            return False
    return True


def _scan_violations(m: FinModule) -> tuple[list[Violation], Optional[list[int]]]:
    """Every axiom, with the first witness in row-major order, and the up
    masks of the rows, None unless commutativity and idempotence hold.

    Associativity is decided by :func:`_is_join` once commutativity and
    idempotence hold; the O(n^3) witness search, one row comparison per
    (a, b), runs only when that test fails or cannot be applied.
    """
    n = m.size
    if n * n > DENSE_TABLE_LIMIT:
        raise ModuleStructureError(
            f"{n}-element module is too large to materialize a dense table"
        )
    rows = list(_rows(m))
    ids = range(n)
    out: list[Violation] = []

    comm = _first_row_diff(rows, zip(*rows))
    if comm:
        out.append(Violation("add_commutative", comm))
    idem = _first_diff(map(getitem, rows, ids), ids)
    up = None if comm or idem is not None else [_mask(map(eq, r, ids)) for r in rows]

    if up is None or not _is_join(rows, up):
        # read_at[b](row a) is a + (b + c) over c, gathered at C level; each
        # returns a tuple, as n >= 2 here (the one-element table passes)
        read_at = [itemgetter(*r) for r in rows]
        for a, ra in enumerate(rows):
            # (a + b) + c against a + (b + c), over c
            w = _first_row_diff((rows[s] for s in ra), (g(ra) for g in read_at))
            if w:
                out.append(Violation("add_associative", (a,) + w))
                break

    if idem is not None:
        out.append(Violation("add_idempotent", (idem,)))

    z = m.zero
    if m.flavor is Flavor.B:
        a = _first_diff(rows[z], ids)
        if a is not None:
            out.append(Violation("zero_neutral", (z, a)))
    else:
        a = _first_diff(rows[z], repeat(z, n))
        if a is not None:
            out.append(Violation("zero_absorbing", (z, a)))
        neg = [m.neg_of(a) for a in ids]
        a = _first_diff(map(neg.__getitem__, neg), ids)
        if a is not None:
            out.append(Violation("neg_involution", (a,)))
        a = _first_diff(map(getitem, rows, neg), repeat(z, n))
        if a is not None:
            out.append(Violation("neg_cancels", (a,)))
        # -(a + b) against -a + -b: row a mapped by neg against row -a read at neg
        w = _first_row_diff(
            (tuple(map(neg.__getitem__, r)) for r in rows),
            (tuple(map(rows[na].__getitem__, neg)) for na in neg),
        )
        if w:
            out.append(Violation("neg_distributes", w))
        if neg[z] != z:
            out.append(Violation("neg_fixes_zero", (z,)))
    return out, up


def validate_module(m: FinModule) -> ValidationReport:
    """Check every flavor-appropriate axiom; report one witness per axiom.

    Structural defects (non-total or unclosed tables, duplicate names) are
    errors, not violations: :class:`ModuleStructureError` is raised when
    the module is built.  A module too large for a dense table is refused.
    """
    return m._scan[0]


def require_valid(m: FinModule, what: str) -> None:
    """Raise :class:`ModuleStructureError`, "<what> fails the module axioms:
    ...", when ``m`` fails any axiom of its scan."""
    report = m._scan[0]
    if not report.ok:
        failed = ", ".join(report.axioms())
        raise ModuleStructureError(f"{what} fails the module axioms: {failed}")


class PartialOrder:
    """The order induced by addition, ``a <= b`` iff ``a + b = b``, given by
    one order key per element: ``a <= b`` iff ``keys[a] & ~keys[b] == 0``.

    ``masks[a]`` has bit ``b`` set iff ``a <= b``, and ``down_masks[b]``
    has bit ``a`` set iff ``a <= b``.  Both are built on first read only:
    the masks in one C-level pass over the keys per element, the down masks
    by transposing them.  They take |M|^2 bits, 3.9 GB for
    ``free:Finf:11``, which ``leq`` never builds.  A module has one order
    (:attr:`FinModule.order`), and orders compare and hash by identity.
    """

    size: int
    order_keys: tuple[int, ...]

    def __init__(self, order_keys: Sequence[int]):
        self.order_keys = tuple(order_keys)
        self.size = len(self.order_keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size})"

    def leq(self, a: int, b: int) -> bool:
        return not self.order_keys[a] & ~self.order_keys[b]

    @_cached
    def masks(self) -> tuple[int, ...]:
        keys = self.order_keys  # bit b of entry a: key(a) & key(b) = key(a)
        return tuple(_mask(map(eq, map(and_, repeat(k), keys), repeat(k))) for k in keys)

    @_cached
    def down_masks(self) -> tuple[int, ...]:
        """``masks`` transposed at C level: character n - 1 - b of the
        binary string of ``masks[a]`` is bit b, so column n - 1 - b of those
        strings, read by ``zip``, is down mask b."""
        n = self.size
        rows = [format(u, f"0{n}b") for u in self.masks]
        return tuple(int("".join(col)[::-1], 2) for col in zip(*rows))[::-1]

    @_cached
    def counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(down, up)``: per element x, |down(x)| and |up(x)|, the number of
        elements below and above it, x included."""
        return (
            tuple(d.bit_count() for d in self.down_masks),
            tuple(u.bit_count() for u in self.masks),
        )

    @_cached
    def count_floors(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(down, up)``: entry t of each is the bitmask of the elements whose
        count in :attr:`counts` is at least t, for t up to the largest count;
        above it no element qualifies.  One mask per distinct count, shared
        by the entries between two of them."""
        return tuple(_floors(c, self.size) for c in self.counts)  # type: ignore[return-value]

    def covering_pairs(self) -> list[tuple[int, int]]:
        """All (lower, upper) pairs with nothing strictly in between."""
        out = []
        for a in range(self.size):
            strict = self.masks[a] & ~(1 << a)
            b = strict
            while b:
                low = b & -b
                u = low.bit_length() - 1
                between = strict & self.down_masks[u] & ~(1 << u)
                if between == 0:
                    out.append((a, u))
                b ^= low
        return out


def _floors(counts: Sequence[int], size: int) -> tuple[int, ...]:
    """Entry t: the bitmask of the ids e with ``counts[e] >= t``, for t from
    0 to ``max(counts)``; each mask is built once, from bytes."""
    by_count: dict[int, list[int]] = {}
    for e, c in enumerate(counts):
        by_count.setdefault(c, []).append(e)
    levels = sorted(by_count, reverse=True) + [-1]
    out = [0] * (levels[0] + 1)
    buf = bytearray((size + 7) // 8)
    for c, below in zip(levels, levels[1:]):
        for e in by_count[c]:
            buf[e >> 3] |= 1 << (e & 7)
        # every t in (below, c] admits exactly the elements counted c or more
        out[below + 1 : c + 1] = [int.from_bytes(buf, "little")] * (c - below)
    return tuple(out)


def induced_order(m: FinModule) -> PartialOrder:
    """The induced partial order, a <= b iff a + b = b: ``m.order``, the
    module's one order object, which raises for a tabled module that fails
    an axiom (:attr:`FinModule.order`)."""
    return m.order


def join_irreducibles(m: FinModule) -> tuple[int, ...]:
    """Nonzero elements that are not the sum of the elements strictly below
    them, i.e. that the other elements do not generate.

    Every summand of a sum x lies below x, and in flavor Finf the zero is
    the top, so it lies below no nonzero x; nor does -x, as x + -x = 0.  So
    a nonzero x is generated by the elements other than x (and -x) iff the
    sum of the set S of those below it is x.  The sum of a nonempty S is
    its least upper bound (:func:`_is_join`), which lies below x: if it is
    not x, it lies in S and is its largest element m, and then S is
    down(m); conversely if S = down(m), then m is the sum.  So x is
    irreducible iff S is empty or a down mask, one set lookup per element.
    """
    down = m.order.down_masks
    principal = set(down)
    return tuple(
        x for x, d in enumerate(down) if x != m.zero and (d == 1 << x or (d ^ 1 << x) in principal)
    )


# (element, op, a, b): the element is a + b for op "add" and -a for "neg"
Recipe = tuple[int, str, int, int]


def span_walk(
    m: FinModule, gens: Iterable[int]
) -> tuple[tuple[int, ...], tuple[Optional[tuple[Recipe, ...]], ...]]:
    """The span of ``gens`` built one generator at a time, with recipes.

    Returns ``(members, layers)``.  ``members`` lists the span in walk
    order: zero, then each generator followed by the elements it adds.
    ``layers[i]`` lists the elements other than g = ``gens[i]`` that g adds
    to the span S' of the earlier generators, each with its recipe: a + g
    with a in S', and then (flavor Finf) -x for x = g and for each such sum.
    It is None when g already lies in S'.

    Let P = {g} ∪ (S' + g), less S'.  Addition is idempotent, commutative
    and associative, so span(S' ∪ {g}) is S' ∪ P in flavor B.  In flavor
    Finf, S' is closed under negation, so -(a + g) = -a + -g gives
    S' + -g = -(S' + g), and the layer of g is P ∪ -P (g + -g = 0 and 0
    absorbs).  Lemma: in a valid Finf module, P and -P are disjoint and no
    x in P is comparable with any y in -P.  Proof: every element of P lies
    above g and every element of -P above -g, so an x in both, or x <= y,
    or y <= x, would lie above g + -g = 0, the top, and be 0, which lies in
    S'.  So the walk runs one pass over S' and negates what it added, and
    lists each element once: O(|M|·|gens|) sums.
    """
    add = m.add_of
    finf = m.flavor is Flavor.FINF
    known = {m.zero}
    members = [m.zero]
    layers: list[Optional[tuple[Recipe, ...]]] = []
    for g in gens:
        if g in known:
            layers.append(None)
            continue
        span = members[:]
        known.add(g)
        members.append(g)
        layer: list[Recipe] = []
        for a in span:
            e = add(a, g)
            if e not in known:
                known.add(e)
                members.append(e)
                layer.append((e, "add", a, g))
        if finf:
            for x in [g] + [e for e, _, _, _ in layer]:
                nx = m.neg_of(x)
                known.add(nx)
                members.append(nx)
                layer.append((nx, "neg", x, -1))
        layers.append(tuple(layer))
    return tuple(members), tuple(layers)


@dataclass(frozen=True)
class GeneratingBasis:
    """The generators of a module and, per generator, the recipes of the
    elements it adds to the span of the earlier ones (see
    :func:`span_walk`); every operand of a recipe comes earlier."""

    generators: tuple[int, ...]
    layers: tuple[tuple[Recipe, ...], ...]


def generating_basis(m: FinModule) -> GeneratingBasis:
    """Layered generation recipes over ``m.generators``: one span walk,
    O(|M|·|S|) sums.  ``m.basis`` caches it."""
    gens = m.generators
    members, layers = span_walk(m, gens)
    if None in layers:
        raise ModuleStructureError(
            "a generator is generated by the earlier ones; is the module valid?"
        )
    if len(members) != m.size:
        raise ModuleStructureError(
            "generating set does not generate the module; is the module valid?"
        )
    return GeneratingBasis(gens, layers)  # type: ignore[arg-type]


def _check_element_ids(m: FinModule, ids: Sequence[int], what: str) -> None:
    for e in ids:
        if not 0 <= e < m.size:
            raise ModuleStructureError(f"{what} {e} is not an element id")


def generated_submodule(m: FinModule, seed: Iterable[int]) -> frozenset[int]:
    """Least subset containing the seed and zero, closed under the operations."""
    seed = list(seed)
    _check_element_ids(m, seed, "seed element")
    return frozenset(span_walk(m, seed)[0])


def irreducible_generators(m: FinModule) -> tuple[int, ...]:
    """A canonical minimal generating set: the :func:`join_irreducibles`,
    with only the smaller id of each pair {x, -x} in flavor Finf, so family
    layouts with positives first yield the positive irreducibles.
    """
    irr = join_irreducibles(m)
    if m.flavor is Flavor.B:
        return irr
    return tuple(x for x in irr if x <= m.neg_of(x))


def submodule_on(m: FinModule, elements: Iterable[int]) -> tuple[FinModule, tuple[int, ...]]:
    """Restrict to a closed subset; returns the module and the id embedding."""
    ids = sorted(set(elements) | {m.zero})
    _check_element_ids(m, ids, "subset element")
    pos = {e: i for i, e in enumerate(ids)}
    add: list[int] = []
    neg: Optional[list[int]] = [] if m.flavor is Flavor.FINF else None
    for a in ids:
        for b in ids:
            c = pos.get(m.add_of(a, b))
            if c is None:
                raise ModuleStructureError(
                    f"subset not closed under addition at ({m.name(a)}, {m.name(b)})"
                )
            add.append(c)
        if neg is not None:
            c = pos.get(m.neg_of(a))
            if c is None:
                raise ModuleStructureError(f"subset not closed under negation at {m.name(a)}")
            neg.append(c)
    sub = FinModule(
        flavor=m.flavor,
        names=tuple(m.names[e] for e in ids),
        zero=pos[m.zero],
        add_table=tuple(add),
        neg_table=None if neg is None else tuple(neg),
    )
    return sub, tuple(ids)


@dataclass(frozen=True)
class Congruence:
    """A partition of the carrier, intended to be operation-compatible."""

    size: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            for e in cls:
                if not (0 <= e < self.size) or e in seen:
                    raise ModuleStructureError("classes do not partition the carrier")
                seen.add(e)
        if len(seen) != self.size:
            raise ModuleStructureError("classes do not cover the carrier")

    @_cached
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.size
        for ci, cls in enumerate(self.classes):
            for e in cls:
                out[e] = ci
        return tuple(out)

    @staticmethod
    def from_class_map(class_of: Sequence[int]) -> "Congruence":
        buckets: dict[int, list[int]] = {}
        for e, c in enumerate(class_of):
            buckets.setdefault(c, []).append(e)
        classes = sorted((tuple(sorted(v)) for v in buckets.values()), key=lambda c: c[0])
        return Congruence(len(class_of), tuple(classes))

    @staticmethod
    def identity(size: int) -> "Congruence":
        return Congruence(size, tuple((e,) for e in range(size)))

    @staticmethod
    def total(size: int) -> "Congruence":
        return Congruence(size, (tuple(range(size)),))


def congruence_compatibility_witness(
    m: FinModule, c: Congruence
) -> Optional[tuple[int, int, int]]:
    """First (a, a', b) with a ~ a' but a+b and a'+b in different classes.

    Negation incompatibilities are reported as (a, a', -1).
    """
    if c.size != m.size:
        raise ModuleStructureError("congruence carrier size mismatch")
    cls = c.class_of
    add = m.add_of
    for group in c.classes:
        rep = group[0]
        for a in group[1:]:
            if m.flavor is Flavor.FINF and cls[m.neg_of(rep)] != cls[m.neg_of(a)]:
                return (rep, a, -1)
            for b in range(m.size):
                if cls[add(rep, b)] != cls[add(a, b)]:
                    return (rep, a, b)
    return None


def generated_congruence(m: FinModule, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence identifying the given pairs (closure by union-find)."""
    parent = list(range(m.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b) for a, b in pairs]
    _check_element_ids(m, [e for pair in queue for e in pair], "paired element")
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for other in list(range(m.size)):
            queue.append((m.add_of(a, other), m.add_of(b, other)))
        if m.flavor is Flavor.FINF:
            queue.append((m.neg_of(a), m.neg_of(b)))
    return Congruence.from_class_map([find(e) for e in range(m.size)])


def quotient_with_projection(
    m: FinModule, c: Congruence
) -> tuple[FinModule, tuple[int, ...]]:
    """Quotient plus the class map from old ids to quotient ids."""
    witness = congruence_compatibility_witness(m, c)
    if witness is not None:
        a, a2, b = witness
        if b == -1:
            raise ModuleStructureError(
                f"partition not compatible with negation on ({m.name(a)}, {m.name(a2)})"
            )
        raise ModuleStructureError(
            f"partition not compatible with addition on ({m.name(a)}, {m.name(a2)}) against {m.name(b)}"
        )
    cls = c.class_of
    reps = [group[0] for group in c.classes]
    k = len(reps)
    names = ["|".join(m.name(e) for e in group) for group in c.classes]
    if len(set(names)) != k:
        names = [f"[{i}]{nm}" for i, nm in enumerate(names)]
    names = tuple(names)
    add = tuple(cls[m.add_of(reps[i], reps[j])] for i in range(k) for j in range(k))
    neg = None
    if m.flavor is Flavor.FINF:
        neg = tuple(cls[m.neg_of(r)] for r in reps)
    q = FinModule(
        flavor=m.flavor,
        names=names,
        zero=cls[m.zero],
        add_table=add,
        neg_table=neg,
    )
    require_valid(q, "quotient")
    return q, cls


@dataclass(frozen=True)
class DistributivityReport:
    distributive: bool
    witness_triple: Optional[tuple[int, int, int]] = None


def is_distributive_lattice(m: FinModule) -> DistributivityReport:
    """Distributivity of meet over join, decided by join-primality of the
    irreducibles, with a witness on failure.

    A finite join-semilattice with a bottom has all meets, so a valid
    flavor-B module is a lattice.  Let S = ``m.generating_set``, its
    join-irreducibles (the free generators of a free module).  The lattice
    is distributive iff every j in S is join-prime (j <= x + y implies
    j <= x or j <= y), and j is join-prime iff j ≰ Σ{g in S : j ≰ g}:

    - D = {x : j ≰ x} is a down-set, and each of its elements is the sum
      of the irreducibles below it, which lie in D too.  So the sum of all
      of D is that sum over S, and j is join-prime, i.e. D is closed under
      +, iff that sum lies in D.
    - (Birkhoff) x ↦ {j in S : j <= x} is injective and preserves meets; it
      preserves joins exactly when every j is join-prime.  So the lattice
      embeds in a powerset lattice, and is distributive, exactly when every
      j is join-prime; and in a distributive lattice every irreducible is
      join-prime.

    The sum is folded one generator g at a time from ``m.zero``; the first
    step where acc + g lands above j returns (j, acc, g).  That triple
    violates j ∧ (acc ∨ g) = (j ∧ acc) ∨ (j ∧ g): the left side is j, and
    the right side is a sum of two elements strictly below j, which is not
    j as j is irreducible.  The cost is O(|S|^2) sums and ``leq`` tests, and
    no order masks are read.
    """
    if m.flavor is not Flavor.B:
        raise FlavorMismatchError("distributivity check applies to flavor B modules")
    add, leq = m.add_of, m.leq
    gens = m.generating_set
    for j in gens:
        acc = m.zero
        for g in gens:
            if leq(j, g):
                continue
            step = add(acc, g)
            if leq(j, step):
                return DistributivityReport(False, witness_triple=(j, acc, g))
            acc = step
    return DistributivityReport(True)


def scalar_module(flavor: Flavor) -> FinModule:
    """The semiring itself as a module: {0,1} for B, {-1,0,1} for Finf."""
    if flavor is Flavor.B:
        return FinModule(Flavor.B, ("0", "1"), 0, (0, 1, 1, 1))
    # order: 0, 1, -1
    add = (
        0, 0, 0,
        0, 1, 0,
        0, 0, 2,
    )
    return FinModule(Flavor.FINF, ("0", "1", "-1"), 0, add, neg_table=(0, 2, 1))
