"""Morphisms between finite modules, and exhaustive search over them.

A hom preserves zero, addition and (flavor Finf) negation.  Every map is
checked on a generating set of its source (see :func:`_hom_violation`),
a free source too.  Two homs are kept without running that check: an
extension of generator images out of a free module, a hom by the
universal property (:func:`extension_hom`), and the lift ±Σ(q) to signed
doubles of a checked hom q between their halves (:func:`signed_lift`),
a hom by the lift paragraph of :class:`semimod.free.SignedDouble`.
The enumerator backtracks over the generators of the source, extends each
partial assignment along the recipes of their span walk
(:func:`semimod.core.span_walk`: O(|M|·|S|) sums, the same for free and
other sources), prunes on allowed sets, injectivity and order-monotonicity,
and runs the same check on every completed map; nothing about extension
well-definedness is assumed.  Every prune is a bit operation with a lemma
in :class:`_Search`.  The search is lazy (:func:`iter_homs`): it yields
homs in search order and works only as far as its caller reads, so a
caller that needs one hom stops at the first.

An injective search keeps only the values that pass an order-embedding
filter (a static filter in the style of Ullmann, "An algorithm for
subgraph isomorphism", JACM 23, 1976).  Between non-free modules it also
refines per node, in one mask operation: an injective hom reflects the
order (f(a) <= f(b) gives f(a + b) = f(b), so a + b = b), so a candidate
f(g) = c that the order shows would put f(a + g) on f(a), on c or on the
zero, for an assigned a with a + g new, is dropped unscanned; the layer's
recipes would reject it at once, and it still costs its tick, so ticks,
budget outcomes and yields are unchanged.  Free sources and targets keep
the plain scan.  An injective search can be asked to cover a set T of
target values (``covers`` of :func:`iter_homs`): it then yields only the
homs whose image contains T, in the same order as without T (the
factorization check of :mod:`semimod.noetherian` asks for the q with
im(q) ⊇ im(f)).
The search data of a module (its recipes, order masks and counts, and the
reflection antichains of each depth a search reaches) is built once and
cached on the module.  The tests check the search against plain
loops over all pairs and all total maps in ``tests/oracles.py``.  Each
check runs once, where its object is made: a ``Hom`` keeps its hom check
(``Hom.check``), a searched hom or an extension out of a free module
(:func:`extension_hom`) carries the check its making decided, and the
inverse searches check w∘f = id or f∘h = id before they return, as
:func:`retraction`, the closed-form left inverse of an injection out of a
distributive B-module, does.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import FinModule, Flavor, FlavorMismatchError, ModuleStructureError, Recipe, _cached
from .free import SignedDouble, extend_from_generators

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Search or oracle ran past its budget; the result is inconclusive."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


@dataclass(frozen=True)
class Hom:
    """A total map between module carriers, with a cached hom check and flags."""

    source: FinModule
    target: FinModule
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.source.size:
            raise ValueError("map length does not match the source carrier")
        n = self.target.size
        if self.map and (min(self.map) < 0 or max(self.map) >= n):
            v = next(v for v in self.map if not 0 <= v < n)
            raise ValueError(f"map value {v} is not a target element id")

    @_cached
    def check(self) -> "HomCheck":
        if self.source.flavor is not self.target.flavor:
            raise FlavorMismatchError("source and target flavors differ")
        return _hom_violation(self.source, self.target, self.map)

    @property
    def is_hom(self) -> bool:
        return self.check.ok

    @_cached
    def injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    @_cached
    def surjective(self) -> bool:
        return len(set(self.map)) == self.target.size

    def is_identity(self) -> bool:
        # ``is`` first: module equality reads every field, a free module's names too
        same = self.source is self.target or self.source == self.target
        return same and self.map == tuple(range(len(self.map)))

    def describe(self) -> str:
        pairs = ", ".join(
            f"{self.source.name(i)}->{self.target.name(v)}" for i, v in enumerate(self.map)
        )
        return f"[{pairs}]"


@dataclass(frozen=True)
class HomCheck:
    ok: bool
    kind: Optional[str] = None  # "zero" | "add" | "neg"
    witness: tuple[int, ...] = ()


_PASSED = HomCheck(True)


def _hom_violation(M: FinModule, N: FinModule, val: Sequence[int]) -> HomCheck:
    """Check the map ``val`` from M to N on the generating set S of M.

    It checks f(0) = 0, f(x + s) = f(x) + f(s) for every x in M and s in
    S = ``M.generating_set``, and (flavor Finf) f(-s) = -f(s) for s in S:
    |M|·|S| sums instead of the |M|^2 of a check over all pairs.

    Lemma: if M and N are valid modules, S generates M and -S = S, these
    identities make f a hom.  Proof: the sums of elements of S, with 0,
    contain S, are closed under addition, and are closed under negation
    because -(a + b) = -a + -b, -0 = 0 and -S = S; so every element of M is
    0 or such a sum.  Additivity f(x + y) = f(x) + f(y), for all x, follows
    by induction on y.  For y = 0 both sides are f(x) (flavor B, 0 neutral)
    or 0 (flavor Finf, 0 absorbing), as f(0) = 0.  For y in S it is checked.
    For y = y' + s with s in S, associativity in M and N, the check at x + y',
    the induction hypothesis and the check at y' give f(x + y) =
    f(x + y') + f(s) = f(x) + f(y') + f(s) = f(x) + f(y).  Negation follows
    by the same induction: f(-0) = 0 = -f(0), f(-s) = -f(s) is checked, and
    f(-(y' + s)) = f(-y' + -s) = f(-y') + f(-s) = -f(y') + -f(s) =
    -(f(y') + f(s)) = -f(y).

    The proof uses the axioms of M and N (associativity, the zero law, and
    for flavor Finf that negation distributes and fixes zero, and that
    a + -a = 0), so the check holds for valid modules.  A tabled M that
    fails an axiom never reaches it: its generating set is read off its
    order, which then raises (:func:`semimod.core.induced_order`); validate
    a target of unknown origin first.  On failure the witness is the first
    violating (x, s), or (s,) for negation.
    """
    if val[M.zero] != N.zero:
        return HomCheck(False, "zero", (M.zero,))
    addM, addN = M.add_of, N.add_of
    gens = M.generating_set
    for x in range(M.size):
        fx = val[x]
        for s in gens:
            if val[addM(x, s)] != addN(fx, val[s]):
                return HomCheck(False, "add", (x, s))
    if M.flavor is Flavor.FINF:
        for s in gens:
            if val[M.neg_of(s)] != N.neg_of(val[s]):
                return HomCheck(False, "neg", (s,))
    return HomCheck(True)


def check_hom(f: Hom) -> HomCheck:
    """``f.check``: the morphism identities on valid modules, verified once
    per ``Hom``, with a violating pair on failure (see :func:`_hom_violation`)."""
    return f.check


def extension_hom(free: FinModule, target: FinModule, images: Sequence[int]) -> Hom:
    """The hom out of a free module that sends generator i to ``images[i]``,
    with its hom check kept.

    Its map is :func:`semimod.free.extend_from_generators` of the images,
    and it is kept as passing without running :func:`_hom_violation`.
    Lemma (the universal property): for a valid target N and any images
    f(g_i) = ``images[i]``, the map e ↦ Σ{±f(g_i) : ±g_i in the support of
    e}, with 0 ↦ 0, is a hom, and it is the only one with those generator
    images, since every element of the free module is 0 or a sum of signed
    generators.  Proof of additivity at x and y: if either is 0, both sides are the value of
    the other (flavor B, 0 neutral) or 0 (flavor Finf, 0 absorbing).
    Otherwise, without a sign conflict, x + y has the union of the two
    supports, and both sides are the sum over it, by associativity,
    commutativity and idempotence in N.  A sign conflict (flavor Finf, +g_i
    in x and -g_i in y) gives x + y = 0 in the free module, while the right
    side contains f(g_i) + -f(g_i) = 0, which absorbs the whole sum.
    Negation flips every sign, and -(a + b) = -a + -b and -0 = 0 in N.
    """
    return _searched(free, target, extend_from_generators(free, target, images))


def signed_lift(q: Hom, S: FinModule, T: FinModule, negate: bool = False) -> Hom:
    """The lift Σ(q): S -> T of a hom q: S.half -> T.half between the
    halves of two signed doubles, x^± ↦ q(x)^±, or -Σ(q) (x^± ↦ q(x)^∓)
    when ``negate`` is set, with its hom check kept.

    q must pass its hom check, run on the halves if it has not run, and
    send only the zero to the zero; ValueError otherwise.  The lift is kept
    as passing without running :func:`_hom_violation` on the doubles: Σ(q)
    is then a hom by the lift paragraph of
    :class:`semimod.free.SignedDouble`, and so is -Σ(q), negation being an
    automorphism of T.  Σ and -Σ keep the order of maps: Σ(q).map is
    (0, q(1), .., q(c), ..) and q(0) = 0 for every q, so
    :func:`enumerate_homs` on the halves lifts to a sorted list.
    """
    doubles = isinstance(S, SignedDouble) and isinstance(T, SignedDouble)
    if not doubles or (q.source, q.target) != (S.half, T.half):
        raise ValueError("signed_lift needs a hom between the halves of two signed doubles")
    if not q.is_hom or 0 in q.map[1:]:
        raise ValueError("signed_lift needs a hom that sends only the zero to the zero")
    lifted = T.lift(q.map)
    return _searched(S, T, tuple(map(T.neg_of, lifted)) if negate else lifted)


def identity_hom(m: FinModule) -> Hom:
    return Hom(m, m, tuple(range(m.size)))


def compose(g: Hom, f: Hom) -> Hom:
    """g after f.  Endpoints must match; homomorphy of the composite follows."""
    if not (f.target is g.source or f.target == g.source):
        raise ValueError("compose: target of the inner hom differs from source of the outer")
    gm = g.map
    return Hom(f.source, g.target, tuple(gm[v] for v in f.map))


# ---------------------------------------------------------------------------
# backtracking engine


class _Search:
    """Depth-first search over the images of the generators of M in N.

    f(0) = 0 is placed first: the zero's allowed mask holds N's zero at
    most, and a search with an empty allowed mask yields nothing.  Level
    ``d`` tries every allowed image of generator ``d`` in ascending id
    order, then derives the elements of its layer by the recipes of
    ``M.basis``; a completed map is verified by :func:`_hom_violation`.
    Every check is a bit operation.  Target values are compared by
    ``N.order.order_keys`` (``a <= b`` iff ``key(a) & ~key(b) == 0``),
    never by ``N.order.masks``, which a free cover would build in |F|^2
    bits.  Source elements are compared through the up and down masks of
    ``M.order``, intersected with the bitmask ``assigned`` of elements that
    have a value (never the element being placed), so placing f(x) = v
    tests only the assigned elements comparable to x; :meth:`_run_recipes`
    proves the tests it skips implied.  Injectivity is the bitmask ``used``
    of target values taken.

    A free source reads no order masks (they take |F|^2 bits): its
    ``below`` and ``above`` masks are all zero, so no monotonicity test
    runs, and none could fail.  The assigned elements are the span of the
    generators placed so far, a free submodule, and the recipes give each
    the value of the extension of the generator images, a hom by the lemma
    of :func:`extension_hom`; so every partial map is monotone on them.

    An injective search ANDs the order-embedding filter into every
    element's allowed set before it starts: f(x) = v needs
    |down(v)| >= |down(x)| and |up(v)| >= |up(x)|, because an injective hom
    is an order embedding (f(a) <= f(b) gives f(a + b) = f(b), so
    a + b = b) and maps down(x) and up(x) injectively into down(v) and
    up(v).  The counts of M and the threshold masks of N are cached on
    their orders (:attr:`~semimod.core.PartialOrder.counts`,
    :attr:`~semimod.core.PartialOrder.count_floors`), so the filter costs
    two lookups and two ANDs per source element.

    Reflection (injective searches between non-free modules).  Call a an
    operand of layer d when the layer has the recipe (e, "add", a, g):
    a is assigned and e = a + g is new, so e is not a, g or 0.  Placing
    f(g) = c gives f(e) = x + c for x = f(a): x when c <= x, c when
    c >= x, and (flavor Finf) the zero when c <= -x or c >= -x
    (``FinModule._clashes`` holds these c in its masks low[x] and
    high[x]).  Each is a used value (c is placed before the recipes run),
    so the layer rejects c at once.  Lemma: the maximal operands give all
    of the low cases and the minimal ones all of the high cases.  Proof:
    f is monotone on the assigned elements and negation is monotone, so
    a <= a' gives f(a) <= f(a') and -f(a) <= -f(a'), hence low[f(a)]
    within low[f(a')] and high[f(a')] within high[f(a)].  Both antichains
    depend on d alone; they are built when a search first reaches d and
    cached on M (a layer without recipes drops nothing and builds none).
    So ``avoid``, the OR of ``used``, of low[f(a)] over the maximal a and
    of high[f(b)] over the minimal b, holds only candidates the node
    rejects at once, and the scan walks ``allowed & ~avoid``.  The cases
    c <= x and c >= x are the order-embedding failures f(g) <= f(a) with
    g not <= a and f(a) <= f(g) with a not <= g.  An assigned a that is
    no operand can reflect too, but its candidates may pass the node, and
    dropping them would skip the ticks of their subtrees.  A dropped
    candidate still costs its tick: the scan adds the dropped candidates
    below each kept one before it and the rest at the end, and stops at
    the first tick past the budget, as the scan one at a time does.  Free
    sources and targets keep that scan: the antichains come from M's order
    masks and ``avoid`` from N's, and a free module's take |F|^2 bits.

    A covering search (``covers`` = T, injective) prunes a node at
    depth d, before it scans a candidate, when need = T & ~used cannot be
    placed: when need & ~reach[d] != 0, or when |need| > left[d].  Here
    reach[d] is the OR of the allowed masks of the elements still
    unassigned at depth d (generators d, d+1, ... and their layers) and
    left[d] is how many there are; the assignment order is fixed by
    ``M.basis``, so both are computed once per search, in O(|M|).
    Lemma: no map below a pruned node has an image containing T.  Proof:
    in an injective search ``used`` is exactly the set of values of the
    assigned elements, and every completion gives each unassigned element
    one value from its allowed mask (generator candidates are drawn from
    it, and derived elements are tested against it).  So the image of a
    completion is ``used`` together with at most left[d] values, all in
    reach[d]; it contains T only if need lies within reach[d] and has at
    most left[d] elements.  The pruning drops no map that the uncovered
    search would yield with an image containing T, and leaves the search
    order alone; at the leaves reach and left are 0, so every yielded map
    covers T.

    Ticks: one per generator candidate (a value in its allowed set),
    whether it passes, is rejected or is dropped unscanned, and one per
    verified map; the budget bounds their total.  :meth:`run` is a
    generator, so a caller that stops after k maps spends exactly the
    ticks up to the k-th.
    """

    def __init__(
        self,
        M: FinModule,
        N: FinModule,
        *,
        injective: bool,
        allowed: Optional[Mapping[int, Iterable[int]]],
        covers: Optional[Iterable[int]],
        budget: int,
    ):
        if M.flavor is not N.flavor:
            raise FlavorMismatchError("hom search requires matching flavors")
        self.M, self.N = M, N
        self.injective = injective or covers is not None
        self.budget = budget
        self.explored = 0
        self.basis = M.basis
        self.allowed = self._allowed_masks(allowed or {})
        self.keys = N.order.order_keys
        if M.free_rank is None:
            self.below, self.above = M.order.down_masks, M.order.masks
        else:
            self.below = self.above = (0,) * M.size
        self.val = [-1] * M.size
        self.assigned = 0
        self.used = 0
        self.cover = self._cover_mask(covers or ())
        if self.cover:
            self.reach, self.left = self._unassigned_reach()
        self.reflect = self.injective and M.free_rank is None and N.free_rank is None
        if self.reflect:
            self.low_at, self.high_at = N._clashes
            self.reflection = M._reflection

    def _cover_mask(self, covers: Iterable[int]) -> int:
        """The bitmask of the values the image must contain, 0 when off."""
        mask = 0
        for v in covers:
            if not 0 <= v < self.N.size:
                raise ValueError(f"covered value {v} out of range")
            mask |= 1 << v
        return mask

    def _unassigned_reach(self) -> tuple[list[int], list[int]]:
        """Per depth d, the OR of the allowed masks of the elements still
        unassigned on entering depth d, and how many there are."""
        basis, allowed = self.basis, self.allowed
        reach, left = [0], [0]
        for gen, layer in zip(reversed(basis.generators), reversed(basis.layers)):
            mask = reach[-1] | allowed[gen]
            for recipe in layer:
                mask |= allowed[recipe[0]]
            reach.append(mask)
            left.append(left[-1] + 1 + len(layer))
        return reach[::-1], left[::-1]

    def _allowed_masks(self, allowed_sets: Mapping[int, Iterable[int]]) -> list[int]:
        """Per source element, the bitmask of target values it may take
        (the zero's holds N's zero at most), narrowed by the order-embedding
        filter for injective searches.  Ids out of range raise ``ValueError``."""
        m, n = self.M.size, self.N.size
        allowed = [(1 << n) - 1] * m
        for x, vs in allowed_sets.items():
            if not 0 <= x < m:
                raise ValueError(f"allowed set of element {x} out of range")
            mask = 0
            for v in vs:
                if not 0 <= v < n:
                    raise ValueError(f"allowed value ({x} -> {v}) out of range")
                mask |= 1 << v
            allowed[x] = mask
        allowed[self.M.zero] &= 1 << self.N.zero
        if self.injective:
            down, up = self.M.order.counts
            down_at, up_at = self.N.order.count_floors
            for x in range(m):
                d, u = down[x], up[x]
                if d < len(down_at) and u < len(up_at):
                    allowed[x] &= down_at[d] & up_at[u]
                else:  # no element of N has that many below or above it
                    allowed[x] = 0
        return allowed

    def _exhausted(self) -> BudgetExceededError:
        self.explored = self.budget + 1  # a batch of dropped ticks may overshoot
        return BudgetExceededError(
            f"hom search budget of {self.budget} exhausted", self.explored
        )

    def _lower(self, x: int) -> int:
        """OR of the keys of f(y) over the assigned y below x: f(x) = v is
        monotone on those y exactly when this lies within key(v)."""
        keys, val = self.keys, self.val
        lo = 0
        bits = self.below[x] & self.assigned
        while bits:
            low = bits & -bits
            lo |= keys[val[low.bit_length() - 1]]
            bits ^= low
        return lo

    def _upper(self, x: int) -> int:
        """AND of the keys of f(y) over the assigned y above x: f(x) = v is
        monotone on those y exactly when key(v) lies within this."""
        keys, val = self.keys, self.val
        hi = -1
        bits = self.above[x] & self.assigned
        while bits:
            low = bits & -bits
            hi &= keys[val[low.bit_length() - 1]]
            bits ^= low
        return hi

    def _run_recipes(self, recipes: Sequence[Recipe]) -> bool:
        """Assign the elements the recipes derive, in order, each after
        checking its allowed set, injectivity and (sums only) monotonicity;
        False at the first that fails.  The caller restores ``assigned`` and
        ``used``.

        An element e = a + g is tested only against the assigned elements
        below it.  The test against those above cannot fail: f is monotone
        on the assigned elements, which include a and g, and every assigned
        z above e lies above a and g; so f(a) + f(z) = f(z) = f(g) + f(z),
        and f(e) + f(z) = f(a) + f(g) + f(z) = f(z) by associativity in N.

        An element -x (flavor Finf) gets no order test: both are implied.
        The layer of g is P ∪ -P, where P is g and the sums, placed first,
        and -P their negations, in the same order
        (:func:`semimod.core.span_walk`); so, from f(0) = 0 on, f(-x) = -f(x)
        holds on the assigned elements by construction.  Let z be an assigned element
        other than -x.  If z is in P, the span walk's lemma makes it
        incomparable with -x.  Otherwise -z was placed before x: z in S'
        gives -z in S' = -S', and z = -y with y in P placed before x gives
        -z = y.  Negation is an order automorphism of M and of N, so
        z <= -x iff -z <= x, and f(z) <= f(-x) = -f(x) iff
        f(-z) = -f(z) <= f(x); likewise from above.  So the test at -x
        against z is the test at x against -z, which ran (the generator's
        two bounds, a sum's lower test) or is implied (a sum's upper test).
        A free source runs no order tests, and flavor B has no negation
        recipe.
        """
        N = self.N
        val, keys, allowed = self.val, self.keys, self.allowed
        for e, op, a, b in recipes:
            if op == "add":
                v = N.add_of(val[a], val[b])
            else:
                v = N.neg_of(val[a])
            if not allowed[e] >> v & 1 or self.used >> v & 1:
                return False
            if op == "add" and self._lower(e) & ~keys[v]:
                return False
            val[e] = v
            self.assigned |= 1 << e
            if self.injective:
                self.used |= 1 << v
        return True

    def _verify(self) -> bool:
        self.explored += 1
        if self.explored > self.budget:
            raise self._exhausted()
        return _hom_violation(self.M, self.N, self.val).ok

    def run(self) -> Iterator[tuple[int, ...]]:
        """The maps of the homs, in search order, ticking only as far as
        the caller consumes them."""
        if self.injective and self.M.size > self.N.size or not all(self.allowed):
            return
        zero, v = self.M.zero, self.N.zero
        self.val[zero] = v
        self.assigned = 1 << zero
        if self.injective:
            self.used = 1 << v
        yield from self._dfs(0)

    def _dfs(self, depth: int) -> Iterator[tuple[int, ...]]:
        if self.cover:
            need = self.cover & ~self.used
            if need & ~self.reach[depth] or need.bit_count() > self.left[depth]:
                return
        basis = self.basis
        if depth == len(basis.generators):
            assert self.assigned == (1 << self.M.size) - 1, (
                "generation recipes left elements unassigned"
            )
            if self._verify():
                yield tuple(self.val)
            return
        gen = basis.generators[depth]
        layer = basis.layers[depth]
        cands = self.allowed[gen]
        keys, val = self.keys, self.val
        assigned, used = self.assigned, self.used
        placed = assigned | 1 << gen
        lo, hi = self._lower(gen), self._upper(gen)
        budget = self.budget
        dropped = 0
        if self.reflect and layer:  # a layer without recipes drops nothing
            maxima, minima = self.reflection[depth] or self._reflecting(depth)
            avoid = used
            for a in maxima:
                avoid |= self.low_at[val[a]]
            for b in minima:
                avoid |= self.high_at[val[b]]
            dropped = cands & avoid
            cands ^= dropped
        while cands:
            low = cands & -cands
            cands ^= low
            cand = low.bit_length() - 1
            self.explored += 1
            if dropped:  # the dropped candidates below this one tick first
                below = dropped & (low - 1)
                dropped ^= below
                self.explored += below.bit_count()
            if self.explored > budget:
                raise self._exhausted()
            k = keys[cand]
            if lo & ~k or k & ~hi or used >> cand & 1:
                continue
            val[gen] = cand
            self.assigned = placed
            if self.injective:
                self.used = used | 1 << cand
            if self._run_recipes(layer):
                yield from self._dfs(depth + 1)
            self.assigned, self.used = assigned, used
        if dropped:
            self.explored += dropped.bit_count()
            if self.explored > budget:
                raise self._exhausted()

    def _reflecting(self, depth: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The maximal and the minimal operands a of the add recipes
        (e, "add", a, g) of layer ``depth``, in M's order: cached on M
        (``FinModule._reflection``), each depth built when a search first
        reaches it."""
        ids = [a for _, op, a, _ in self.basis.layers[depth] if op == "add"]
        operands = sum(1 << a for a in ids)
        up, down = self.M.order.masks, self.M.order.down_masks
        entry = self.reflection[depth] = (
            tuple(a for a in ids if up[a] & operands == 1 << a),
            tuple(a for a in ids if down[a] & operands == 1 << a),
        )
        return entry


def iter_homs(
    M: FinModule,
    N: FinModule,
    *,
    injective: bool = False,
    allowed: Optional[Mapping[int, Iterable[int]]] = None,
    covers: Optional[Iterable[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Hom]:
    """The homs M -> N meeting the restrictions, in search order.

    ``injective`` asks for injective homs.  ``allowed`` maps source
    elements to the target values they may take; a pin x -> v is
    ``{x: (v,)}``.  ``covers`` is a set T of target values that the image
    must contain: the search then yields the injective homs whose image
    contains T, exactly those of the injective search without T, in the
    same order, and prunes a node once the values of T not yet taken
    cannot all be placed on the elements still unassigned (see
    :class:`_Search` for the lemma).  Element ids index the source and
    value ids the target; one out of range raises ``ValueError``.

    The search ticks only as far as the caller reads, so the first hom
    costs only the ticks that lead to it; ``BudgetExceededError`` is raised
    at the first tick past the budget.  Every map passes the hom check
    before it is yielded, and its ``Hom`` carries that check.
    """
    search = _Search(M, N, injective=injective, allowed=allowed, covers=covers, budget=budget)
    return (_searched(M, N, mp) for mp in search.run())


def _searched(M: FinModule, N: FinModule, mp: tuple[int, ...]) -> Hom:
    """The ``Hom`` of a map whose hom check passed, keeping that check."""
    f = Hom(M, N, mp)
    object.__setattr__(f, "check", _PASSED)
    return f


def enumerate_homs(
    M: FinModule,
    N: FinModule,
    *,
    injective: bool = False,
    allowed: Optional[Mapping[int, Iterable[int]]] = None,
    covers: Optional[Iterable[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[Hom]:
    """All homs M -> N meeting the restrictions of :func:`iter_homs`,
    sorted by map table."""
    homs = iter_homs(M, N, injective=injective, allowed=allowed, covers=covers, budget=budget)
    return sorted(homs, key=lambda h: h.map)


def find_left_inverse(f: Hom, *, budget: int = DEFAULT_BUDGET) -> Optional[Hom]:
    """A hom w with w∘f = id on the source, checked to be one, or None after
    exhausting the space."""
    if not f.is_hom:
        raise ValueError("find_left_inverse expects a hom")
    if not f.injective:
        return None
    pins = {v: (x,) for x, v in enumerate(f.map)}
    w = next(iter_homs(f.target, f.source, allowed=pins, budget=budget), None)
    if w is not None and not compose(w, f).is_identity():
        raise AssertionError("left inverse failed verification")
    return w


def find_right_inverse(f: Hom, *, budget: int = DEFAULT_BUDGET) -> Optional[Hom]:
    """A hom h with f∘h = id on the target, checked to be one, or None after
    exhausting the space."""
    if not f.is_hom:
        raise ValueError("find_right_inverse expects a hom")
    if not f.surjective:
        return None
    fibers: dict[int, list[int]] = {y: [] for y in range(f.target.size)}
    for x, y in enumerate(f.map):
        fibers[y].append(x)
    h = next(iter_homs(f.target, f.source, allowed=fibers, budget=budget), None)
    if h is not None and not compose(f, h).is_identity():
        raise AssertionError("right inverse failed verification")
    return h


def retraction(e: Hom) -> Hom:
    """The left inverse r of an injective flavor-B hom e: L -> M with L
    distributive, by a closed formula, with no search; checked here to be
    a hom with r∘e = id, and ModuleStructureError otherwise.

    Let J = ``L.generating_set``, the join-irreducibles of L, and
    a_j = Σ{g ∈ J : j ≰ g}.  Then r(y) = Σ{j ∈ J : y ≰ e(a_j)}.  Proof
    that r is a hom with r∘e = id: a_j is the largest element of L not
    above j: if j ≰ x, no irreducible below x lies above j, and x is the
    sum of the irreducibles below it, so x <= a_j; and j <= a_j fails as j
    is join-prime (L is distributive,
    :func:`semimod.core.is_distributive_lattice`).  So x <= a_j exactly
    when j ≰ x.  As + is the join, y + y' <= e(a_j) exactly when y and y'
    both are, so r(y + y') = r(y) + r(y'), and r(0) = 0, the empty sum.
    An injective hom reflects the order (e(x) <= e(x') gives
    e(x + x') = e(x'), so x + x' = x'), so r(e(x)) = Σ{j : x ≰ a_j} =
    Σ{j : j <= x} = x.  The cost is O(|M|·|J|) order tests.

    So every injection out of a finite distributive lattice splits (Horn
    and Kimura, "The category of semilattices", Algebra Universalis 1,
    1971).  Out of a non-distributive L the formula fails the check: for
    an irreducible j that is not join-prime, j <= a_j, and every j' in the
    sum r(e(j)) lies below j (j ≰ a_j' puts j' below j), j excluded, so
    r(e(j)) is a sum of elements strictly below the irreducible j.
    """
    L, M = e.source, e.target
    if L.flavor is not Flavor.B:
        raise FlavorMismatchError("the retraction formula is defined for flavor B")
    irr, add, zero = L.generating_set, L.add_of, L.zero
    e_a = [(j, e.map[reduce(add, [g for g in irr if not L.leq(j, g)], zero)]) for j in irr]
    rmap = [reduce(add, [j for j, t in e_a if not M.leq(y, t)], zero) for y in range(M.size)]
    r = Hom(M, L, tuple(rmap))
    if not (r.is_hom and compose(r, e).is_identity()):
        raise ModuleStructureError("retraction ∘ embedding is not the identity")
    return r
