"""Morphisms between finite modules, and exhaustive search over them.

A hom preserves zero, addition and (flavor Finf) negation.  Maps are
checked on a generating set of the source (see :func:`_hom_violation`).
The enumerator backtracks over a generating set of the source, extends each
partial assignment along recorded generation recipes, prunes on pins,
injectivity and order-monotonicity, and runs the same check on every
completed map; nothing about extension well-definedness is assumed.  The
tests check both against plain loops over all pairs and all total maps in
``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    FinModule,
    Flavor,
    FlavorMismatchError,
    irreducible_generators,
)
from . import free as freemod

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Search or oracle ran past its budget; the result is inconclusive."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


@dataclass(frozen=True)
class Hom:
    """A total map between module carriers, with cached morphism flags."""

    source: FinModule
    target: FinModule
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.source.size:
            raise ValueError("map length does not match the source carrier")
        n = self.target.size
        for v in self.map:
            if not (0 <= v < n):
                raise ValueError(f"map value {v} is not a target element id")

    def apply(self, e: int) -> int:
        return self.map[e]

    @cached_property
    def check(self) -> "HomCheck":
        return check_hom(self)

    @property
    def is_hom(self) -> bool:
        return self.check.ok

    @cached_property
    def injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    @cached_property
    def surjective(self) -> bool:
        return len(set(self.map)) == self.target.size

    def is_identity(self) -> bool:
        return self.source == self.target and all(v == i for i, v in enumerate(self.map))

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
    for flavor Finf that negation distributes and fixes zero), so the check
    assumes valid modules: validate modules of unknown origin first.  On
    failure the witness is the first violating (x, s), or (s,) for negation.
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
    """Verify the morphism identities on valid modules; on failure report a
    violating pair (see :func:`_hom_violation`)."""
    M, N = f.source, f.target
    if M.flavor is not N.flavor:
        raise FlavorMismatchError("source and target flavors differ")
    return _hom_violation(M, N, f.map)


def identity_hom(m: FinModule) -> Hom:
    return Hom(m, m, tuple(range(m.size)))


def compose(g: Hom, f: Hom) -> Hom:
    """g after f.  Endpoints must match; homomorphy of the composite follows."""
    if not (f.target is g.source or f.target == g.source):
        raise ValueError("compose: target of the inner hom differs from source of the outer")
    gm = g.map
    return Hom(f.source, g.target, tuple(gm[v] for v in f.map))


@dataclass(frozen=True)
class HomConstraints:
    """Pins, injectivity, and optional per-element candidate restrictions."""

    pinned: Mapping[int, int] = field(default_factory=dict)
    require_injective: bool = False
    allowed: Optional[Mapping[int, Iterable[int]]] = None


# ---------------------------------------------------------------------------
# generating recipes

# (element, op, a, b): op "zero" | "gen" (a = generator position) |
# "add" (element = a + b) | "neg" (element = -a)
Recipe = tuple[int, str, int, int]


@dataclass(frozen=True)
class GeneratingBasis:
    generators: tuple[int, ...]
    prelayer: tuple[Recipe, ...]
    layers: tuple[tuple[Recipe, ...], ...]


def _free_basis(m: FinModule) -> GeneratingBasis:
    gens = freemod.generator_ids(m)
    gen_pos = {g: i for i, g in enumerate(gens)}
    layers: list[list[Recipe]] = [[] for _ in gens]
    prelayer: list[Recipe] = [(m.zero, "zero", -1, -1)]
    for e in range(m.size):
        supp = freemod.support_of(m, e)
        if not supp:
            continue
        top = max(b for b, _ in supp)
        if len(supp) == 1:
            b, sign = supp[0]
            if sign > 0:
                layers[top].append((e, "gen", gen_pos[gens[b]], -1))
            else:
                layers[top].append((e, "neg", gens[b], -1))
        else:
            rest = freemod.element_of_support(m, supp[:-1])
            last = freemod.element_of_support(m, supp[-1:])
            layers[top].append((e, "add", rest, last))
    # singletons precede larger supports because element ids sort by support size
    return GeneratingBasis(gens, tuple(prelayer), tuple(tuple(l) for l in layers))


def _closure_basis(m: FinModule) -> GeneratingBasis:
    gens = irreducible_generators(m)
    add = m.add_of
    has_neg = m.flavor is Flavor.FINF
    known = {m.zero}
    members = [m.zero]
    prelayer: list[Recipe] = [(m.zero, "zero", -1, -1)]
    layers: list[tuple[Recipe, ...]] = []
    for gi, g in enumerate(gens):
        layer: list[Recipe] = []
        frontier: list[int] = []
        if g not in known:
            known.add(g)
            members.append(g)
            layer.append((g, "gen", gi, -1))
            frontier = [g]
        while frontier:
            fresh: list[int] = []
            snapshot = list(members)
            for b in frontier:
                if has_neg:
                    e = m.neg_of(b)
                    if e not in known:
                        known.add(e)
                        members.append(e)
                        fresh.append(e)
                        layer.append((e, "neg", b, -1))
                for a in snapshot:
                    e = add(a, b)
                    if e not in known:
                        known.add(e)
                        members.append(e)
                        fresh.append(e)
                        layer.append((e, "add", a, b))
            frontier = fresh
        layers.append(tuple(layer))
    if len(known) != m.size:
        raise FlavorMismatchError(
            "generating set does not generate the module; is the module valid?"
        )
    return GeneratingBasis(gens, tuple(prelayer), tuple(layers))


def generating_basis(m: FinModule) -> GeneratingBasis:
    """Layered generation recipes over a canonical generating set."""
    if m.free_rank is not None:
        return _free_basis(m)
    return _closure_basis(m)


# ---------------------------------------------------------------------------
# backtracking engine


class _Search:
    def __init__(
        self,
        M: FinModule,
        N: FinModule,
        cons: HomConstraints,
        budget: int,
        first_only: bool,
    ):
        if M.flavor is not N.flavor:
            raise FlavorMismatchError("hom search requires matching flavors")
        self.M, self.N, self.cons = M, N, cons
        self.budget = budget
        self.first_only = first_only
        self.explored = 0
        self.results: list[tuple[int, ...]] = []
        self.basis = generating_basis(M)
        self.allowed: dict[int, frozenset[int]] = {}
        self.feasible = self._normalize_constraints()
        self.val = [-1] * M.size
        self.assigned: list[int] = []
        self.owner: dict[int, int] = {}
        self.ordM = M.order
        self.ordN = N.order

    def _normalize_constraints(self) -> bool:
        N = self.N
        if self.cons.allowed:
            for x, vs in self.cons.allowed.items():
                self.allowed[x] = frozenset(vs)
        for x, v in self.cons.pinned.items():
            if not (0 <= x < self.M.size and 0 <= v < N.size):
                raise ValueError(f"pin ({x} -> {v}) out of range")
            prev = self.allowed.get(x)
            self.allowed[x] = frozenset({v}) if prev is None else prev & {v}
        if self.cons.require_injective and self.M.size > N.size:
            return False
        return all(self.allowed.get(x) is None or self.allowed[x] for x in self.allowed)

    def _tick(self) -> None:
        self.explored += 1
        if self.explored > self.budget:
            raise BudgetExceededError(
                f"hom search budget of {self.budget} exhausted", self.explored
            )

    def _set(self, x: int, v: int) -> bool:
        """Assign f(x) = v if consistent with constraints and order.

        State is only mutated after every check passes, so a failed set
        needs no rollback.
        """
        want = self.allowed.get(x)
        if want is not None and v not in want:
            return False
        if self.cons.require_injective:
            holder = self.owner.get(v)
            if holder is not None and holder != x:
                return False
        leqM, leqN = self.ordM.leq, self.ordN.leq
        val = self.val
        for y in self.assigned:
            if leqM(y, x) and not leqN(val[y], v):
                return False
            if leqM(x, y) and not leqN(v, val[y]):
                return False
        if self.cons.require_injective:
            self.owner[v] = x
        val[x] = v
        self.assigned.append(x)
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.assigned) > mark:
            x = self.assigned.pop()
            v = self.val[x]
            self.val[x] = -1
            if self.cons.require_injective and self.owner.get(v) == x:
                del self.owner[v]

    def _run_recipes(self, recipes: Sequence[Recipe], gen_value: int = -1) -> bool:
        M, N = self.M, self.N
        val = self.val
        for e, op, a, b in recipes:
            if op == "zero":
                v = N.zero
            elif op == "gen":
                v = gen_value
            elif op == "add":
                v = N.add_of(val[a], val[b])
            else:
                v = N.neg_of(val[a])
            if not self._set(e, v):
                return False
        return True

    def _verify(self) -> bool:
        self._tick()
        return _hom_violation(self.M, self.N, self.val).ok

    def _candidates(self, gen: int) -> Sequence[int]:
        want = self.allowed.get(gen)
        if want is None:
            return range(self.N.size)
        return sorted(want)

    def run(self) -> list[tuple[int, ...]]:
        if not self.feasible:
            return []
        if not self._run_recipes(self.basis.prelayer):
            return []
        self._dfs(0)
        return self.results

    def _dfs(self, depth: int) -> None:
        if depth == len(self.basis.generators):
            assert all(v >= 0 for v in self.val), "generation recipes left elements unassigned"
            if self._verify():
                self.results.append(tuple(self.val))
            return
        gen = self.basis.generators[depth]
        layer = self.basis.layers[depth]
        for cand in self._candidates(gen):
            if self.first_only and self.results:
                return
            self._tick()
            mark = len(self.assigned)
            if self._run_recipes(layer, gen_value=cand):
                self._dfs(depth + 1)
            self._undo_to(mark)


def enumerate_homs(
    M: FinModule,
    N: FinModule,
    constraints: Optional[HomConstraints] = None,
    *,
    budget: int = DEFAULT_BUDGET,
    first_only: bool = False,
) -> list[Hom]:
    """All homs M -> N meeting the constraints, sorted by map table.

    Backtracks over a generating set; every completed extension is
    verified by the hom check before being reported.
    """
    cons = constraints or HomConstraints()
    search = _Search(M, N, cons, budget, first_only)
    maps = search.run()
    maps.sort()
    return [Hom(M, N, mp) for mp in maps]


def find_left_inverse(f: Hom, *, budget: int = DEFAULT_BUDGET) -> Optional[Hom]:
    """A hom w with w∘f = id on the source, or None after exhausting the space."""
    if not f.is_hom:
        raise ValueError("find_left_inverse expects a hom")
    if not f.injective:
        return None
    pins = {f.map[x]: x for x in range(f.source.size)}
    found = enumerate_homs(
        f.target, f.source, HomConstraints(pinned=pins), budget=budget, first_only=True
    )
    return found[0] if found else None


def find_right_inverse(f: Hom, *, budget: int = DEFAULT_BUDGET) -> Optional[Hom]:
    """A hom h with f∘h = id on the target, or None after exhausting the space."""
    if not f.is_hom:
        raise ValueError("find_right_inverse expects a hom")
    if not f.surjective:
        return None
    fibers: dict[int, list[int]] = {y: [] for y in range(f.target.size)}
    for x, y in enumerate(f.map):
        fibers[y].append(x)
    found = enumerate_homs(
        f.target,
        f.source,
        HomConstraints(allowed=fibers),
        budget=budget,
        first_only=True,
    )
    return found[0] if found else None


def quotient_projection_hom(m: FinModule, class_of: Sequence[int], q: FinModule) -> Hom:
    """The canonical projection onto a quotient built from the same class map."""
    return Hom(m, q, tuple(class_of))
