"""Desk-scale representation-category layer: hom catalogs under a morphism
class (the bases of the principal projectives) and the
factorization-obstruction witness checker.

Generation questions about a principal projective reduce to morphism
factorization: the basis vector of f lies in the span of the earlier levels
exactly when f factors through an earlier object, so no coefficient ring is
ever materialized.  The factorization check builds no catalog: it streams
one side of the triangle from the lazy hom search
(:func:`semimod.homs.iter_homs`), derives or searches the other, and stops
at the first factorization.  Budget exhaustion yields an explicit
inconclusive verdict, never a silent "no factorization".  The searches of
one catalog, one factorization check or one witness run draw on one
:class:`semimod.homs.Budget`: the spec's own when it holds one, as the
command line's does, else a fresh one of the spec's limit per call.

An injection-class check between signed doubles, as every check of the
default F∞ witness family is, runs its search on the B halves and lifts
the factorization it finds (the corollary in
:class:`semimod.free.SignedDouble`); the split class, the all-homs class
and the catalogs search the modules they are given.

The class tests read the hom check each ``Hom`` keeps, and the split
certificates come checked from :func:`semimod.homs.find_left_inverse`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .core import FinModule, Flavor
from .families import corner_embedding, corner_witness, family
from .free import SignedDouble
from .homs import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    Hom,
    compose,
    enumerate_homs,
    find_left_inverse,
    iter_homs,
    signed_lift,
)


class MorphismClass(Enum):
    ALL = "all"
    INJECTIONS = "injections"
    SPLIT_INJECTIONS = "splittable-injections"


@dataclass(frozen=True)
class CatalogEntry:
    hom: Hom
    certificate: Optional[Hom] = None  # verified left inverse, split class only


@dataclass(frozen=True)
class CategorySpec:
    """A flavor, named objects, the morphism class under consideration and
    the budget of the searches: a limit, or a :class:`Budget` that they
    share with the rest of a command."""

    flavor: Flavor
    objects: tuple[tuple[str, FinModule], ...]
    morphism_class: MorphismClass
    budget: int | Budget = DEFAULT_BUDGET
    _by_name: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, mod in self.objects:
            if mod.flavor is not self.flavor:
                raise ValueError(f"object {name} has flavor {mod.flavor.value}")
        self._by_name.update(self.objects)
        if len(self._by_name) != len(self.objects):
            raise ValueError("object names must be unique")

    def module(self, name: str) -> FinModule:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown object {name!r}") from None


def _budgeted(spec: CategorySpec) -> CategorySpec:
    """``spec`` when it holds a :class:`Budget`, else a copy that holds a
    fresh one of its limit, for the searches of one call to share."""
    return spec if isinstance(spec.budget, Budget) else replace(spec, budget=Budget(spec.budget))


def hom_catalog(spec: CategorySpec, x: str, y: str) -> tuple[CatalogEntry, ...]:
    """All morphisms x -> y in the class, searched on every call, all the
    searches on one budget.

    Splittable-injection entries carry their verified left inverse.
    """
    spec = _budgeted(spec)
    X, Y = spec.module(x), spec.module(y)
    injective = spec.morphism_class is not MorphismClass.ALL
    entries = []
    for h in enumerate_homs(X, Y, injective=injective, budget=spec.budget):
        if spec.morphism_class is MorphismClass.SPLIT_INJECTIONS:
            cert = find_left_inverse(h, budget=spec.budget)
            if cert is not None:
                entries.append(CatalogEntry(h, cert))
        else:
            entries.append(CatalogEntry(h))
    return tuple(entries)


def in_class(spec: CategorySpec, f: Hom) -> bool:
    if not f.is_hom:
        return False
    if spec.morphism_class is MorphismClass.ALL:
        return True
    if not f.injective:
        return False
    if spec.morphism_class is MorphismClass.INJECTIONS:
        return True
    return find_left_inverse(f, budget=spec.budget) is not None


class Verdict(Enum):
    FACTORS = "factors"
    NO_FACTORIZATION = "no-factorization"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FactorizationResult:
    verdict: Verdict
    through: Optional[tuple[Hom, Hom]] = None  # (p, q) with q ∘ p = f


def factors_through(spec: CategorySpec, f: Hom, yj: str) -> FactorizationResult:
    """Search for p: X -> Y_j and q: Y_j -> Y_i in the class with q∘p = f,
    for f: X -> Y_i (its endpoints, checked by the caller) and Y_j named ``yj``.
    An f that fails its hom check raises ``ValueError``: no p could be a
    hom.

    One side is streamed from :func:`semimod.homs.iter_homs` and the search
    stops at the first factorization (the first in search order).

    Injection classes: stream the injective q whose image contains im(f),
    from one covering search (``covers`` of ``iter_homs``); a q whose image
    misses a value of f factors nothing, and the search prunes every branch
    that can no longer cover im(f), so a streamed q that misses one is a
    broken contract and raises ``AssertionError``.  For a covering q,
    p = q⁻¹∘f, read through a dict
    inverse of q, is the only map with q∘p = f.  It is a hom, as q is an
    injective hom: q(p(x + y)) = f(x) + f(y) = q(p(x) + p(y)) gives
    p(x + y) = p(x) + p(y), and likewise q(p(0)) = 0 = q(0) and (flavor
    Finf) q(p(-x)) = -q(p(x)) = q(-p(x)) give p(0) = 0 and p(-x) = -p(x).
    And p is injective exactly when f is, so a non-injective f factors
    through no p in the class.  The split class also asks that p and q
    split, which is searched only for a q that pins a p.

    Injection class between signed doubles (X, Y_j and Y_i all
    :class:`semimod.free.SignedDouble`): the search runs on the halves.
    By the lemma of ``SignedDouble``, the injective hom f is Σ(f_h) or
    -Σ(f_h) for the map f_h of the halves that it induces on the positives;
    the sign is read off one positive image.  By its corollary, f factors
    through Y_j by injections exactly when f_h factors through the half of
    Y_j: q_h∘p_h = f_h gives f = Σ(q_h)∘(±Σ(p_h)), lifted by
    :func:`semimod.homs.signed_lift`.  So the covering search for q_h runs
    on the halves, with half the elements and half the generators, and the
    budget bounds it.  An f that is no such lift is no injective hom, and
    takes the search on the doubles.

    All-homs class: stream p, pin q on its image (allowed sets of one
    value) and take the first completion of q.  If q∘p = f, then
    p(x) = p(y) gives f(x) = f(y), so for an injective f the p search asks
    for injective homs only.  A non-injective f takes every p, and a p
    that identifies two elements f keeps apart is skipped.

    Each class streams the side that is cheaper to stream (timed on a
    2-vCPU host, Python 3.11).  For the injections, streaming p and
    searching an injective q pinned on its image is slower: witness B N=5
    takes about 0.6 s instead of 0.006 s, and B N=8 about 10 s instead of
    0.03 s.  For
    the all-homs class, streaming q is out of reach: there are 840,832
    homs D4 -> D5, and streaming them takes 37 s.

    Budget exhaustion anywhere yields an inconclusive verdict; all the
    searches of one call draw on one budget.
    """
    if not f.is_hom:
        raise ValueError("factors_through expects a hom")
    spec = _budgeted(spec)
    Yj = spec.module(yj)
    try:
        if spec.morphism_class is MorphismClass.ALL:
            found = _through_any(spec, f, Yj)
        elif not f.injective:
            found = None
        elif spec.morphism_class is MorphismClass.INJECTIONS and (half := _half_of(f, Yj)):
            f_h, negate = half
            found = _through_cover(spec, f_h, Yj.half)
            if found:
                p_h, q_h = found
                found = signed_lift(p_h, f.source, Yj, negate), signed_lift(q_h, Yj, f.target)
        else:
            found = _through_cover(spec, f, Yj)
    except BudgetExceededError:
        return FactorizationResult(Verdict.INCONCLUSIVE)
    if found is None:
        return FactorizationResult(Verdict.NO_FACTORIZATION)
    p, q = found
    if compose(q, p).map != f.map:
        raise AssertionError("factorization failed recomposition")
    return FactorizationResult(Verdict.FACTORS, found)


def _half_of(f: Hom, Yj: FinModule) -> Optional[tuple[Hom, bool]]:
    """(f_h, negate) with f = Σ(f_h), or -Σ(f_h) when ``negate`` is set,
    when f and Yj are between signed doubles and f is such a lift; else None."""
    X, Y = f.source, f.target
    if not all(isinstance(m, SignedDouble) for m in (X, Y, Yj)):
        return None
    c = Y.size // 2
    negate = X.size > 1 and f.map[1] > c  # the sign of the image of the first positive
    hmap = (0, *(v - c if negate else v for v in f.map[1 : X.half.size]))
    if not all(0 < v <= c for v in hmap[1:]):
        return None
    lifted = Y.lift(hmap)
    if (tuple(map(Y.neg_of, lifted)) if negate else lifted) != f.map:
        return None
    return Hom(X.half, Y.half, hmap), negate


def _through_cover(spec: CategorySpec, f: Hom, Yj: FinModule) -> Optional[tuple[Hom, Hom]]:
    """The first (p, q) in an injection class with q∘p = f for the
    injective f, from the covering search for q (see :func:`factors_through`)."""
    split = spec.morphism_class is MorphismClass.SPLIT_INJECTIONS
    for q in iter_homs(Yj, f.target, covers=set(f.map), budget=spec.budget):
        inverse = {v: w for w, v in enumerate(q.map)}
        pmap = tuple(inverse.get(v) for v in f.map)
        if None in pmap:
            raise AssertionError("covering search yielded a q missing im(f)")
        p = Hom(f.source, Yj, pmap)
        if split and not (in_class(spec, p) and in_class(spec, q)):
            continue
        return p, q
    return None


def _through_any(spec: CategorySpec, f: Hom, Yj: FinModule) -> Optional[tuple[Hom, Hom]]:
    """The first (p, q) of any homs with q∘p = f, from the all-homs search
    of :func:`factors_through`."""
    for p in iter_homs(f.source, Yj, injective=f.injective, budget=spec.budget):
        pins = dict(zip(p.map, f.map))
        if any(pins[w] != v for w, v in zip(p.map, f.map)):
            continue
        pinned = {w: (v,) for w, v in pins.items()}
        q = next(iter_homs(Yj, f.target, allowed=pinned, budget=spec.budget), None)
        if q is not None:
            return p, q
    return None


@dataclass(frozen=True)
class WitnessLevel:
    index: int
    morphism: Hom
    checks: tuple[tuple[str, Verdict], ...]


@dataclass(frozen=True)
class WitnessReport:
    """Per-index factorization verdicts for a witness family.  It holds
    when every check finds no factorization, and is inconclusive when some
    check ran out of budget and none factors."""

    levels: tuple[WitnessLevel, ...]

    @property
    def holds(self) -> bool:
        return all(v is Verdict.NO_FACTORIZATION for lv in self.levels for _, v in lv.checks)

    @property
    def inconclusive(self) -> bool:
        verdicts = {v for lv in self.levels for _, v in lv.checks}
        return Verdict.INCONCLUSIVE in verdicts and Verdict.FACTORS not in verdicts

    def summary(self) -> str:
        if self.holds:
            return f"witness holds up to N={len(self.levels)}"
        if self.inconclusive:
            return "witness inconclusive (budget exhausted)"
        return "witness fails: some morphism factors through an earlier level"


def witness_verify(
    spec: CategorySpec,
    x0: str,
    y_names: Sequence[str],
    morphisms: Sequence[Hom],
) -> WitnessReport:
    """Check that no f_i factors through any earlier Y_j inside the class.

    Every morphism is checked to be in the class before any factorization
    check runs.  All the searches of the call draw on one budget, so once
    one check runs out, every later check is inconclusive at once, and
    the least limit under which the run decides is the total of its ticks.
    """
    if len(y_names) != len(morphisms):
        raise ValueError("one morphism per family object is required")
    spec = _budgeted(spec)
    X0 = spec.module(x0)
    for i, (yn, f) in enumerate(zip(y_names, morphisms), start=1):
        if f.source != X0 or f.target != spec.module(yn):
            raise ValueError(f"morphism {i} does not run X0 -> {yn}")
        if not in_class(spec, f):
            raise ValueError(f"morphism {i} is not in the morphism class")
    levels = []
    for i, f in enumerate(morphisms, start=1):
        checks = tuple((yj, factors_through(spec, f, yj).verdict) for yj in y_names[: i - 1])
        levels.append(WitnessLevel(i, f, checks))
    return WitnessReport(tuple(levels))


def default_witness_family(
    flavor: Flavor,
    upto: int,
    morphism_class: MorphismClass = MorphismClass.INJECTIONS,
    *,
    budget: int | Budget = DEFAULT_BUDGET,
) -> tuple[CategorySpec, str, list[str], list[Hom]]:
    """X_0 = the corner witness, Y_i the (i+3)-rd family member, f_i the
    corner embeddings.  The members are built largest first, so a member
    too large for a dense table is refused before any is built."""
    ns = range(4, upto + 4)
    members = [family(flavor, n) for n in reversed(ns)][::-1]
    x0 = corner_witness(flavor)
    spec = CategorySpec(
        flavor, tuple((lat.name, lat.module) for lat in [x0, *members]), morphism_class, budget
    )
    return spec, x0.name, [lat.name for lat in members], [corner_embedding(n, flavor) for n in ns]
