"""Independent reference constructions used only by the tests.

These deliberately avoid the library's support-bitmask encoding: the term
oracle normalizes formal expressions by rewriting with the defining
identities, and the product oracle closes the coordinate vectors inside a
power of the scalars.  Both pin down what the free modules must be.  The
axiom scan, the hom check and the hom filter below are the plain
all-triples, all-pairs and all-maps loops that the library's order-mask
scan, generator-set hom check and backtracking search must match.  The
generating-set scan is the reference for the kind and witness that the
hom check reports for a free source, where it compares the map with the
extension of its generator images.  The names are formatted term by term,
where the library extends shorter names.  The closure and the support
sums are the breadth-first and per-element references for the library's
span walk, the irreducibles take one closure per element where the
library sums a down-set, the order counts are a loop over all pairs, the
factorization walks the complete hom catalog of one side, and the two
distributivity checks compute meets where the library tests the
irreducibles for join-primality.  The corner retractions are the case
formulas per flavor where the library takes the lower adjoint of the
corner embedding, and the section's generator order is the printed table
where the library sorts the irreducibles by a key.  The family tables are
filled one entry at a time after a separate max- and min-closure pass,
where the library builds each row at C level and checks closure as it
goes, and the Finf support codes deposit each sign pattern bit by bit,
where the library steps through the submasks of the support.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional

from semimod import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DistributivityReport,
    FinModule,
    Flavor,
    FlavorMismatchError,
    Hom,
    HomConstraints,
    ModuleStructureError,
    Violation,
    construct_D0,
    construct_Dn,
    construct_E0,
    construct_En,
    iter_homs,
)
from semimod.free import generator_ids, support_of
from semimod.homs import HomCheck
from semimod.noetherian import (
    CategorySpec,
    FactorizationResult,
    MorphismClass,
    Verdict,
    hom_catalog,
    in_class,
)

ZERO = ("zero",)


def t_gen(i: int):
    return ("gen", i)


def t_neg(t):
    return ("neg", t)


def t_add(a, b):
    return ("add", a, b)


def normalize(term, flavor: Flavor):
    """Canonical form of a formal term under the module identities.

    Flavor B: associativity/commutativity/idempotence flatten a sum into a
    set of generators, and the neutral zero drops out.  Flavor Finf: the
    same flattening, except zero absorbs, negation distributes and is an
    involution, and a + (-a) collapses everything to zero.  Returns ZERO or
    a frozenset of (generator, sign) atoms.
    """
    kind = term[0]
    if kind == "zero":
        return ZERO
    if kind == "gen":
        return frozenset({(term[1], 1)})
    if kind == "neg":
        if flavor is Flavor.B:
            raise ValueError("no negation in flavor B terms")
        inner = normalize(term[1], flavor)
        if inner == ZERO:
            return ZERO  # -0 = 0
        return frozenset((g, -s) for g, s in inner)  # -(a+b) = (-a)+(-b)
    a = normalize(term[1], flavor)
    b = normalize(term[2], flavor)
    if flavor is Flavor.B:
        if a == ZERO:
            return b  # 0 + b = b
        if b == ZERO:
            return a
        return a | b  # flatten by assoc/comm, dedupe by idempotence
    if a == ZERO or b == ZERO:
        return ZERO  # 0 absorbs
    merged = a | b
    if any((g, -s) in merged for g, s in merged):
        return ZERO  # a + (-a) = 0 absorbs the whole sum
    return merged


def term_closure(flavor: Flavor, rank: int):
    """All normal forms reachable from the generators and zero under add/neg."""
    forms = {normalize(t_gen(i), flavor) for i in range(rank)}
    forms.add(ZERO)
    grew = True
    while grew:
        grew = False
        current = list(forms)
        for a in current:
            if flavor is Flavor.FINF:
                na = ZERO if a == ZERO else frozenset((g, -s) for g, s in a)
                if na not in forms:
                    forms.add(na)
                    grew = True
            for b in current:
                if a == ZERO or b == ZERO:
                    s = b if a == ZERO else a
                    s = s if flavor is Flavor.B else ZERO
                else:
                    s = a | b
                    if flavor is Flavor.FINF and any((g, -sg) in s for g, sg in s):
                        s = ZERO
                if s not in forms:
                    forms.add(s)
                    grew = True
    return forms


def product_closure_count(flavor: Flavor, rank: int) -> int:
    """Size of the submodule generated by the coordinate vectors inside the
    product of scalar evaluations: a lower bound realization of the free
    module that never mentions supports."""
    if flavor is Flavor.B:
        scalars = (0, 1)

        def sc_add(x, y):
            return x | y

        sc_neg = None
    else:
        scalars = (-1, 0, 1)

        def sc_add(x, y):
            if x == 0 or y == 0 or x == -y:
                return 0
            return x

        def sc_neg(x):
            return -x

    assignments = list(itertools.product(scalars, repeat=rank))
    gens = {tuple(alpha[i] for alpha in assignments) for i in range(rank)}
    zero_vec = tuple(0 for _ in assignments)
    seen = set(gens) | {zero_vec}
    frontier = list(seen)
    while frontier:
        fresh = []
        snapshot = list(seen)
        for b in frontier:
            if sc_neg is not None:
                e = tuple(sc_neg(x) for x in b)
                if e not in seen:
                    seen.add(e)
                    fresh.append(e)
            for a in snapshot:
                e = tuple(sc_add(x, y) for x, y in zip(a, b))
                if e not in seen:
                    seen.add(e)
                    fresh.append(e)
        frontier = fresh
    return len(seen)


def hom_table_module(domain: FinModule, n_homs: list[tuple[int, ...]]) -> FinModule:
    """The set of maps as a module under pointwise addition (flavor B)."""
    index = {mp: i for i, mp in enumerate(n_homs)}
    size = len(n_homs)
    add = []
    zero_map = tuple(0 for _ in range(domain.size))
    for f in n_homs:
        for g in n_homs:
            s = tuple(x | y for x, y in zip(f, g))
            add.append(index[s])
    names = tuple(f"h{i}" for i in range(size))
    return FinModule(Flavor.B, names, index[zero_map], tuple(add))


def brute_module_pairs(m: FinModule) -> Iterable[tuple[int, int]]:
    return itertools.product(range(m.size), repeat=2)


def scan_violations(m: FinModule) -> list[Violation]:
    """Every axiom checked by a plain loop over all pairs and triples, with
    the first witness in row-major order: the reference for validate_module."""
    n = m.size
    add = m.add_of
    out: list[Violation] = []

    w = next(((a, b) for a in range(n) for b in range(n) if add(a, b) != add(b, a)), None)
    if w:
        out.append(Violation("add_commutative", w))
    w3 = next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if add(add(a, b), c) != add(a, add(b, c))
        ),
        None,
    )
    if w3:
        out.append(Violation("add_associative", w3))
    w1 = next(((a,) for a in range(n) if add(a, a) != a), None)
    if w1:
        out.append(Violation("add_idempotent", w1))

    z = m.zero
    if m.flavor is Flavor.B:
        w1 = next(((a,) for a in range(n) if add(z, a) != a), None)
        if w1:
            out.append(Violation("zero_neutral", (z,) + w1))
    else:
        w1 = next(((a,) for a in range(n) if add(z, a) != z), None)
        if w1:
            out.append(Violation("zero_absorbing", (z,) + w1))
        neg = m.neg_of
        w1 = next(((a,) for a in range(n) if neg(neg(a)) != a), None)
        if w1:
            out.append(Violation("neg_involution", w1))
        w1 = next(((a,) for a in range(n) if add(a, neg(a)) != z), None)
        if w1:
            out.append(Violation("neg_cancels", w1))
        w = next(
            (
                (a, b)
                for a in range(n)
                for b in range(n)
                if neg(add(a, b)) != add(neg(a), neg(b))
            ),
            None,
        )
        if w:
            out.append(Violation("neg_distributes", w))
        if neg(z) != z:
            out.append(Violation("neg_fixes_zero", (z,)))
    return out


def meet_by_search(m: FinModule, a: int, b: int) -> Optional[int]:
    """The greatest common lower bound of a and b in the induced order,
    found by testing every element, or None if there is none."""
    add = m.add_of
    lower = [z for z in range(m.size) if add(z, a) == a and add(z, b) == b]
    tops = [z for z in lower if all(add(w, z) == z for w in lower)]
    return tops[0] if tops else None


def distributivity_all_triples(m: FinModule) -> DistributivityReport:
    """Meet over join checked on every triple, with meets from
    :func:`meet_by_search` and the first failure in row-major order: the
    reference for is_distributive_lattice.  Every pair must have a meet,
    as in every finite join-semilattice with a bottom."""
    n = m.size
    add = m.add_of
    meet = {}
    for a in range(n):
        for b in range(n):
            z = meet_by_search(m, a, b)
            assert z is not None, f"no meet of ({a}, {b})"
            meet[a, b] = z
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[a, add(b, c)] != add(meet[a, b], meet[a, c]):
            return DistributivityReport(False, witness_triple=(a, b, c))
    return DistributivityReport(True)


def distributivity_by_meets(m: FinModule) -> DistributivityReport:
    """Meet over join checked for all a, b and for c in the generating set
    S only, n^2·|S| checks, with each meet the sum of the common down-set:
    the second reference for is_distributive_lattice.

    Checking c in S suffices.  Every element is 0 or c' ∨ s with s in S and
    c' shorter, so induct on c: for c = 0 both sides are a ∧ b, and for
    c = c' ∨ s the checks at (a, b ∨ c', s) and (a, c', s) and the induction
    hypothesis give a ∧ (b ∨ c' ∨ s) = (a ∧ b) ∨ (a ∧ (c' ∨ s)).
    """
    n = m.size
    add = m.add_of
    down = m.order.down_masks
    meets = [0] * (n * n)
    for a in range(n):
        for b in range(a, n):
            acc = m.zero
            bits = down[a] & down[b]
            while bits:
                low = bits & -bits
                acc = add(acc, low.bit_length() - 1)
                bits ^= low
            assert m.leq(acc, a) and m.leq(acc, b), f"no meet of ({a}, {b})"
            meets[a * n + b] = meets[b * n + a] = acc
    for a in range(n):
        row = meets[a * n : (a + 1) * n]
        for b in range(n):
            for c in m.generating_set:
                if row[add(b, c)] != add(row[b], row[c]):
                    return DistributivityReport(False, witness_triple=(a, b, c))
    return DistributivityReport(True)


def check_hom_all_pairs(f: Hom) -> HomCheck:
    """The morphism identities checked on every pair and every element, with
    the first violation in row-major order: the reference for check_hom."""
    M, N = f.source, f.target
    if M.flavor is not N.flavor:
        raise FlavorMismatchError("source and target flavors differ")
    val = f.map
    if val[M.zero] != N.zero:
        return HomCheck(False, "zero", (M.zero,))
    for a in range(M.size):
        for b in range(M.size):
            if val[M.add_of(a, b)] != N.add_of(val[a], val[b]):
                return HomCheck(False, "add", (a, b))
    if M.flavor is Flavor.FINF:
        for a in range(M.size):
            if val[M.neg_of(a)] != N.neg_of(val[a]):
                return HomCheck(False, "neg", (a,))
    return HomCheck(True)


def check_hom_on_generating_set(f: Hom) -> HomCheck:
    """f(0) = 0, f(x + s) = f(x) + f(s) for x in the source and s in its
    ``generating_set``, and (flavor Finf) f(-s) = -f(s), with the first
    violation in that order: the scan that check_hom runs on sources that
    are not free.  On a free source check_hom compares f with the extension
    of its generator images instead, and must report the same kind and
    witness as this scan."""
    M, N = f.source, f.target
    val = f.map
    if val[M.zero] != N.zero:
        return HomCheck(False, "zero", (M.zero,))
    for x in range(M.size):
        for s in M.generating_set:
            if val[M.add_of(x, s)] != N.add_of(val[x], val[s]):
                return HomCheck(False, "add", (x, s))
    if M.flavor is Flavor.FINF:
        for s in M.generating_set:
            if val[M.neg_of(s)] != N.neg_of(val[s]):
                return HomCheck(False, "neg", (s,))
    return HomCheck(True)


def brute_force_homs(
    M: FinModule,
    N: FinModule,
    constraints: Optional[HomConstraints] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[Hom]:
    """Filter every total map: the reference for enumerate_homs, with the
    same contract.

    The candidate space is narrowed by pins before the budget precheck, so
    heavily pinned searches on larger carriers stay admissible.
    """
    if M.flavor is not N.flavor:
        raise FlavorMismatchError("hom search requires matching flavors")
    cons = constraints or HomConstraints()
    allowed: dict[int, frozenset[int]] = {}
    if cons.allowed:
        for x, vs in cons.allowed.items():
            allowed[x] = frozenset(vs)
    for x, v in cons.pinned.items():
        prev = allowed.get(x)
        allowed[x] = frozenset({v}) if prev is None else prev & {v}
    cand_lists = []
    total = 1
    for x in range(M.size):
        want = allowed.get(x)
        cands = sorted(want) if want is not None else list(range(N.size))
        if not cands:
            return []
        cand_lists.append(cands)
        total *= len(cands)
        if total > budget:
            raise BudgetExceededError(
                f"brute force space of {total}+ maps exceeds budget {budget}", 0
            )
    addM, addN = M.add_of, N.add_of
    n = M.size
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    finf = M.flavor is Flavor.FINF
    out = []
    for val in itertools.product(*cand_lists):
        if val[M.zero] != N.zero:
            continue
        if cons.require_injective and len(set(val)) != n:
            continue
        if cons.covers is not None and not set(cons.covers) <= set(val):
            continue
        ok = True
        for a, b in pairs:
            if val[addM(a, b)] != addN(val[a], val[b]):
                ok = False
                break
        if ok and finf:
            for a in range(n):
                if val[M.neg_of(a)] != N.neg_of(val[a]):
                    ok = False
                    break
        if ok:
            out.append(Hom(M, N, val))
    return out


def order_counts(m: FinModule) -> tuple[list[int], list[int]]:
    """|down(x)| and |up(x)| for every x, one test of the order's masks per
    pair: the reference for ``PartialOrder.counts``."""
    masks = m.order.masks
    down, up = [0] * m.size, [0] * m.size
    for a in range(m.size):
        for b in range(m.size):
            if masks[a] >> b & 1:  # a <= b
                down[b] += 1
                up[a] += 1
    return down, up


def closure_bfs(m: FinModule, start: Iterable[int]) -> set[int]:
    """Breadth-first closure of ``start`` and zero under addition and (flavor
    Finf) negation, summing each new element with everything seen: the
    reference for generated_submodule."""
    add = m.add_of
    has_neg = m.flavor is Flavor.FINF
    seen = set(start)
    seen.add(m.zero)
    frontier = list(seen)
    while frontier:
        fresh: list[int] = []
        snapshot = list(seen)
        for b in frontier:
            if has_neg:
                e = m.neg_of(b)
                if e not in seen:
                    seen.add(e)
                    fresh.append(e)
            for a in snapshot:
                e = add(a, b)
                if e not in seen:
                    seen.add(e)
                    fresh.append(e)
        frontier = fresh
    return seen


def irreducibles_by_closure(m: FinModule) -> tuple[int, ...]:
    """The nonzero elements that the other elements do not generate, by one
    closure of the rest per element, keeping in flavor Finf the smaller id
    of each pair {x, -x}: the reference for irreducible_generators."""
    out = []
    for x in range(m.size):
        if x == m.zero:
            continue
        nx = m.neg_of(x) if m.flavor is Flavor.FINF else x
        if nx < x:
            continue
        others = [e for e in range(m.size) if e != x and e != nx]
        if x not in closure_bfs(m, others):
            out.append(x)
    return tuple(out)


def _name_of_code(code: tuple[int, int]) -> str:
    """The name of the free-module element with support code ``(pos, neg)``,
    formatted term by term: the reference for the names of free_module."""
    pos, neg = code
    if pos == 0 and neg == 0:
        return "0"
    parts = []
    for b in range(max(pos, neg).bit_length()):
        if (pos >> b) & 1:
            parts.append(("+" if parts else "") + f"A{b + 1}")
        elif (neg >> b) & 1:
            parts.append(f"-A{b + 1}")
    return "".join(parts)


def extend_by_support_sums(
    free: FinModule, target: FinModule, images: list[int]
) -> tuple[int, ...]:
    """The map of a free module that sends each element to the target-side
    sum of the signed images of its support: the reference for
    extend_from_generators."""
    gens = generator_ids(free)
    if len(images) != len(gens):
        raise ValueError("one image per free generator")
    out = []
    for e in range(free.size):
        acc = None
        for b, sign in support_of(free, e):
            v = images[b] if sign > 0 else target.neg_of(images[b])
            acc = v if acc is None else target.add_of(acc, v)
        out.append(target.zero if acc is None else acc)
    return tuple(out)


def factors_through_by_catalog(
    spec: CategorySpec, f: Hom, yj: str, *, source: str, target: str
) -> FactorizationResult:
    """p: source -> yj and q: yj -> target in the class with q∘p = f, by
    walking a complete, sorted hom catalog: the reference for
    factors_through, which streams one side and builds no catalog.

    Injection classes: every q of the catalog Hom(yj, target), each with a
    verified left inverse in the split class, pins p = q⁻¹∘f where its
    image holds the values of f, and p is kept if it is a hom in the
    class.  All-homs class: every p of the catalog Hom(source, yj),
    injective or not, that is consistent with f pins q on its image, and
    the rest of q is searched."""
    X, Yj = spec.module(source), spec.module(yj)
    try:
        if spec.morphism_class is not MorphismClass.ALL:
            for entry in hom_catalog(spec, yj, target):
                q = entry.hom
                inverse = {v: w for w, v in enumerate(q.map)}
                if not all(v in inverse for v in f.map):
                    continue  # the image of q misses a value of f
                p = Hom(X, Yj, tuple(inverse[v] for v in f.map))
                if p.is_hom and in_class(spec, p):
                    return FactorizationResult(Verdict.FACTORS, (p, q))
            return FactorizationResult(Verdict.NO_FACTORIZATION)
        for entry in hom_catalog(spec, source, yj):
            p = entry.hom
            pins = dict(zip(p.map, f.map))
            if any(pins[w] != v for w, v in zip(p.map, f.map)):
                continue  # p identifies two elements that f keeps apart
            pinned = HomConstraints(pinned=pins)
            q = next(iter_homs(Yj, spec.module(target), pinned, budget=spec.budget), None)
            if q is not None:
                return FactorizationResult(Verdict.FACTORS, (p, q))
        return FactorizationResult(Verdict.NO_FACTORIZATION)
    except BudgetExceededError:
        return FactorizationResult(Verdict.INCONCLUSIVE)


def assert_componentwise_closed(pairs) -> None:
    """Both the max- and the min-closure of an index set, pair by pair: the
    reference for the closure that the family tables check as they go."""
    have = set(pairs)
    for (a, b) in pairs:
        for (c, d) in pairs:
            if (max(a, c), max(b, d)) not in have:
                raise ModuleStructureError(f"index set not max-closed at {(a, b)}, {(c, d)}")
            if (min(a, c), min(b, d)) not in have:
                raise ModuleStructureError(f"index set not min-closed at {(a, b)}, {(c, d)}")


def join_lattice_by_pairs(pairs, label: str, bottom: str) -> FinModule:
    """Flavor B module on a max-closed index set plus a neutral bottom, one
    table entry at a time: the reference for families._join_lattice."""
    assert_componentwise_closed(pairs)
    pos = {p: idx + 1 for idx, p in enumerate(pairs)}
    size = len(pairs) + 1
    names = (bottom,) + tuple(f"{label}_{i}_{k}" for (i, k) in pairs)
    flat = [0] * (size * size)
    for p, ip in pos.items():
        flat[ip] = ip  # bottom + p
        flat[ip * size] = ip
        for q, iq in pos.items():
            flat[ip * size + iq] = pos[(max(p[0], q[0]), max(p[1], q[1]))]
    return FinModule(Flavor.B, names, 0, tuple(flat))


def signed_lattice_by_pairs(pairs, label: str) -> FinModule:
    """Flavor Finf module: signed copies of the index set around an absorbing
    zero, one table entry at a time: the reference for
    families._signed_lattice."""
    assert_componentwise_closed(pairs)
    k = len(pairs)
    pos = {p: idx + 1 for idx, p in enumerate(pairs)}
    size = 2 * k + 1
    names = (
        ("0",)
        + tuple(f"{label}_{i}_{j}" for (i, j) in pairs)
        + tuple(f"-{label}_{i}_{j}" for (i, j) in pairs)
    )
    flat = [0] * (size * size)
    for p, ip in pos.items():
        for q, iq in pos.items():
            m = pos[(min(p[0], q[0]), min(p[1], q[1]))]
            flat[ip * size + iq] = m
            flat[(ip + k) * size + (iq + k)] = m + k
    neg = [0] + [ip + k for ip in range(1, k + 1)] + [ip for ip in range(1, k + 1)]
    return FinModule(Flavor.FINF, names, 0, tuple(flat), neg_table=tuple(neg))


def codes_by_sign_bits(flavor: Flavor, rank: int) -> list[tuple[int, int]]:
    """The support codes of a free module, zero and then by (size, support,
    signs), each sign pattern deposited into the support bit by bit: the
    reference for free._codes, which steps through the submasks."""
    supports = sorted(range(1, 1 << rank), key=lambda s: (bin(s).count("1"), s))
    if flavor is Flavor.B:
        return [(0, 0)] + [(supp, 0) for supp in supports]
    out = [(0, 0)]
    for supp in supports:
        bits = [b for b in range(rank) if (supp >> b) & 1]
        for signs in range(1 << len(bits)):
            neg = 0
            for j, b in enumerate(bits):
                if (signs >> j) & 1:
                    neg |= 1 << b
            out.append((supp & ~neg, neg))
    return out


def retraction_pair_b(n: int, lat, k: int, l: int) -> tuple[int, int]:
    """The corner of D0 that the retraction D_n -> D0 sends a_k_l to, by
    case formula."""
    leq = lat.module.leq
    e = lat.label(k, l)
    a12, a22, top = lat.label(1, 2), lat.label(2, 2), lat.label(n - 1, n - 1)
    if k <= 2 and l <= 2:
        return (k, l)
    if leq(a12, e) and e != a12 and leq(e, top) and e != a22:
        return (3, 3)
    if (k, l) == (n - 1, n) or (k, l) == (n - 2, n):
        return (3, 4)
    if (k, l) == (n, n - 1):
        return (4, 3)
    if (k, l) == (n, n):
        return (4, 4)
    raise AssertionError(f"retraction case formula does not cover a_{k}_{l}")


def retraction_pair_f(n: int, k: int, l: int) -> tuple[int, int]:
    """The corner of E0 that the retraction E_n -> E0 sends a_k_l to, by
    case formula (-a_k_l goes to the negated corner)."""
    if (k, l) == (1, 1):
        return (1, 1)
    if (k, l) in {(1, 2), (1, 3)}:
        return (1, 2)
    if (k, l) == (2, 1):
        return (2, 1)
    if (k, l) == (n - 1, n - 1):
        return (3, 3)
    if (k, l) == (n - 1, n):
        return (3, 4)
    if (k, l) == (n, n - 1):
        return (4, 3)
    if (k, l) == (n, n):
        return (4, 4)
    return (2, 2)


def retraction_by_case_formula(n: int, flavor: Flavor) -> tuple[int, ...]:
    """The map of the corner retraction X_n -> X0, from the case formulas."""
    src = construct_Dn(n) if flavor is Flavor.B else construct_En(n)
    dst = construct_D0() if flavor is Flavor.B else construct_E0()
    rmap = [0] * src.module.size
    for (k, l) in src.index_pairs:
        if flavor is Flavor.B:
            rmap[src.label(k, l)] = dst.label(*retraction_pair_b(n, src, k, l))
        else:
            p = retraction_pair_f(n, k, l)
            rmap[src.label(k, l)] = dst.label(*p)
            rmap[src.neg_label(k, l)] = dst.neg_label(*p)
    return tuple(rmap)


def section_generator_pairs(flavor: Flavor, n: int) -> list[tuple[int, int]]:
    """The index pairs of the canonical section's generator images
    g(A_1), ..., g(A_{2n-1}), as printed."""
    if flavor is Flavor.B:
        out = [(1, 1), (1, 2), (2, 1)]
        for i in range(2, n):
            out.append((i - 1, i + 1))
            out.append((i + 1, i))
    else:
        out = [(n, n), (n - 1, n), (n, n - 1)]
        for i in range(2, n):
            out.append((n - i, n - i + 2))
            out.append((n - i + 1, n - i))
    return out
