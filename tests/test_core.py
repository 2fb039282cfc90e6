import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import semimod as sm
from semimod import Flavor
from semimod.free import FreeModule, FreeOrder
from semimod.serialize import resolve_module_ref

from conftest import assorted_modules, chain_module, diamond_m3, pentagon_n5, refuse_free_names
from oracles import (
    ZERO,
    closure_bfs,
    distributivity_all_triples,
    distributivity_by_meets,
    down_masks_by_pairs,
    family_reference,
    irreducibles_by_closure,
    meet_by_search,
    normalize,
    order_counts,
    order_masks_by_pairs,
    scan_violations,
    t_add,
    t_gen,
    t_neg,
)


def test_scalar_b_is_valid():
    report = sm.validate_module(sm.scalar_module(Flavor.B))
    assert report.ok


def test_scalar_finf_is_valid():
    report = sm.validate_module(sm.scalar_module(Flavor.FINF))
    assert report.ok


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_one_element_module_valid(flavor):
    neg = (0,) if flavor is Flavor.FINF else None
    m = sm.FinModule(flavor, ("0",), 0, (0,), neg_table=neg)
    assert sm.validate_module(m).ok


def test_absorbing_violation_is_reported_with_witness():
    f = sm.scalar_module(Flavor.FINF)
    one = f.index_of_name["1"]
    table = list(f.add_table)
    table[f.zero * f.size + one] = one
    table[one * f.size + f.zero] = one  # keep commutativity intact
    broken = sm.FinModule(Flavor.FINF, f.names, f.zero, tuple(table), neg_table=f.neg_table)
    report = sm.validate_module(broken)
    assert not report.ok
    violation = {v.axiom: v.witness for v in report.violations}
    assert violation["zero_absorbing"] == (f.zero, one)


def test_structural_error_distinct_from_axiom_violation():
    with pytest.raises(sm.ModuleStructureError):
        sm.validate_module(sm.FinModule(Flavor.B, ("0", "1"), 0, (0, 1, 1)))
    with pytest.raises(sm.ModuleStructureError):
        sm.validate_module(sm.FinModule(Flavor.B, ("0", "1"), 0, (0, 1, 1, 7)))
    with pytest.raises(sm.ModuleStructureError):
        sm.validate_module(sm.FinModule(Flavor.B, ("0", "0"), 0, (0, 1, 1, 1)))


def test_neg_table_flavor_rules():
    with pytest.raises(sm.ModuleStructureError):
        sm.validate_module(sm.FinModule(Flavor.B, ("0", "1"), 0, (0, 1, 1, 1), neg_table=(0, 1)))
    with pytest.raises(sm.ModuleStructureError):
        sm.validate_module(sm.FinModule(Flavor.FINF, ("0",), 0, (0,)))


def test_induced_order_on_scalars():
    b = sm.scalar_module(Flavor.B)
    order = sm.induced_order(b)
    zero, one = b.index_of_name["0"], b.index_of_name["1"]
    assert order.leq(zero, one) and not order.leq(one, zero)
    # the zero lies below every element
    assert order.masks[zero] == (1 << b.size) - 1

    f = sm.scalar_module(Flavor.FINF)
    order = sm.induced_order(f)
    z, one, mone = (f.index_of_name[k] for k in ("0", "1", "-1"))
    assert order.leq(one, z) and order.leq(mone, z)
    assert not order.leq(one, mone) and not order.leq(mone, one)
    # every element lies below the zero
    assert order.down_masks[z] == (1 << f.size) - 1


def test_induced_order_on_d3_matches_index_domination():
    lat = sm.family(Flavor.B, 3)
    mod = lat.module
    a12, a22, a13 = lat.label(1, 2), lat.label(2, 2), lat.label(1, 3)
    assert mod.leq(a12, a22)
    assert not mod.leq(a13, a22)
    for p in lat.index_pairs:
        for q in lat.index_pairs:
            dominated = p[0] <= q[0] and p[1] <= q[1]
            assert mod.leq(lat.label(*p), lat.label(*q)) == dominated


def test_join_irreducibles_of_free_are_singletons():
    for k in range(1, 5):
        free = sm.free_module(Flavor.B, k)
        assert set(sm.join_irreducibles(free)) == set(sm.generator_ids(free))


def test_generated_submodule_on_d3():
    lat = sm.family(Flavor.B, 3)
    got = sm.generated_submodule(lat.module, {lat.label(1, 2), lat.label(2, 1)})
    expected = {lat.module.zero, lat.label(1, 2), lat.label(2, 1), lat.label(2, 2)}
    assert got == frozenset(expected)


@pytest.mark.parametrize("bad", [-1, 9])
def test_element_ids_outside_the_carrier_are_refused(bad):
    # -1 would index the top of D3 (9 elements) and 9 nothing
    m = sm.family(Flavor.B, 3).module
    calls = (
        lambda: sm.generated_submodule(m, [bad]),
        lambda: sm.submodule_on(m, [bad]),
        lambda: sm.generated_congruence(m, [(bad, 0)]),
        lambda: sm.generated_congruence(m, [(0, bad)]),
    )
    for call in calls:
        with pytest.raises(sm.ModuleStructureError, match=f"element {bad} is not an element id"):
            call()


def test_generated_submodule_whole_carrier():
    m = diamond_m3()
    assert sm.generated_submodule(m, range(m.size)) == frozenset(range(m.size))


def test_generated_submodule_on_e3():
    lat = sm.family(Flavor.FINF, 3)
    a33 = lat.label(3, 3)
    got = sm.generated_submodule(lat.module, {a33})
    assert got == frozenset({lat.module.zero, a33, lat.module.neg_of(a33)})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generated_submodule_closure_laws(data):
    lat = sm.family(Flavor.B, 4) if data.draw(st.booleans()) else sm.family(Flavor.FINF, 3)
    m = lat.module
    ids = st.sets(st.integers(min_value=0, max_value=m.size - 1), max_size=4)
    small = data.draw(ids)
    bigger = small | data.draw(ids)
    c_small = sm.generated_submodule(m, small)
    c_big = sm.generated_submodule(m, bigger)
    assert small <= c_small                       # extensive
    assert c_small <= c_big                        # monotone
    assert sm.generated_submodule(m, c_small) == c_small  # idempotent


def test_generated_submodule_agrees_with_bfs_oracle():
    rng = random.Random(31)
    proper = 0
    for m in assorted_modules():
        for _ in range(12):
            seed = [rng.randrange(m.size) for _ in range(rng.randint(0, 4))]
            got = sm.generated_submodule(m, seed)
            assert got == frozenset(closure_bfs(m, seed)), (m.names, seed)
            proper += len(got) < m.size
    assert proper >= 100, proper


def test_order_counts_and_their_floors_agree_with_pair_loops():
    # assorted_modules() holds free B ranks 0-5 and Finf ranks 0-3, whose
    # counts have closed forms; the oracle sums over all pairs
    for m in assorted_modules():
        down, up = order_counts(m)
        assert m.order.counts == (tuple(down), tuple(up)), m.names
        for counts, floors in zip((down, up), m.order.count_floors):
            assert len(floors) == max(counts) + 1
            for t, mask in enumerate(floors):
                assert mask == sum(1 << e for e, c in enumerate(counts) if c >= t), (m.names, t)


def test_induced_order_agrees_with_the_pair_loop():
    rng = random.Random(41)
    quotients = []
    for base in ("D3", "D5", "E2", "E3"):
        m = resolve_module_ref(base)
        for _ in range(6):
            pairs = [(rng.randrange(m.size), rng.randrange(m.size)) for _ in range(2)]
            quotients.append(sm.quotient_with_projection(m, sm.generated_congruence(m, pairs))[0])
    # assorted_modules() holds D0, D2-D4, E0, E2-E4 and free modules too
    larger = [resolve_module_ref(r) for r in ("D5", "D6")]
    tabled = [family_reference(Flavor.B, 5), family_reference(Flavor.FINF, 3)]
    doubles = [sm.signed_double(resolve_module_ref(r)) for r in ("free:B:3", "D4")]
    for m in assorted_modules() + larger + quotients + tabled + doubles:
        order = sm.induced_order(m)
        assert list(order.masks) == order_masks_by_pairs(m), m.names
        assert list(order.down_masks) == down_masks_by_pairs(m), m.names
        for a, b in itertools.product(range(m.size), repeat=2):
            assert order.leq(a, b) == m.leq(a, b) == (m.add_of(a, b) == b), (m.names, a, b)
    for flavor, top in ((Flavor.B, 4), (Flavor.FINF, 3)):
        for rank in range(top + 1):
            free = sm.free_module(flavor, rank)
            ref = order_masks_by_pairs(free)
            assert isinstance(free.order, FreeOrder) and sm.induced_order(free) is free.order
            assert list(free.order.masks) == ref
            assert list(free.order.down_masks) == down_masks_by_pairs(free)


@pytest.mark.parametrize("flavor, n", [(Flavor.B, 5), (Flavor.FINF, 3)])
def test_each_module_is_scanned_once(flavor, n, monkeypatch):
    scanned = []
    real = sm.core._scan_violations

    def counting(m):
        scanned.append(m)
        return real(m)

    monkeypatch.setattr(sm.core, "_scan_violations", counting)
    # built anew, past the constructor's cache; the order of a member is its
    # keys', so only validate_module scans it
    m = sm.families.family.__wrapped__(flavor, n).module
    report = sm.validate_module(m)
    order = sm.induced_order(m)
    assert report.ok and sm.validate_module(m) is report
    assert m.order is order and sm.induced_order(m) is order
    sm.irreducible_generators(m)
    assert sm.projectivity_certificate(m).projective
    assert [x for x in scanned if x is m] == [m]
    assert all(x.free_rank is not None for x in scanned if x is not m)


def finf_module_with(neg_of):
    """The free Finf module on two generators, with its addition as a table
    and the negation ``neg_of`` given by signed supports."""
    free = sm.free_module(Flavor.FINF, 2)
    ids = range(free.size)
    add = tuple(free.add_of(a, b) for a in ids for b in ids)
    support = {sm.support_of(free, e): e for e in ids}
    neg = tuple(support[neg_of(sm.support_of(free, e))] for e in ids)
    return sm.FinModule(Flavor.FINF, free.names, free.zero, add, neg_table=neg)


def _identity(supp):
    return supp


def _twisted(supp):
    # an involution with a + -a = 0 that fixes zero, but -(A1 + A2) = -A1
    # while -A1 + -A2 = (-A1+A2) + -A2 = 0
    swaps = {
        ((0, 1),): ((0, -1), (1, 1)),
        ((0, -1),): ((0, 1), (1, 1)),
        ((0, 1), (1, -1)): ((0, -1), (1, -1)),
        ((1, 1),): ((1, -1),),
    }
    swaps.update({v: k for k, v in swaps.items()})
    return swaps.get(supp, supp)


@pytest.mark.parametrize(
    "neg_of, axiom", [(_identity, "neg_cancels"), (_twisted, "neg_distributes")]
)
def test_reading_the_order_of_an_invalid_module_raises(neg_of, axiom):
    # the addition is the free module's, so the induced order is a partial
    # order with the zero on top; only the negation is wrong
    m = finf_module_with(neg_of)
    assert sm.validate_module(m).axioms() == (axiom,)
    # reflexive with the zero on top, antisymmetric and transitive
    up = order_masks_by_pairs(m)
    for a in range(m.size):
        assert up[a] >> a & 1 and up[a] >> m.zero & 1
        for b in range(m.size):
            if b != a and up[a] >> b & 1:
                assert not up[b] >> a & 1 and not up[b] & ~up[a]
    scalars = sm.scalar_module(Flavor.FINF)
    for read in (
        lambda: m.order,
        lambda: m.leq(0, 1),
        lambda: sm.induced_order(m),
        lambda: sm.check_hom(sm.Hom(m, scalars, (0,) * m.size)),
        lambda: next(sm.iter_homs(m, scalars)),
    ):
        with pytest.raises(sm.ModuleStructureError, match=f"fails the module axioms: {axiom}"):
            read()


def test_orders_hash_compare_and_print_without_their_masks(monkeypatch):
    # an order is one object per module, compared and hashed by identity; a
    # free:Finf:8 order's masks would take 6,561 passes
    def refuse(self):
        raise AssertionError("the order masks were built")

    modules = [sm.free_module(Flavor.FINF, 8), resolve_module_ref("E5"), pentagon_n5()]
    orders = [m.order for m in modules]
    monkeypatch.setattr(sm.PartialOrder, "masks", property(refuse))
    monkeypatch.setattr(sm.PartialOrder, "down_masks", property(refuse))
    assert len(set(orders)) == 3 and hash(orders[0]) == hash(modules[0].order)
    for m, order in zip(modules, orders):
        assert order == order and order == m.order and order in orders
        assert order != sm.PartialOrder(order.order_keys)
        assert repr(order) == f"{type(order).__name__}(size={m.size})"


def test_validate_module_refuses_modules_too_large_to_scan():
    # the scan needs a dense table; these have more than DENSE_TABLE_LIMIT
    # entries, whether the module computes them or carries them (here as
    # bytes, an 8 MB table)
    n = 2897
    tabled = sm.FinModule(Flavor.B, tuple(map(str, range(n))), 0, bytes(n * n))
    for m in (sm.free_module(Flavor.B, 12), sm.free_module(Flavor.FINF, 8), tabled):
        with pytest.raises(sm.ModuleStructureError):
            sm.validate_module(m)


def test_congruence_partition_validation():
    with pytest.raises(sm.ModuleStructureError):
        sm.Congruence(3, ((0, 1), (1, 2)))
    with pytest.raises(sm.ModuleStructureError):
        sm.Congruence(3, ((0, 1),))


def test_quotient_identity_and_total():
    m = diamond_m3()
    q_id = sm.quotient_with_projection(m, sm.Congruence.identity(m.size))[0]
    assert q_id.size == m.size
    assert sm.validate_module(q_id).ok
    q_tot = sm.quotient_with_projection(m, sm.Congruence.total(m.size))[0]
    assert q_tot.size == 1


def test_quotient_of_free_rank2_by_generated_congruence_is_chain():
    free = sm.free_module(Flavor.B, 2)
    a1 = sm.element_of_support(free, [(0, 1)])
    a12 = sm.element_of_support(free, [(0, 1), (1, 1)])
    cong = sm.generated_congruence(free, [(a1, a12)])
    q = sm.quotient_with_projection(free, cong)[0]
    assert q.size == 3
    order = sm.induced_order(q)
    assert sum(order.leq(a, b) for a in range(3) for b in range(3)) == 6  # total order


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generated_congruences_are_compatible(data):
    lat = sm.family(Flavor.B, 3) if data.draw(st.booleans()) else sm.family(Flavor.FINF, 2)
    m = lat.module
    pair_strategy = st.tuples(
        st.integers(min_value=0, max_value=m.size - 1),
        st.integers(min_value=0, max_value=m.size - 1),
    )
    pairs = data.draw(st.lists(pair_strategy, max_size=3))
    cong = sm.generated_congruence(m, pairs)
    assert sm.congruence_compatibility_witness(m, cong) is None
    q = sm.quotient_with_projection(m, cong)[0]
    assert sm.validate_module(q).ok


def test_incompatible_partition_is_rejected():
    m = chain_module(3)
    # identifying 0 with the top is not add-compatible with the middle
    bad = sm.Congruence.from_class_map([0, 1, 0])
    with pytest.raises(sm.ModuleStructureError):
        sm.quotient_with_projection(m, bad)[0]


def test_quotient_projection_is_surjective_hom():
    free = sm.free_module(Flavor.B, 2)
    a1 = sm.element_of_support(free, [(0, 1)])
    a12 = sm.element_of_support(free, [(0, 1), (1, 1)])
    cong = sm.generated_congruence(free, [(a1, a12)])
    q, class_of = sm.quotient_with_projection(free, cong)
    proj = sm.Hom(free, q, tuple(class_of))
    assert proj.is_hom and proj.surjective


def test_distributivity_of_families_and_counterexamples(m3, n5):
    for n in (2, 3, 4):
        assert sm.is_distributive_lattice(sm.family(Flavor.B, n).module).distributive
    assert sm.is_distributive_lattice(chain_module(5)).distributive

    rep = sm.is_distributive_lattice(m3)
    assert not rep.distributive and rep.witness_triple is not None
    a, b, c = rep.witness_triple
    names = {m3.name(a), m3.name(b), m3.name(c)}
    assert names <= {"a", "b", "c", "1"}

    rep5 = sm.is_distributive_lattice(n5)
    assert not rep5.distributive and rep5.witness_triple is not None


def _lattices_to_check():
    """Named lattices plus random ones: sub-semilattices of the free module
    of rank 4 generated by a few random elements, and quotients of the free
    modules of rank 3 and 4 by random congruences; either kind is often not
    distributive.  N5 comes in every labelling of a, b, c, so that its one
    irreducible that is not join-prime, c, takes every position in id
    order."""
    out = [diamond_m3()]
    out += [pentagon_n5(("0", *p, "1")) for p in itertools.permutations("abc")]
    out += [chain_module(k) for k in range(1, 7)]
    out += [sm.family(Flavor.B, n).module for n in range(2, 10)]
    out += [sm.free_module(Flavor.B, r) for r in range(0, 6)]
    rng = random.Random(13)
    free4, free3 = sm.free_module(Flavor.B, 4), sm.free_module(Flavor.B, 3)
    for _ in range(25):
        seed = rng.sample(range(1, free4.size), rng.randint(2, 5))
        out.append(sm.submodule_on(free4, sm.generated_submodule(free4, seed))[0])
    for free, count in ((free3, 15), (free4, 30)):
        for _ in range(count):
            pairs = [(rng.randrange(free.size), rng.randrange(free.size)) for _ in range(2)]
            out.append(sm.quotient_with_projection(free, sm.generated_congruence(free, pairs))[0])
    return out


def test_distributivity_on_generators_agrees_with_all_triples_oracle():
    verdicts = {True: 0, False: 0}
    for m in _lattices_to_check():
        rep = sm.is_distributive_lattice(m)
        assert rep.distributive == distributivity_all_triples(m).distributive, m.names
        assert rep.distributive == distributivity_by_meets(m).distributive, m.names
        verdicts[rep.distributive] += 1
        if not rep.distributive:
            a, b, c = rep.witness_triple
            assert c in m.generating_set
            lhs = meet_by_search(m, a, m.add_of(b, c))
            rhs = m.add_of(meet_by_search(m, a, b), meet_by_search(m, a, c))
            assert lhs != rhs
    assert verdicts[True] >= 50 and verdicts[False] >= 20, verdicts


def test_distributivity_of_large_free_modules_reads_no_order_masks(monkeypatch):
    # the masks of a free module take |F|^2 bits; join-primality reads none
    def refuse(self):
        raise AssertionError("the check read the masks of a free order")

    monkeypatch.setattr(FreeOrder, "masks", property(refuse))
    monkeypatch.setattr(FreeOrder, "down_masks", property(refuse))
    assert sm.is_distributive_lattice(sm.free_module(Flavor.B, 16)).distributive


def test_distributivity_rejects_finf():
    with pytest.raises(sm.FlavorMismatchError):
        sm.is_distributive_lattice(sm.scalar_module(Flavor.FINF))


def test_carrier_cap():
    with pytest.raises(sm.ModuleStructureError):
        sm.FinModule(Flavor.B, tuple(str(i) for i in range(sm.CARRIER_CAP + 1)), 0, None)


def test_a_module_without_names_reads_them_from_its_backend(monkeypatch):
    # a free module builds its names only when they are read
    def refuse(m):
        raise AssertionError("names built before they were read")

    monkeypatch.setattr(sm.free, "_names", refuse)
    free = FreeModule(Flavor.B, 2)
    assert free.size == 4 and free.add_of(1, 2) == 3
    monkeypatch.undo()
    assert free.names == ("0", "A1", "A2", "A1+A2")
    assert free.name(3) == "A1+A2" and free.index_of_name["A2"] == 2


def test_a_malformed_table_is_refused_when_the_module_is_built():
    with pytest.raises(sm.ModuleStructureError, match="add table has 3 entries, expected 4"):
        sm.FinModule(Flavor.B, ("0", "1"), 0, (0, 1, 1))
    with pytest.raises(sm.ModuleStructureError, match="needs a flat add table"):
        sm.FinModule(Flavor.B, ("0", "1"), 0, None)


@pytest.mark.parametrize("ref", ["free:B:12", "free:Finf:8"])
def test_validating_a_large_free_module_builds_no_names(monkeypatch, ref):
    refuse_free_names(monkeypatch)
    with pytest.raises(sm.ModuleStructureError, match="too large to materialize"):
        sm.validate_module(resolve_module_ref(ref))


def test_submodule_on_requires_closure(m3):
    one = m3.index_of_name["1"]
    a, b = m3.index_of_name["a"], m3.index_of_name["b"]
    sub, ids = sm.submodule_on(m3, {a, one})
    assert sub.size == 3
    with pytest.raises(sm.ModuleStructureError):
        sm.submodule_on(m3, {a, b})


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_submodule_on_names_the_first_element_outside_the_subset(flavor):
    # the first sum (a, b) that leaves the subset, rows in id order, with -a
    # (flavor Finf) checked after row a; a closed subset gives the restriction
    m = sm.family(flavor, 3).module
    rng = random.Random(5)
    refused, closed = set(), 0
    for _ in range(200):
        picked = {rng.randrange(m.size) for _ in range(rng.randint(1, 4))}
        ids = sorted(picked | {m.zero})
        if rng.random() < 0.5:
            ids = sorted(sm.generated_submodule(m, picked))
        expected = None
        for a in ids:
            outside = [b for b in ids if m.add_of(a, b) not in ids]
            if outside:
                expected = f"addition at ({m.name(a)}, {m.name(outside[0])})"
                break
            if flavor is Flavor.FINF and m.neg_of(a) not in ids:
                expected = f"negation at {m.name(a)}"
                break
        if expected is not None:
            with pytest.raises(sm.ModuleStructureError) as err:
                sm.submodule_on(m, ids)
            assert str(err.value) == f"subset not closed under {expected}"
            refused.add(expected.split()[0])
            continue
        sub, emb = sm.submodule_on(m, ids)
        assert emb == tuple(ids)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert ids[sub.add_of(i, j)] == m.add_of(a, b)
            if flavor is Flavor.FINF:
                assert ids[sub.neg_of(i)] == m.neg_of(a)
        closed += 1
    assert closed and refused == ({"addition", "negation"} if flavor is Flavor.FINF else {"addition"})


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_scan_paths_agree_on_mutations(data):
    # both flavors: the reference tables of D0 (9 elements), E4 (25) and E9 (65)
    flavor, n_ref = data.draw(st.sampled_from([(Flavor.B, 0), (Flavor.FINF, 4), (Flavor.FINF, 9)]))
    base = family_reference(flavor, n_ref)
    n = base.size
    table = list(base.add_table)
    neg = list(base.neg_table) if base.neg_table is not None else None
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        pos = data.draw(st.integers(min_value=0, max_value=n * n - 1))
        table[pos] = data.draw(st.integers(min_value=0, max_value=n - 1))
    # symmetric off-diagonal mutations keep commutativity and idempotence,
    # so that the order-mask associativity test decides
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = (a + data.draw(st.integers(min_value=1, max_value=n - 1))) % n
        table[a * n + b] = table[b * n + a] = data.draw(st.integers(min_value=0, max_value=n - 1))
    if neg is not None and data.draw(st.booleans()):
        pos = data.draw(st.integers(min_value=0, max_value=n - 1))
        neg[pos] = data.draw(st.integers(min_value=0, max_value=n - 1))
    mutant = sm.FinModule(
        base.flavor, base.names, base.zero, tuple(table),
        neg_table=tuple(neg) if neg is not None else None,
    )
    violations = scan_violations(mutant)
    assert list(sm.validate_module(mutant).violations) == violations
    if violations:
        with pytest.raises(sm.ModuleStructureError, match=violations[0].axiom):
            sm.induced_order(mutant)
    else:
        assert list(sm.induced_order(mutant).masks) == order_masks_by_pairs(mutant)


def test_validate_module_agrees_with_oracle_scan_on_assorted_modules():
    for m in assorted_modules():
        assert list(sm.validate_module(m).violations) == scan_violations(m), m.names


def test_irreducible_generators_agree_with_closure_oracle():
    for m in assorted_modules():
        assert sm.irreducible_generators(m) == irreducibles_by_closure(m), m.names


def test_term_normalization_matches_axioms():
    # (a + a) + (-a) collapses to zero in flavor Finf, not to a
    t = t_add(t_add(t_gen(0), t_gen(0)), t_neg(t_gen(0)))
    assert normalize(t, Flavor.FINF) == ZERO
    assert normalize(t_add(t_gen(0), t_add(t_gen(1), t_gen(0))), Flavor.B) == frozenset(
        {(0, 1), (1, 1)}
    )
