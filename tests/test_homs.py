import itertools
import json
import random

import pytest

import semimod as sm
from semimod import Flavor
from semimod.cli import main
from semimod.core import generating_basis
from semimod.free import FreeOrder
from semimod.serialize import resolve_module_ref as ref

from conftest import (
    assorted_modules,
    chain_module,
    diamond_m3,
    pentagon_n5,
    refuse_free_names,
)
from oracles import (
    brute_force_homs,
    check_hom_all_pairs,
    check_hom_on_generating_set,
    extend_by_support_sums,
)


def D(n):
    """D_n, or the corner witness D0 for n = 0."""
    return sm.family(Flavor.B, n) if n else sm.corner_witness(Flavor.B)


def test_identity_is_hom():
    d5 = D(5).module
    assert sm.identity_hom(d5).is_hom


def test_constant_zero_is_hom_both_flavors():
    d2 = D(2).module
    zmap = sm.Hom(d2, d2, tuple(d2.zero for _ in range(d2.size)))
    assert zmap.is_hom
    free1 = sm.free_module(Flavor.FINF, 1)
    e2 = sm.family(Flavor.FINF, 2).module
    zmap_f = sm.Hom(free1, e2, tuple(e2.zero for _ in range(free1.size)))
    assert zmap_f.is_hom  # absorbing zero makes the constant map a hom


def test_diamond_swap_is_hom_and_transposition_is_not():
    lat = D(2)
    mod = lat.module
    a11, a12, a21, a22 = (lat.label(*p) for p in ((1, 1), (1, 2), (2, 1), (2, 2)))
    swap = list(range(mod.size))
    swap[a12], swap[a21] = a21, a12
    assert sm.Hom(mod, mod, tuple(swap)).is_hom

    trans = list(range(mod.size))
    trans[a12], trans[a22] = a22, a12
    chk = sm.check_hom(sm.Hom(mod, mod, tuple(trans)))
    assert not chk.ok
    assert chk.kind == "add"
    assert chk.witness == (a12, a21)


def test_check_hom_rejects_flavor_mismatch():
    with pytest.raises(sm.FlavorMismatchError):
        sm.check_hom(sm.Hom(sm.scalar_module(Flavor.B), sm.scalar_module(Flavor.FINF), (0, 0)))


def test_compose_and_identity_unit():
    g, h = sm.canonical_section(3, Flavor.B)
    mod = g.target
    assert sm.compose(g, h).is_identity()
    for f in sm.enumerate_homs(mod, mod)[:10]:
        assert sm.compose(sm.identity_hom(mod), f).map == f.map
        assert sm.compose(f, sm.identity_hom(mod)).map == f.map


def test_compose_requires_matching_endpoints():
    b = sm.scalar_module(Flavor.B)
    d2 = D(2).module
    f = sm.Hom(b, b, (0, 1))
    g = sm.Hom(d2, d2, tuple(range(d2.size)))
    with pytest.raises(ValueError):
        sm.compose(g, f)


def test_composition_associative_on_sampled_triples():
    d3 = D(3).module
    homs = sm.enumerate_homs(d3, d3)[:12]
    for f, g, h in itertools.islice(itertools.product(homs, repeat=3), 60):
        left = sm.compose(sm.compose(f, g), h)
        right = sm.compose(f, sm.compose(g, h))
        assert left.map == right.map


def test_composition_of_injections_is_injective():
    i4 = sm.corner_embedding(4, Flavor.B)
    inj45 = sm.enumerate_homs(D(4).module, D(5).module, injective=True)
    for q in inj45[:5]:
        assert sm.compose(q, i4).injective


def test_hom_b_scalars_has_two_maps():
    b = sm.scalar_module(Flavor.B)
    homs = sm.enumerate_homs(b, b)
    assert [h.map for h in homs] == [(0, 0), (0, 1)]
    brute = brute_force_homs(b, b)
    assert [h.map for h in brute] == [(0, 0), (0, 1)]


def test_fully_pinned_e2_brute_force_within_budget():
    e2 = sm.family(Flavor.FINF, 2).module
    pins = {e: (e2.zero,) for e in range(e2.size)}
    homs = brute_force_homs(e2, e2, allowed=pins)
    assert len(homs) == 1  # the constant zero map is the only candidate


def test_brute_force_budget_error():
    e2 = sm.family(Flavor.FINF, 2).module
    with pytest.raises(sm.BudgetExceededError):
        brute_force_homs(e2, e2, budget=10 ** 6)


def test_enumeration_budget_error():
    d4, d5 = D(4).module, D(5).module
    with pytest.raises(sm.BudgetExceededError):
        sm.enumerate_homs(d4, d5, budget=10)


ORACLE_OBJECTS_B = [
    lambda: sm.scalar_module(Flavor.B),
    lambda: D(2).module,
    lambda: sm.free_module(Flavor.B, 1),
    lambda: sm.free_module(Flavor.B, 2),
    lambda: sm.submodule_on(
        D(0).module,
        sm.generated_submodule(D(0).module, {D(0).label(1, 2), D(0).label(2, 1)}),
    )[0],
    lambda: sm.submodule_on(
        D(0).module, sm.generated_submodule(D(0).module, {D(0).label(3, 4)})
    )[0],
]

ORACLE_OBJECTS_F = [
    lambda: sm.scalar_module(Flavor.FINF),
    lambda: sm.family(Flavor.FINF, 2).module,
    lambda: sm.free_module(Flavor.FINF, 1),
]


def _oracle_pairs():
    bmods = [f() for f in ORACLE_OBJECTS_B]
    fmods = [f() for f in ORACLE_OBJECTS_F]
    for group in (bmods, fmods):
        for M in group:
            for N in group:
                if N.size ** M.size <= 10 ** 7:
                    yield M, N


@pytest.mark.parametrize("injective", [False, True])
def test_enumerate_agrees_with_brute_force(injective):
    checked = 0
    for M, N in _oracle_pairs():
        fast = sm.enumerate_homs(M, N, injective=injective)
        slow = brute_force_homs(M, N, injective=injective)
        assert [h.map for h in fast] == [h.map for h in slow], (M.names, N.names)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_enumerate_agrees_on_random_quotients(flavor):
    # random quotients of free modules give a wide space of valid modules
    import random as _random

    rng = _random.Random(99 if flavor is Flavor.B else 77)
    free = sm.free_module(flavor, 2)
    mods = []
    for _ in range(6):
        pairs = [
            (rng.randrange(free.size), rng.randrange(free.size))
            for _ in range(rng.randint(1, 2))
        ]
        q = sm.quotient_with_projection(free, sm.generated_congruence(free, pairs))[0]
        mods.append(q)
    for M in mods:
        for N in mods:
            if N.size ** M.size > 10 ** 6:
                continue
            fast = [h.map for h in sm.enumerate_homs(M, N)]
            slow = [h.map for h in brute_force_homs(M, N)]
            assert fast == slow, (M.names, N.names)


def test_enumerate_with_pins_agrees_with_brute_force():
    d2 = D(2).module
    lat = D(2)
    pins = {lat.label(1, 2): (lat.label(2, 2),)}
    fast = sm.enumerate_homs(d2, d2, allowed=pins)
    slow = brute_force_homs(d2, d2, allowed=pins)
    assert [h.map for h in fast] == [h.map for h in slow]
    assert all(h.map[lat.label(1, 2)] == lat.label(2, 2) for h in fast)


def test_enumerate_with_allowed_sets_agrees_with_brute_force():
    import random as _random

    rng = _random.Random(5)
    d2 = D(2).module
    for _ in range(15):
        allowed = {
            e: rng.sample(range(d2.size), rng.randint(1, d2.size))
            for e in rng.sample(range(d2.size), rng.randint(0, d2.size))
        }
        fast = [h.map for h in sm.enumerate_homs(d2, d2, allowed=allowed)]
        slow = [h.map for h in brute_force_homs(d2, d2, allowed=allowed)]
        assert fast == slow, allowed


def test_enumeration_is_deterministic():
    d0 = sm.corner_witness(Flavor.B).module
    first = sm.enumerate_homs(d0, d0, injective=True)
    second = sm.enumerate_homs(d0, d0, injective=True)
    assert [h.map for h in first] == [h.map for h in second]
    assert [h.map for h in first] == sorted(h.map for h in first)


def test_every_enumerated_hom_passes_check():
    d0 = sm.corner_witness(Flavor.B).module
    d4 = D(4).module
    for h in sm.enumerate_homs(d0, d4, injective=True):
        assert h.is_hom and h.injective


def test_rigidity_pin_conflict_gives_empty():
    assert sm.rigidity_check(2, 3, Flavor.B) == []


def test_find_right_inverse_of_canonical_surjection():
    for n in range(2, 7):
        g, _ = sm.canonical_section(n, Flavor.B)
        h = sm.find_right_inverse(g)
        assert h is not None
        assert sm.compose(g, h).is_identity()


def test_find_left_inverse_of_corner_embedding():
    emb = sm.corner_embedding(4, Flavor.B)
    w = sm.find_left_inverse(emb)
    assert w is not None
    assert sm.compose(w, emb).is_identity()
    # the printed case-formula retraction is among the valid answers
    j = sm.corner_retraction(4, Flavor.B)
    assert sm.compose(j, emb).is_identity()


def test_find_left_inverse_finf_corner_embedding():
    emb = sm.corner_embedding(4, Flavor.FINF)
    assert emb.injective
    w = sm.find_left_inverse(emb)
    assert w is not None
    assert sm.compose(w, emb).is_identity()


def test_chain_into_m3_has_a_retraction():
    # the collapse-to-top retraction exists; the search must find one
    m3 = diamond_m3()
    ch = chain_module(3)
    incl = sm.Hom(ch, m3, (m3.index_of_name["0"], m3.index_of_name["a"], m3.index_of_name["1"]))
    assert incl.is_hom and incl.injective
    w = sm.find_left_inverse(incl)
    assert w is not None
    assert sm.compose(w, incl).is_identity()


def test_m3_into_free_has_no_left_inverse():
    # retracts of distributive lattices are distributive, so none can exist
    m3 = diamond_m3()
    free = sm.free_module(Flavor.B, 3)
    img = {
        "0": [],
        "a": [(0, 1), (1, 1)],
        "b": [(1, 1), (2, 1)],
        "c": [(0, 1), (2, 1)],
        "1": [(0, 1), (1, 1), (2, 1)],
    }
    emb = sm.Hom(
        m3, free, tuple(sm.element_of_support(free, img[m3.name(e)]) for e in range(m3.size))
    )
    assert emb.is_hom and emb.injective
    assert sm.find_left_inverse(emb) is None


def test_find_left_inverse_of_noninjective_is_none():
    d2 = D(2).module
    zmap = sm.Hom(d2, d2, tuple(d2.zero for _ in range(d2.size)))
    assert sm.find_left_inverse(zmap) is None


def _assert_retraction_splits(e):
    # the formula undoes every injection out of a distributive source that
    # the search splits, and by the theorem the search splits them all
    w = sm.find_left_inverse(e)
    assert w is not None and sm.compose(w, e).is_identity()
    r = sm.retraction(e)
    assert r.source is e.target and r.target is e.source
    assert check_hom_all_pairs(r).ok and sm.compose(r, e).is_identity()
    return r


def test_retraction_splits_the_injections_between_family_members():
    count = 0
    for j in range(3, 7):
        for i in range(j + 1, 8):
            for e in sm.enumerate_homs(D(j).module, D(i).module, injective=True):
                _assert_retraction_splits(e)
                count += 1
    assert count == 420  # 8d^2 + 2 maps per pair at distance d


def test_retraction_splits_the_corner_witness_into_members():
    for n in (4, 5, 6):
        maps = sm.enumerate_homs(D(0).module, D(n).module, injective=True)
        assert maps
        for e in maps:
            _assert_retraction_splits(e)


def test_retraction_splits_injective_matrices_with_zero_and_repeated_rows():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows += [[0] * n for _ in range(rng.randint(1, 2))]
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(1, 2))]
        rows += [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        rng.shuffle(rows)
        e = sm.hom_of_matrix(sm.BoolMatrix.from_rows(Flavor.B, rows))
        assert e.injective
        _assert_retraction_splits(e)


def test_retraction_splits_injections_between_assorted_modules():
    mods = [m for m in assorted_modules() if m.flavor is Flavor.B]
    sources = [m for m in mods if sm.is_distributive_lattice(m).distributive]
    count = 0
    for L in sources:
        for M in mods:
            # the first maps in search order keep the pairs with thousands cheap
            for e in itertools.islice(sm.iter_homs(L, M, injective=True), 40):
                _assert_retraction_splits(e)
                count += 1
    assert count > 2000


def test_retraction_refuses_a_non_distributive_source():
    m3, n5 = diamond_m3(), pentagon_n5()
    free = sm.free_module(Flavor.B, 3)
    img = {"0": 0, "a": 0b011, "b": 0b110, "c": 0b101, "1": 0b111}
    into_free = sm.Hom(m3, free, tuple(free.id_of_key[img[m3.name(e)]] for e in range(m3.size)))
    assert into_free.is_hom and into_free.injective
    for e in (into_free, sm.identity_hom(m3), sm.identity_hom(n5)):
        with pytest.raises(sm.ModuleStructureError, match="retraction ∘ embedding"):
            sm.retraction(e)


def test_retraction_is_defined_for_flavor_b():
    with pytest.raises(sm.FlavorMismatchError):
        sm.retraction(sm.corner_embedding(4, Flavor.FINF))


@pytest.mark.parametrize("find", ["find_left_inverse", "find_right_inverse"])
def test_inverse_searches_refuse_a_found_hom_that_is_no_inverse(find, monkeypatch):
    # a broken search yields the zero map, a hom but no inverse: the search
    # for a certificate checks it before returning it
    if find == "find_left_inverse":
        f = sm.corner_embedding(4, Flavor.B)
    else:
        f = sm.canonical_free_cover(ref("D3"))
    zero = (f.source.zero,) * f.target.size
    monkeypatch.setattr(sm.homs._Search, "run", lambda self: iter([zero]))
    assert sm.Hom(f.target, f.source, zero).is_hom
    with pytest.raises(AssertionError, match="inverse failed verification"):
        getattr(sm, find)(f)


def test_split_witnesses_imply_flags():
    g, h = sm.canonical_section(2, Flavor.B)
    assert g.surjective  # has a right inverse h
    assert h.injective  # has a left inverse g
    assert sm.compose(g, h).is_identity()


def _maps_to_mutate():
    """Homs of every kind the library builds: covers, sections, corner
    embeddings and retractions, and enumerated homs, in both flavors."""
    out = [sm.canonical_free_cover(ref(r)) for r in ("D0", "E0", "D2", "D3", "D4", "E2", "E3")]
    for flavor in (Flavor.B, Flavor.FINF):
        for n in (2, 3):
            out.extend(sm.canonical_section(n, flavor))
        for n in (4, 5):
            out += [sm.corner_embedding(n, flavor), sm.corner_retraction(n, flavor)]
    for src, tgt in (
        ("D2", "D3"), ("E2", "E2"), ("D0", "D2"), ("E2", "E0"),
        ("free:B:2", "D2"), ("free:Finf:1", "E2"), ("D2", "free:B:3"), ("E2", "free:Finf:2"),
    ):
        out += sm.enumerate_homs(ref(src), ref(tgt))[:3]
    return out


def test_check_hom_agrees_with_all_pairs_oracle_on_mutations():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for f in _maps_to_mutate():
        assert sm.check_hom(f).ok and check_hom_all_pairs(f).ok
        N = f.target
        positions = range(f.source.size)
        if f.source.size > 256:  # the cover of E0: the oracle is slow on 729 elements
            positions = rng.sample(positions, 128)
        for x in positions:
            others = [v for v in range(N.size) if v != f.map[x]]
            for v in rng.sample(others, min(2, len(others))):
                mp = list(f.map)
                mp[x] = v
                g = sm.Hom(f.source, N, tuple(mp))
                chk = sm.check_hom(g)
                assert chk.ok == check_hom_all_pairs(g).ok, (f.source.size, N.size, x, v)
                verdicts[chk.ok] += 1
                if chk.kind == "add":
                    a, s = chk.witness
                    assert mp[f.source.add_of(a, s)] != N.add_of(mp[a], mp[s])
                elif chk.kind == "neg":
                    (s,) = chk.witness
                    assert mp[f.source.neg_of(s)] != N.neg_of(mp[s])
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_free_source_check_agrees_with_both_pair_scans():
    # the extensions of random generator images and their single-entry
    # mutants: a map is a hom exactly when it is the extension of its own
    # generator images, and the check names the witness of the
    # generating-set scan
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for flavor, ranks, targets in (
        (Flavor.B, range(5), ("D2", "D3", "D4", "B", "free:B:2", "free:B:3")),
        (Flavor.FINF, range(4), ("E0", "E2", "E3", "Finf", "free:Finf:2")),
    ):
        for rank in ranks:
            M = sm.free_module(flavor, rank)
            for t in targets:
                N = ref(t)
                for _ in range(3):
                    images = [rng.randrange(N.size) for _ in range(rank)]
                    if flavor is Flavor.FINF and rank > 1 and rng.random() < 0.5:
                        images[1] = N.neg_of(images[0])  # a sign conflict in the target
                    ext = sm.extend_from_generators(M, N, images)
                    maps = [ext]
                    for x in range(M.size):
                        others = [v for v in range(N.size) if v != ext[x]]
                        if others:
                            maps.append(ext[:x] + (rng.choice(others),) + ext[x + 1 :])
                    for mp in maps:
                        f = sm.Hom(M, N, mp)
                        chk = sm.check_hom(f)
                        assert chk.ok == check_hom_all_pairs(f).ok, (rank, t, mp)
                        assert chk == check_hom_on_generating_set(f), (rank, t, mp)
                        images = [mp[g] for g in M.generators]
                        assert chk.ok == (mp == extend_by_support_sums(M, N, images))
                        verdicts[chk.ok] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize(
    "allowed",
    [{1: [-1]}, {1: [99]}, {42: [0]}, {-1: [0]}],
    ids=["negative-value", "value-too-large", "element-too-large", "negative-element"],
)
def test_allowed_ids_out_of_range_are_rejected(allowed):
    d2 = D(2).module
    with pytest.raises(ValueError, match="out of range"):
        sm.enumerate_homs(d2, d2, allowed=allowed)


@pytest.mark.parametrize("src, tgt", [("D4", "D5"), ("D0", "D4"), ("E2", "E3"), ("N5", "D3")])
def test_covering_search_filters_the_injective_stream(src, tgt):
    # covers=T yields the injective homs whose image contains T, in search
    # order: T from images of homs, random subsets, and infeasible sets
    M, N = _module(src), _module(tgt)
    rng = random.Random(src + tgt)
    stream = [h.map for h in sm.iter_homs(M, N, injective=True)]
    some_homs = [h.map for h in itertools.islice(sm.iter_homs(M, N), 200)]
    covers = [set()]
    for _ in range(6):
        image = set(rng.choice(stream))
        covers += [image, set(rng.sample(sorted(image), rng.randint(1, len(image))))]
        covers.append(set(rng.choice(some_homs)))
        covers.append(set(rng.sample(range(N.size), rng.randint(1, M.size))))
    covers.append(set(rng.sample(range(N.size), M.size + 1)))
    found = []
    for T in covers:
        expected = [mp for mp in stream if T <= set(mp)]
        assert [h.map for h in sm.iter_homs(M, N, covers=T)] == expected, sorted(T)
        found.append(len(expected))
    assert found[-1] == 0 and max(found) > 0 and 0 in found[:-1]


def test_infeasible_covers_are_refuted_before_any_tick():
    # more values than source elements, or a value no element may take,
    # prunes the root: a budget of one tick is never reached
    M, N = _module("D4"), _module("D5")
    v = N.size - 1
    too_many = {"covers": range(M.size + 1)}
    unreachable = {
        "allowed": {x: [w for w in range(N.size) if w != v] for x in range(M.size)},
        "covers": {v},
    }
    for restrictions in (too_many, unreachable):
        assert sm.enumerate_homs(M, N, **restrictions, budget=1) == []


def test_covering_search_agrees_with_brute_force():
    rng = random.Random(13)
    checked = 0
    for M, N in _oracle_pairs():
        if M.size > N.size:
            continue
        images = [h.map for h in sm.enumerate_homs(M, N, injective=True)]
        if not images:
            continue
        image = set(rng.choice(images))
        for T in (image, set(rng.sample(sorted(image), rng.randint(1, len(image))))):
            fast = [h.map for h in sm.enumerate_homs(M, N, covers=T)]
            assert fast == [h.map for h in brute_force_homs(M, N, covers=T)], (M.names, N.names)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("covers", [{99}, {-1}], ids=["value-too-large", "negative-value"])
def test_bad_covers_are_rejected(covers):
    d2 = D(2).module
    with pytest.raises(ValueError, match="out of range"):
        sm.enumerate_homs(d2, d2, covers=covers)


@pytest.mark.parametrize(
    "src, tgt, T",
    [("D2", "D3", set()), ("D2", "D3", {1, 4}), ("E2", "E3", {1, 12}), ("D0", "D4", {1, 2})],
)
def test_covers_alone_is_an_injective_covering_search(src, tgt, T):
    # covers=T gives the same homs and ticks with or without injective=True:
    # the injective homs whose image contains T
    M, N = _module(src), _module(tgt)
    searches = [
        sm.homs._Search(M, N, injective=injective, allowed=None, covers=T, budget=10**6)
        for injective in (False, True)
    ]
    maps = [list(search.run()) for search in searches]
    assert maps[0] == maps[1] and searches[0].budget.spent == searches[1].budget.spent
    expected = [h.map for h in sm.iter_homs(M, N, injective=True) if T <= set(h.map)]
    assert maps[0] == expected and expected


def _module(name):
    named = {
        "M3": diamond_m3,
        "N5": pentagon_n5,
        "N5 c<b": lambda: pentagon_n5(("0", "a", "c", "b", "1")),
        "Q19": lambda: _free_finf3_quotient(("A1+A3", "A1+A2+A3"), ("A2+A3", "-A1+A2+A3")),
        "Q13": lambda: _free_finf3_quotient(("-A1+A3", "0"), ("A2+A3", "0"), ("-A2+A3", "0")),
        "Q15": lambda: _free_finf3_quotient(("A2+A3", "0"), ("A3", "-A2+A3")),
        "U6": lambda: _union_closed(0b0000, 0b0101, 0b1011, 0b1100, 0b1101, 0b1111),
        "V6": lambda: _union_closed(0b000, 0b010, 0b011, 0b100, 0b110, 0b111),
    }
    return named.get(name, lambda: ref(name))()


def _free_finf3_quotient(*pairs):
    # free:Finf:3 modulo the congruence the named pairs generate
    free = sm.free_module(Flavor.FINF, 3)
    ids = free.index_of_name
    pairs = [(ids[a], ids[b]) for a, b in pairs]
    return sm.quotient_with_projection(free, sm.generated_congruence(free, pairs))[0]


def _union_closed(*sets):
    # the flavor B module of a union-closed family of sets, given as bitmasks
    ids = {s: i for i, s in enumerate(sets)}
    table = tuple(ids[a | b] for a in sets for b in sets)
    return sm.FinModule(Flavor.B, tuple(f"{s:b}" for s in sets), 0, table)


def _inj(src, tgt):
    return lambda budget: sm.enumerate_homs(
        _module(src), _module(tgt), injective=True, budget=budget
    )


def _covering(src, tgt, f):
    # the witness check of f through src: injective src -> tgt covering im(f)
    T = set(f.map)
    return lambda budget: sm.enumerate_homs(_module(src), _module(tgt), covers=T, budget=budget)


def _all(src, tgt):
    return lambda budget: sm.enumerate_homs(_module(src), _module(tgt), budget=budget)


def _cover_section(name):
    cover = sm.canonical_free_cover(ref(name))
    return lambda budget: [sm.find_right_inverse(cover, budget=budget)]


# (search, ticks it takes, maps it returns): one tick per generator
# candidate scanned, rejected or not, and one per verified map.  The
# candidates of an injective search are the values that pass its
# order-embedding filter.  In M3 and
# N5 an element derived from earlier generators lies above a later one, so
# only these cases prune a generator's image from above.  In N5 with c
# before b, 1 = a + b lies above c, which lies below neither a nor b, so a
# derived sum is pruned from below; Q19 is a Finf source where that
# happens (without the lower test it takes 66 ticks).  The covering case
# prunes nodes both because a needed value lies outside every unassigned
# element's allowed set and because more values are needed than elements
# are left; without either test it takes more ticks.  The injective
# searches between tabled modules drop candidates by their reflection mask
# (D6->D8 is one that does), and every dropped candidate ticks.  In U6 -> V6
# (flavor B) and Q13 -> Q15 (Finf, free:Finf:3 modulo -A1+A3, A2+A3 and
# -A2+A3 ~ 0, and modulo A2+A3 ~ 0 and A3 ~ -A2+A3) a generator g whose
# layer holds recipes does not lie below an assigned a that is no operand
# of the layer; the candidates below f(a) reflect but pass their node, and
# dropping them as well takes 12 and 156 ticks.
TICK_CASES = {
    "injective D4->D5": (_inj("D4", "D5"), 622, 10),
    "injective D0->D4": (_inj("D0", "D4"), 345, 32),
    "injective E2->E3": (_inj("E2", "E3"), 356, 40),
    "injective N5->D3": (_inj("N5", "D3"), 84, 2),
    "covering D4->D5 im(f_2)": (_covering("D4", "D5", sm.corner_embedding(5, Flavor.B)), 201, 0),
    "covering D6->D8 im(f_5)": (_covering("D6", "D8", sm.corner_embedding(8, Flavor.B)), 977, 0),
    "injective U6->V6": (_inj("U6", "V6"), 13, 0),
    "injective Q13->Q15": (_inj("Q13", "Q15"), 164, 0),
    "all D2->D3": (_all("D2", "D3"), 690, 240),
    "all E0->E2": (_all("E0", "E2"), 7_293, 525),
    "all M3->D3": (_all("M3", "D3"), 1_313, 132),
    "all N5 c<b->D3": (_all("N5 c<b", "D3"), 628, 178),
    "section of the E4 cover": (_cover_section("E4"), 5_065, 1),
    "all free:B:3->D3": (_all("free:B:3", "D3"), 1_548, 729),
    "all free:Finf:2->E2": (_all("free:Finf:2", "E2"), 171, 81),
    "all Q19->free:Finf:1": (_all("Q19", "free:Finf:1"), 62, 19),
}


@pytest.mark.parametrize("case", list(TICK_CASES))
def test_search_takes_the_pinned_number_of_ticks(case):
    search, ticks, found = TICK_CASES[case]
    result = search(ticks)
    assert len(result) == found and all(h is not None for h in result)
    with pytest.raises(sm.BudgetExceededError) as exc:
        search(ticks - 1)
    assert exc.value.explored == ticks


def test_searches_on_one_budget_add_up_their_ticks():
    # two pinned searches, one after the other on one budget: the sum of
    # their ticks decides both, and one tick less leaves the second short
    (first, a, found_a), (second, b, found_b) = (
        TICK_CASES["injective D4->D5"], TICK_CASES["injective D0->D4"]
    )
    budget = sm.Budget(a + b)
    assert len(first(budget)) == found_a and len(second(budget)) == found_b
    assert budget.spent == a + b
    budget = sm.Budget(a + b - 1)
    assert len(first(budget)) == found_a
    with pytest.raises(sm.BudgetExceededError) as exc:
        second(budget)
    assert exc.value.explored == budget.spent == a + b


def test_a_spent_budget_raises_before_any_search_data_is_built():
    budget = sm.Budget(10)
    with pytest.raises(sm.BudgetExceededError):
        sm.enumerate_homs(_module("D4"), _module("D5"), budget=budget)
    # fresh copies, past the cache: the search reads neither order nor basis
    M, N = (sm.families.family.__wrapped__(Flavor.B, n).module for n in (11, 12))
    before = set(vars(M)), set(vars(N))
    with pytest.raises(sm.BudgetExceededError, match="budget of 10 exhausted") as exc:
        sm.iter_homs(M, N, covers={1}, budget=budget)
    assert exc.value.explored == budget.spent == 11
    assert (set(vars(M)), set(vars(N))) == before


def test_negation_recipes_pass_the_order_tests_they_no_longer_run(monkeypatch):
    # _Search._run_recipes proves that f(-g) = -f(g) passes both order tests
    # on a tabled Finf source; here they are evaluated before every negation
    # recipe of the Finf searches the suite runs, and none may fail
    outcomes = []
    real = sm.homs._Search._run_recipes

    def testing(self, recipes):
        tabled_finf = self.M.flavor is Flavor.FINF and self.M.free_rank is None
        for recipe in recipes:
            e, op, a, _ = recipe
            if tabled_finf and op == "neg":
                k = self.keys[self.N.neg_of(self.val[a])]
                outcomes.append(not (self._lower(e) & ~k or k & ~self._upper(e)))
            if not real(self, (recipe,)):
                return False
        return True

    monkeypatch.setattr(sm.homs._Search, "_run_recipes", testing)
    for case in ("injective E2->E3", "all E0->E2", "section of the E4 cover"):
        search, ticks, found = TICK_CASES[case]
        assert len(search(ticks)) == found, case
    for morphism_class in sm.MorphismClass:
        sm.witness_verify(*sm.default_witness_family(Flavor.FINF, 4, morphism_class))
    for name in ("E2", "E3", "E4"):
        assert sm.find_right_inverse(sm.canonical_free_cover(ref(name))) is not None
    quotients = assorted_modules()[-8:]  # of free:Finf:2
    assert all(q.flavor is Flavor.FINF and q.free_rank is None for q in quotients)
    for q in quotients:
        for target in (ref("E2"), ref("E3")):
            sm.enumerate_homs(q, target)
    assert len(outcomes) > 1000 and all(outcomes)


def _reflection_pairs():
    """Same-flavor pairs of tabled modules, with a set for a covering search
    to cover: the modules of ``assorted_modules()`` and the family members
    with the images of the corner embeddings."""
    rng = random.Random(41)
    tabled = [m for m in assorted_modules() if m.free_rank is None]
    tabled += [_module(name) for name in ("U6", "V6", "Q13", "Q15", "Q19")]
    for M, N in itertools.product(tabled, repeat=2):
        if M.flavor is N.flavor and M.size <= N.size:
            yield M, N, None
            yield M, N, set(rng.sample(range(N.size), rng.randint(1, min(3, M.size))))
    for flavor, top in ((Flavor.B, 8), (Flavor.FINF, 6)):
        x0 = sm.corner_witness(flavor).module
        for n in range(4, top + 1):
            f = sm.corner_embedding(n, flavor)
            yield x0, f.target, None
            for m in range(4, n):
                yield sm.family(flavor, m).module, f.target, set(f.map)


def test_reflection_drops_only_candidates_that_tick_and_fail_at_once():
    # the injective searches between tabled modules, with and without the
    # reflection mask: the same maps in the same order, the same ticks, and
    # the same budget outcome, run out and at half the ticks
    def outcome(M, N, covers, budget, reflect):
        search = sm.homs._Search(M, N, injective=True, allowed=None, covers=covers, budget=budget)
        assert search.reflect
        search.reflect = reflect
        maps = []
        try:
            maps.extend(search.run())
        except sm.BudgetExceededError as exc:
            maps.append(("budget", exc.explored))
        return maps, search.budget.spent

    searches = 0
    for M, N, covers in _reflection_pairs():
        plain = outcome(M, N, covers, 20_000, False)
        assert outcome(M, N, covers, 20_000, True) == plain, (M.names, N.names, covers)
        half = max(1, plain[1] // 2)
        assert outcome(M, N, covers, half, True) == outcome(M, N, covers, half, False)
        searches += 1
    assert searches > 300


def test_reflection_lists_are_built_for_the_depths_a_search_reaches(monkeypatch):
    # a budget-10 covering search from a fresh D11 builds the lists of the
    # depths it enters whose layers hold recipes (an empty layer drops
    # nothing) and no others, and later searches reuse them
    M = sm.families.family.__wrapped__(Flavor.B, 11).module  # a fresh copy, past the cache
    N = D(12).module
    T = set(sm.corner_embedding(12, Flavor.B).map)
    entered = set()
    real = sm.homs._Search._dfs

    def recording(self, depth):
        entered.add(depth)
        return real(self, depth)

    monkeypatch.setattr(sm.homs._Search, "_dfs", recording)
    with pytest.raises(sm.BudgetExceededError):
        list(sm.iter_homs(M, N, covers=T, budget=10))
    lists, layers = M._reflection, M.basis.layers
    recipes = {d for d, layer in enumerate(layers) if layer}
    built = {d for d, entry in enumerate(lists) if entry is not None}
    assert built == entered & recipes and 0 < len(built) < len(recipes)
    first = list(lists)
    with pytest.raises(sm.BudgetExceededError):
        list(sm.iter_homs(M, N, covers=T, budget=10))
    assert all(lists[d] is first[d] for d in range(len(lists)))
    assert len(sm.enumerate_homs(M, N, injective=True)) == 10
    assert all(lists[d] is first[d] for d in built)
    assert {d for d, entry in enumerate(lists) if entry is not None} == recipes


@pytest.mark.parametrize("src, tgt, injective", [("D4", "D5", True), ("D2", "D3", False)])
def test_iter_homs_ticks_only_as_far_as_it_is_read(src, tgt, injective):
    # reading k homs takes the ticks up to the k-th: the least budget that
    # reads k of them grows with k, and asking for one more than there are
    # runs the search to its end, at the count pinned in TICK_CASES
    M, N = _module(src), _module(tgt)
    stream = [h.map for h in sm.iter_homs(M, N, injective=injective)]
    assert sorted(stream) == [h.map for h in sm.enumerate_homs(M, N, injective=injective)]

    def least_budget(k):
        lo, hi = 1, 10_000
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                homs = sm.iter_homs(M, N, injective=injective, budget=mid)
                read = list(itertools.islice(homs, k))
            except sm.BudgetExceededError:
                lo = mid + 1
            else:
                assert [h.map for h in read] == stream[:k]
                hi = mid
        return lo

    budgets = [least_budget(k) for k in sorted({1, 2, len(stream) // 2, len(stream)})]
    assert budgets == sorted(set(budgets))
    kind = "injective" if injective else "all"
    assert least_budget(len(stream) + 1) == TICK_CASES[f"{kind} {src}->{tgt}"][1]


@pytest.mark.parametrize("name", ["D5", "E4", "D5 section", "E3 section"])
def test_cover_section_never_reads_free_order_masks(name, monkeypatch):
    # the masks of a free module take |F|^2 bits: a search into a free cover
    # compares order keys, and one from a free source reads no masks at all
    def refuse(self):
        raise AssertionError("the search read the masks of a free order")

    if name.endswith(" section"):
        # a left inverse of the section: a search from its free target
        n, flavor = int(name[1]), Flavor.B if name[0] == "D" else Flavor.FINF
        f = sm.canonical_section(n, flavor)[1]
        find, split = sm.find_left_inverse, lambda w: sm.compose(w, f)
    else:
        f = sm.canonical_free_cover(ref(name))
        find, split = sm.find_right_inverse, lambda h: sm.compose(f, h)
    monkeypatch.setattr(FreeOrder, "masks", property(refuse))
    monkeypatch.setattr(FreeOrder, "down_masks", property(refuse))
    inverse = find(f)
    assert inverse is not None
    assert split(inverse).is_identity()


@pytest.mark.parametrize("name", ["D6", "E4"])
def test_projective_reads_no_free_module_names(name, capsys, monkeypatch):
    # projective prints element ids, so the |F| names of its cover are never built
    refuse_free_names(monkeypatch)
    assert main(["projective", name]) == 0
    assert json.loads(capsys.readouterr().out)["projective"] is True


def test_identity_test_reads_no_free_module_names(monkeypatch):
    # a module is its own source and target: no field comparison, no names
    refuse_free_names(monkeypatch)
    F = sm.free_module(Flavor.FINF, 3)
    assert sm.identity_hom(F).is_identity()
    assert not sm.Hom(F, F, (0,) * F.size).is_identity()


@pytest.fixture
def hom_checks(monkeypatch):
    """The (source, target, map) of every ``_hom_violation`` call while the
    test runs, by module identity, and the unpatched function."""
    checked = []
    real = sm.homs._hom_violation

    def recording(M, N, val):
        checked.append((id(M), id(N), tuple(val)))
        return real(M, N, val)

    monkeypatch.setattr(sm.homs, "_hom_violation", recording)
    return checked, real


def assert_kept_extension(f, hom_checks):
    """f carries a hom check that no ``_hom_violation`` call made, it equals
    a fresh one, and f is the support-sum extension of its generator images."""
    checked, real = hom_checks
    kept = f.check
    assert (id(f.source), id(f.target), f.map) not in checked
    assert kept == real(f.source, f.target, f.map)
    images = [f.map[g] for g in sm.generator_ids(f.source)]
    assert f.map == extend_by_support_sums(f.source, f.target, images)


@pytest.mark.parametrize(
    "name", ["D0", "D2", "D3", "D4", "D5", "D6", "E0", "E2", "E3", "E4"]
)
def test_canonical_covers_keep_the_check_a_fresh_one_gives(name, hom_checks):
    m = ref(name)
    cover = sm.canonical_free_cover(m)
    assert_kept_extension(cover, hom_checks)
    assert [cover.map[g] for g in sm.generator_ids(cover.source)] == list(m.generators)


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_canonical_section_surjection_keeps_the_check_a_fresh_one_gives(n, flavor, hom_checks):
    g, h = sm.canonical_section(n, flavor)
    assert_kept_extension(g, hom_checks)
    assert sm.compose(g, h).is_identity()


@pytest.mark.parametrize("flavor, top", [(Flavor.B, 5), (Flavor.FINF, 3)])
def test_matrix_homs_keep_the_check_a_fresh_one_gives(flavor, top, hom_checks):
    rng = random.Random(16)
    vals = (0, 1) if flavor is Flavor.B else (-1, 0, 1)
    for _ in range(40):
        rows, cols = rng.randint(0, top), rng.randint(0, top)
        mat = sm.BoolMatrix(flavor, rows, cols, tuple(rng.choice(vals) for _ in range(rows * cols)))
        f = sm.hom_of_matrix(mat)
        assert_kept_extension(f, hom_checks)
        assert sm.matrix_of_hom(f) == mat


def test_injective_searches_into_free_targets_agree_with_oracles(monkeypatch):
    # the order-embedding filter reads the closed-form counts of a free
    # target, never its |F|^2 masks
    def refuse(self):
        raise AssertionError("the search read the masks of a free order")

    B, F = Flavor.B, Flavor.FINF
    cases = []
    for M, N in (
        (diamond_m3(), sm.free_module(B, 3)),
        (pentagon_n5(), sm.free_module(B, 4)),
        (D(2).module, sm.free_module(B, 4)),
        (chain_module(4), sm.free_module(B, 4)),
        (sm.scalar_module(F), sm.free_module(F, 3)),
    ):
        # the oracle pins f(0) = 0 to keep its space of total maps small
        pins = {M.zero: (N.zero,)}
        cases.append((M, N, [h.map for h in brute_force_homs(M, N, injective=True, allowed=pins)]))
    # too many total maps to filter: the injective maps among all homs,
    # which the unfiltered search finds, are the reference
    for M, N in ((D(3).module, sm.free_module(B, 4)), (ref("E2"), sm.free_module(F, 3))):
        cases.append((M, N, [h.map for h in sm.enumerate_homs(M, N) if h.injective]))
    monkeypatch.setattr(FreeOrder, "masks", property(refuse))
    monkeypatch.setattr(FreeOrder, "down_masks", property(refuse))
    for M, N, expected in cases:
        assert [h.map for h in sm.enumerate_homs(M, N, injective=True)] == expected, N.size
    assert sum(len(expected) for _, _, expected in cases) > 0
    # an element of E2 has 5 elements above it, and no element of
    # free:Finf:2 more than 4: the filter refutes the pair before any tick
    e2, f2 = ref("E2"), sm.free_module(F, 2)
    assert not any(h.injective for h in sm.enumerate_homs(e2, f2))
    assert sm.enumerate_homs(e2, f2, injective=True, budget=1) == []


def test_searches_from_one_module_walk_its_span_once(monkeypatch):
    walks = []
    real_walk = sm.core.span_walk

    def counting_walk(m, gens):
        walks.append(m)
        return real_walk(m, gens)

    monkeypatch.setattr(sm.core, "span_walk", counting_walk)
    d3 = sm.families.family.__wrapped__(Flavor.B, 3).module  # a fresh copy, past the cache
    for injective in (False, True):
        for target in (D(3).module, D(4).module):
            sm.enumerate_homs(d3, target, injective=injective)
    assert walks == [d3] and d3.basis == generating_basis(d3)


def test_generating_basis_derives_each_element_once_from_earlier_operands():
    for m in assorted_modules():
        basis = generating_basis(m)
        assert basis.generators == m.generators
        placed = [m.zero]
        for g, layer in zip(basis.generators, basis.layers):
            placed.append(g)
            for e, op, a, b in layer:
                if op == "add":
                    assert a in placed and b in placed and m.add_of(a, b) == e
                else:
                    assert op == "neg" and m.flavor is Flavor.FINF
                    assert a in placed and m.neg_of(a) == e
                placed.append(e)
        assert sorted(placed) == list(range(m.size)), m.names


def test_finf_layers_are_their_sums_then_their_mirror():
    # span_walk derives the negatives of a Finf layer by negation: the sums
    # a + g, then -x for g and for each sum, in that order, and nothing else
    mods = [ref(name) for name in ("E0", "E2", "E3", "E4", "E5", "E6", "E7", "E8")]
    mods += [sm.free_module(Flavor.FINF, rank) for rank in range(5)]
    mods += [m for m in assorted_modules() if m.flavor is Flavor.FINF]
    for m in mods:
        for g, layer in zip(m.basis.generators, m.basis.layers):
            sums = [recipe for recipe in layer if recipe[1] == "add"]
            assert all(b == g for _, _, _, b in sums)
            mirror = [(m.neg_of(x), "neg", x, -1) for x in [g] + [e for e, _, _, _ in sums]]
            assert list(layer) == sums + mirror, m.names


def test_generating_basis_rejects_generators_that_do_not_form_a_basis():
    def with_generators(gens):
        m = sm.families.family.__wrapped__(Flavor.B, 3).module  # a fresh copy, past the cache
        object.__setattr__(m, "generators", gens)  # as the cached attribute stores it
        return m

    gens = ref("D3").generators
    redundant = ref("D3").add_of(gens[0], gens[1])
    with pytest.raises(sm.ModuleStructureError, match="generated by the earlier"):
        generating_basis(with_generators(gens + (redundant,)))
    with pytest.raises(sm.ModuleStructureError, match="does not generate"):
        generating_basis(with_generators(gens[:-1]))


def test_signed_lift_lifts_with_either_sign_and_refuses_what_it_cannot_lift():
    e4, e5 = sm.family(Flavor.FINF, 4).module, sm.family(Flavor.FINF, 5).module
    q = sm.enumerate_homs(e4.half, e5.half, injective=True)[7]
    c = e5.size // 2
    up = (0, *q.map[1:], *(v + c for v in q.map[1:]))
    assert sm.signed_lift(q, e4, e5).map == up
    assert sm.signed_lift(q, e4, e5, negate=True).map == tuple(map(e5.neg_of, up))
    with pytest.raises(ValueError, match="halves"):
        sm.signed_lift(q, e5, e4)
    with pytest.raises(ValueError, match="halves"):
        sm.signed_lift(q, e4.half, e5)
    zero = sm.Hom(e4.half, e5.half, (0,) * e4.half.size)  # a hom, but not one to lift
    not_hom = sm.Hom(e4.half, e5.half, (0, *reversed(q.map[1:])))
    for f in (zero, not_hom):
        with pytest.raises(ValueError, match="only the zero"):
            sm.signed_lift(f, e4, e5)


def test_the_signed_lifts_of_a_test_are_checked_after_it(signed_lifts):
    # the autouse fixture of conftest runs the hom check on every map
    # signed_lift returns during a test, everywhere it is called
    e5, e6 = sm.family(Flavor.FINF, 5).module, sm.family(Flavor.FINF, 6).module
    step = sm.enumerate_homs(e5, e6, injective=True)[1]
    f = sm.compose(step, sm.corner_embedding(5, Flavor.FINF))
    spec = sm.CategorySpec(Flavor.FINF, (("E5", e5), ("E6", e6)), sm.MorphismClass.INJECTIONS)
    assert sm.factors_through(spec, f, "E5").verdict is sm.Verdict.FACTORS
    assert len(sm.rigidity_check(5, 5, Flavor.FINF)) == 1
    assert sm.corner_retraction(5, Flavor.FINF).is_hom
    # the embedding twice, p and q, the rigidity result and the retraction
    assert len(signed_lifts) == 6
    assert all(sm.Hom(h.source, h.target, h.map).is_hom for h in signed_lifts)
