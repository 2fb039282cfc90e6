import random

import pytest
from hypothesis import given, settings, strategies as st

import semimod as sm
from semimod import Flavor
from semimod.free import FreeModule, KeyedModule, _key_neg, _key_sum
from semimod.serialize import resolve_module_ref

from conftest import refuse_free_names
from oracles import (
    _name_of_code,
    brute_force_homs,
    codes_by_sign_bits,
    extend_by_support_sums,
    product_closure_count,
    term_closure,
)


def test_free_b_counts():
    for k in range(0, 9):
        assert sm.free_module(Flavor.B, k).size == 2 ** k


def test_free_finf_counts():
    for k in range(0, 6):
        assert sm.free_module(Flavor.FINF, k).size == 3 ** k


@pytest.mark.parametrize("flavor,top", [(Flavor.B, 8), (Flavor.FINF, 5)])
def test_free_names_match_term_by_term_formatting(flavor, top):
    for rank in range(top + 1):
        free = sm.free_module(flavor, rank)
        low = (1 << rank) - 1
        codes = tuple((k & low, k >> rank) for k in free.keys)
        # zero, then by support size, support and signs
        assert codes == tuple(
            sorted(codes, key=lambda c: ((c[0] | c[1]).bit_count(), c[0] | c[1], c[1]))
        )
        assert len(set(codes)) == free.size
        assert free.names == tuple(_name_of_code(c) for c in codes)


def test_free_small_modules_are_valid():
    for k in range(0, 5):
        assert sm.validate_module(sm.free_module(Flavor.B, k)).ok
    for k in range(0, 4):
        assert sm.validate_module(sm.free_module(Flavor.FINF, k)).ok


def test_free_finf_rank1_is_the_scalars():
    free = sm.free_module(Flavor.FINF, 1)
    scal = sm.scalar_module(Flavor.FINF)
    assert free.size == 3
    homs = sm.enumerate_homs(free, scal)
    isos = [h for h in homs if h.injective and h.surjective]
    assert len(isos) == 2  # the relabelling and its negation twist


def test_term_algebra_oracle_counts():
    for k in range(0, 5):
        assert len(term_closure(Flavor.B, k)) == 2 ** k
        assert len(term_closure(Flavor.FINF, k)) == 3 ** k


def test_term_algebra_oracle_matches_free_modules():
    for flavor in (Flavor.B, Flavor.FINF):
        for k in range(0, 5):
            free = sm.free_module(flavor, k)
            forms = term_closure(flavor, k)
            assert len(forms) == free.size
            # signed supports of the elements biject with the normal forms
            supports = {
                frozenset(sm.support_of(free, e)) for e in range(free.size) if e != free.zero
            }
            nonzero_forms = {f for f in forms if isinstance(f, frozenset)}
            assert supports == nonzero_forms


def test_product_embedding_oracle_counts():
    for k in range(0, 4):
        assert product_closure_count(Flavor.B, k) == 2 ** k
        assert product_closure_count(Flavor.FINF, k) == 3 ** k
    assert product_closure_count(Flavor.FINF, 4) == 3 ** 4


def test_signed_conflict_collapses():
    free = sm.free_module(Flavor.FINF, 2)
    a1 = sm.element_of_support(free, [(0, 1)])
    neg_both = sm.element_of_support(free, [(0, -1), (1, -1)])
    assert free.add_of(a1, neg_both) == free.zero


def test_zero_summand_absorbs():
    free = sm.free_module(Flavor.FINF, 2)
    a1 = sm.element_of_support(free, [(0, 1)])
    assert free.add_of(a1, free.zero) == free.zero


@pytest.mark.parametrize("flavor,rank", [(Flavor.B, 2), (Flavor.B, 3), (Flavor.FINF, 2)])
def test_universal_property_extension_is_hom(flavor, rank):
    free = sm.free_module(flavor, rank)
    target = sm.family(flavor, 3).module
    images_space = st.lists(
        st.integers(min_value=0, max_value=target.size - 1), min_size=rank, max_size=rank
    )

    @settings(max_examples=40, deadline=None)
    @given(images_space)
    def run(images):
        h = sm.Hom(free, target, sm.extend_from_generators(free, target, images))
        assert h.is_hom
        for gid, img in zip(sm.generator_ids(free), images):
            assert h.map[gid] == img

    run()


@pytest.mark.parametrize("name", ["D2", "D3", "D4", "D5", "D6", "E2", "E3", "E4"])
def test_cover_extension_agrees_with_support_sums(name):
    m = resolve_module_ref(name)
    gens = list(m.generators)
    free = sm.free_module(m.flavor, len(gens))
    got = sm.extend_from_generators(free, m, gens)
    assert got == extend_by_support_sums(free, m, gens)


def test_random_extensions_agree_with_support_sums():
    # ranks up to the cover sizes 2^11 and 3^7; besides random images, each
    # case has images holding a value twice (Finf: x and -x) and images
    # holding the zero, which make Finf sums collapse to the absorbing zero
    rng = random.Random(41)
    collapsed = 0
    for flavor, targets, ranks in (
        (Flavor.FINF, ("E0", "E2", "E3", "E4", "free:Finf:2"), (1, 2, 3, 4, 5, 7)),
        (Flavor.B, ("D0", "D3", "D6", "free:B:3"), (1, 2, 3, 5, 8, 11)),
    ):
        for t in targets:
            target = resolve_module_ref(t)
            for rank in ranks:
                free = sm.free_module(flavor, rank)
                cases = [[rng.randrange(target.size) for _ in range(rank)] for _ in range(4)]
                if rank > 1:
                    i, j = rng.sample(range(rank), 2)
                    twice = cases[0][:]
                    twice[j] = target.neg_of(twice[i]) if flavor is Flavor.FINF else twice[i]
                    cases.append(twice)
                with_zero = cases[1][:]
                with_zero[rng.randrange(rank)] = target.zero
                cases.append(with_zero)
                for images in cases:
                    got = sm.extend_from_generators(free, target, images)
                    assert got == extend_by_support_sums(free, target, images), (t, images)
                    collapsed += sum(
                        1 for e in range(1, free.size) if got[e] == target.zero
                    )
    assert collapsed > 0


def test_universal_property_uniqueness_small():
    free = sm.free_module(Flavor.FINF, 1)
    target = sm.scalar_module(Flavor.FINF)
    homs = brute_force_homs(free, target)
    by_gen_value = {}
    for h in homs:
        by_gen_value.setdefault(h.map[sm.generator_ids(free)[0]], []).append(h)
    assert all(len(v) == 1 for v in by_gen_value.values())
    assert len(homs) == 3


def test_hom_count_from_free_by_universal_property():
    free1 = sm.free_module(Flavor.B, 1)
    d2 = sm.family(Flavor.B, 2).module
    homs = brute_force_homs(free1, d2)
    assert len(homs) == d2.size  # one hom per generator image


def test_free_b_order_is_subset_inclusion():
    free = sm.free_module(Flavor.B, 3)
    supports = [set(b for b, _ in sm.support_of(free, e)) for e in range(free.size)]
    for a in range(free.size):
        for b in range(free.size):
            assert free.leq(a, b) == (supports[a] <= supports[b])


def test_support_round_trip():
    free = sm.free_module(Flavor.FINF, 3)
    for e in range(free.size):
        supp = sm.support_of(free, e)
        assert sm.element_of_support(free, supp) == e


@pytest.mark.parametrize(
    "flavor, items, match",
    [
        (Flavor.B, [(5, 1)], "\\(5, 1\\) is out of range"),
        (Flavor.B, [(-1, 1)], "\\(-1, 1\\) is out of range"),
        (Flavor.B, [(2, 1)], "\\(2, 1\\) is out of range"),
        (Flavor.FINF, [(0, 0)], "\\(0, 0\\) is out of range"),
        (Flavor.FINF, [(0, 1), (1, 2)], "\\(1, 2\\) is out of range"),
    ],
)
def test_malformed_supports_are_refused(flavor, items, match):
    with pytest.raises(sm.ModuleStructureError, match=match):
        sm.element_of_support(sm.free_module(flavor, 2), items)


def test_free_modules_use_computed_backend():
    for rank in (1, 2, 9):
        free = sm.free_module(Flavor.FINF, rank)
        assert free.size == 3 ** rank
        assert free.add_table is None
        a1 = sm.element_of_support(free, [(0, 1)])
        assert free.add_of(a1, free.neg_of(a1)) == free.zero
        assert free.neg_of(free.neg_of(a1)) == a1
    for rank in (1, 3, 12):
        free = sm.free_module(Flavor.B, rank)
        assert free.size == 2 ** rank
        assert free.add_table is None
        a1 = sm.element_of_support(free, [(0, 1)])
        assert free.add_of(a1, free.zero) == a1
        assert free.add_of(a1, a1) == a1


def test_free_order_from_codes_matches_induced_order():
    for flavor, top in ((Flavor.B, 6), (Flavor.FINF, 4)):
        for rank in range(top + 1):
            free = sm.free_module(flavor, rank)
            ref = sm.induced_order(free)
            assert free.order.masks == ref.masks
            assert all(
                free.order.leq(a, b) == ref.leq(a, b)
                for a in range(free.size)
                for b in range(free.size)
            )


@pytest.mark.parametrize("flavor, top", [(Flavor.B, 11), (Flavor.FINF, 9)])
def test_support_codes_equal_the_bit_by_bit_reference(flavor, top):
    for rank in range(top + 1):
        free = FreeModule(flavor, rank)
        ref = codes_by_sign_bits(flavor, rank)
        assert free.keys == tuple(pos | neg << rank for pos, neg in ref)
        if flavor is Flavor.FINF:
            # negation swaps the signs of the support
            id_of_code = {c: i for i, c in enumerate(ref)}
            assert [free.neg_of(i) for i in range(len(ref))] == [
                id_of_code[neg, pos] for pos, neg in ref
            ]


@pytest.mark.parametrize("flavor, top", [(Flavor.B, 4), (Flavor.FINF, 3)])
def test_key_sum_and_negation_match_the_free_module(flavor, top):
    for rank in range(top + 1):
        free = FreeModule(flavor, rank)
        keys = free.keys
        for a in range(free.size):
            if flavor is Flavor.FINF:
                assert _key_neg(keys[a], rank) == keys[free.neg_of(a)]
            for b in range(free.size):
                assert _key_sum(flavor, rank, (keys[a], keys[b])) == keys[free.add_of(a, b)]
        assert _key_sum(flavor, rank, ()) == keys[free.zero]


def test_keyed_modules_are_equal_only_with_equal_keys():
    names = ("O", "x", "y", "z")
    square = KeyedModule(Flavor.B, [0, 1, 2, 3], names=names)
    chain = KeyedModule(Flavor.B, [0, 1, 3, 7], names=names)
    assert square != chain and hash(square) != hash(chain)
    twin = KeyedModule(Flavor.B, [0, 1, 2, 3], names=names)
    assert square == twin and hash(square) == hash(twin)
    with pytest.raises(ValueError, match="compose"):
        sm.compose(sm.identity_hom(chain), sm.identity_hom(square))


def test_keyed_modules_built_without_names_name_their_elements_by_key():
    square = KeyedModule(Flavor.B, [0, 0b01, 0b10, 0b11])
    assert square.names == ("0", "k1", "k10", "k11") and square.name(1) == "k1"
    assert sm.signed_double(square).names == ("0", "k1", "k10", "k11", "-k1", "-k10", "-k11")
    assert square == KeyedModule(Flavor.B, [0, 1, 2, 3], names=square.names)
    assert sm.validate_module(square).ok


def test_unequal_free_modules_build_no_names(monkeypatch):
    refuse_free_names(monkeypatch)
    free = sm.free_module(Flavor.B, 3)
    assert free != sm.free_module(Flavor.B, 2) and free != sm.dualize_free(3)
    assert free != sm.free_module(Flavor.FINF, 2) and hash(free) == hash(FreeModule(Flavor.B, 3))


def test_free_rank_cap():
    with pytest.raises(sm.ModuleStructureError):
        sm.free_module(Flavor.B, 20)


@pytest.mark.parametrize("flavor,rank", [(Flavor.B, 19), (Flavor.FINF, 12)])
def test_free_rank_cap_refuses_before_listing_the_keys(flavor, rank, monkeypatch):
    def refuse(flavor, rank):
        raise AssertionError("the keys of a free module above the cap were listed")

    monkeypatch.setattr(sm.free, "_layout", refuse)
    with pytest.raises(sm.ModuleStructureError, match=f"rank {rank} has"):
        FreeModule(flavor, rank)


def test_keyed_modules_above_the_carrier_cap_are_refused():
    with pytest.raises(sm.ModuleStructureError, match="exceeds the cap"):
        KeyedModule(Flavor.B, range(sm.CARRIER_CAP + 1))
    # the largest free B-module under the cap doubles to 2^19 - 1 elements
    half = FreeModule(Flavor.B, 18)
    assert half.size == sm.CARRIER_CAP
    with pytest.raises(sm.ModuleStructureError, match="524287 elements exceeds the cap"):
        sm.signed_double(half)
