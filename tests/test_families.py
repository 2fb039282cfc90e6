import pytest

import semimod as sm
from semimod import Flavor, families
from semimod.free import KeyedModule

from conftest import assorted_modules
from oracles import (
    family_reference,
    neg_label,
    retraction_by_case_formula,
    section_generator_pairs,
    signed_double_by_table,
)


def test_family_sizes():
    for n in range(2, 11):
        assert sm.family(Flavor.B, n).module.size == 4 * n - 3
        assert sm.family(Flavor.FINF, n).module.size == 8 * n - 7
    assert sm.corner_witness(Flavor.B).module.size == 9
    assert sm.corner_witness(Flavor.FINF).module.size == 17


def test_family_parameter_bounds():
    with pytest.raises(ValueError):
        sm.family(Flavor.B, 1)
    with pytest.raises(ValueError):
        sm.family(Flavor.FINF, 0)


def test_dn_join_formula():
    lat = sm.family(Flavor.B, 3)
    mod = lat.module
    assert mod.add_of(lat.label(1, 2), lat.label(2, 1)) == lat.label(2, 2)
    assert mod.add_of(lat.label(1, 3), lat.label(3, 2)) == lat.label(3, 3)
    for p in lat.index_pairs:
        for q in lat.index_pairs:
            joined = (max(p[0], q[0]), max(p[1], q[1]))
            assert mod.add_of(lat.label(*p), lat.label(*q)) == lat.label(*joined)


def test_en_addition_rules():
    lat = sm.family(Flavor.FINF, 3)
    mod = lat.module
    for p in lat.index_pairs:
        for q in lat.index_pairs:
            met = (min(p[0], q[0]), min(p[1], q[1]))
            assert mod.add_of(lat.label(*p), lat.label(*q)) == lat.label(*met)
            assert mod.add_of(neg_label(lat, *p), neg_label(lat, *q)) == neg_label(lat, *met)
            assert mod.add_of(lat.label(*p), neg_label(lat, *q)) == mod.zero


def _tables(mod):
    ids = range(mod.size)
    add = tuple(mod.add_of(a, b) for a in ids for b in ids)
    neg = tuple(map(mod.neg_of, ids)) if mod.flavor is Flavor.FINF else None
    return mod.names, mod.zero, add, neg


def test_family_tables_equal_the_entry_by_entry_references():
    # the keyed members against the tables filled one entry at a time (whose
    # builder also checks the closure of the index set), their axiom scan,
    # and their order, key inclusion, against the reference's scanned order
    for flavor in (Flavor.B, Flavor.FINF):
        members = [(0, sm.corner_witness(flavor))]
        members += [(n, sm.family(flavor, n)) for n in range(2, 41)]
        for n, lat in members:
            mod, ref = lat.module, family_reference(flavor, n)
            assert mod.add_table is None and mod.neg_table is None
            assert _tables(mod) == (ref.names, ref.zero, ref.add_table, ref.neg_table), (flavor, n)
            assert sm.validate_module(mod).ok
            assert mod.order.masks == ref.order.masks
            assert mod.order.down_masks == ref.order.down_masks


def test_signed_doubles_equal_the_tabled_oracle():
    # free halves have keys that do not meet, so only the sign bit keeps
    # x+ + y- at the zero
    halves = [sm.free_module(Flavor.B, r) for r in range(5)] + [sm.corner_witness(Flavor.B).module]
    halves += [sm.family(Flavor.B, n).module for n in range(2, 7)]
    halves += [sm.family(Flavor.FINF, n).module.half for n in range(2, 7)]
    for half in halves:
        double, (ref, _) = sm.signed_double(half), signed_double_by_table(half)
        assert double.half is half
        assert _tables(double) == (ref.names, ref.zero, ref.add_table, ref.neg_table)
        assert sm.validate_module(double).ok
        assert double.order.masks == ref.order.masks
    with pytest.raises(sm.FlavorMismatchError):
        sm.signed_double(sm.free_module(Flavor.FINF, 2))
    with pytest.raises(sm.FlavorMismatchError):
        sm.signed_double(family_reference(Flavor.B, 3))


def test_en_half_is_dn_reversed():
    # (i,k) -> (n+1-k, n+1-i) turns the min of E_n's positives into D_n's max
    for n in range(2, 41):
        en, dn = sm.family(Flavor.FINF, n), sm.family(Flavor.B, n)
        half = en.module.half
        assert isinstance(half, sm.free.KeyedModule) and half.flavor is Flavor.B
        there = [0] * half.size
        for i, k in en.index_pairs:
            there[en.label(i, k)] = dn.label(n + 1 - k, n + 1 - i)
        back = [there.index(x) for x in range(dn.module.size)]
        assert sm.Hom(half, dn.module, tuple(there)).is_hom
        assert sm.Hom(dn.module, half, tuple(back)).is_hom


def _signed_lifts(homs, lift, neg):
    """The maps Σ(q) and -Σ(q) for each q of ``homs``."""
    out = set()
    for q in homs:
        up = lift(q)
        out |= {up, tuple(map(neg, up))}
    return out


def test_en_injections_are_the_signed_lifts_of_the_halves():
    # Hom_inj(ΣL, ΣL') = {±Σ(q) : q ∈ Hom_inj(L, L')}, map for map
    count = 0
    for j in range(3, 10):
        for i in range(j + 1, 10):
            ej, ei = sm.family(Flavor.FINF, j).module, sm.family(Flavor.FINF, i).module
            halves = sm.enumerate_homs(ej.half, ei.half, injective=True)
            lifts = _signed_lifts(halves, lambda q: ei.lift(q.map), ei.neg_of)
            assert {f.map for f in sm.enumerate_homs(ej, ei, injective=True)} == lifts
            count += len(lifts)
    assert count == 3220


def test_signed_double_injections_are_the_signed_lifts_on_assorted_modules():
    halves = [m for m in assorted_modules() if m.flavor is Flavor.B and m.size <= 16]
    doubles = [signed_double_by_table(m) for m in halves]
    for L, (S, ids) in zip(halves, doubles):
        assert sm.validate_module(S).ok
        for L2, (T, tids) in zip(halves, doubles):

            def lift(q):
                out = [0] * S.size
                for (x, sign), at in ids.items():
                    out[at] = tids[(q.map[x], sign)]
                return tuple(out)

            lifts = _signed_lifts(sm.enumerate_homs(L, L2, injective=True), lift, T.neg_of)
            assert {f.map for f in sm.enumerate_homs(S, T, injective=True)} == lifts


def test_a_half_differs_from_the_member_with_its_names():
    # E5's half has D5's names and reflected keys
    half, d5 = sm.family(Flavor.FINF, 5).module.half, sm.family(Flavor.B, 5).module
    assert half.names == d5.names and half != d5
    identity = sm.Hom(half, d5, tuple(range(d5.size)))
    assert not identity.is_identity() and not identity.is_hom
    e5, copy = sm.family(Flavor.FINF, 5).module, families.family.__wrapped__(Flavor.FINF, 5).module
    assert copy is not e5 and copy == e5 and hash(copy) == hash(e5)
    assert copy.half == half


def test_the_largest_members_are_built_without_tables():
    for flavor, n, size in ((Flavor.B, 724, 4 * 724 - 3), (Flavor.FINF, 362, 8 * 362 - 7)):
        mod = sm.family(flavor, n).module
        assert mod.add_table is None and mod.size == size


def test_d0_hasse_relations():
    lat = sm.corner_witness(Flavor.B)
    mod = lat.module
    assert mod.add_of(lat.label(1, 2), lat.label(2, 1)) == lat.label(2, 2)
    assert mod.add_of(lat.label(3, 4), lat.label(4, 3)) == lat.label(4, 4)
    # the single covering chain joins the diamonds
    assert mod.leq(lat.label(2, 2), lat.label(3, 3))
    covers = sm.induced_order(mod).covering_pairs()
    assert (lat.label(2, 2), lat.label(3, 3)) in covers


def test_e0_mixed_sign_rule():
    lat = sm.corner_witness(Flavor.FINF)
    mod = lat.module
    assert mod.add_of(lat.label(1, 1), neg_label(lat, 4, 4)) == mod.zero
    assert mod.add_of(lat.label(3, 4), lat.label(4, 3)) == lat.label(3, 3)


def test_families_are_valid_and_distributive():
    for n in range(2, 7):
        dn = sm.family(Flavor.B, n)
        assert sm.validate_module(dn.module).ok
        assert sm.is_distributive_lattice(dn.module).distributive
        en = sm.family(Flavor.FINF, n)
        assert sm.validate_module(en.module).ok


def test_dn_join_irreducible_count():
    for n in range(2, 7):
        lat = sm.family(Flavor.B, n)
        assert len(sm.join_irreducibles(lat.module)) == 2 * n - 1


def test_en_positive_part_antiisomorphic_to_dn():
    n = 4
    dn, en = sm.family(Flavor.B, n), sm.family(Flavor.FINF, n)
    for p in dn.index_pairs:
        for q in dn.index_pairs:
            forward = dn.module.leq(dn.label(*p), dn.label(*q))
            backward = en.module.leq(en.label(*q), en.label(*p))
            assert forward == backward


def test_canonical_section_values_b():
    n = 3
    g, h = sm.canonical_section(n, Flavor.B)
    lat = sm.family(Flavor.B, n)
    free = g.source
    a12 = lat.label(1, 2)
    assert sm.support_of(free, h.map[a12]) == ((0, 1), (1, 1))  # A_1 + A_2
    assert g.map[h.map[a12]] == a12
    gens = sm.generator_ids(free)
    assert g.map[gens[0]] == lat.label(1, 1)
    assert g.map[gens[1]] == lat.label(1, 2)
    assert g.map[gens[2]] == lat.label(2, 1)
    assert g.map[gens[3]] == lat.label(1, 3)
    assert g.map[gens[4]] == lat.label(3, 2)


def test_canonical_section_values_finf():
    n = 3
    g, h = sm.canonical_section(n, Flavor.FINF)
    lat = sm.family(Flavor.FINF, n)
    free = g.source
    a33 = lat.label(3, 3)
    assert sm.support_of(free, h.map[a33]) == ((0, 1),)  # A_1
    assert g.map[h.map[a33]] == a33
    gens = sm.generator_ids(free)
    assert g.map[gens[0]] == lat.label(n, n)
    assert {g.map[gens[1]], g.map[gens[2]]} == {lat.label(n - 1, n), lat.label(n, n - 1)}
    assert g.map[gens[3]] == lat.label(n - 2, n)


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_split_identities_full_range(flavor):
    for n in range(2, 7):
        g, h = sm.canonical_section(n, flavor)
        assert g.surjective
        assert h.injective
        assert sm.compose(g, h).is_identity()


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_corner_split_identity_range(flavor):
    for n in range(4, 9):
        emb = sm.corner_embedding(n, flavor)
        ret = sm.corner_retraction(n, flavor)
        assert emb.injective and emb.is_hom
        assert ret.is_hom
        assert sm.compose(ret, emb).is_identity()


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_corner_retraction_agrees_with_the_case_formulas(flavor):
    for n in range(4, 41):
        assert sm.corner_retraction(n, flavor).map == retraction_by_case_formula(n, flavor)


def test_corner_retraction_refuses_a_map_it_cannot_undo(monkeypatch):
    # the zero map sends every a_j to O, so every nonzero y goes to the top
    # and r∘e is the zero map; the constant top (not a hom) lies above every
    # y, so r sends every y to O, and r∘e is the zero map too
    d0, d4 = sm.corner_witness(Flavor.B).module, sm.family(Flavor.B, 4).module
    undo = "retraction ∘ embedding is not the identity"
    for value, match in ((d4.zero, "not the identity"), (d4.size - 1, undo)):
        constant = sm.Hom(d0, d4, (value,) * d0.size)
        monkeypatch.setattr(families, "corner_embedding", lambda n, flavor: constant)
        with pytest.raises(sm.ModuleStructureError, match=match):
            sm.corner_retraction(4, Flavor.B)


def test_finf_corner_retraction_refuses_a_half_that_retracts_to_the_zero(monkeypatch):
    # e: B^2 -> M sends the atoms a, b to {1,2} and {1,3}, both above
    # c = {1}; r(c) is then the zero, which no lift to the doubles survives
    b2 = KeyedModule(Flavor.B, (0, 0b01, 0b10, 0b11), names=("0", "a", "b", "ab"))
    keys = (0, 0b001, 0b011, 0b101, 0b111)
    m = KeyedModule(Flavor.B, keys, names=("0", "c", "a'", "b'", "top"))
    e = sm.Hom(b2, m, (0, 2, 3, 4))
    r = sm.retraction(e)
    assert r.map[1] == 0 and sm.compose(r, e).is_identity()
    src, dst = sm.signed_double(b2), sm.signed_double(m)
    lifted = sm.Hom(src, dst, dst.lift(e.map))
    assert lifted.is_hom and lifted.injective
    monkeypatch.setattr(families, "corner_embedding", lambda n, flavor: lifted)
    with pytest.raises(sm.ModuleStructureError, match="^c retracts to the zero$"):
        sm.corner_retraction(4, Flavor.FINF)


@pytest.mark.parametrize("listed", ["ascending", "reversed"])
@pytest.mark.parametrize("flavor,top", [(Flavor.B, 9), (Flavor.FINF, 6)])
def test_section_generator_order_agrees_with_the_printed_table(flavor, top, listed, monkeypatch):
    # the sort key has no ties, so the order of the irreducibles as listed
    # does not reach the section
    if listed == "reversed":
        monkeypatch.setattr(
            families,
            "irreducible_generators",
            lambda m: tuple(reversed(sm.irreducible_generators(m))),
        )
    for n in range(2, top + 1):
        g, _ = sm.canonical_section(n, flavor)
        lat = sm.family(flavor, n)
        images = [g.map[a] for a in sm.generator_ids(g.source)]
        assert images == [lat.label(*p) for p in section_generator_pairs(flavor, n)], n


def test_corner_embedding_rejects_small_n():
    for n in (2, 3):
        with pytest.raises(ValueError):
            sm.corner_embedding(n, Flavor.B)
        with pytest.raises(ValueError):
            sm.corner_retraction(n, Flavor.FINF)


def test_retraction_collapses_middle_band():
    n = 4
    lat = sm.family(Flavor.B, n)
    d0 = sm.corner_witness(Flavor.B)
    j = sm.corner_retraction(n, Flavor.B)
    assert j.map[lat.label(2, 2)] == d0.label(2, 2)
    assert j.map[lat.label(3, 3)] == d0.label(3, 3)
    assert j.map[lat.label(1, 3)] == d0.label(3, 3)
    assert j.map[lat.label(2, 3)] == d0.label(3, 3)
    assert j.map[lat.label(2, 4)] == d0.label(3, 4)  # the off-band top case
    assert j.map[lat.label(3, 4)] == d0.label(3, 4)
    assert j.map[lat.label(4, 3)] == d0.label(4, 3)
    assert j.map[lat.label(4, 4)] == d0.label(4, 4)


def test_d0_embeds_in_dn_as_sublattice():
    for n in range(4, 9):
        emb = sm.corner_embedding(n, Flavor.B)
        image = set(emb.map)
        mod = sm.family(Flavor.B, n).module
        sub, _ = sm.submodule_on(mod, image)
        assert sub.size == 9


@pytest.mark.parametrize(
    "flavor,n,m,expected",
    [
        (Flavor.B, 2, 2, 1),
        (Flavor.B, 3, 3, 1),
        (Flavor.B, 4, 4, 1),
        (Flavor.B, 2, 3, 0),
        (Flavor.B, 3, 4, 0),
        (Flavor.B, 4, 2, 0),
        (Flavor.FINF, 3, 3, 1),
        (Flavor.FINF, 4, 4, 1),
        (Flavor.FINF, 3, 4, 0),
        (Flavor.FINF, 4, 3, 0),
    ],
)
def test_rigidity(flavor, n, m, expected):
    found = sm.rigidity_check(n, m, flavor)
    assert len(found) == expected
    if expected:
        assert found[0].is_identity()


def test_finf_rigidity_agrees_with_the_pinned_search_on_the_doubles():
    # the Finf check searches the halves and lifts; the oracle searches the
    # doubles, with each corner of E_n pinned to the matching one of E_m
    def corners(k):
        return [(a + i, a + j) for a in (0, k - 2) for i in (1, 2) for j in (1, 2)]

    for n in range(2, 9):
        for m in range(2, 9):
            src, dst = sm.family(Flavor.FINF, n), sm.family(Flavor.FINF, m)
            pins = {}
            for p, q in zip(corners(n), corners(m)):
                s, t = src.label(*p), dst.label(*q)
                pins[s] = pins.get(s, {t}) & {t}
            want = sm.enumerate_homs(src.module, dst.module, injective=True, allowed=pins)
            found = sm.rigidity_check(n, m, Flavor.FINF)
            assert [f.map for f in found] == [f.map for f in want], (n, m)
            assert all(f.source is src.module and f.target is dst.module for f in found)


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_rigidity_at_larger_parameters(flavor):
    found = sm.rigidity_check(5, 5, flavor)
    assert len(found) == 1 and found[0].is_identity()
    assert sm.rigidity_check(5, 4, flavor) == []
    assert sm.rigidity_check(4, 5, flavor) == []
