import pytest

import semimod as sm
from semimod import Flavor, families

from oracles import family_reference, retraction_by_case_formula, section_generator_pairs


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
            assert mod.add_of(lat.neg_label(*p), lat.neg_label(*q)) == lat.neg_label(*met)
            assert mod.add_of(lat.label(*p), lat.neg_label(*q)) == mod.zero


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
    assert mod.add_of(lat.label(1, 1), lat.neg_label(4, 4)) == mod.zero
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
    for n in range(4, 21):
        assert sm.corner_retraction(n, flavor).map == retraction_by_case_formula(n, flavor)


def test_corner_retraction_needs_a_least_corner_above_each_element(monkeypatch):
    # only 0 lies below the image of the zero map, so U(y) is empty for y != 0
    d0, d4 = sm.corner_witness(Flavor.B).module, sm.family(Flavor.B, 4).module
    zero = sm.Hom(d0, d4, (d4.zero,) * d0.size)
    monkeypatch.setattr(families, "corner_embedding", lambda n, flavor: zero)
    with pytest.raises(sm.ModuleStructureError, match="no least corner"):
        sm.corner_retraction(4, Flavor.B)


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


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_rigidity_at_larger_parameters(flavor):
    found = sm.rigidity_check(5, 5, flavor)
    assert len(found) == 1 and found[0].is_identity()
    assert sm.rigidity_check(5, 4, flavor) == []
    assert sm.rigidity_check(4, 5, flavor) == []
