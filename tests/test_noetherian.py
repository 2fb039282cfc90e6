import itertools

import pytest

import semimod as sm
from semimod import Flavor
from semimod.noetherian import (
    CategorySpec,
    MorphismClass,
    Verdict,
    default_witness_family,
    factors_through,
    hom_catalog,
    in_class,
    principal_projective_profile,
    witness_verify,
)
from semimod.serialize import resolve_module_ref as ref

from conftest import chain_module, diamond_m3, pentagon_n5
from oracles import factors_through_by_catalog


def b_spec(morphism_class=MorphismClass.INJECTIONS, upto=2):
    spec, x0, ys, fs = default_witness_family(Flavor.B, upto, morphism_class)
    return spec, x0, ys, fs


def test_injective_endos_of_d0_are_the_diamond_swaps():
    spec, x0, _, _ = b_spec()
    entries = hom_catalog(spec, "D0", "D0")
    # frozen against the permutation-filter oracle: identity plus the
    # independent swaps of the two diamonds
    assert len(entries) == 4
    assert sum(1 for e in entries if e.hom.is_identity()) == 1


def test_catalog_contains_corner_embedding():
    spec, _, _, fs = b_spec()
    entries = hom_catalog(spec, "D0", "D4")
    assert any(e.hom.map == fs[0].map for e in entries)


def test_catalog_to_one_element_module():
    one = sm.FinModule(Flavor.B, ("0",), 0, (0,))
    d2 = sm.construct_Dn(2).module
    spec = CategorySpec(Flavor.B, (("D2", d2), ("pt", one)), MorphismClass.ALL)
    entries = hom_catalog(spec, "D2", "pt")
    assert len(entries) == 1  # the constant zero
    inj = CategorySpec(Flavor.B, (("D2", d2), ("pt", one)), MorphismClass.INJECTIONS)
    assert hom_catalog(inj, "D2", "pt") == ()
    assert len(hom_catalog(inj, "pt", "pt")) == 1


def test_profile_regression_values():
    spec, x0, _, _ = b_spec()
    prof = principal_projective_profile(spec, "D0")
    assert prof == {"D0": 4, "D4": 32, "D5": 416}


def test_profile_has_identity_rank():
    spec, x0, _, _ = b_spec()
    assert principal_projective_profile(spec, "D0")["D0"] >= 1


def test_profiles_unchanged_by_extra_objects():
    spec, _, _, _ = b_spec()
    base = principal_projective_profile(spec, "D0")
    extended = CategorySpec(
        Flavor.B,
        spec.objects + (("D6", sm.construct_Dn(6).module),),
        MorphismClass.INJECTIONS,
    )
    ext = principal_projective_profile(extended, "D0")
    for name, rank in base.items():
        assert ext[name] == rank


def test_factors_trivially_through_itself():
    spec, x0, ys, fs = b_spec()
    withx0 = CategorySpec(
        Flavor.B, spec.objects, MorphismClass.INJECTIONS
    )
    res = factors_through(
        withx0, sm.identity_hom(spec.module("D0")), "D0", source="D0", target="D0"
    )
    assert res.verdict is Verdict.FACTORS
    p, q = res.through
    assert p.is_identity() and q.is_identity()


def test_corner_embedding_does_not_factor_injectively():
    spec, x0, ys, fs = b_spec()
    res = factors_through(spec, fs[1], "D4", source="D0", target="D5")
    assert res.verdict is Verdict.NO_FACTORIZATION


def test_corner_embedding_factors_through_all_homs():
    spec, x0, ys, fs = b_spec(MorphismClass.ALL)
    res = factors_through(spec, fs[1], "D4", source="D0", target="D5")
    # with arbitrary homs a non-injective q completes the triangle
    assert res.verdict is Verdict.FACTORS
    p, q = res.through
    assert sm.compose(q, p).map == fs[1].map
    assert not q.injective


def test_witness_holds_for_b_family():
    spec, x0, ys, fs = b_spec()
    report = witness_verify(spec, x0, ys, fs)
    assert report.holds and not report.inconclusive
    assert [lv.checks for lv in report.levels] == [
        (),
        (("D4", Verdict.NO_FACTORIZATION),),
    ]


def test_witness_holds_for_finf_family():
    for upto in (1, 2):
        spec, x0, ys, fs = default_witness_family(Flavor.FINF, upto)
        report = witness_verify(spec, x0, ys, fs)
        assert report.holds


def test_witness_holds_at_depth():
    # B 5 and Finf 4 are the sizes the benchmark's witness jobs run; B 8 and
    # Finf 6 take about 2 s and 1 s with the order-embedding filter
    for flavor, upto in (
        (Flavor.B, 4),
        (Flavor.FINF, 3),
        (Flavor.B, 5),
        (Flavor.FINF, 4),
        (Flavor.B, 8),
        (Flavor.FINF, 6),
    ):
        spec, x0, ys, fs = default_witness_family(flavor, upto)
        report = witness_verify(spec, x0, ys, fs)
        assert report.holds and not report.inconclusive, (flavor, upto)
        verdicts = [verdict for lv in report.levels for _, verdict in lv.checks]
        assert len(verdicts) == upto * (upto - 1) // 2, (flavor, upto)
        assert all(v is Verdict.NO_FACTORIZATION for v in verdicts), (flavor, upto)


def _assert_factorization(res, f):
    p, q = res.through
    assert sm.check_hom(p).ok and sm.check_hom(q).ok
    assert p.source == f.source and q.target == f.target
    assert sm.compose(q, p).map == f.map


def test_all_homs_witness_checks_agree_with_the_catalog_oracle():
    # the corner embeddings are injective, so only injective p are searched
    for flavor, upto in ((Flavor.B, 3), (Flavor.FINF, 2)):
        spec, x0, ys, fs = default_witness_family(flavor, upto, MorphismClass.ALL)
        oracle_spec, _, _, _ = default_witness_family(flavor, upto, MorphismClass.ALL)
        for i, (yi, f) in enumerate(zip(ys, fs)):
            for yj in ys[:i]:
                res = factors_through(spec, f, yj, source=x0, target=yi)
                want = factors_through_by_catalog(oracle_spec, f, yj, source=x0, target=yi)
                assert res.verdict is want.verdict is Verdict.FACTORS, (flavor, yi, yj)
                _assert_factorization(res, f)


def test_all_homs_factorizations_of_non_injective_morphisms_agree_with_the_catalog_oracle():
    # a non-injective f may need a non-injective p, as the zero map through
    # the one-element module does
    cases = (
        ("D2", "D3", [("pt", sm.free_module(Flavor.B, 0)), ("C2", chain_module(2)),
                      ("C3", chain_module(3)), ("M3", diamond_m3()), ("N5", pentagon_n5())]),
        ("E2", "E3", [("pt", sm.free_module(Flavor.FINF, 0)),
                      ("F1", sm.free_module(Flavor.FINF, 1)),
                      ("F2", sm.free_module(Flavor.FINF, 2))]),
    )
    for x, y, middles in cases:
        X, Y = ref(x), ref(y)
        objects = ((x, X), (y, Y)) + tuple(middles)
        spec = CategorySpec(X.flavor, objects, MorphismClass.ALL)
        oracle_spec = CategorySpec(X.flavor, objects, MorphismClass.ALL)
        seen = set()
        for f in sm.enumerate_homs(X, Y):
            if f.injective:
                continue
            for yj, _ in middles:
                res = factors_through(spec, f, yj, source=x, target=y)
                want = factors_through_by_catalog(oracle_spec, f, yj, source=x, target=y)
                assert res.verdict is want.verdict, (x, y, f.map, yj)
                if res.verdict is Verdict.FACTORS:
                    _assert_factorization(res, f)
                seen.add(res.verdict)
        assert seen == {Verdict.FACTORS, Verdict.NO_FACTORIZATION}, x


def test_all_homs_witness_factors_at_depth():
    # the p search of an injective f scans injective homs only; the full
    # catalog D0 -> D4 alone holds 23,648 homs
    for flavor in (Flavor.B, Flavor.FINF):
        spec, x0, ys, fs = default_witness_family(flavor, 4, MorphismClass.ALL)
        report = witness_verify(spec, x0, ys, fs)
        assert not report.holds and not report.inconclusive, flavor
        verdicts = [verdict for lv in report.levels for _, verdict in lv.checks]
        assert verdicts == [Verdict.FACTORS] * 6, flavor


def test_witness_holds_in_split_injection_class():
    spec, x0, ys, fs = b_spec(MorphismClass.SPLIT_INJECTIONS)
    report = witness_verify(spec, x0, ys, fs)
    assert report.holds


def test_witness_fails_on_degenerate_family():
    base, x0, ys, fs = b_spec(upto=1)
    objects = base.objects + (("D4b", sm.construct_Dn(4).module),)
    spec = CategorySpec(Flavor.B, objects, MorphismClass.INJECTIONS)
    report = witness_verify(spec, x0, ["D4", "D4b"], [fs[0], fs[0]])
    assert not report.holds and not report.inconclusive
    assert report.levels[1].checks[0][1] is Verdict.FACTORS


def test_witness_monotone_in_n():
    spec, x0, ys, fs = b_spec(upto=2)
    full = witness_verify(spec, x0, ys, fs)
    shorter = witness_verify(spec, x0, ys[:1], fs[:1])
    assert full.holds and shorter.holds


def test_witness_transfers_to_superset_spec():
    spec, x0, ys, fs = b_spec()
    bigger = CategorySpec(
        Flavor.B,
        spec.objects + (("extra", sm.construct_Dn(6).module),),
        MorphismClass.INJECTIONS,
    )
    report = witness_verify(bigger, x0, ys, fs)
    assert report.holds


def test_inconclusive_on_tiny_budget():
    spec, x0, ys, fs = default_witness_family(Flavor.B, 2, budget=5)
    report = witness_verify(spec, x0, ys, fs)
    assert not report.holds and report.inconclusive
    assert report.levels[1].checks[0][1] is Verdict.INCONCLUSIVE


def test_class_closure_under_composition():
    spec, x0, ys, fs = b_spec()
    first = hom_catalog(spec, "D0", "D4")
    second = hom_catalog(spec, "D4", "D5")
    for e1, e2 in itertools.islice(itertools.product(first, second), 40):
        comp = sm.compose(e2.hom, e1.hom)
        assert in_class(spec, comp)

    split_spec, _, _, _ = b_spec(MorphismClass.SPLIT_INJECTIONS)
    sfirst = hom_catalog(split_spec, "D0", "D4")
    ssecond = hom_catalog(split_spec, "D4", "D5")
    for e1, e2 in itertools.islice(itertools.product(sfirst, ssecond), 10):
        comp = sm.compose(e2.hom, e1.hom)
        composed_cert = sm.compose(e1.certificate, e2.certificate)
        assert sm.compose(composed_cert, comp).is_identity()


def test_split_class_certificates_verify():
    spec, _, _, _ = b_spec(MorphismClass.SPLIT_INJECTIONS)
    for entry in hom_catalog(spec, "D0", "D4"):
        assert entry.certificate is not None
        assert sm.compose(entry.certificate, entry.hom).is_identity()


def test_functorial_action_stays_in_catalog():
    spec, _, _, _ = b_spec()
    base = {e.hom.map for e in hom_catalog(spec, "D0", "D5")}
    for e1 in hom_catalog(spec, "D0", "D4"):
        for e2 in hom_catalog(spec, "D4", "D5"):
            assert sm.compose(e2.hom, e1.hom).map in base


def test_principal_projective_action():
    spec, _, _, _ = b_spec()
    proj = sm.PrincipalProjective(spec, "D0")
    assert proj.rank_profile() == {"D0": 4, "D4": 32, "D5": 416}
    f = proj.basis("D4")[0].hom
    g = hom_catalog(spec, "D4", "D5")[0].hom
    moved = proj.act(g, f, "D5")
    assert moved.map == sm.compose(g, f).map
    with pytest.raises(ValueError):
        proj.act(sm.Hom(spec.module("D4"), spec.module("D4"),
                        tuple(spec.module("D4").zero for _ in range(13))), f, "D4")


def test_endpoint_names_must_match_the_morphism():
    spec, _, _, fs = b_spec()
    with pytest.raises(ValueError):
        factors_through(spec, fs[1], "D4", source="D0", target="D4")  # fs[1] ends at D5
    proj = sm.PrincipalProjective(spec, "D0")
    g = hom_catalog(spec, "D4", "D5")[0].hom
    with pytest.raises(ValueError):
        proj.act(g, proj.basis("D4")[0].hom, "D4")


def test_spec_validation():
    d2 = sm.construct_Dn(2).module
    e2 = sm.construct_En(2).module
    with pytest.raises(ValueError):
        CategorySpec(Flavor.B, (("D2", d2), ("E2", e2)), MorphismClass.ALL)
    with pytest.raises(ValueError):
        CategorySpec(Flavor.B, (("D2", d2), ("D2", d2)), MorphismClass.ALL)
