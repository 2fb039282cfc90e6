import dataclasses
import itertools
import random

import pytest

import semimod as sm
from semimod import Flavor
from semimod import families, noetherian
from semimod.noetherian import (
    CategorySpec,
    MorphismClass,
    Verdict,
    default_witness_family,
    factors_through,
    hom_catalog,
    in_class,
    witness_verify,
)
from semimod.serialize import resolve_module_ref as ref

from conftest import chain_module, diamond_m3, pentagon_n5, recording_searches
from oracles import (
    PrincipalProjective,
    composites_of_steps,
    factors_through_by_catalog,
    principal_projective_profile,
)


def b_spec(morphism_class=MorphismClass.INJECTIONS, upto=2):
    spec, x0, ys, fs = default_witness_family(Flavor.B, upto, morphism_class)
    return spec, x0, ys, fs


@pytest.mark.parametrize(
    "flavor, largest", [(Flavor.B, "D_23 has 89"), (Flavor.FINF, "E_23 has 177")]
)
def test_an_oversized_witness_run_is_refused_before_any_member_is_built(
    flavor, largest, monkeypatch
):
    # under a cap of 37^2 table entries D_10 and E_5 are the largest members
    # that fit; --max-n 20 asks for members up to D_23 or E_23
    built = []
    real_indexed = families._indexed

    def counting_indexed(flavor, n, pairs, label):
        built.append(n)
        return real_indexed(flavor, n, pairs, label)

    monkeypatch.setattr(families, "DENSE_TABLE_LIMIT", 37 * 37)
    monkeypatch.setattr(families, "_indexed", counting_indexed)
    for constructor in (families.family, families.corner_witness):
        constructor.cache_clear()  # so that every member is built, and counted
    with pytest.raises(sm.ModuleStructureError, match=f"{largest} elements, too many"):
        default_witness_family(flavor, 20)
    assert built == []
    default_witness_family(flavor, 2)
    assert built == [5, 4, 0]


@pytest.mark.parametrize("flavor, lo, hi, scale", [(Flavor.B, 4, 10, 2), (Flavor.FINF, 3, 8, 4)])
def test_injections_between_members_are_composites_of_one_step_injections(flavor, lo, hi, scale):
    # the data of the generation lemma: every injective Y_j -> Y_i is a
    # composite of injective Y_k -> Y_{k+1}, and there are 8d^2 + 2 of them
    # for B (16d^2 + 4 for Finf), d = i - j
    mods = {n: sm.family(flavor, n).module for n in range(lo, hi + 1)}
    steps = {
        n: [h.map for h in sm.enumerate_homs(mods[n], mods[n + 1], injective=True)]
        for n in range(lo, hi)
    }
    for j in range(lo, hi):
        composites = composites_of_steps([steps[n] for n in range(j, hi)])
        for i, maps in zip(range(j + 1, hi + 1), composites):
            direct = {h.map for h in sm.enumerate_homs(mods[j], mods[i], injective=True)}
            assert maps == direct, (j, i)
            assert len(direct) == scale * (4 * (i - j) ** 2 + 1), (j, i)


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
    d2 = sm.family(Flavor.B, 2).module
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
        spec.objects + (("D6", sm.family(Flavor.B, 6).module),),
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
    res = factors_through(withx0, sm.identity_hom(spec.module("D0")), "D0")
    assert res.verdict is Verdict.FACTORS
    p, q = res.through
    assert p.is_identity() and q.is_identity()


def test_corner_embedding_does_not_factor_injectively():
    spec, x0, ys, fs = b_spec()
    res = factors_through(spec, fs[1], "D4")
    assert res.verdict is Verdict.NO_FACTORIZATION


def test_corner_embedding_factors_through_all_homs():
    spec, x0, ys, fs = b_spec(MorphismClass.ALL)
    res = factors_through(spec, fs[1], "D4")
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


def _on_halves(spec, fs):
    """The B spec of the halves of a Finf spec of signed doubles, and the
    maps the morphisms fs induce on the halves."""
    halves = tuple((name, mod.half) for name, mod in spec.objects)
    half_spec = CategorySpec(Flavor.B, halves, spec.morphism_class, spec.budget)
    half_fs = [sm.Hom(f.source.half, f.target.half, f.map[: f.source.half.size]) for f in fs]
    return half_spec, half_fs


def _ticks(searches):
    """The ticks of the searches of one witness call: the spent of the one
    budget they all draw on."""
    budget = searches[0].budget
    assert all(search.budget is budget for search in searches)
    return budget.spent


def test_witness_holds_at_depth(monkeypatch):
    # B 5 and Finf 4 are the sizes the benchmark's witness jobs run; B 8 and
    # Finf 6 take about 0.015 s and 0.004 s, and B 24 and Finf 16 about
    # 1.0 s and 0.1 s (2-vCPU host, Python 3.11).  At every level the
    # adjacent check, f_i through Y_{i-1}, gives the verdict of all the
    # others.  Each Finf
    # verdict is that of the same pair on the B halves, with the halves of
    # the corner embeddings (the corollary in free.SignedDouble), and the
    # Finf searches are those of the B run on the halves, tick for tick.
    # The budget bounds the whole run, and B 24 takes more ticks than the
    # default, so the deepest runs get exactly the ticks they take
    searches = recording_searches(monkeypatch)
    deepest_ticks = {(Flavor.B, 24): 17_459_852, (Flavor.FINF, 16): 588_056}
    for flavor, upto in (
        (Flavor.B, 4),
        (Flavor.FINF, 3),
        (Flavor.B, 5),
        (Flavor.FINF, 4),
        (Flavor.B, 8),
        (Flavor.FINF, 6),
        (Flavor.B, 24),
        (Flavor.FINF, 16),
    ):
        searches.clear()
        budget = deepest_ticks.get((flavor, upto), sm.DEFAULT_BUDGET)
        spec, x0, ys, fs = default_witness_family(flavor, upto, budget=budget)
        report = witness_verify(spec, x0, ys, fs)
        assert report.holds and not report.inconclusive, (flavor, upto)
        verdicts = [verdict for lv in report.levels for _, verdict in lv.checks]
        assert len(verdicts) == upto * (upto - 1) // 2, (flavor, upto)
        assert all(v is Verdict.NO_FACTORIZATION for v in verdicts), (flavor, upto)
        for lv in report.levels[1:]:
            adjacent, verdict = lv.checks[-1]
            assert adjacent == ys[lv.index - 2]
            assert all(v is verdict for _, v in lv.checks), (flavor, upto, lv.index)
        ticks = _ticks(searches)
        if (flavor, upto) in deepest_ticks:
            assert ticks == deepest_ticks[flavor, upto], (flavor, upto)
        if flavor is Flavor.FINF:
            searches.clear()
            half_spec, half_fs = _on_halves(spec, fs)
            half_report = witness_verify(half_spec, x0, ys, half_fs)
            assert [lv.checks for lv in half_report.levels] == [lv.checks for lv in report.levels]
            assert _ticks(searches) == ticks, upto


@pytest.mark.parametrize("flavor, ticks", [(Flavor.B, 95_620), (Flavor.FINF, 30_156)])
def test_witness_searches_take_the_pinned_number_of_ticks(flavor, ticks, monkeypatch):
    # one covering search per pair j < i at N = 8, 28 in all; the Finf
    # searches run on the halves, as the B witness on the halves does
    searches = recording_searches(monkeypatch)
    spec, x0, ys, fs = default_witness_family(flavor, 8)
    assert witness_verify(spec, x0, ys, fs).holds
    assert len(searches) == 28
    assert _ticks(searches) == ticks
    if flavor is Flavor.FINF:
        searches.clear()
        half_spec, half_fs = _on_halves(spec, fs)
        assert witness_verify(half_spec, x0, ys, half_fs).holds
        assert len(searches) == 28
        assert _ticks(searches) == ticks


def _negated(f):
    """-f, the hom f followed by the negation of its target."""
    return sm.Hom(f.source, f.target, tuple(map(f.target.neg_of, f.map)))


def _covering_verdict(f, yj_module):
    """The verdict of the covering search for q on the modules themselves,
    as factors_through searched them between signed doubles before."""
    q = next(sm.iter_homs(yj_module, f.target, covers=set(f.map)), None)
    return Verdict.NO_FACTORIZATION if q is None else Verdict.FACTORS


def test_injection_checks_between_signed_doubles_agree_with_the_search_on_the_doubles(
    monkeypatch,
):
    # every f_i of the default family up to Finf N=6 through every earlier
    # member, and composites E4 -> E5 -> E6 and E0 -> E5 -> E6 through every
    # member, each also negated, so that f = -Σ(f_h); the checks search the
    # halves only, and each lifted certificate passes the hom check, run
    spec, x0, ys, fs = default_witness_family(Flavor.FINF, 6)
    mods = dict(spec.objects)
    cases = [(f, yj) for i, f in enumerate(fs) for yj in ys[:i]]
    g = sm.enumerate_homs(mods["E4"], mods["E5"], injective=True)
    h = sm.enumerate_homs(mods["E5"], mods["E6"], injective=True)
    composites = [sm.compose(h[k], g[k]) for k in (0, 7, 19)] + [sm.compose(h[5], fs[1])]
    cases += [(f, yj) for f in composites for yj in ys]
    cases += [(_negated(f), yj) for f, yj in cases]
    want = [_covering_verdict(f, mods[yj]) for f, yj in cases]
    searches = recording_searches(monkeypatch)
    verdicts = []
    for (f, yj), verdict in zip(cases, want):
        res = factors_through(spec, f, yj)
        assert res.verdict is verdict, (f.describe(), yj)
        verdicts.append(res.verdict)
        if res.verdict is Verdict.FACTORS:
            p, q = res.through
            assert q.source is mods[yj] and p.injective and q.injective
            assert sm.Hom(p.source, p.target, p.map).is_hom
            assert sm.Hom(q.source, q.target, q.map).is_hom
            assert sm.compose(q, p).map == f.map
    # E4 -> E6 through E4, E5 and E6; E0 -> E6 through E5 and E6; with signs
    assert verdicts.count(Verdict.FACTORS) == 2 * (3 * 3 + 2)
    assert verdicts.count(Verdict.NO_FACTORIZATION) == len(cases) - 22
    assert searches and all(s.M.flavor is s.N.flavor is Flavor.B for s in searches)


def test_no_finf_injection_search_runs_on_a_double(monkeypatch):
    # a default-family Finf witness and the Finf rigidity grid search the
    # B halves only
    searches = recording_searches(monkeypatch)
    assert witness_verify(*default_witness_family(Flavor.FINF, 8)).holds
    for n in range(2, 9):
        for m in range(2, 9):
            found = sm.rigidity_check(n, m, Flavor.FINF)
            assert [f.is_identity() for f in found] == [True] * (n == m), (n, m)
    assert len(searches) == 28 + 37  # 12 grid cells have pins that conflict
    assert all(s.M.flavor is s.N.flavor is Flavor.B for s in searches)


def _assert_factorization(res, f):
    p, q = res.through
    assert sm.check_hom(p).ok and sm.check_hom(q).ok
    assert p.source == f.source and q.target == f.target
    assert sm.compose(q, p).map == f.map


def _assert_in_class(spec, res, f):
    """A factorization of f whose maps both lie in the class of spec, with
    every split map checked for a left inverse here."""
    _assert_factorization(res, f)
    p, q = res.through
    assert in_class(spec, p) and in_class(spec, q)
    if spec.morphism_class is not MorphismClass.ALL:
        assert p.injective and q.injective
    if spec.morphism_class is MorphismClass.SPLIT_INJECTIONS:
        for h in (p, q):
            w = sm.find_left_inverse(h)
            assert w is not None and sm.compose(w, h).is_identity()


@pytest.mark.parametrize(
    "morphism_class, flavor, upto",
    [
        (MorphismClass.INJECTIONS, Flavor.B, 5),
        (MorphismClass.INJECTIONS, Flavor.FINF, 4),
        (MorphismClass.SPLIT_INJECTIONS, Flavor.B, 4),
        (MorphismClass.SPLIT_INJECTIONS, Flavor.FINF, 4),
    ],
)
def test_injection_class_checks_agree_with_the_catalog_oracle(morphism_class, flavor, upto):
    # every pair of the witness, and every f_i through its own target, where
    # p = f_i and q = id factor it
    spec, x0, ys, fs = default_witness_family(flavor, upto, morphism_class)
    for i, (yi, f) in enumerate(zip(ys, fs)):
        for yj in ys[: i + 1]:
            res = factors_through(spec, f, yj)
            want = factors_through_by_catalog(spec, f, yj, source=x0, target=yi)
            assert res.verdict is want.verdict, (yi, yj)
            assert res.verdict is (Verdict.FACTORS if yj == yi else Verdict.NO_FACTORIZATION)
            if res.verdict is Verdict.FACTORS:
                _assert_in_class(spec, res, f)


@pytest.mark.parametrize(
    "morphism_class, names",
    [
        (MorphismClass.INJECTIONS, ("D0", "D4", "D5")),
        (MorphismClass.INJECTIONS, ("E0", "E4", "E5")),
        (MorphismClass.SPLIT_INJECTIONS, ("D0", "D4", "D5")),
        (MorphismClass.SPLIT_INJECTIONS, ("E0", "E4", "E5")),
        (MorphismClass.ALL, ("D2", "D3", "D4")),
        (MorphismClass.ALL, ("E0", "E2", "E3")),
    ],
)
def test_compositions_factor_and_agree_with_the_catalog_oracle(morphism_class, names):
    # q∘p with p and q drawn from the class factors through the middle object
    x, yj, yi = names
    spec = CategorySpec(ref(x).flavor, tuple((n, ref(n)) for n in names), morphism_class)
    rng = random.Random(11)
    ps, qs = hom_catalog(spec, x, yj), hom_catalog(spec, yj, yi)
    assert ps and qs
    for _ in range(12):
        f = sm.compose(rng.choice(qs).hom, rng.choice(ps).hom)
        res = factors_through(spec, f, yj)
        want = factors_through_by_catalog(spec, f, yj, source=x, target=yi)
        assert res.verdict is want.verdict is Verdict.FACTORS, f.map
        _assert_in_class(spec, res, f)


@pytest.mark.parametrize("through", ["M3", "F3"])
def test_split_class_needs_both_maps_to_split(through):
    # M3 embeds in the free module of rank 3 by a, b, c -> A1+A2, A2+A3,
    # A1+A3, and no embedding of M3 splits, as retracts of distributive
    # lattices are distributive.  Through M3 the embedding factors as
    # q∘automorphism with q an embedding of M3, and through a second copy of
    # the free module as automorphism∘p with p one.
    m3, free = diamond_m3(), sm.free_module(Flavor.B, 3)
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
    assert emb.is_hom and emb.injective and sm.find_left_inverse(emb) is None
    objects = (("M3", m3), ("F3", free), ("F3b", free))
    target = "F3" if through == "M3" else "F3b"
    for morphism_class, verdict in (
        (MorphismClass.INJECTIONS, Verdict.FACTORS),
        (MorphismClass.SPLIT_INJECTIONS, Verdict.NO_FACTORIZATION),
    ):
        spec = CategorySpec(Flavor.B, objects, morphism_class)
        res = factors_through(spec, emb, through)
        want = factors_through_by_catalog(spec, emb, through, source="M3", target=target)
        assert res.verdict is want.verdict is verdict, morphism_class
        if verdict is Verdict.FACTORS:
            _assert_in_class(spec, res, emb)


@pytest.mark.parametrize(
    "morphism_class", [MorphismClass.INJECTIONS, MorphismClass.SPLIT_INJECTIONS]
)
def test_non_injective_morphisms_factor_through_no_injections(morphism_class):
    # q∘p = f with q injective makes p exactly as injective as f; the
    # identity of D4 would pin the zero map as p
    spec, x0, ys, _ = default_witness_family(Flavor.B, 1, morphism_class)
    X, Y = spec.module(x0), spec.module(ys[0])
    zero = sm.Hom(X, Y, (Y.zero,) * X.size)
    res = factors_through(spec, zero, ys[0])
    want = factors_through_by_catalog(spec, zero, ys[0], source=x0, target=ys[0])
    assert res.verdict is want.verdict is Verdict.NO_FACTORIZATION


@pytest.mark.parametrize("morphism_class", list(MorphismClass))
def test_factorization_reads_no_catalog(morphism_class, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the factorization check read a hom catalog")

    monkeypatch.setattr(noetherian, "hom_catalog", refuse)
    spec, x0, ys, fs = default_witness_family(Flavor.B, 3, morphism_class)
    report = witness_verify(spec, x0, ys, fs)
    assert report.holds is (morphism_class is not MorphismClass.ALL)
    assert not report.inconclusive
    res = factors_through(spec, fs[0], ys[0])
    assert res.verdict is Verdict.FACTORS
    _assert_in_class(spec, res, fs[0])


@pytest.mark.parametrize(
    "morphism_class", [MorphismClass.INJECTIONS, MorphismClass.SPLIT_INJECTIONS]
)
def test_a_streamed_q_missing_im_f_fails_loudly(morphism_class, monkeypatch):
    # the covering search yields only q with im(q) ⊇ im(f); a search that
    # ignores the covering set breaks that contract, which must not pass
    # for a missed factorization
    def uncovered(M, N, *, covers, **kwargs):
        return sm.iter_homs(M, N, injective=True, **kwargs)

    spec, x0, ys, fs = default_witness_family(Flavor.B, 2, morphism_class)
    assert factors_through(spec, fs[1], ys[0]).verdict is Verdict.NO_FACTORIZATION
    monkeypatch.setattr(noetherian, "iter_homs", uncovered)
    with pytest.raises(AssertionError, match="im\\(f\\)"):
        factors_through(spec, fs[1], ys[0])


def test_a_replaced_specs_class_and_budget_reach_hom_catalog():
    d2, d3 = ref("D2"), ref("D3")
    spec = CategorySpec(Flavor.B, (("D2", d2), ("D3", d3)), MorphismClass.INJECTIONS)
    injective = hom_catalog(spec, "D2", "D3")
    all_spec = dataclasses.replace(spec, morphism_class=MorphismClass.ALL)
    assert len(hom_catalog(all_spec, "D2", "D3")) == len(sm.enumerate_homs(d2, d3)) == 240
    assert len(injective) < 240
    with pytest.raises(sm.BudgetExceededError):
        hom_catalog(dataclasses.replace(spec, budget=5), "D2", "D3")


def test_all_homs_witness_checks_agree_with_the_catalog_oracle():
    # the corner embeddings are injective, so only injective p are searched
    for flavor, upto in ((Flavor.B, 3), (Flavor.FINF, 2)):
        spec, x0, ys, fs = default_witness_family(flavor, upto, MorphismClass.ALL)
        oracle_spec, _, _, _ = default_witness_family(flavor, upto, MorphismClass.ALL)
        for i, (yi, f) in enumerate(zip(ys, fs)):
            for yj in ys[:i]:
                res = factors_through(spec, f, yj)
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
        ps = {yj: list(sm.iter_homs(X, middle)) for yj, middle in middles}
        for f in sm.enumerate_homs(X, Y):
            if f.injective:
                continue
            for yj, _ in middles:
                res = factors_through(spec, f, yj)
                want = factors_through_by_catalog(
                    oracle_spec, f, yj, source=x, target=y, ps=ps[yj]
                )
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
    objects = base.objects + (("D4b", sm.family(Flavor.B, 4).module),)
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
        spec.objects + (("extra", sm.family(Flavor.B, 6).module),),
        MorphismClass.INJECTIONS,
    )
    report = witness_verify(bigger, x0, ys, fs)
    assert report.holds


@pytest.mark.parametrize("morphism_class", list(MorphismClass))
def test_factors_through_refuses_a_map_that_is_no_hom(morphism_class):
    # the permutation of D4 swapping elements 1 and 2 is injective but no
    # hom, so p = q⁻¹∘f could be no hom either
    d4 = sm.family(Flavor.B, 4).module
    spec = CategorySpec(Flavor.B, (("D4", d4),), morphism_class)
    swap = sm.Hom(d4, d4, (0, 2, 1, *range(3, d4.size)))
    assert swap.injective and not swap.is_hom
    with pytest.raises(ValueError, match="expects a hom"):
        factors_through(spec, swap, "D4")


def test_witness_checks_share_one_budget_per_call():
    # a budget that covers each check of B N=3 alone but not all three
    # leaves the last inconclusive; each call starts on a fresh budget
    spec, x0, ys, fs = default_witness_family(Flavor.B, 3, budget=1200)
    for _ in range(2):
        report = witness_verify(spec, x0, ys, fs)
        assert [v for lv in report.levels for _, v in lv.checks] == [
            Verdict.NO_FACTORIZATION, Verdict.NO_FACTORIZATION, Verdict.INCONCLUSIVE
        ]
    assert witness_verify(dataclasses.replace(spec, budget=1201), x0, ys, fs).holds


def test_split_class_membership_is_checked_before_the_checks_spend_the_budget():
    # the left-inverse searches that put each f_i in the class run first:
    # with one tick more than they take, every check is inconclusive and
    # the last f_i's membership search is not cut off
    spec, x0, ys, fs = default_witness_family(Flavor.B, 3, MorphismClass.SPLIT_INJECTIONS)
    budget = sm.Budget(sm.DEFAULT_BUDGET)
    assert all(in_class(dataclasses.replace(spec, budget=budget), f) for f in fs)
    limited = dataclasses.replace(spec, budget=budget.spent + 1)
    report = witness_verify(limited, x0, ys, fs)
    assert [v for lv in report.levels for _, v in lv.checks] == [Verdict.INCONCLUSIVE] * 3


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
    proj = PrincipalProjective(spec, "D0")
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
    proj = PrincipalProjective(spec, "D0")
    g = hom_catalog(spec, "D4", "D5")[0].hom
    with pytest.raises(ValueError):
        proj.act(g, proj.basis("D4")[0].hom, "D4")


def test_spec_validation():
    d2 = sm.family(Flavor.B, 2).module
    e2 = sm.family(Flavor.FINF, 2).module
    with pytest.raises(ValueError):
        CategorySpec(Flavor.B, (("D2", d2), ("E2", e2)), MorphismClass.ALL)
    with pytest.raises(ValueError):
        CategorySpec(Flavor.B, (("D2", d2), ("D2", d2)), MorphismClass.ALL)
