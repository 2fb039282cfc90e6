import random

import pytest

import semimod as sm
from semimod import Flavor
from semimod.free import KeyedModule
from semimod.serialize import resolve_module_ref as ref

from conftest import chain_module
from oracles import projectivity_agrees_with_distributivity, residual_section


def test_dn_projective_with_found_splitting():
    for n in range(2, 6):
        mod = sm.family(Flavor.B, n).module
        cert = sm.projectivity_certificate(mod)
        assert cert.projective
        assert cert.section is not None
        assert sm.compose(cert.cover, cert.section).is_identity()


def test_en_projective():
    for n in (2, 3, 4):
        mod = sm.family(Flavor.FINF, n).module
        cert = sm.projectivity_certificate(mod)
        assert cert.projective


def test_corner_witnesses_projective():
    assert sm.projectivity_certificate(sm.corner_witness(Flavor.B).module).projective
    assert sm.projectivity_certificate(sm.corner_witness(Flavor.FINF).module).projective


def test_m3_not_projective_and_not_distributive(m3):
    cert = sm.projectivity_certificate(m3)
    assert not cert.projective and cert.section is None
    report = sm.is_distributive_lattice(m3)
    assert not report.distributive
    assert projectivity_agrees_with_distributivity(m3) is True


def test_n5_not_projective_and_not_distributive(n5):
    cert = sm.projectivity_certificate(n5)
    assert not cert.projective
    assert not sm.is_distributive_lattice(n5).distributive
    assert projectivity_agrees_with_distributivity(n5) is True


def test_chains_projective_and_distributive():
    for k in (1, 2, 4):
        ch = chain_module(k)
        assert sm.projectivity_certificate(ch).projective
        assert sm.is_distributive_lattice(ch).distributive
        assert projectivity_agrees_with_distributivity(ch) is True


def test_cover_has_expected_rank():
    for n in (2, 3, 4):
        cover = sm.canonical_free_cover(sm.family(Flavor.B, n).module)
        assert cover.source.free_rank == 2 * n - 1
        cover_e = sm.canonical_free_cover(sm.family(Flavor.FINF, n).module)
        assert cover_e.source.free_rank == 2 * n - 1


def test_distributivity_comparison_rejects_finf():
    with pytest.raises(ValueError):
        projectivity_agrees_with_distributivity(sm.scalar_module(Flavor.FINF))


def _union_closed_module(rng, k, universe=8):
    """The B-module of the union closure of k random subsets of the
    universe, keyed by the sets themselves."""
    picks = [sum(1 << b for b in range(universe) if rng.random() < 0.35) for _ in range(k)]
    sets = {0}
    for p in picks:
        sets |= {s | p for s in sets}
    keys = sorted(sets, key=lambda s: (s.bit_count(), s))
    return KeyedModule(Flavor.B, keys, names=[f"x{s}" for s in keys])


def _section_search_finds_exactly_the_residual_section(m):
    # the docstring lemma of projectivity_certificate: every section of
    # the canonical cover is h, so the search finds h or nothing
    cert = sm.projectivity_certificate(m)
    h = residual_section(m)
    if cert.section is not None:
        assert cert.section.map == h.map
    else:
        assert not (h.is_hom and sm.compose(cert.cover, h).is_identity())
    return cert.projective


def test_the_section_of_every_projective_family_member_is_the_residual_section():
    names = [f"D{n}" for n in (0, *range(2, 8))] + [f"E{n}" for n in (0, 2, 3, 4)]
    for name in names:
        assert _section_search_finds_exactly_the_residual_section(ref(name)), name


def test_the_section_search_finds_the_residual_section_or_nothing():
    found = {}
    for seed in range(1, 5):
        rng = random.Random(seed)
        for i in range(40):
            half = _union_closed_module(rng, 2 + i % 5)
            mods = [half]
            if len(half.generators) <= 5:  # a Finf cover of at most 3^5 elements
                mods.append(sm.signed_double(half))
            for m in mods:
                key = (m.flavor, _section_search_finds_exactly_the_residual_section(m))
                found[key] = found.get(key, 0) + 1
    # both verdicts occur in both flavors
    assert len(found) == 4 and min(found.values()) >= 10, found
