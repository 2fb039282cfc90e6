import pytest

import semimod as sm
from semimod import Flavor

from conftest import chain_module
from oracles import projectivity_agrees_with_distributivity


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
