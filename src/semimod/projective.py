"""Projectivity certificates via splittings of the canonical free cover.

A finitely generated module is projective exactly when some surjection from
a free module onto it splits, and then the canonical cover (the free module
on the irreducible generators) splits as well.  The search either produces
the section or exhausts the constrained space, so a negative answer is a
certificate, not a timeout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import FinModule, Flavor, is_distributive_lattice
from .free import extend_from_generators, free_module
from .homs import DEFAULT_BUDGET, Hom, compose, find_right_inverse


@dataclass(frozen=True)
class ProjectivityCertificate:
    projective: bool
    cover: Hom
    section: Optional[Hom]


def canonical_free_cover(m: FinModule) -> Hom:
    """Surjection onto m from the free module on ``m.generators``."""
    gens = m.generators
    free = free_module(m.flavor, len(gens))
    cover = Hom(free, m, extend_from_generators(free, m, list(gens)))
    if not cover.surjective:
        raise AssertionError("irreducible generators failed to generate")
    return cover


def projectivity_certificate(
    m: FinModule, *, budget: int = DEFAULT_BUDGET
) -> ProjectivityCertificate:
    """Search the canonical cover for a right inverse.

    Returns the section when one exists; otherwise the exhausted search
    certifies non-projectivity.  A BudgetExceededError propagates as an
    inconclusive outcome.
    """
    cover = canonical_free_cover(m)
    section = find_right_inverse(cover, budget=budget)
    if section is not None:
        if not compose(cover, section).is_identity():
            raise AssertionError("found section does not split the cover")
    return ProjectivityCertificate(section is not None, cover, section)


def projectivity_agrees_with_distributivity(m: FinModule, *, budget: int = DEFAULT_BUDGET) -> bool:
    """For flavor B, projectivity coincides with being a distributive lattice."""
    if m.flavor is not Flavor.B:
        raise ValueError("the distributivity comparison applies to flavor B")
    cert = projectivity_certificate(m, budget=budget)
    report = is_distributive_lattice(m)
    return cert.projective == report.distributive
