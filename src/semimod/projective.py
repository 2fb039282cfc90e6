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

from .core import FinModule
from .free import extend_from_generators, free_module
from .homs import DEFAULT_BUDGET, Hom, find_right_inverse


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

    Returns the section, which the search checked to split the cover, when
    one exists; otherwise the exhausted search certifies non-projectivity.
    A BudgetExceededError propagates as an inconclusive outcome.
    """
    cover = canonical_free_cover(m)
    section = find_right_inverse(cover, budget=budget)
    return ProjectivityCertificate(section is not None, cover, section)
