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
from .free import free_module
from .homs import DEFAULT_BUDGET, Budget, Hom, extension_hom, find_right_inverse


@dataclass(frozen=True)
class ProjectivityCertificate:
    """The canonical cover and, when the module is projective, its section."""

    cover: Hom
    section: Optional[Hom]

    @property
    def projective(self) -> bool:
        return self.section is not None


def canonical_free_cover(m: FinModule) -> Hom:
    """Surjection onto m from the free module on ``m.generators``.

    It is the extension of the generator assignment A_i ↦ g_i, built once
    by :func:`semimod.homs.extension_hom` with its hom check kept, so
    ``find_right_inverse`` reads ``is_hom`` without a second walk of the
    free module.  The free module's element names are never built here.
    """
    gens = m.generators
    free = free_module(m.flavor, len(gens))
    cover = extension_hom(free, m, gens)
    if not cover.surjective:
        raise AssertionError("irreducible generators failed to generate")
    return cover


def projectivity_certificate(
    m: FinModule, *, budget: int | Budget = DEFAULT_BUDGET
) -> ProjectivityCertificate:
    """Search the canonical cover for a right inverse.

    Returns the section, which the search checked to split the cover, when
    one exists; otherwise the exhausted search certifies non-projectivity.
    A BudgetExceededError propagates as an inconclusive outcome.

    Lemma: the cover π: F -> m on ``m.generators`` g_1..g_k has at most one
    section, the residual section h, where h(x) has the signed support
    {+A_i : g_i <= x} ∪ {-A_i : -g_i <= x} (the second part in flavor Finf
    only, where a sign conflict makes h(x) the zero).  So the search finds
    h or nothing.  Proof, for a section s and x in m.  If s(x) is the zero
    of F, then x = π(s(x)) is the zero of m, and so is h(x): in flavor B
    the zero is the bottom, above no g_i, so the support is empty; in Finf
    it is the top, above every ±g_i, so the support has both signs.
    Otherwise s(x) ⊆ h(x): x = π(s(x)) is the sum of the ±g_i over the
    support of s(x), and each summand lies below the sum.  And
    h(x) ⊆ s(x): the irreducible g_i = π(s(g_i)) is a sum of the ±g_j in
    the support of s(g_i), each below g_i, so it is one of them
    (:func:`semimod.core.join_irreducibles`).  As the generators hold one
    of each ± pair and g_i ≠ -g_i, that one is +g_i, so +A_i lies in
    s(g_i).  Homs are monotone and the nonzero elements of F are ordered
    by signed-support inclusion, so +A_i lies in s(x) for every x >= g_i,
    and -A_i = -(+A_i) in s(-g_i) = -s(g_i) and in s(x) for every
    x >= -g_i.
    """
    cover = canonical_free_cover(m)
    section = find_right_inverse(cover, budget=budget)
    return ProjectivityCertificate(cover, section)
