"""Projectivity certificates via splittings of the canonical free cover.

A finitely generated module is projective exactly when some surjection from
a free module onto it splits, and then the canonical cover (the free module
on the irreducible generators) splits as well.  The search either produces
the section or exhausts the constrained space, so a negative answer is a
certificate, not a timeout.  A signed double Σ(L) is decided on its B half
L, whose free cover has 2^k elements where the double's has 3^k: by the
projectivity lemma of :class:`semimod.free.SignedDouble`, the section of
L's cover lifts to the double's exactly when L has a least nonzero element.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import FinModule, Flavor
from .free import SignedDouble, _check_free_rank, free_module
from .homs import DEFAULT_BUDGET, Budget, Hom, compose, extension_hom, find_right_inverse


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

    A signed double Σ(L) (:class:`semimod.free.SignedDouble`) is decided
    by the search on its half L, on the same budget, after its F∞ cover is
    refused if it would exceed the carrier cap: Σ(L) is projective exactly
    when L is and L is zero or has a least nonzero element, and then the
    section is L's lifted, x^± ↦ ±s(x), checked once where it is made.  The
    double's own search walks the same tree at the same ticks: its
    generators are the g_i⁺, each candidate set is g_i's fiber in L's cover
    read as positive supports, in the same order, and the mixed-sign sums
    it adds are checked only at the leaves, where h takes the largest,
    hence last, candidate at every depth.  So the answer, the section and
    the ticks are those of the double's search.
    """
    if isinstance(m, SignedDouble):
        return _double_certificate(m, budget)
    cover = canonical_free_cover(m)
    section = find_right_inverse(cover, budget=budget)
    return ProjectivityCertificate(cover, section)


def _double_certificate(m: SignedDouble, budget: int | Budget) -> ProjectivityCertificate:
    """Σ(L) decided on its half L (see :func:`projectivity_certificate`);
    the F∞ cover is built once L has decided, for a negative too."""
    L = m.half
    irr = L.generators
    _check_free_rank(Flavor.FINF, len(irr))
    half = projectivity_certificate(L, budget=budget)
    cover = canonical_free_cover(m)
    # a least nonzero element is an irreducible below every irreducible
    if half.section is None or irr and not any(all(L.leq(low, g) for g in irr) for low in irr):
        return ProjectivityCertificate(cover, None)
    F, keys = cover.source, half.cover.source.keys
    pos = [F.id_of_key[keys[v]] for v in half.section.map[1:]]
    section = Hom(m, F, (0, *pos, *map(F.neg_of, pos)))
    if not (section.is_hom and compose(cover, section).is_identity()):
        raise AssertionError("lifted section failed verification")
    return ProjectivityCertificate(cover, section)
