"""The witness lattice families and their canonical morphisms.

D_n is the diamond-chain distributive lattice of size 4n-3 on index pairs
(i,k); joins act componentwise by max.  E_n is its signed mirror of size
8n-7: positives add by componentwise min, negatives mirror, mixed-sign sums
collapse to the absorbing zero.  The fixed corner witnesses (size 9 and 17)
are the same constructions on the eight-index corner set.

Each constructor validates its module and asserts the advertised size; the
section and retraction builders verify their splitting identities
element-wise before returning.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .core import (
    FinModule,
    Flavor,
    ModuleStructureError,
    irreducible_generators,
    validate_module,
)
from .free import element_of_support, free_module, extend_from_generators
from .homs import (
    DEFAULT_BUDGET,
    Hom,
    HomConstraints,
    check_hom,
    compose,
    enumerate_homs,
)

Pair = tuple[int, int]

CORNER_SET: tuple[Pair, ...] = (
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4),
)


@dataclass(frozen=True)
class IndexedLattice:
    """A family member together with its (i,k) labelling.

    ``n`` is the family parameter; the fixed corner witnesses use n=0.
    ``label_ids`` maps an index pair to the id of the positive element.
    """

    n: int
    flavor: Flavor
    module: FinModule
    index_pairs: tuple[Pair, ...]
    label_ids: Mapping[Pair, int]

    def label(self, i: int, k: int) -> int:
        return self.label_ids[(i, k)]

    def neg_label(self, i: int, k: int) -> int:
        return self.module.neg_of(self.label_ids[(i, k)])

    @property
    def zero(self) -> int:
        return self.module.zero


def family_index_pairs(n: int) -> tuple[Pair, ...]:
    """Diagonal, both off-diagonals, and the (i-1,i+1) band, sorted."""
    pairs = {(i, i) for i in range(1, n + 1)}
    pairs |= {(i, i + 1) for i in range(1, n)}
    pairs |= {(i + 1, i) for i in range(1, n)}
    pairs |= {(i - 1, i + 1) for i in range(2, n)}
    return tuple(sorted(pairs))


def _assert_componentwise_closed(pairs: tuple[Pair, ...]) -> None:
    have = set(pairs)
    for (a, b) in pairs:
        for (c, d) in pairs:
            if (max(a, c), max(b, d)) not in have:
                raise ModuleStructureError(f"index set not max-closed at {(a, b)}, {(c, d)}")
            if (min(a, c), min(b, d)) not in have:
                raise ModuleStructureError(f"index set not min-closed at {(a, b)}, {(c, d)}")


def _join_lattice(pairs: tuple[Pair, ...], label: str, bottom: str) -> FinModule:
    """Flavor B module on a max-closed index set plus a neutral bottom."""
    _assert_componentwise_closed(pairs)
    pos = {p: idx + 1 for idx, p in enumerate(pairs)}
    size = len(pairs) + 1
    names = (bottom,) + tuple(f"{label}_{i}_{k}" for (i, k) in pairs)
    flat = [0] * (size * size)
    for p, ip in pos.items():
        flat[ip] = ip  # bottom + p
        flat[ip * size] = ip
        for q, iq in pos.items():
            flat[ip * size + iq] = pos[(max(p[0], q[0]), max(p[1], q[1]))]
    return FinModule(Flavor.B, names, 0, tuple(flat))


def _signed_lattice(pairs: tuple[Pair, ...], label: str) -> FinModule:
    """Flavor Finf module: signed copies of the index set around an absorbing zero."""
    _assert_componentwise_closed(pairs)
    k = len(pairs)
    pos = {p: idx + 1 for idx, p in enumerate(pairs)}
    size = 2 * k + 1
    names = (
        ("0",)
        + tuple(f"{label}_{i}_{j}" for (i, j) in pairs)
        + tuple(f"-{label}_{i}_{j}" for (i, j) in pairs)
    )
    flat = [0] * (size * size)
    for p, ip in pos.items():
        for q, iq in pos.items():
            m = pos[(min(p[0], q[0]), min(p[1], q[1]))]
            flat[ip * size + iq] = m
            flat[(ip + k) * size + (iq + k)] = m + k
    neg = [0] + [ip + k for ip in range(1, k + 1)] + [ip for ip in range(1, k + 1)]
    return FinModule(Flavor.FINF, names, 0, tuple(flat), neg_table=tuple(neg))


def _wrap(n: int, flavor: Flavor, module: FinModule, pairs: tuple[Pair, ...]) -> IndexedLattice:
    labels = {p: idx + 1 for idx, p in enumerate(pairs)}
    report = validate_module(module)
    if not report.ok:
        raise ModuleStructureError(f"family module fails axioms: {report.axioms()}")
    return IndexedLattice(n, flavor, module, pairs, MappingProxyType(labels))


@lru_cache(maxsize=None)
def construct_Dn(n: int) -> IndexedLattice:
    """The size 4n-3 distributive lattice D_n (n >= 2)."""
    if n < 2:
        raise ValueError("D_n needs n >= 2")
    pairs = family_index_pairs(n)
    lat = _wrap(n, Flavor.B, _join_lattice(pairs, "a", "O"), pairs)
    if lat.module.size != 4 * n - 3:
        raise ModuleStructureError(f"D_{n} has {lat.module.size} elements, expected {4 * n - 3}")
    return lat


@lru_cache(maxsize=None)
def construct_En(n: int) -> IndexedLattice:
    """The size 8n-7 signed mirror E_n (n >= 2)."""
    if n < 2:
        raise ValueError("E_n needs n >= 2")
    pairs = family_index_pairs(n)
    lat = _wrap(n, Flavor.FINF, _signed_lattice(pairs, "a"), pairs)
    if lat.module.size != 8 * n - 7:
        raise ModuleStructureError(f"E_{n} has {lat.module.size} elements, expected {8 * n - 7}")
    return lat


@lru_cache(maxsize=None)
def construct_D0() -> IndexedLattice:
    """The 9-element stacked-diamond corner witness."""
    lat = _wrap(0, Flavor.B, _join_lattice(CORNER_SET, "A", "O"), CORNER_SET)
    assert lat.module.size == 9
    return lat


@lru_cache(maxsize=None)
def construct_E0() -> IndexedLattice:
    """The 17-element signed corner witness."""
    lat = _wrap(0, Flavor.FINF, _signed_lattice(CORNER_SET, "A"), CORNER_SET)
    assert lat.module.size == 17
    return lat


def family(flavor: Flavor, n: int) -> IndexedLattice:
    return construct_Dn(n) if flavor is Flavor.B else construct_En(n)


def corner_witness(flavor: Flavor) -> IndexedLattice:
    return construct_D0() if flavor is Flavor.B else construct_E0()


# ---------------------------------------------------------------------------
# canonical sections


def _section_generator_pairs(flavor: Flavor, n: int) -> list[Pair]:
    """Images of A_1..A_{2n-1}: the family's irreducibles in the printed order."""
    if flavor is Flavor.B:
        out = [(1, 1), (1, 2), (2, 1)]
        for i in range(2, n):
            out.append((i - 1, i + 1))
            out.append((i + 1, i))
    else:
        # A_2, A_3 follow the general mirrored pattern at i=1 (second index
        # clamped into range); the split identity in canonical_section
        # verifies the pattern-derived choice.
        out = [(n, n), (n - 1, n), (n, n - 1)]
        for i in range(2, n):
            out.append((n - i, n - i + 2))
            out.append((n - i + 1, n - i))
    return out


def canonical_section(n: int, flavor: Flavor) -> tuple[Hom, Hom]:
    """The splitting pair (g, h): g from the rank 2n-1 free module onto the
    family, h the section with g∘h = id, both verified element-wise.

    g sends A_j to the j-th printed irreducible g_j, and h sends each
    positive element e to the sum of the A_j with g_j <= e in the induced
    order (and -e to its negation)."""
    if n < 2:
        raise ValueError("canonical sections need n >= 2")
    lat = family(flavor, n)
    mod = lat.module
    gen_pairs = _section_generator_pairs(flavor, n)
    gen_ids = [lat.label(i, k) for (i, k) in gen_pairs]
    if set(gen_ids) != set(irreducible_generators(mod)):
        raise ModuleStructureError("printed generator list is not the irreducible set")
    F = free_module(flavor, 2 * n - 1)
    g = Hom(F, mod, extend_from_generators(F, mod, gen_ids))
    if not g.surjective:
        raise ModuleStructureError("canonical surjection misses elements")

    leq = mod.leq
    hmap = [F.zero] * mod.size
    for p in lat.index_pairs:
        e = lat.label(*p)
        bits = [(j, 1) for j, gid in enumerate(gen_ids) if leq(gid, e)]
        hmap[e] = element_of_support(F, bits)
        if flavor is Flavor.FINF:
            hmap[mod.neg_of(e)] = F.neg_of(hmap[e])
    h = Hom(mod, F, tuple(hmap))
    hc = check_hom(h)
    if not hc.ok:
        raise ModuleStructureError(f"section fails to be a hom: {hc.kind} at {hc.witness}")
    gh = compose(g, h)
    if not gh.is_identity():
        raise ModuleStructureError("g∘h is not the identity")
    return g, h


# ---------------------------------------------------------------------------
# corner embeddings, retractions, rigidity


def _corner_assignment(n: int) -> dict[Pair, Pair]:
    top = {(3, 3): (n - 1, n - 1), (3, 4): (n - 1, n), (4, 3): (n, n - 1), (4, 4): (n, n)}
    bottom = {(1, 1): (1, 1), (1, 2): (1, 2), (2, 1): (2, 1), (2, 2): (2, 2)}
    return {**bottom, **top}


def corner_embedding(n: int, flavor: Flavor) -> Hom:
    """The eight-corner embedding of the fixed witness into the n-th family member."""
    if n <= 3:
        raise ValueError("corner embeddings need n > 3")
    src = corner_witness(flavor)
    dst = family(flavor, n)
    assign = _corner_assignment(n)
    emap = [0] * src.module.size
    for p, q in assign.items():
        emap[src.label(*p)] = dst.label(*q)
        if flavor is Flavor.FINF:
            emap[src.neg_label(*p)] = dst.neg_label(*q)
    emb = Hom(src.module, dst.module, tuple(emap))
    ec = check_hom(emb)
    if not ec.ok:
        raise ModuleStructureError(f"corner embedding is not a hom: {ec.kind} at {ec.witness}")
    if not emb.injective:
        raise ModuleStructureError("corner embedding is not injective")
    return emb


def _retraction_pair_b(n: int, dst: IndexedLattice, k: int, l: int) -> Pair:
    leq = dst.module.leq
    e = dst.label(k, l)
    a12, a22, top = dst.label(1, 2), dst.label(2, 2), dst.label(n - 1, n - 1)
    if k <= 2 and l <= 2:
        return (k, l)
    if leq(a12, e) and e != a12 and leq(e, top) and e != a22:
        return (3, 3)
    if (k, l) == (n - 1, n) or (k, l) == (n - 2, n):
        return (3, 4)
    if (k, l) == (n, n - 1):
        return (4, 3)
    if (k, l) == (n, n):
        return (4, 4)
    raise ModuleStructureError(f"retraction case formula does not cover a_{k}_{l}")


def _retraction_pair_f(n: int, k: int, l: int) -> Pair:
    if (k, l) == (1, 1):
        return (1, 1)
    if (k, l) in {(1, 2), (1, 3)}:
        return (1, 2)
    if (k, l) == (2, 1):
        return (2, 1)
    if (k, l) == (n - 1, n - 1):
        return (3, 3)
    if (k, l) == (n - 1, n):
        return (3, 4)
    if (k, l) == (n, n - 1):
        return (4, 3)
    if (k, l) == (n, n):
        return (4, 4)
    return (2, 2)


def corner_retraction(n: int, flavor: Flavor) -> Hom:
    """The case-formula retraction; the mirrored variant serves flavor Finf.

    Verified to be a hom with retraction ∘ embedding = id before returning.
    """
    if n <= 3:
        raise ValueError("corner retractions need n > 3")
    src = family(flavor, n)
    dst = corner_witness(flavor)
    rmap = [0] * src.module.size
    for (k, l) in src.index_pairs:
        if flavor is Flavor.B:
            p = _retraction_pair_b(n, src, k, l)
            rmap[src.label(k, l)] = dst.label(*p)
        else:
            p = _retraction_pair_f(n, k, l)
            rmap[src.label(k, l)] = dst.label(*p)
            rmap[src.neg_label(k, l)] = dst.neg_label(*p)
    ret = Hom(src.module, dst.module, tuple(rmap))
    rc = check_hom(ret)
    if not rc.ok:
        raise ModuleStructureError(f"corner retraction is not a hom: {rc.kind} at {rc.witness}")
    if not compose(ret, corner_embedding(n, flavor)).is_identity():
        raise ModuleStructureError("retraction ∘ embedding is not the identity")
    return ret


@dataclass(frozen=True)
class CornerSpec:
    """The eight corner pins between two family members."""

    source_corners: tuple[Pair, ...]
    target_corners: tuple[Pair, ...]

    @staticmethod
    def between(n: int, m: int) -> "CornerSpec":
        def corners(k: int) -> tuple[Pair, ...]:
            return (
                (1, 1), (1, 2), (2, 1), (2, 2),
                (k - 1, k - 1), (k - 1, k), (k, k - 1), (k, k),
            )

        return CornerSpec(corners(n), corners(m))

    def pins(self, src: IndexedLattice, dst: IndexedLattice) -> Optional[dict[int, int]]:
        """Merged pin map, or None when the eight conditions conflict."""
        out: dict[int, int] = {}
        for sp, tp in zip(self.source_corners, self.target_corners):
            s, t = src.label(*sp), dst.label(*tp)
            if out.get(s, t) != t:
                return None
            out[s] = t
        return out


def rigidity_check(
    n: int, m: int, flavor: Flavor, *, budget: int = DEFAULT_BUDGET
) -> list[Hom]:
    """All injective corner-pinned homs between family members n and m.

    Exhaustive search; the expected outcome is exactly the identity for
    n = m and nothing otherwise.
    """
    if n < 2 or m < 2:
        raise ValueError("rigidity checks need parameters >= 2")
    src, dst = family(flavor, n), family(flavor, m)
    pins = CornerSpec.between(n, m).pins(src, dst)
    if pins is None:
        return []
    cons = HomConstraints(pinned=pins, require_injective=True)
    return enumerate_homs(src.module, dst.module, cons, budget=budget)
