import random

import pytest

import semimod as sm
from semimod import FinModule, Flavor
from semimod.homs import _hom_violation
from semimod.serialize import resolve_module_ref


def lattice_from_joins(names, joins, zero_name="0"):
    """Small helper: build a flavor B module from a join table given by names."""
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    flat = [0] * (n * n)
    for (a, b), c in joins.items():
        flat[idx[a] * n + idx[b]] = idx[c]
        flat[idx[b] * n + idx[a]] = idx[c]
    return FinModule(Flavor.B, tuple(names), idx[zero_name], tuple(flat))


def diamond_m3():
    """Bottom, three atoms, top; any two distinct atoms join to the top."""
    names = ["0", "a", "b", "c", "1"]
    joins = {}
    for x in names:
        joins[(x, x)] = x
        joins[("0", x)] = x
        joins[("1", x)] = "1"
    for p, q in (("a", "b"), ("a", "c"), ("b", "c")):
        joins[(p, q)] = "1"
    return lattice_from_joins(names, joins)


def pentagon_n5(names=("0", "a", "b", "c", "1")):
    """0 < a < c < 1 with b incomparable; a|b = c|b = 1.  Element ids
    follow the order of ``names``."""
    joins = {}
    for x in names:
        joins[(x, x)] = x
        joins[("0", x)] = x
        joins[("1", x)] = "1"
    joins[("a", "c")] = "c"
    joins[("a", "b")] = "1"
    joins[("b", "c")] = "1"
    return lattice_from_joins(list(names), joins)


def chain_module(k):
    """The k-element chain 0 < c1 < ... as a flavor B module."""
    names = ["0"] + [f"c{i}" for i in range(1, k)]
    n = len(names)
    flat = [max(a, b) for a in range(n) for b in range(n)]
    return FinModule(Flavor.B, tuple(names), 0, tuple(flat))


def assorted_modules():
    """Both flavors, for comparisons with oracles: M3, N5, a chain, the
    families, free modules and quotients of free modules by random
    congruences."""
    out = [diamond_m3(), pentagon_n5(), chain_module(4)]
    out += [resolve_module_ref(r) for r in ("D0", "D2", "D3", "D4", "E0", "E2", "E3", "E4")]
    out += [sm.free_module(Flavor.B, r) for r in range(0, 6)]
    out += [sm.free_module(Flavor.FINF, r) for r in range(0, 4)]
    rng = random.Random(29)
    for flavor, rank in ((Flavor.B, 3), (Flavor.FINF, 2)):
        free = sm.free_module(flavor, rank)
        for _ in range(8):
            pairs = [(rng.randrange(free.size), rng.randrange(free.size)) for _ in range(2)]
            out.append(sm.quotient_with_projection(free, sm.generated_congruence(free, pairs))[0])
    return out


def refuse_free_names(monkeypatch):
    """Make building the names of a free module fail, and clear the caches
    of free modules and their duals so that the ones the test reads are
    built under the patch."""

    def refuse(ops):
        raise AssertionError("the names of a free module were built")

    monkeypatch.setattr(sm.free, "_names", refuse)
    sm.free_module.cache_clear()
    sm.dualize_free.cache_clear()


@pytest.fixture
def m3():
    return diamond_m3()


@pytest.fixture
def n5():
    return pentagon_n5()


@pytest.fixture(autouse=True)
def signed_lifts(monkeypatch):
    """Every hom ``signed_lift`` returns during a test, in every module that
    calls it; after the test, each must pass the hom check when it is run
    (a lift keeps its check without running it)."""
    lifted = []
    real = sm.homs.signed_lift

    def recording(*args, **kwargs):
        f = real(*args, **kwargs)
        lifted.append(f)
        return f

    for module in (sm, sm.homs, sm.families, sm.noetherian):
        monkeypatch.setattr(module, "signed_lift", recording)
    yield lifted
    failing = [f for f in lifted if not _hom_violation(f.source, f.target, f.map).ok]
    assert not failing, f"{len(failing)} of {len(lifted)} signed lifts fail the hom check"
