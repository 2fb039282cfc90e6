"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact; the stated per-criterion wall-clock bounds
are asserted too.  Criterion 10 treats an inconclusive (budget-limited)
verdict as failure.
"""
import contextlib
import itertools
import random
import time

import semimod as sm
from semimod import BoolMatrix, Flavor
from semimod.noetherian import (
    MorphismClass,
    Verdict,
    default_witness_family,
    witness_verify,
)

from conftest import diamond_m3, pentagon_n5
from oracles import brute_force_homs, family_reference, term_closure


@contextlib.contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_01_family_sizes():
    with criterion(1, "family sizes 4n-3 / 8n-7, |D0|=9, |E0|=17", 1.0):
        for n in range(2, 11):
            assert sm.family(Flavor.B, n).module.size == 4 * n - 3
            assert sm.family(Flavor.FINF, n).module.size == 8 * n - 7
        assert sm.corner_witness(Flavor.B).module.size == 9
        assert sm.corner_witness(Flavor.FINF).module.size == 17


def test_criterion_02_axiom_suite_and_mutations():
    with criterion(2, "constructed modules valid; every single-entry mutation detected", 5.0):
        constructed = [sm.family(Flavor.B, n).module for n in range(2, 11)]
        constructed += [sm.family(Flavor.FINF, n).module for n in range(2, 11)]
        constructed += [
            sm.corner_witness(Flavor.B).module,
            sm.corner_witness(Flavor.FINF).module,
            sm.scalar_module(Flavor.B),
            sm.scalar_module(Flavor.FINF),
            sm.free_module(Flavor.B, 3),
            sm.free_module(Flavor.FINF, 2),
        ]
        for mod in constructed:
            assert sm.validate_module(mod).ok, mod.names

        # the members compute their sums; their reference tables are mutated
        for mod in (family_reference(Flavor.B, 4), family_reference(Flavor.FINF, 3)):
            n = mod.size
            for pos in range(n * n):
                table = list(mod.add_table)
                table[pos] = (table[pos] + 1) % n
                mutant = sm.FinModule(
                    mod.flavor, mod.names, mod.zero, tuple(table), neg_table=mod.neg_table
                )
                assert not sm.validate_module(mutant).ok, f"add mutation at {pos} undetected"
            if mod.neg_table is not None:
                for pos in range(n):
                    neg = list(mod.neg_table)
                    neg[pos] = (neg[pos] + 1) % n
                    mutant = sm.FinModule(
                        mod.flavor, mod.names, mod.zero, mod.add_table, neg_table=tuple(neg)
                    )
                    assert not sm.validate_module(mutant).ok, f"neg mutation at {pos} undetected"


def test_criterion_03_splitting_identities():
    with criterion(3, "g∘h = id (n=2..6, both flavors); corner retractions (n=4..8)", 10.0):
        for flavor in (Flavor.B, Flavor.FINF):
            for n in range(2, 7):
                g, h = sm.canonical_section(n, flavor)
                assert sm.compose(g, h).is_identity()
            for n in range(4, 9):
                emb = sm.corner_embedding(n, flavor)
                ret = sm.corner_retraction(n, flavor)
                assert sm.compose(ret, emb).is_identity()


def test_criterion_04_rigidity():
    with criterion(4, "corner-pinned injective homs: identity iff n=m, else none", 300.0):
        for flavor in (Flavor.B, Flavor.FINF):
            for n in (2, 3, 4):
                for m in (2, 3, 4):
                    found = sm.rigidity_check(n, m, flavor)
                    if n == m:
                        assert len(found) == 1 and found[0].is_identity(), (flavor, n, m)
                    else:
                        assert found == [], (flavor, n, m)


def _oracle_pool():
    d0 = sm.corner_witness(Flavor.B)
    bottom = sm.generated_submodule(
        d0.module, {d0.label(1, 1), d0.label(1, 2), d0.label(2, 1)}
    )
    chain = sm.generated_submodule(
        d0.module, {d0.label(1, 1), d0.label(2, 2), d0.label(3, 3), d0.label(4, 4)}
    )
    tiny = sm.generated_submodule(d0.module, {d0.label(3, 4)})
    b_side = [
        sm.scalar_module(Flavor.B),
        sm.family(Flavor.B, 2).module,
        sm.submodule_on(d0.module, bottom)[0],
        sm.submodule_on(d0.module, chain)[0],
        sm.submodule_on(d0.module, tiny)[0],
        sm.free_module(Flavor.B, 0),
        sm.free_module(Flavor.B, 1),
        sm.free_module(Flavor.B, 2),
    ]
    f_side = [
        sm.scalar_module(Flavor.FINF),
        sm.family(Flavor.FINF, 2).module,
        sm.free_module(Flavor.FINF, 0),
        sm.free_module(Flavor.FINF, 1),
    ]
    return b_side, f_side


def test_criterion_05_oracle_equivalence():
    with criterion(5, "enumerate_homs ≡ brute_force_homs on the object pool", 120.0):
        b_side, f_side = _oracle_pool()
        pairs_checked = 0
        for group in (b_side, f_side):
            for M, N in itertools.product(group, repeat=2):
                if N.size ** M.size > 10 ** 7:
                    continue
                for injective in (False, True):
                    fast = [h.map for h in sm.enumerate_homs(M, N, injective=injective)]
                    slow = [h.map for h in brute_force_homs(M, N, injective=injective)]
                    assert fast == slow, (M.names, N.names)
                pairs_checked += 1
        assert pairs_checked >= 50


def test_criterion_06_free_module_counts():
    with criterion(6, "free counts 2^k (k<=8) and 3^k (k<=5), term oracle k<=4", 60.0):
        for k in range(0, 9):
            assert sm.free_module(Flavor.B, k).size == 2 ** k
        for k in range(0, 6):
            assert sm.free_module(Flavor.FINF, k).size == 3 ** k
        for k in range(0, 5):
            assert len(term_closure(Flavor.B, k)) == 2 ** k
            assert len(term_closure(Flavor.FINF, k)) == 3 ** k


def test_criterion_07_distinct_row_factorization():
    with criterion(7, "200 random matrices: duplicator·reduced = A, certified split", 30.0):
        rng = random.Random(20260810)
        for trial in range(200):
            m = rng.randint(1, 8)
            n = rng.randint(1, 6)
            mat = BoolMatrix(
                Flavor.B, m, n, tuple(rng.randint(0, 1) for _ in range(m * n))
            )
            fact = sm.distinct_row_factorization(mat)
            assert sm.mat_mul(fact.duplicator, fact.reduced) == mat
            assert fact.reduced.rows <= min(m, 2 ** n)
            assert fact.duplicator_hom.injective
            assert sm.compose(fact.split_certificate, fact.duplicator_hom).is_identity()


def test_criterion_08_duality():
    with criterion(8, "transpose law, contravariance, dual factorization bound", 30.0):
        rng = random.Random(1789)

        def rand(rows, cols):
            return BoolMatrix(
                Flavor.B, rows, cols, tuple(rng.randint(0, 1) for _ in range(rows * cols))
            )

        for _ in range(60):
            a = rand(rng.randint(1, 4), rng.randint(1, 4))
            f = sm.hom_of_matrix(a)
            assert sm.matrix_of_hom(sm.dualize_hom(f)) == a.transpose()
        for _ in range(40):
            mid = rng.randint(1, 4)
            a = rand(rng.randint(1, 4), mid)
            b = rand(mid, rng.randint(1, 4))
            f, g = sm.hom_of_matrix(b), sm.hom_of_matrix(a)
            assert sm.dualize_hom(sm.compose(g, f)).map == sm.compose(
                sm.dualize_hom(f), sm.dualize_hom(g)
            ).map
        verified = 0
        while verified < 100:
            mat = rand(rng.randint(1, 6), rng.randint(1, 2))
            fact = sm.distinct_row_factorization(mat)
            dup = fact.duplicator_hom
            n = dup.source.free_rank
            if n == 0:
                continue
            res = sm.dual_factorization(dup, certificate=fact.split_certificate)
            assert len(set(res.set_surjection)) <= 2 ** n
            assert sm.compose(res.residual, res.induced).map == res.dual_map.map
            verified += 1


def test_criterion_09_projectivity():
    with criterion(9, "D_n projective (n<=5); M_3, N_5 certified non-projective", 120.0):
        for n in range(2, 6):
            cert = sm.projectivity_certificate(sm.family(Flavor.B, n).module)
            assert cert.projective and cert.section is not None
            assert sm.compose(cert.cover, cert.section).is_identity()
            assert sm.is_distributive_lattice(sm.family(Flavor.B, n).module).distributive
        for mod in (diamond_m3(), pentagon_n5()):
            cert = sm.projectivity_certificate(mod)
            dist = sm.is_distributive_lattice(mod)
            assert not cert.projective and cert.section is None
            assert not dist.distributive
            assert cert.projective == dist.distributive


def test_criterion_10_noetherianity_witness():
    with criterion(10, "corner-embedding witness: B family N=2, E family N=1", 1800.0):
        spec, x0, ys, fs = default_witness_family(Flavor.B, 2, MorphismClass.INJECTIONS)
        report = witness_verify(spec, x0, ys, fs)
        assert not report.inconclusive, "budget exhausted counts as failure"
        assert report.holds
        assert report.levels[1].checks == (("D4", Verdict.NO_FACTORIZATION),)

        spec_f, x0_f, ys_f, fs_f = default_witness_family(
            Flavor.FINF, 1, MorphismClass.INJECTIONS
        )
        report_f = witness_verify(spec_f, x0_f, ys_f, fs_f)
        assert not report_f.inconclusive
        assert report_f.holds
