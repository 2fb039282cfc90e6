import random

import pytest
from hypothesis import given, settings, strategies as st

import semimod as sm
from semimod import BoolMatrix, Flavor

from conftest import refuse_free_names
from oracles import brute_force_homs, hom_table_module, mat_mul_by_entries


def rand_matrix(rng, rows, cols, flavor=Flavor.B):
    vals = (0, 1) if flavor is Flavor.B else (-1, 0, 1)
    return BoolMatrix(
        flavor, rows, cols, tuple(rng.choice(vals) for _ in range(rows * cols))
    )


def test_identity_round_trip():
    ident = BoolMatrix.identity(Flavor.B, 3)
    h = sm.hom_of_matrix(ident)
    assert h.is_identity()
    assert sm.matrix_of_hom(h) == ident


def test_single_column_full_image():
    mat = BoolMatrix.from_rows(Flavor.B, [[1], [1]])
    h = sm.hom_of_matrix(mat)
    free1, free2 = h.source, h.target
    gen = sm.generator_ids(free1)[0]
    assert sm.support_of(free2, h.map[gen]) == ((0, 1), (1, 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_random_b_matrices(data):
    rows = data.draw(st.integers(min_value=0, max_value=6))
    cols = data.draw(st.integers(min_value=0, max_value=6))
    entries = data.draw(
        st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols)
    )
    mat = BoolMatrix(Flavor.B, rows, cols, tuple(entries))
    assert sm.matrix_of_hom(sm.hom_of_matrix(mat)) == mat


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_random_finf_matrices(data):
    rows = data.draw(st.integers(min_value=0, max_value=4))
    cols = data.draw(st.integers(min_value=0, max_value=4))
    entries = data.draw(
        st.lists(st.integers(-1, 1), min_size=rows * cols, max_size=rows * cols)
    )
    mat = BoolMatrix(Flavor.FINF, rows, cols, tuple(entries))
    assert sm.matrix_of_hom(sm.hom_of_matrix(mat)) == mat


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_product_matches_composition(flavor):
    rng = random.Random(7)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), flavor)
        b = rand_matrix(rng, a.cols, rng.randint(1, 4), flavor)
        lhs = sm.hom_of_matrix(sm.mat_mul(a, b))
        rhs = sm.compose(sm.hom_of_matrix(a), sm.hom_of_matrix(b))
        assert lhs.map == rhs.map


@pytest.mark.parametrize("flavor", [Flavor.B, Flavor.FINF])
def test_identity_matrix_is_neutral(flavor):
    rng = random.Random(21)
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), flavor)
        assert sm.mat_mul(BoolMatrix.identity(flavor, a.rows), a) == a
        assert sm.mat_mul(a, BoolMatrix.identity(flavor, a.cols)) == a


def test_product_associative_on_samples():
    rng = random.Random(11)
    for flavor in (Flavor.B, Flavor.FINF):
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), flavor)
            b = rand_matrix(rng, a.cols, rng.randint(1, 3), flavor)
            c = rand_matrix(rng, b.cols, rng.randint(1, 3), flavor)
            assert sm.mat_mul(sm.mat_mul(a, b), c) == sm.mat_mul(a, sm.mat_mul(b, c))


def test_product_monotone_for_b():
    rng = random.Random(13)

    def leq(x, y):
        return all(a <= b for a, b in zip(x.entries, y.entries))

    for _ in range(30):
        rows, mid, cols = (rng.randint(1, 4) for _ in range(3))
        a = rand_matrix(rng, rows, mid)
        bigger = BoolMatrix(
            Flavor.B, rows, mid, tuple(x | rng.randint(0, 1) for x in a.entries)
        )
        b = rand_matrix(rng, mid, cols)
        assert leq(sm.mat_mul(a, b), sm.mat_mul(bigger, b))


def test_finf_zero_summand_collapses_product_column():
    # second generator maps through a zero column, killing the whole image
    a = BoolMatrix.from_rows(Flavor.FINF, [[1, 0], [0, 0]])
    b = BoolMatrix.from_rows(Flavor.FINF, [[1], [1]])
    prod = sm.mat_mul(a, b)
    assert prod.entries == (0, 0)


def test_factorization_worked_example():
    mat = BoolMatrix.from_rows(Flavor.B, [[1, 1], [1, 1], [0, 1]])
    fact = sm.distinct_row_factorization(mat)
    assert fact.reduced.to_rows() == [[1, 1], [0, 1]]
    assert fact.duplicator.to_rows() == [[1, 0], [1, 0], [0, 1]]
    assert sm.mat_mul(fact.duplicator, fact.reduced) == mat
    assert fact.row_class == (0, 0, 1)
    assert fact.certificate.to_rows() == [[1, 0, 0], [0, 0, 1]]


def test_factorization_all_rows_distinct():
    mat = BoolMatrix.from_rows(Flavor.B, [[1, 0], [0, 1], [1, 1]])
    fact = sm.distinct_row_factorization(mat)
    assert fact.reduced == mat
    assert fact.duplicator == BoolMatrix.identity(Flavor.B, 3)


def test_factorization_random_bound():
    rng = random.Random(3)
    for _ in range(60):
        mat = rand_matrix(rng, 8, 4)
        fact = sm.distinct_row_factorization(mat)
        assert fact.reduced.rows <= min(8, 2 ** 4)
        assert sm.mat_mul(fact.duplicator, fact.reduced) == mat
        assert fact.duplicator_hom.injective
        assert sm.compose(fact.split_certificate, fact.duplicator_hom).is_identity()


def test_factorization_finf_certificate_marks_classes():
    mat = BoolMatrix.from_rows(Flavor.FINF, [[1, -1], [1, -1], [0, 1]])
    fact = sm.distinct_row_factorization(mat)
    assert fact.row_class == (0, 0, 1)
    # the whole class is marked: a single-representative certificate would
    # send the other basis vector to zero and absorb the sum
    assert fact.certificate.to_rows() == [[1, 1, 0], [0, 0, 1]]
    assert sm.compose(fact.split_certificate, fact.duplicator_hom).is_identity()


def test_finf_single_representative_certificate_fails():
    mat = BoolMatrix.from_rows(Flavor.FINF, [[1, -1], [1, -1], [0, 1]])
    fact = sm.distinct_row_factorization(mat)
    naive = BoolMatrix.from_rows(Flavor.FINF, [[1, 0, 0], [0, 0, 1]])
    w = sm.hom_of_matrix(naive)
    assert not sm.compose(w, fact.duplicator_hom).is_identity()


def test_factorization_with_duplicate_and_zero_rows():
    mat = BoolMatrix.from_rows(Flavor.B, [[0, 0], [1, 0], [0, 0], [1, 0]])
    fact = sm.distinct_row_factorization(mat)
    assert fact.reduced.to_rows() == [[0, 0], [1, 0]]
    assert fact.row_class == (0, 1, 0, 1)
    assert sm.mat_mul(fact.duplicator, fact.reduced) == mat


def test_dual_module_size_matches_hom_count():
    free2 = sm.free_module(Flavor.B, 2)
    scal = sm.scalar_module(Flavor.B)
    homs = brute_force_homs(free2, scal)
    assert len(homs) == 4
    assert sm.dualize_free(2).size == 4


def test_dual_module_is_the_hom_module():
    # the pointwise-or module on Hom(B^2, B) is isomorphic to the dual
    free2 = sm.free_module(Flavor.B, 2)
    scal = sm.scalar_module(Flavor.B)
    maps = sorted(h.map for h in brute_force_homs(free2, scal))
    hom_mod = hom_table_module(free2, maps)
    assert sm.validate_module(hom_mod).ok
    dual = sm.dualize_free(2)
    isos = [
        h
        for h in sm.enumerate_homs(hom_mod, dual)
        if h.injective and h.surjective
    ]
    assert isos, "no isomorphism between the hom module and the dual"


def test_transpose_law():
    rng = random.Random(5)
    for _ in range(30):
        mat = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        f = sm.hom_of_matrix(mat)
        assert sm.matrix_of_hom(sm.dualize_hom(f)) == mat.transpose()


def test_dual_contravariance():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_matrix(rng, a.cols, rng.randint(1, 4))
        f, g = sm.hom_of_matrix(b), sm.hom_of_matrix(a)
        lhs = sm.dualize_hom(sm.compose(g, f))
        rhs = sm.compose(sm.dualize_hom(f), sm.dualize_hom(g))
        assert lhs.map == rhs.map


def test_double_dual_recovers_matrix():
    rng = random.Random(8)
    for _ in range(20):
        mat = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        f = sm.hom_of_matrix(mat)
        assert sm.matrix_of_hom(sm.dualize_hom(sm.dualize_hom(f))) == mat


def test_split_injection_dualizes_to_surjection():
    rng = random.Random(12)
    for _ in range(20):
        mat = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 3))
        fact = sm.distinct_row_factorization(mat)
        dual = sm.dualize_hom(fact.duplicator_hom)
        assert dual.surjective


def test_dual_factorization_identity_case():
    f = sm.hom_of_matrix(BoolMatrix.identity(Flavor.B, 3))
    res = sm.dual_factorization(f)
    assert res.set_surjection == (0, 1, 2)
    assert res.induced.is_identity()
    assert res.residual.injective and res.residual.surjective


def test_duplicator_certificate_also_findable_by_search():
    mat = BoolMatrix.from_rows(Flavor.B, [[1, 1], [1, 1], [0, 1]])
    fact = sm.distinct_row_factorization(mat)
    found = sm.find_left_inverse(fact.duplicator_hom)
    assert found is not None
    assert sm.compose(found, fact.duplicator_hom).is_identity()


def test_dual_factorization_collapse_example():
    # B^1 into (B[{s,t}])* sending the generator to the sum of both evaluations
    mat = BoolMatrix.from_rows(Flavor.B, [[1], [1]])
    f = sm.hom_of_matrix(mat, target=sm.free_module(Flavor.B, 2))
    res = sm.dual_factorization(f)
    assert res.set_surjection == (0, 0)
    assert res.residual.source.free_rank == 1  # |T| = 1


def test_dual_factorization_random_duplicators():
    rng = random.Random(9)
    checked = 0
    for _ in range(100):
        m = rng.randint(1, 6)
        mat = rand_matrix(rng, m, 2)
        fact = sm.distinct_row_factorization(mat)
        dup = fact.duplicator_hom
        n = dup.source.free_rank
        res = sm.dual_factorization(dup, certificate=fact.split_certificate)
        assert len(set(res.set_surjection)) <= 2 ** n
        assert sm.compose(res.residual, res.induced).map == res.dual_map.map
        checked += 1
    assert checked == 100


def test_dual_factorization_rejects_a_non_hom_certificate():
    # a left inverse on im(f) that is changed at one element outside im(f)
    dup = BoolMatrix.from_rows(Flavor.B, [[1, 0], [1, 0], [0, 1]])
    fact = sm.distinct_row_factorization(dup)
    assert fact.duplicator == dup
    f, w = fact.duplicator_hom, fact.split_certificate
    outside = next(y for y in range(f.target.size) if y not in f.map)
    changed = list(w.map)
    changed[outside] = next(v for v in range(w.target.size) if v != w.map[outside])
    bad = sm.Hom(w.source, w.target, tuple(changed))
    assert sm.compose(bad, f).is_identity() and not bad.is_hom
    assert sm.dual_factorization(f, certificate=w).certificate is w
    with pytest.raises(ValueError, match="not a left inverse"):
        sm.dual_factorization(f, certificate=bad)


def test_duals_build_their_names_on_first_read(monkeypatch):
    # a dual free module names its generators E1, E2, ... itself, on first
    # read; it does not rename the names of the free module it mirrors
    refuse_free_names(monkeypatch)
    fact = sm.distinct_row_factorization(BoolMatrix.from_rows(Flavor.B, [[1, 0], [1, 0], [0, 1]]))
    res = sm.dual_factorization(fact.duplicator_hom, fact.split_certificate)
    dual = sm.dualize_hom(fact.duplicator_hom)
    assert sm.compose(res.residual, res.induced).map == res.dual_map.map
    assert sm.matrix_of_hom(dual) == fact.duplicator.transpose()
    monkeypatch.undo()
    assert dual.target.names == ("0", "E1", "E2", "E1+E2")
    assert dual.source.names[1:4] == ("E1", "E2", "E3")
    assert dual.source.names[-1] == "E1+E2+E3"
    assert res.dual_map.target is sm.dualize_free(2)


def test_dual_factorization_rejects_nonsplittable():
    mat = BoolMatrix.from_rows(Flavor.B, [[1, 1]])
    f = sm.hom_of_matrix(mat)  # B^2 -> B^1 cannot be injective
    with pytest.raises(ValueError):
        sm.dual_factorization(f)


def test_matrix_validation():
    with pytest.raises(ValueError):
        BoolMatrix(Flavor.B, 1, 1, (2,))
    with pytest.raises(ValueError):
        BoolMatrix(Flavor.B, 1, 1, (-1,))
    with pytest.raises(ValueError):
        BoolMatrix(Flavor.B, 2, 2, (0, 1, 1))


def test_product_matches_the_entry_list_oracle():
    # shapes past the free-module cap (20-row B, 14-row Finf) that hom
    # composition cannot check, with zero columns and sign conflicts
    rng = random.Random(18)
    collapsed = conflicts = 0
    for flavor, shapes in (
        (Flavor.B, [(0, 3, 2), (3, 0, 2), (4, 3, 0), (5, 4, 6), (20, 7, 5), (9, 20, 3)]),
        (Flavor.FINF, [(0, 3, 2), (3, 0, 2), (4, 3, 0), (5, 4, 6), (14, 6, 5), (8, 14, 4)]),
    ):
        for m, k, n in shapes:
            for _ in range(25):
                a, b = rand_matrix(rng, m, k, flavor), rand_matrix(rng, k, n, flavor)
                if k and rng.random() < 0.5:  # a zero column in a
                    t = rng.randrange(k)
                    a = BoolMatrix(
                        flavor, m, k, tuple(0 if p % k == t else e for p, e in enumerate(a.entries))
                    )
                prod = sm.mat_mul(a, b)
                assert prod == mat_mul_by_entries(a, b), (a, b)
                for j in range(n):
                    terms = [t for t in range(k) if b.entry(t, j)]
                    if flavor is Flavor.FINF and terms and not any(prod.entries[j::n]):
                        collapsed += 1
                        conflicts += all(any(a.entry(i, t) for i in range(m)) for t in terms)
    assert collapsed > 0 and conflicts > 0


def test_opposite_signs_in_one_row_collapse_the_product_column():
    # two columns of opposite sign in one row always collapse the product
    for rows in (1, 3, 14, 300):
        a = BoolMatrix(
            Flavor.FINF, rows, 2, tuple(v for i in range(rows) for v in (1, -1 if i == 0 else 0))
        )
        b = BoolMatrix.from_rows(Flavor.FINF, [[1, 1, 0], [1, -1, 1]])
        prod = sm.mat_mul(a, b)
        assert prod == mat_mul_by_entries(a, b)
        assert prod.entries[0::3] == (0,) * rows  # sign conflict in row 0
        assert prod.entry(0, 1) == 1 and prod.entry(0, 2) == -1


def test_a_dual_free_module_builds_no_free_module():
    sm.free_module.cache_clear()
    sm.dualize_free.cache_clear()
    dual = sm.dualize_free(3)
    assert dual.size == 8 and dual.free_rank == 3
    assert sm.free_module.cache_info().currsize == 0
    assert dual != sm.free_module(Flavor.B, 3)
    with pytest.raises(sm.ModuleStructureError, match="above the cap"):
        sm.dualize_free(20)


def test_hom_of_matrix_refuses_endpoints_of_another_shape_or_flavor():
    signed = BoolMatrix.from_rows(Flavor.FINF, [[1, -1], [0, 1]])
    free_b = sm.free_module(Flavor.B, 2)
    with pytest.raises(sm.FlavorMismatchError):
        sm.hom_of_matrix(signed, source=free_b, target=free_b)
    with pytest.raises(sm.FlavorMismatchError):
        sm.hom_of_matrix(signed, target=sm.free_module(Flavor.FINF, 3))


def test_dual_factorization_merges_exactly_the_generators_with_equal_dual_images():
    # split injections B^n -> B^s: the identity rows, so that the projection
    # onto them is a left inverse, shuffled with zero, repeated and random
    # rows; the surjection merges generators t and u of B[S] exactly when
    # the dual map sends them to one element, and the map it induces is onto
    rng = random.Random(28)
    merged = zero_rows = 0
    for _ in range(80):
        n = rng.randint(1, 3)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(("zero", "repeat", "random"))
            if kind == "zero":
                rows.append([0] * n)
            elif kind == "repeat":
                rows.append(list(rng.choice(rows)))
            else:
                rows.append([rng.randint(0, 1) for _ in range(n)])
        order = list(range(len(rows)))
        rng.shuffle(order)
        mat = BoolMatrix.from_rows(Flavor.B, [rows[i] for i in order])
        f = sm.hom_of_matrix(mat)
        assert f.injective
        at = [order.index(j) for j in range(n)]  # where identity row j went
        proj = BoolMatrix.from_rows(
            Flavor.B, [[int(t == at[j]) for t in range(len(rows))] for j in range(n)]
        )
        res = sm.dual_factorization(f, certificate=sm.hom_of_matrix(proj))
        images = [res.dual_map.map[g] for g in res.dual_map.source.generators]
        surj = res.set_surjection
        for t in range(len(rows)):
            for u in range(len(rows)):
                assert (surj[t] == surj[u]) == (images[t] == images[u]), (mat, t, u)
                merged += t < u and images[t] == images[u]
        assert res.induced.surjective
        zero_rows += rows.count([0] * n)
    assert merged and zero_rows
