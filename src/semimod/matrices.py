"""Matrix semantics for homs between free modules, and the duality layer.

A hom f from the free rank-n module to the free rank-m module is an m-by-n
matrix whose column j is the signed support of the image of generator j,
read and written as that element's key (see :mod:`semimod.free`).  The
product sums keys as the free module does: the usual or/and product for
flavor B, while for flavor Finf a sign conflict or an all-zero summand
column collapses the whole output column to zero (addition there is
absorbing, not coordinatewise).

The distinct-rows factorization splits any matrix map through the module on
its distinct rows; dualization realizes transposition as precomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import FinModule, Flavor, FlavorMismatchError, _cached
from .free import FreeModule, _key_neg, _key_sum, free_module
from .homs import Hom, compose, extension_hom, retraction


@dataclass(frozen=True)
class BoolMatrix:
    """Row-major matrix over {0,1} (flavor B) or {-1,0,1} (flavor Finf)."""

    flavor: Flavor
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the shape")
        ok = {0, 1} if self.flavor is Flavor.B else {-1, 0, 1}
        for e in self.entries:
            if e not in ok:
                raise ValueError(f"entry {e} invalid for flavor {self.flavor.value}")

    @staticmethod
    def from_rows(flavor: Flavor, rows: Sequence[Sequence[int]]) -> "BoolMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return BoolMatrix(flavor, r, c, tuple(flat))

    @staticmethod
    def identity(flavor: Flavor, n: int) -> "BoolMatrix":
        return BoolMatrix(
            flavor, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        )

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "BoolMatrix":
        flat = tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        return BoolMatrix(self.flavor, self.cols, self.rows, flat)


def _column_keys(mat: BoolMatrix) -> list[int]:
    """The key of each column's signed support, as a free-module element:
    bit i for an entry 1 in row i, bit ``rows + i`` for an entry -1."""
    m, n = mat.rows, mat.cols
    keys = [0] * n
    for p, e in enumerate(mat.entries):
        if e:
            i, j = divmod(p, n)
            keys[j] |= 1 << (i if e > 0 else i + m)
    return keys


def _of_column_keys(flavor: Flavor, rows: int, keys: Sequence[int]) -> BoolMatrix:
    """The matrix whose columns have these keys (see :func:`_column_keys`)."""
    return BoolMatrix(
        flavor,
        rows,
        len(keys),
        tuple((k >> i & 1) - (k >> i + rows & 1) for i in range(rows) for k in keys),
    )


def mat_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Semiring product; corresponds exactly to hom composition.

    Column j of a·b is the free-module sum of the columns of a, read as
    keys and signed by column j of b: the or/and product for flavor B, and
    for flavor Finf a column that collapses to zero on a zero summand or a
    sign conflict, as addition there is absorbing, not coordinatewise.
    """
    if a.flavor is not b.flavor:
        raise FlavorMismatchError("matrix flavors differ")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    m = a.rows
    cols = _column_keys(a)
    out = [
        _key_sum(a.flavor, m, (k if s > 0 else _key_neg(k, m) for k, s in zip(cols, bcol) if s))
        for bcol in (b.entries[j :: b.cols] for j in range(b.cols))
    ]
    return _of_column_keys(a.flavor, m, out)


def matrix_of_hom(f: Hom) -> BoolMatrix:
    """Columns are the keys of the generator images; free endpoints only."""
    src, tgt = f.source, f.target
    if src.free_rank is None or tgt.free_rank is None:
        raise FlavorMismatchError("matrix semantics require free endpoints")
    keys = [tgt.keys[f.map[gen]] for gen in src.generators]
    return _of_column_keys(src.flavor, tgt.free_rank, keys)


def hom_of_matrix(
    mat: BoolMatrix,
    source: Optional[FinModule] = None,
    target: Optional[FinModule] = None,
) -> Hom:
    """The hom whose generator images are the elements keyed by the matrix columns."""
    src = source if source is not None else free_module(mat.flavor, mat.cols)
    tgt = target if target is not None else free_module(mat.flavor, mat.rows)
    if src.free_rank != mat.cols or tgt.free_rank != mat.rows:
        raise FlavorMismatchError("matrix shape does not match the free endpoints")
    if tgt.flavor is not mat.flavor:
        raise FlavorMismatchError("matrix flavor does not match the free endpoints")
    images = [tgt.id_of_key[k] for k in _column_keys(mat)]
    return extension_hom(src, tgt, images)


# ---------------------------------------------------------------------------
# distinct-rows factorization


@dataclass(frozen=True)
class DistinctRowFactorization:
    """original = duplicator · reduced, with a verified split certificate.

    ``row_class[i]`` names the distinct row that row i duplicates.  The homs
    over free modules of rank ``original.rows`` are built and checked on
    first read: ``split_certificate`` is a left inverse of ``duplicator_hom``.
    """

    original: BoolMatrix
    reduced: BoolMatrix
    duplicator: BoolMatrix
    certificate: BoolMatrix
    row_class: tuple[int, ...]

    @_cached
    def duplicator_hom(self) -> Hom:
        dup = hom_of_matrix(self.duplicator)
        if not dup.injective:
            raise AssertionError("duplicator hom is not injective")
        return dup

    @_cached
    def split_certificate(self) -> Hom:
        cert = hom_of_matrix(self.certificate)
        if not compose(cert, self.duplicator_hom).is_identity():
            raise AssertionError("certificate hom is not a left inverse")
        return cert


def distinct_row_factorization(mat: BoolMatrix) -> DistinctRowFactorization:
    """Factor a matrix map through the module on its distinct rows.

    The duplicator keeps exactly one 1 per row, selecting the matching
    distinct row (first-occurrence order).  For flavor B the certificate
    picks the lowest representative index per distinct row; for flavor Finf
    it must mark the whole class instead, because a zero summand absorbs
    the sum (the lowest-representative certificate is not a left inverse
    once a class has two rows).
    """
    seen: dict[tuple[int, ...], int] = {}  # distinct row -> its class
    row_class: list[int] = []
    reps: list[int] = []  # the first row of each class
    for i in range(mat.rows):
        key = mat.row(i)
        if key not in seen:
            seen[key] = len(seen)
            reps.append(i)
        row_class.append(seen[key])
    l = len(reps)
    reduced = BoolMatrix(mat.flavor, l, mat.cols, tuple(e for r in reps for e in mat.row(r)))
    dup = [0] * (mat.rows * l)
    for i, c in enumerate(row_class):
        dup[i * l + c] = 1
    duplicator = BoolMatrix(mat.flavor, mat.rows, l, tuple(dup))
    cert = [0] * (l * mat.rows)
    if mat.flavor is Flavor.B:
        for r in range(l):
            cert[r * mat.rows + reps[r]] = 1
    else:
        for i, c in enumerate(row_class):
            cert[c * mat.rows + i] = 1
    certificate = BoolMatrix(mat.flavor, l, mat.rows, tuple(cert))

    if mat_mul(duplicator, reduced) != mat:
        raise AssertionError("duplicator · reduced does not recover the input")
    if mat_mul(certificate, duplicator) != BoolMatrix.identity(mat.flavor, l):
        raise AssertionError("certificate is not a left inverse of the duplicator")
    return DistinctRowFactorization(mat, reduced, duplicator, certificate, tuple(row_class))


# ---------------------------------------------------------------------------
# duality (flavor B)


class _DualModule(FreeModule):
    """A free B-module whose generators are named E1, E2, ..."""

    letter = "E"


@lru_cache(maxsize=None)
def dualize_free(n: int) -> FinModule:
    """The dual of the rank-n free B-module: all homs to B under pointwise or.

    Realized as the free module on the coordinate evaluations (the hom
    sending T to [S ∩ T nonempty] is the sum of the evaluations over T), so
    its generators are named E1, E2, ... to keep the two sides apart; like
    any free module's, its names are built on first read only.
    """
    return _DualModule(Flavor.B, n)


def dualize_hom(f: Hom) -> Hom:
    """Precomposition by f; its matrix is the transpose of the matrix of f."""
    if f.source.flavor is not Flavor.B:
        raise FlavorMismatchError("dualization is defined for flavor B")
    mat = matrix_of_hom(f)
    n, m = mat.cols, mat.rows
    return hom_of_matrix(mat.transpose(), source=dualize_free(m), target=dualize_free(n))


@dataclass(frozen=True)
class DualFactorization:
    """f*: B[S] -> (B^n)* split as a basis surjection followed by a residual."""

    dual_map: Hom
    set_surjection: tuple[int, ...]
    induced: Hom
    residual: Hom
    certificate: Hom


def dual_factorization(f: Hom, certificate: Optional[Hom] = None) -> DualFactorization:
    """Factor the dual surjection of a splittable injection f: B^n -> B[S]*.

    S-basis vectors with equal images under f* are merged; the first map is
    induced by that surjection of finite sets and the residual completes
    f*.  Basis vector t of B[S] goes to row t of the matrix of f, so these
    are the distinct-rows factorization of that matrix, transposed: the
    surjection is its ``row_class``, the induced map its duplicator and the
    residual its reduced matrix.  f splits: its source is a free B-module,
    a Boolean lattice, so distributive, and the certificate defaults to
    :func:`semimod.homs.retraction` of f, which checks itself.  A supplied
    certificate is checked here to be a hom w with w∘f = id.
    """
    if f.source.flavor is not Flavor.B:
        raise FlavorMismatchError("dual factorization is defined for flavor B")
    mat = matrix_of_hom(f)  # s x n; it refuses endpoints that are not free
    if not f.is_hom or not f.injective:
        raise ValueError("dual factorization expects an injective hom")
    if certificate is None:
        certificate = retraction(f)
    elif not (compose(certificate, f).is_identity() and certificate.is_hom):
        raise ValueError("supplied certificate is not a left inverse of f")

    fstar = hom_of_matrix(mat.transpose(), target=dualize_free(mat.cols))
    rows = distinct_row_factorization(mat)
    induced = hom_of_matrix(rows.duplicator.transpose())
    residual = hom_of_matrix(rows.reduced.transpose(), target=dualize_free(mat.cols))
    if compose(residual, induced).map != fstar.map:
        raise AssertionError("residual ∘ induced does not recover the dual map")
    return DualFactorization(fstar, rows.row_class, induced, residual, certificate)
