"""Exact linear algebra for graded spans of forms.

Ranks over F_p run on int64 matrices: with p < 2^31 every intermediate
product stays below 2^62, so vectorized row reduction is exact.

``rref_mod_p`` reads its matrix in batches of ``_BATCH`` rows and keeps
the reduced rows found so far as a basis with their pivot columns.  Each
batch first loses its part in that span, x -= x[:, pivots] basis, as one
modular matrix product; per-pivot Gauss-Jordan steps reduce the rows it
leaves nonzero, and the new rows are back-substituted into the basis.
Once the basis has ncols rows it spans everything, so the identity is
returned and the rows not yet read are never converted or reduced.
Derivative towers stack many more partials than their level has
monomials, and most of their levels reach full rank in the first batch.

The matrix product is exact: residues below 2^31 split into 16-bit halves,
x = x1 2^16 + x0 with x1 < 2^15 and x0 < 2^16.  Over an inner dimension k
the four half products sum terms below 2^30, 2^31, 2^31 and 2^32, so for
k <= 2^21 every partial sum stays below 2^53 and float64 holds it exactly.
They recombine in int64 as (x1 y1 mod p) (2^32 mod p) + (x1 y0 + x0 y1)
2^16 + x0 y0 < 2^62 + k 2^48 + k 2^32, which stays below 2^63 for
k <= _INNER = 2^13.  A batch reduction's inner dimension is the basis
rank, which can reach ncols, so a wider product runs over slices of
_INNER and sums their residues.  The reduced row echelon form of a span
is unique, so the result depends neither on the batches or the slices,
nor on which rows are picked as pivots.

A derivative tower walks a set of degree-e generators down to degree 0,
reducing the stacked partial derivatives of each basis in turn.  Its
per-degree dimensions are exactly the h-vector of the module the
generators span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from levellab.errors import HypothesisError
from levellab.forms import PRIME_LIMIT, Form, monomials_of_degree


# Rows per batch, by measurement: 32 beat 16, 48 and 64 on the r = 16..30
# derivative towers, where the per-pivot steps across a batch and the
# products against the basis trade off.
_BATCH = 32
# Inner dimension of one modular matrix product: a power of two at which
# its int64 recombination provably stays below 2^63 (module docstring).
_INNER = 1 << 13
# Cells per product chunk, which bounds the temporaries of the modular
# product to a few arrays of 256 KiB.
_CHUNK_CELLS = 1 << 15


def rref_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p; returns only the nonzero rows.

    The result is canonical for the row space, so any generating set of
    the same span reduces to byte-identical rows.  The modulus must lie in
    2..2^31 - 1, where int64 products and the 16-bit split stay exact.
    """
    if not 2 <= p < PRIME_LIMIT:
        raise HypothesisError(f"modulus {p} is outside 2..2^31-1")
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2d matrix")
    nrows, ncols = matrix.shape
    basis = np.empty((min(nrows, ncols), ncols), dtype=np.int64)
    pivots = np.empty(len(basis), dtype=np.intp)
    rank = 0
    for lo in range(0, nrows, _BATCH):
        x = matrix[lo:lo + _BATCH].astype(np.int64) % p
        if rank:
            _subtract_product(x, pivots[:rank], basis[:rank], p)
            x = x[x.any(axis=1)]
        cols = _pivot_steps(x, p)
        k = len(cols)
        if rank + k == ncols:
            # the rows left cannot change a span that is already everything
            return np.eye(ncols, dtype=np.int64)
        if rank and k:
            _subtract_product(basis[:rank], cols, x[:k], p)
        basis[rank:rank + k] = x[:k]
        pivots[rank:rank + k] = cols
        rank += k
    # a copy, so the result does not keep the unused basis rows alive
    return basis[np.argsort(pivots[:rank])]


def _subtract_product(a: np.ndarray, cols: np.ndarray, rows: np.ndarray, p: int) -> None:
    """a -= a[:, cols] rows mod p in place, for ``rows`` in reduced echelon
    form with pivots ``cols``: clears those columns of ``a``.  Runs in row
    chunks of ``a`` that bound the temporaries."""
    halves = _halves(rows)
    step = max(1, _CHUNK_CELLS // a.shape[1])
    for lo in range(0, len(a), step):
        chunk = a[lo:lo + step]
        chunk -= _matmul_mod(_halves(chunk[:, cols]), halves, p)
        chunk %= p


def _pivot_steps(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan steps on ``a`` in place, one pivot at a time; returns
    the pivot columns, whose reduced rows end up on top.  The rows not yet
    used as pivots are zero left of the column searched, so each step only
    updates the columns from its pivot on."""
    nrows, ncols = a.shape
    cols = []
    for col in range(ncols):
        pivot = len(cols)
        if pivot >= nrows:
            break
        stuck = np.nonzero(a[pivot:, col])[0]
        if stuck.size == 0:
            continue
        first = pivot + int(stuck[0])
        if first != pivot:
            a[[pivot, first]] = a[[first, pivot]]
        inv = pow(int(a[pivot, col]), p - 2, p)
        a[pivot, col:] = a[pivot, col:] * inv % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != pivot]
        if others.size:
            a[others, col:] = (a[others, col:] - np.outer(a[others, col], a[pivot, col:])) % p
        cols.append(col)
    return np.array(cols, dtype=np.intp)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 16-bit halves of residues below 2^31, as float64."""
    return (x & 0xFFFF).astype(np.float64), (x >> 16).astype(np.float64)


def _matmul_mod(x: tuple, y: tuple, p: int) -> np.ndarray:
    """The product of two matrices given by their halves, congruent to it
    mod p and below 2^63: four exact float64 products recombined in int64,
    over slices of at most ``_INNER`` of the inner dimension."""
    (x0, x1), (y0, y1) = x, y
    inner = x0.shape[1]
    if inner > _INNER:
        out = 0
        for lo in range(0, inner, _INNER):
            part = slice(lo, lo + _INNER)
            out = out + _matmul_mod((x0[:, part], x1[:, part]), (y0[part], y1[part]), p) % p
        return out
    out = (x1 @ y1).astype(np.int64) % p * (2**32 % p)
    out += (x1 @ y0 + x0 @ y1).astype(np.int64) << 16
    out += (x0 @ y0).astype(np.int64)
    return out


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    return len(rref_mod_p(matrix, p))


@dataclass(frozen=True)
class SpanBasis:
    """Canonical basis (RREF rows over the grevlex monomial order) of the
    degree ``degree`` component of a span of forms."""

    nvars: int
    degree: int
    p: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def forms(self) -> list[Form]:
        return [Form(self.nvars, self.degree, self.p, tuple(row.tolist()))
                for row in self.matrix]


def coefficient_matrix(forms: Sequence[Form], nvars: int, degree: int, p: int) -> np.ndarray:
    n = len(monomials_of_degree(nvars, degree))
    mat = np.zeros((len(forms), n), dtype=np.int64)
    for i, f in enumerate(forms):
        if f.nvars != nvars or f.p != p:
            raise ValueError("forms live in different rings")
        if f.degree != degree:
            raise ValueError(f"mixed degrees: expected {degree}, found {f.degree}")
        mat[i] = f.coeffs
    return mat


def span_dimension(forms: Sequence[Form]) -> int:
    """Dimension of the linear span of the given forms (all one degree)."""
    if not forms:
        return 0
    first = forms[0]
    return rank_mod_p(coefficient_matrix(forms, first.nvars, first.degree, first.p), first.p)


@lru_cache(maxsize=None)
def _derivative_map(nvars: int, degree: int, var: int):
    """Index arrays mapping degree-d monomial coordinates to their degree
    d-1 images under d/dy_var, with the exponent multipliers.  They are
    int32 because the cache keeps every shape for the life of the process."""
    source = monomials_of_degree(nvars, degree)
    target = {m: i for i, m in enumerate(monomials_of_degree(nvars, degree - 1))}
    src, dst, mult = [], [], []
    for i, mono in enumerate(source):
        if mono[var] == 0:
            continue
        lowered = list(mono)
        lowered[var] -= 1
        src.append(i)
        dst.append(target[tuple(lowered)])
        mult.append(mono[var])
    return (
        np.array(src, dtype=np.int32),
        np.array(dst, dtype=np.int32),
        np.array(mult, dtype=np.int32),
    )


def _stacked_derivatives(basis: SpanBasis) -> np.ndarray:
    """All first partials of the basis rows, one block per variable.

    Residues below 2^31 fit int32, which halves the largest array of a
    tower; ``rref_mod_p`` reduces an int64 copy of it."""
    lower = len(monomials_of_degree(basis.nvars, basis.degree - 1))
    dim = basis.dim
    stacked = np.zeros((basis.nvars * dim, lower), dtype=np.int32)
    for var in range(basis.nvars):
        src, dst, mult = _derivative_map(basis.nvars, basis.degree, var)
        if src.size:
            stacked[var * dim:(var + 1) * dim, dst] = basis.matrix[:, src] * mult % basis.p
    return stacked


def derivative_spaces(generators: Sequence[Form]) -> list[SpanBasis]:
    """Canonical bases of every graded piece of the span closed under
    differentiation, listed by degree 0..e.

    An empty generator list is the zero module and yields an empty list.
    """
    if not generators:
        return []
    first = generators[0]
    nvars, e, p = first.nvars, first.degree, first.p
    top = rref_mod_p(coefficient_matrix(generators, nvars, e, p), p)
    spans = [SpanBasis(nvars, e, p, top)]
    for degree in range(e, 0, -1):
        # no name keeps a level's stacked matrix alive while the next is built
        reduced = rref_mod_p(_stacked_derivatives(spans[-1]), p)
        spans.append(SpanBasis(nvars, degree - 1, p, reduced))
    spans.reverse()
    return spans

