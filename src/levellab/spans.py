"""Exact linear algebra for graded spans of forms.

Ranks over F_p run on int64 matrices: with p < 2^31 every intermediate
product stays below 2^62, so vectorized row reduction is exact.

``rref_mod_p`` is a right-looking blocked Gauss-Jordan elimination.  The
columns are taken in panels of ``_PANEL``.  Per-pivot scalar steps on a
copy of one panel find its k pivot columns and the rows that carry them;
those rows are reduced to R = M^-1 A[rows, start:], where M is their k x k
block in the pivot columns, and every other row with a nonzero entry in a
pivot column takes the update row[start:] -= row[pivots] R as one modular
matrix product in float64.  The scalar steps run in place instead on a
matrix no wider or no taller than one panel, and on the last panel of a
wider one, where a blocked update has nothing to gain.

A matrix taller than max(ncols, _PANEL) rows is read in batches of that
many rows, and the reduced rows found so far are kept as a basis sorted by
pivot column.  Each batch first loses its part in that span, x -= x[:,
pivots] basis, as one modular product; the panel elimination reduces the
rows left nonzero, and its new rows are back-substituted into the basis.
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
_INNER and sums their residues.  The reduced row echelon form of a span is unique, so the result
depends neither on the panel width, the batches or the slices, nor on which
rows are picked as pivots.

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


# Panel width, by measurement: 32 beat 16, 24, 48 and 64 on the r = 18..40
# derivative towers, where the scalar steps inside a panel and the matrix
# products across it trade off.
_PANEL = 32
# Inner dimension of one modular matrix product: a power of two at which
# its int64 recombination provably stays below 2^63 (module docstring).
_INNER = 1 << 13
# Cells per trailing-update chunk, which bounds the temporaries of the
# modular product to a few arrays of 256 KiB.
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
    batch = max(ncols, _PANEL)
    if nrows <= batch:
        a = _residues(matrix, p)
        # a copy, so a basis does not keep the dropped rows alive
        return a[:_reduce(a, p)].copy()
    basis = np.zeros((0, ncols), dtype=np.int64)
    pivots = np.zeros(0, dtype=np.intp)
    for lo in range(0, nrows, batch):
        x = _residues(matrix[lo:lo + batch], p)
        if len(basis):
            _subtract_product(x, pivots, basis, p)
            x = x[x.any(axis=1)]
        new = x[:_reduce(x, p)]
        if len(basis) + len(new) == ncols:
            # the rows left cannot change a span that is already everything
            return np.eye(ncols, dtype=np.int64)
        if len(new):
            new_pivots = (new != 0).argmax(axis=1)
            _subtract_product(basis, new_pivots, new, p)
            pivots = np.concatenate([pivots, new_pivots])
            order = np.argsort(pivots)
            basis, pivots = np.vstack([basis, new])[order], pivots[order]
    return basis


def _residues(matrix: np.ndarray, p: int) -> np.ndarray:
    a = np.array(matrix, dtype=np.int64, copy=True)
    a %= p
    return a


def _reduce(a: np.ndarray, p: int) -> int:
    """Row reduce ``a`` in place, panel by panel; returns its rank, the
    number of leading rows that hold the reduced row echelon form."""
    nrows, ncols = a.shape
    pivot = 0
    for start in range(0, ncols, _PANEL):
        if pivot >= nrows:
            break
        if min(nrows, ncols - start) <= _PANEL:
            # too few rows or columns left for a blocked update to pay
            pivot += len(_pivot_steps(a[:, start:], pivot, p)[0])
            break
        pivot += _eliminate_panel(a, pivot, start, p)
    return pivot


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


def _pivot_steps(a: np.ndarray, pivot: int, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-pivot Gauss-Jordan steps on ``a`` in place, taking pivots from
    row ``pivot`` down.  Returns the pivot columns and the row swaps made."""
    nrows, ncols = a.shape
    cols, swaps = [], []
    for col in range(ncols):
        if pivot >= nrows:
            break
        stuck = np.nonzero(a[pivot:, col])[0]
        if stuck.size == 0:
            continue
        first = pivot + int(stuck[0])
        if first != pivot:
            a[[pivot, first]] = a[[first, pivot]]
            swaps.append((pivot, first))
        inv = pow(int(a[pivot, col]), p - 2, p)
        a[pivot] = a[pivot] * inv % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != pivot]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[pivot])) % p
        cols.append(col)
        pivot += 1
    return cols, swaps


def _eliminate_panel(a: np.ndarray, pivot: int, start: int, p: int) -> int:
    """Clear the panel of ``_PANEL`` columns at ``start`` in every row but
    its new pivot rows, which move to ``pivot`` onward; returns their count.

    Rows from ``pivot`` down are zero left of ``start``, so the pivot rows'
    reduced form R starts there too."""
    cols, swaps = _pivot_steps(a[pivot:, start:start + _PANEL].copy(), 0, p)
    if not cols:
        return 0
    for i, j in swaps:
        a[[pivot + i, pivot + j]] = a[[pivot + j, pivot + i]]
    k = len(cols)
    pivot_cols = start + np.array(cols)
    # The chosen rows met their pivots in order, so the steps on them alone
    # find the same pivot columns and leave R = M^-1 A[rows, start:].
    reduced = a[pivot:pivot + k, start:]
    _pivot_steps(reduced, 0, p)
    hit = np.flatnonzero(a[:, pivot_cols].any(axis=1))
    hit = hit[(hit < pivot) | (hit >= pivot + k)]
    halves = _halves(reduced)
    step = max(1, _CHUNK_CELLS // (a.shape[1] - start))
    for lo in range(0, hit.size, step):
        rows = hit[lo:lo + step]
        product = _matmul_mod(_halves(a[np.ix_(rows, pivot_cols)]), halves, p)
        a[rows, start:] = (a[rows, start:] - product) % p
    return k


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

