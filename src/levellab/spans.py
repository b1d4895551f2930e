"""Exact linear algebra for graded spans of forms.

Ranks over F_p run on int64 matrices: with p < 2^31 a sum of two products
of residues stays below 2 (p - 1)^2 < 2^63, so vectorized row reduction is
exact.  A matrix of integers of any width within int64 is read; floats,
strings and wider integers are refused with ValueError before any
reduction.

A matrix of at most 2 _BATCH rows and columns is reduced by one pass of
Gauss-Jordan steps in place over all its rows (``_steps``) on an int64
copy of its residues, and its nonzero top rows are copied out, or the
identity returned at full rank.  Such a matrix is reduced at a cost per
call, not per cell, so batches, blocks and back-substitution would cost
more than they save: about nine in ten of the matrices of a scan or a
replay take this pass.  A step with pivot row r on column c takes a
second pivot on column c + 1 when a row below r has an invertible 2 x 2
block B with it there: row r + 1, or else the first such row, which is
the row one-pivot steps would take next, swapped up.  The pivot rows
become lead = B^-1 a[rows] mod p, and one product a[:, c:c+2] lead
updates every row, each entry losing two products of residues before
one ``%``, as FFLAS-FFPACK delays reductions (Dumas, Giorgi and Pernet,
ACM TOMS 2008).  Only the last row or column, or a row none pairs with,
takes one pivot.

A larger matrix is read in batches of ``_BATCH`` rows, and the rows
found so far are kept as blocks, each the new rows of one batch or a few:
a block's rows are in reduced echelon form among themselves and zero on
the pivot columns of every earlier block.  A new batch loses its part in
their span block by block, in the order they were found, each step
x -= x[:, cols] rows one modular matrix product; a later block is zero on
the pivots of an earlier one, so it never refills them.  Each row of a
block is zero left of its own pivot, so a step writes only the columns
from the block's first pivot on: on the r = 16..30 towers of compressed
cubics and quartics that clears 29% fewer cells than all the columns
would.  Gauss-Jordan steps reduce the rows the batch leaves nonzero, and
these become the next block, or join the last one while it stays within
2 _BATCH rows, so a rank that grows a few rows per batch leaves few
blocks to reduce by.  Once the rank
reaches ncols the span is everything: the identity is returned, and
neither the rows not yet read nor the blocks are reduced any further.
Derivative towers stack many more partials than their level has
monomials, and most of their levels end that way.  Any other matrix is
back-substituted once, at return: each block loses its part on the pivots
of every later block, one product each, and the rows are sorted by pivot
column.

A batch of more than two rows and more than 2 _BATCH columns right of
the current position is reduced by panels (``_pivot_steps``): its next
_BATCH columns that are nonzero in the rows not yet pivoted are reduced
beside an identity, [panel | I] -> [panel' | T], and one product applies
T to every column right of the panel.  That covers the top levels of the
towers and their wide R_2 and R_3 levels.  Other batches take the
pivot steps in place, as every scan matrix and most replayed ones do:
on them the panel's extra product costs more than the row updates it
saves.

The matrix product is exact: ``_matmul_mod`` keeps its left operand x as
residues below 2^31, splits the right one into 16-bit halves y1 < 2^15
and y0 < 2^16, and returns (x y1 mod p) 2^16 + x y0 from two float64
products.  Each runs over at most 2 _BATCH = 64 inner terms: the rows of
a block that a batch, or an earlier block at back-substitution, is
cleared against, or at most _BATCH rows when a block takes in new rows
or a panel transform is applied.  So every sum is at most
64 (2^31 - 2)(2^16 - 1) < 2^53, exact in float64 in any order of
addition, and the result below 2^54 in int64; a wider product raises
SoundnessError.  Wide int64 arrays, the batch residues, the
products' high halves and the cleared or transformed rows, are reduced
mod p as x - (x // p) p in place (``_mod``): numpy divides int64 by a
scalar with a multiply and a shift, where its remainder ``%`` divides
each entry, several times slower.  The in-place pivot steps, and the
copy the one pass starts from, keep ``%``: but for batches of one or two
rows their arrays are at most 2 _BATCH square, where its one call costs
less (floor division slowed the scan matrices by about a fifth).  The
reduced row echelon form of a span is unique, so the result depends
neither on the batches, the blocks or the panels, nor on which rows are
picked as pivots.

A derivative tower walks a module's degree-e generators, read straight
from its int64 array, down to degree 0, stacking the partials of each
level in turn until a level is all of R_d, below which every level is
the identity.  A level needs a basis, not an RREF: one of at most 2 _BATCH
rows over more columns is its own basis when its first 2 _BATCH columns
have full row rank, by one small ``rref_mod_p`` call.  While levels stay
unreduced, a row made by d/dy_u is differentiated by y_w for w <= u only,
listing each derivative once: d/dy_w d/dy_u = d/dy_u d/dy_w.  Sizes come from
``forms.ring_dim``, and the tower keeps no monomial table: it gathers the
partial d/dy_v of a degree-d basis as basis[:, index[v]] mult[v], through
``forms.raising_table``, which the products of forms read too, for as
many variables per gather as fit ``_CHUNK_CELLS``: all of them on the
small rings of scans and replays, one at a time on the large levels of
the r = 16..30 towers, so a tower's largest temporary does not grow.
Below an unreduced level the rows that rule drops are cut from the full
gather by one ``np.concatenate``: gathering only the kept rows, a variable
at a time, read scans and replays 10-13% slower and towers no faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from levellab.errors import SoundnessError
from levellab.forms import check_integers, check_prime, raising_table, ring_dim


# Rows per batch and columns per panel.  At most 32, so that a product
# runs over at most 2 _BATCH = 64 inner terms and stays exact; on the
# r = 16..30 towers 32 beat 16, 24 and 64: more rows make fewer, larger
# products but more pivot steps per batch.
_BATCH = 32
# Cells per product chunk, which bounds the temporaries of the modular
# product to a few arrays of 128 KiB.  On the tower matrices 2^14 beat 2^13
# and 2^15: smaller chunks cost more calls, larger ones ran slower BLAS
# products.  The same bound caps the int64 gathers of a level's partials.
_CHUNK_CELLS = 1 << 14


def rref_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p; returns only the nonzero rows.

    The result is canonical for the row space, so any generating set of
    the same span reduces to byte-identical rows.  The modulus must be a
    prime below 2^31, where int64 products and the 16-bit split stay exact,
    and inverses exist: ``check_prime`` refuses any other with
    HypothesisError.
    """
    p = check_prime(p, 0)
    matrix = check_integers(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2d matrix")
    nrows, ncols = matrix.shape
    if nrows <= 2 * _BATCH and ncols <= 2 * _BATCH:
        # small enough that batches, blocks and back-substitution cost more
        # than the pivot steps on every row at once
        a = matrix.astype(np.int64)
        a %= p
        k = len(_steps(a, p, 0, ncols))
        return np.eye(ncols, dtype=np.int64) if k == ncols else a[:k].copy()
    blocks: list[_Block] = []
    rank = 0
    for lo in range(0, nrows, _BATCH):
        x = _mod(matrix[lo:lo + _BATCH].astype(np.int64), p)
        if blocks:
            for block in blocks:
                block.clear(x, p)
            x = x[x.any(axis=1)]
        cols = _pivot_steps(x, p)
        k = len(cols)
        if rank + k == ncols:
            # the rows left cannot change a span that is already everything
            return np.eye(ncols, dtype=np.int64)
        if k:
            rows = x[:k].copy()
            if blocks and len(blocks[-1].cols) + k <= 2 * _BATCH:
                # the last block takes the new rows in while it stays within
                # the products' 64 inner terms, so a slowly growing rank
                # leaves few blocks to reduce each batch by
                last = blocks.pop()
                _Block(cols, rows).clear(last.rows, p)
                cols, rows = np.concatenate([last.cols, cols]), np.vstack([last.rows, rows])
            blocks.append(_Block(cols, rows))
            rank += k
    return _back_substitute(blocks, ncols, p)


@dataclass
class _Block:
    """Rows one batch or a few added to the basis, at most 2 _BATCH (the
    products' inner bound): in reduced echelon form
    among themselves with pivot columns ``cols``, and zero on the pivot
    columns of every earlier block.  Each row is zero left of its pivot,
    and keeps that when the block takes in rows or is back-substituted:
    a row only loses multiples of rows pivoted right of its own pivot.  So
    all are zero left of ``cols.min()``; ``halves`` caches the float
    halves of the columns from there on."""

    cols: np.ndarray
    rows: np.ndarray
    halves: tuple | None = None

    def clear(self, a: np.ndarray, p: int) -> None:
        """a -= a[:, cols] rows mod p in place: ``a`` loses its part on
        this block's pivots.  Only the columns from the first pivot on
        change."""
        start = int(self.cols.min())
        if self.halves is None:
            self.halves = _halves(self.rows[:, start:])
        _subtract_product(a[:, start:], self.cols - start, self.halves, p)


def _back_substitute(blocks: list[_Block], ncols: int, p: int) -> np.ndarray:
    """The basis of ``blocks`` in reduced echelon form, sorted by pivot.

    Each block loses its part on the pivots of every later block, in the
    order they were found: a later block is zero on the pivots of the
    earlier ones, so a step never refills the columns a step before it
    cleared, and the block's own pivots stay put."""
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    for i, block in enumerate(blocks):
        for later in blocks[i + 1:]:
            later.clear(block.rows, p)
    rows = np.vstack([block.rows for block in blocks])
    return rows[np.argsort(np.concatenate([block.cols for block in blocks]))]


def _subtract_product(a: np.ndarray, cols: np.ndarray, halves: tuple, p: int) -> None:
    """a -= a[:, cols] rows mod p in place, for rows given by their
    ``halves``, in reduced echelon form with pivots ``cols``: clears those
    columns of ``a``.  Runs in row chunks of ``a`` that bound the
    temporaries."""
    step = max(1, _CHUNK_CELLS // a.shape[1])
    for lo in range(0, len(a), step):
        chunk = a[lo:lo + step]
        chunk -= _matmul_mod(chunk[:, cols].astype(np.float64), halves, p)
        _mod(chunk, p)


def _pivot_steps(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination of ``a`` in place; returns the pivot
    columns, whose reduced rows end up on top.

    While ``a`` has more than two rows and more than 2 _BATCH columns lie
    right of the current position, it runs on panels: the next _BATCH
    columns that are nonzero in the rows not yet pivoted are reduced
    together with an identity, [panel | I] -> [panel' | T], and T reduces
    every column right of the panel in one product.  The columns it
    skipped are zero in the rows T mixes, so T leaves them as they are.
    The rest is reduced in place."""
    nrows, ncols = a.shape
    cols: list[int] = []
    start = 0
    while 2 < nrows and len(cols) < nrows and ncols - start > 2 * _BATCH:
        pivot = len(cols)
        live = start + np.flatnonzero(a[pivot:, start:].any(axis=0))[:_BATCH]
        if not live.size:
            # the rows not yet pivoted are zero
            return np.array(cols, dtype=np.intp)
        width = len(live)
        panel = np.hstack([a[:, live], np.eye(nrows, dtype=np.int64)])
        found = _steps(panel, p, pivot, width)
        a[:, live] = panel[:, :width]
        start = int(live[-1]) + 1
        transform = panel[:, width:].astype(np.float64)
        step = max(1, _CHUNK_CELLS // nrows)
        for lo in range(start, ncols, step):
            chunk = a[:, lo:lo + step]
            chunk[:] = _mod(_matmul_mod(transform, _halves(chunk), p), p)
        cols.extend(live[found].tolist())
    cols.extend(start + col for col in _steps(a[:, start:], p, len(cols), ncols - start))
    return np.array(cols, dtype=np.intp)


def _steps(a: np.ndarray, p: int, pivot: int, stop: int) -> list[int]:
    """Gauss-Jordan steps on columns 0..stop-1 of ``a`` in place, taking
    pivots from row ``pivot`` on; returns the columns they land in.  ``a``
    is one batch, so each step updates all its rows at once; the rows not
    yet used as pivots are zero left of the column searched, so only the
    columns from the pivot on change, and a swap of two such rows copies
    only those slices.  One search skips a run of columns zero in those rows, as in a
    sparse batch of one wide row.  A step takes k = 2 pivots when a row
    below has an invertible block B with the pivot row on the next two
    columns (module docstring), else k = 1.  Every row loses a[:, cols]
    lead, lead = B^-1 a[rows]: the pivot rows lose all of their residues,
    and lead is written back into them."""
    nrows = len(a)
    found = []
    col = 0
    while pivot < nrows and col < stop:
        if not a[pivot, col]:
            stuck = a[pivot:, col].nonzero()[0]
            if stuck.size == 0:
                live = a[pivot:, col:stop].any(axis=0).nonzero()[0]
                if not live.size:
                    break
                col += int(live[0])
                stuck = a[pivot:, col].nonzero()[0]
            first = pivot + int(stuck[0])
            a[pivot, col:], a[first, col:] = a[first, col:], a[pivot, col:].copy()
        det = 0
        if pivot + 1 < nrows and col + 1 < stop:
            (x, y), (z, w) = a[pivot:pivot + 2, col:col + 2].tolist()
            det = (x * w - y * z) % p
            if not det:
                # once the pivot row clears column col, the first row below
                # nonzero on col + 1 is the first with an invertible block
                dets = (x * a[pivot + 2:, col + 1] - y * a[pivot + 2:, col]) % p
                later = dets.nonzero()[0]
                if later.size:
                    first = pivot + 2 + int(later[0])
                    a[pivot + 1, col:], a[first, col:] = a[first, col:], a[pivot + 1, col:].copy()
                    z, w = a[pivot + 1, col:col + 2].tolist()
                    det = int(dets[later[0]])
        if det:
            d = pow(det, -1, p)
            inverse = np.array([[w * d % p, -y * d % p], [-z * d % p, x * d % p]])
        else:
            inverse = np.array([[pow(int(a[pivot, col]), -1, p)]])
        k = len(inverse)
        lead = inverse @ a[pivot:pivot + k, col:] % p
        rest = a[:, col:]
        rest -= a[:, col:col + k] @ lead
        rest %= p
        a[pivot:pivot + k, col:] = lead
        found += range(col, col + k)
        pivot += k
        col += k
    return found


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, returning ``x``: for int64 ``x // p`` by a scalar
    is a multiply and a shift, where ``x % p`` is a true division per entry,
    several times slower on wide arrays."""
    x -= (x // p) * p
    return x


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 16-bit halves of residues below 2^31, as float64."""
    return (x & 0xFFFF).astype(np.float64), (x >> 16).astype(np.float64)


def _matmul_mod(x: np.ndarray, y: tuple, p: int) -> np.ndarray:
    """x @ y, congruent mod p and in [0, 2^54), for residues ``x`` as
    float64 and ``y`` given by its ``_halves``: two exact float64 products
    over at most 64 inner terms (module docstring)."""
    if x.shape[1] > 64:
        raise SoundnessError(f"inner dimension {x.shape[1]} is above 64: float64 may round")
    y0, y1 = y
    out = _mod((x @ y1).astype(np.int64), p)
    out <<= 16
    out += (x @ y0).astype(np.int64)
    return out


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    return len(rref_mod_p(matrix, p))


def coefficient_matrix(module) -> np.ndarray:
    """The module's read-only t x dim R_e int64 array itself, not a copy."""
    return module.coeffs


def _stacked_derivatives(matrix: np.ndarray, nvars: int, degree: int, p: int,
                         starts: list[int] | None = None) -> np.ndarray:
    """All first partials of the rows of ``matrix``, coefficients of degree
    ``degree`` forms, one block per variable, gathered through the raising
    table for as many variables at once as fit ``_CHUNK_CELLS`` (at least
    one), which bounds the int64 temporaries.  Given ``starts``, block v
    keeps the partials by y_v of the rows from starts[v] on only, cut from
    the full stack by one ``np.concatenate``.  Residues below 2^31 fit
    int32, which halves the largest array of a tower; ``rref_mod_p``
    reduces an int64 copy of it."""
    index, mult = raising_table(nvars, degree)
    dim, size = len(matrix), index.shape[1]
    stacked = np.empty((nvars, dim, size), dtype=np.int32)
    step = max(1, _CHUNK_CELLS // (dim * size))
    for lo in range(0, nvars, step):
        # dim x vars x size: row i's partial by each variable of the chunk
        partials = matrix[:, index[lo:lo + step]]
        partials *= mult[lo:lo + step]
        stacked[lo:lo + step] = _mod(partials, p).swapaxes(0, 1)
    if starts is not None:
        return np.concatenate([block[start:] for block, start in zip(stacked, starts)])
    return stacked.reshape(nvars * dim, size)


def derivative_spaces(module) -> list[np.ndarray]:
    """A basis per graded piece of the span of a module's generators closed
    under differentiation, listed by degree 0..e: for each degree d, int64
    rows over the degree-d monomials in grevlex order, so its dimension is
    its length.  Wide levels of few independent rows come unreduced, their
    rows taking each derivative once (module docstring); the others are in
    RREF.  Below a level that is all of R_d each level is the identity,
    neither stacked nor reduced: for p > d, d/dy_v (y_v m) is a unit times
    m.  Those levels share one read-only identity per size."""
    nvars, p = module.nvars, module.p
    level, degree, spans, starts = coefficient_matrix(module), module.degree, [], None
    while True:
        wide = len(level) <= 2 * _BATCH < level.shape[1]
        if wide and len(rref_mod_p(level[:, :2 * _BATCH], p)) == len(level):
            if spans:
                # a stack: the partials by y_v follow those by y_0 .. y_v-1
                counts = [len(spans[-1]) - start for start in starts or [0] * nvars]
                starts = list(accumulate(counts[:-1], initial=0))
            # independent rows; an int32 stack would wrap times the exponents
            spans.append(level.astype(np.int64, copy=False))
        else:
            spans.append(rref_mod_p(level, p))
            starts = None
        if not degree or len(spans[-1]) == ring_dim(nvars, degree):
            break
        # no name keeps a level's stacked matrix alive while the next is built
        del level
        level = _stacked_derivatives(spans[-1], nvars, degree, p, starts)
        degree -= 1
    eyes: dict[int, np.ndarray] = {}
    for size in (ring_dim(nvars, d) for d in range(degree - 1, -1, -1)):
        if size not in eyes:
            eyes[size] = np.eye(size, dtype=np.int64)
            eyes[size].flags.writeable = False
        spans.append(eyes[size])
    spans.reverse()
    return spans
