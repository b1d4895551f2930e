"""Exact linear algebra for graded spans of forms.

Ranks over F_p, p < 2^31, run on int64 residues.  A Gauss-Jordan step
subtracts two products of residues before one ``%``, a sum below
2 (p - 1)^2 < 2^63.  A matrix product (``_matmul_mod``) splits its small
left operand into 16-bit halves and takes two float64 products with the
wide right one over at most 2 _BATCH = 64 inner terms, whose sums stay below
64 (2^31 - 2)(2^16 - 1) < 2^53, exact in any order of addition, and
whose results stay below 2^54 in int64; a wider product raises
SoundnessError.  Matrices of integers within int64 are read; floats,
strings and wider integers are refused with ValueError.

The reduced row echelon form of a span is unique, so the output is
canonical: it depends neither on the batches, the blocks or the panels,
nor on which rows are picked as pivots.  ``rref_mod_p`` picks one of three
regimes by the matrix's shape, each needed by a workload of the benchmark:

- A matrix of at most 64 rows and 64 columns takes one pass of in-place
  steps over all its rows, at a cost per call rather than per cell: that
  is 2,335 of the 2,540 matrices of a pass of ``scan_socle23`` and 511 of
  the 552 of ``replay_corpus``.
- A taller matrix at most 64 columns wide is read in batches of 32 rows,
  each cleared by the rows found before it and reduced by in-place steps:
  the other 205 and 41 matrices of those passes.
- A wider matrix reduces every batch by panels, one product per 32
  pivots: the 24 wide levels of a pass of ``tower_codim`` (r = 16..30),
  and no matrix of the other two workloads.  Each of those levels is
  also taller than 64 rows, so it is read batch by batch from its
  partials (``_Partials``), never stacked.

Both batched regimes stop once the rank reaches the width, without
reading the rows left; otherwise they back-substitute once, at the end.

A derivative tower (``derivative_spaces``) keeps four rules.  A level
needs a basis, not an RREF.  A wide level of at most 64 rows stays
unreduced when its first 64 columns have full row rank.  Below unreduced
levels each derivative is taken once, as d/dy_w d/dy_u = d/dy_u d/dy_w.
Below a level that is all of R_d every level is the identity.
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
    partials = isinstance(matrix, _Partials)
    if not partials:
        matrix = check_integers(matrix)
        if matrix.ndim != 2:
            raise ValueError("expected a 2d matrix")
    nrows, ncols = matrix.shape
    panels = ncols > 2 * _BATCH
    if nrows <= 2 * _BATCH and not panels:
        a = matrix.astype(np.int64)
        a %= p
        k = len(_steps(a, p, 0, ncols))
        return np.eye(ncols, dtype=np.int64) if k == ncols else a[:k].copy()
    blocks: list[_Block] = []
    rank = 0
    for lo in range(0, nrows, _BATCH):
        x = (matrix.read(lo, lo + _BATCH) if partials
             else _mod(matrix[lo:lo + _BATCH].astype(np.int64), p))
        if blocks:
            for block in blocks:
                block.clear(x, p)
            x = x[x.any(axis=1)]
        cols = _pivot_steps(x, p) if panels else np.array(_steps(x, p, 0, ncols), dtype=np.intp)
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
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    # back-substitution in the order the blocks were found: a later block is
    # zero on the pivots of the earlier ones, so it never refills them
    for i, block in enumerate(blocks):
        for later in blocks[i + 1:]:
            later.clear(block.rows, p)
    rows = np.vstack([block.rows for block in blocks])
    return rows[np.argsort(np.concatenate([block.cols for block in blocks]))]


@dataclass
class _Block:
    """Rows one batch or a few added to the basis, at most 2 _BATCH (the
    products' inner bound): in reduced echelon form
    among themselves with pivot columns ``cols``, and zero on the pivot
    columns of every earlier block.  Each row is zero left of its pivot,
    and keeps that when the block takes in rows or is back-substituted:
    a row only loses multiples of rows pivoted right of its own pivot.  So
    all are zero left of ``cols.min()``; ``floats`` caches one float64
    copy of the columns from there on, the wide operand of its products."""

    cols: np.ndarray
    rows: np.ndarray
    floats: np.ndarray | None = None

    def clear(self, a: np.ndarray, p: int) -> None:
        """a -= a[:, cols] rows mod p in place: ``a`` loses its part on
        this block's pivots.  Only the columns from the first pivot on
        change, which on the r = 16..30 towers writes 29% fewer cells than
        all the columns would.  Runs in row chunks of ``a`` that bound the
        temporaries."""
        start = int(self.cols.min())
        if self.floats is None:
            self.floats = self.rows[:, start:].astype(np.float64)
        a, cols = a[:, start:], self.cols - start
        step = max(1, _CHUNK_CELLS // a.shape[1])
        for lo in range(0, len(a), step):
            chunk = a[lo:lo + step]
            chunk -= _matmul_mod(_halves(chunk[:, cols]), self.floats, p)
            _mod(chunk, p)


def _pivot_steps(a: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan elimination of ``a`` in place by panels; returns the
    pivot columns, whose reduced rows end up on top.

    The next _BATCH columns that are nonzero in the rows not yet pivoted
    are reduced together with an identity, [panel | I] -> [panel' | T],
    and T reduces every column right of the panel in one product.  The
    columns it skipped are zero in the rows T mixes, so T leaves them as
    they are."""
    nrows, ncols = a.shape
    cols: list[int] = []
    start = 0
    while len(cols) < nrows and start < ncols:
        pivot = len(cols)
        live = start + np.flatnonzero(a[pivot:, start:].any(axis=0))[:_BATCH]
        if not live.size:
            # the rows not yet pivoted are zero
            break
        width = len(live)
        panel = np.hstack([a[:, live], np.eye(nrows, dtype=np.int64)])
        found = _steps(panel, p, pivot, width)
        a[:, live] = panel[:, :width]
        start = int(live[-1]) + 1
        transform = _halves(panel[:, width:])
        step = max(1, _CHUNK_CELLS // nrows)
        for lo in range(start, ncols, step):
            chunk = a[:, lo:lo + step]
            chunk[:] = _mod(_matmul_mod(transform, chunk.astype(np.float64), p), p)
        cols.extend(live[found].tolist())
    return np.array(cols, dtype=np.intp)


def _steps(a: np.ndarray, p: int, pivot: int, stop: int) -> list[int]:
    """Gauss-Jordan steps on columns 0..stop-1 of ``a`` in place, taking
    pivots from row ``pivot`` on; returns the columns they land in.  ``a``
    is one batch, so each step updates all its rows at once; the rows not
    yet used as pivots are zero left of the column searched, so only the
    columns from the pivot on change, and a swap of two such rows copies
    only those slices.  One search skips a run of columns zero in those
    rows.  A step with pivot row r takes k = 2 pivots when a row below has
    an invertible 2 x 2 block B with it on the next two columns: row r + 1,
    or else the first such row, the one one-pivot steps would take next,
    swapped up; else k = 1.  Every row loses a[:, cols] lead,
    lead = B^-1 a[rows], each entry two products of residues before one
    ``%``, as FFLAS-FFPACK delays reductions (Dumas, Giorgi and Pernet, ACM
    TOMS 2008); the pivot rows lose all of their residues, and lead is
    written back into them.  ``a`` is at most 2 _BATCH columns wide, where
    one ``%`` costs less than ``_mod`` (which slowed the scan matrices by
    about a fifth)."""
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


def _matmul_mod(x: tuple, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y, congruent mod p and in [0, 2^54), for the small left operand
    ``x`` given by its ``_halves`` and the wide right one ``y`` as float64
    residues: two exact float64 products over at most 64 inner terms
    (module docstring)."""
    x0, x1 = x
    if x0.shape[1] > 64:
        raise SoundnessError(f"inner dimension {x0.shape[1]} is above 64: float64 may round")
    out = _mod((x1 @ y).astype(np.int64), p)
    out <<= 16
    out += (x0 @ y).astype(np.int64)
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
    the full stack by one ``np.concatenate`` (gathering only the kept rows,
    a variable at a time, read scans and replays 10-13% slower and towers
    no faster).  Residues below 2^31 fit int32, which halves the stack;
    ``rref_mod_p`` reduces int64 copies of its batches.  A tower's levels
    over more than 2 _BATCH rows and columns are not stacked but read from
    ``_Partials``."""
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


class _Partials:
    """The matrix ``_stacked_derivatives(basis, nvars, degree, p, starts)``
    unbuilt: ``rref_mod_p`` reads it a batch at a time, so the rows past
    full rank are never gathered, and ``np.asarray`` stacks it whole."""

    def __init__(self, basis: np.ndarray, nvars: int, degree: int, p: int,
                 starts: list[int] | None = None) -> None:
        self.args = basis, nvars, degree, p, starts
        self.starts = starts or [0] * nvars
        # the partials by y_v are rows offsets[v] .. offsets[v + 1] - 1
        self.offsets = list(accumulate((len(basis) - start for start in self.starts), initial=0))
        self.shape = (self.offsets[-1], ring_dim(nvars, degree - 1))

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        stacked = _stacked_derivatives(*self.args)
        return stacked if dtype is None else stacked.astype(dtype, copy=False)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi - 1 as int64 residues, gathered through the raising
        table one variable's run at a time straight into the batch: beside
        it only the intp copy of a table row is allocated, so there is no
        gather temporary for ``_CHUNK_CELLS`` to bound."""
        basis, nvars, degree, p, _ = self.args
        index, mult = raising_table(nvars, degree)
        hi = min(hi, len(self))
        out = np.empty((hi - lo, self.shape[1]), dtype=np.int64)
        row, v = lo, 0
        while row < hi:
            while self.offsets[v + 1] <= row:
                v += 1
            end = min(hi, self.offsets[v + 1])
            first = self.starts[v] + row - self.offsets[v]
            run = out[row - lo:end - lo]
            # "clip" leaves the valid indices as they are and lets take
            # write into ``run`` without a buffer
            np.take(basis[first:first + end - row], index[v], axis=1, out=run, mode="clip")
            run *= mult[v]
            row = end
        return _mod(out, p)


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
        # the partials by y_v of the rows of the basis from starts[v] on
        rows = nvars * len(spans[-1]) - sum(starts or ())
        if rows > 2 * _BATCH < ring_dim(nvars, degree - 1):
            level = _Partials(spans[-1], nvars, degree, p, starts)
        else:
            # short or narrow: one stack, which scans and replays read faster
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
