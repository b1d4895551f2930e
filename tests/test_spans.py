"""Tests for the exact rank kernel and derivative towers.

Ranks are checked against sympy's rational rank on small-integer
matrices, where minors stay far below the working prime, so the mod-p and
characteristic-zero answers provably coincide.  The row-batched kernel is
checked byte for byte against ``reference_rref``, a full-width per-pivot
elimination, on square and wide shapes as well as on tall ones that it
reads in many batches and leaves early once they reach full column rank.
"""

import json
import os
import random
import subprocess
import sys
from itertools import compress
from pathlib import Path
from random import Random

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from levellab import forms, spans
from levellab.constructions import (
    add_new_variable_power,
    compressed_generic_module,
    expected_h_compressed,
    powers_partition_module,
)
from levellab.errors import DependentGeneratorsError, HypothesisError, SoundnessError
from levellab.forms import DEFAULT_PRIME, PRIME_LIMIT, parse_form, raising_table, ring_dim
from levellab.macaulay import binomial
from levellab.modules import (
    InverseModule,
    h_vector,
    module_to_text,
    truncate_level,
    type_of,
)
from levellab.spans import (
    _BATCH,
    derivative_spaces,
    rank_mod_p,
    rref_mod_p,
)
from monomials import (
    form,
    grevlex,
    module_of,
    monomial_positions,
    random_forms,
    reference_derivative,
    scaled,
)


def tower(nvars, degree, rows, p=DEFAULT_PRIME):
    return derivative_spaces(module_of(nvars, degree, rows, p))


def small_matrix(rng, rows, cols, lo=0, hi=20):
    return np.array([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def reference_steps(matrix, p, pivot=0, stop=None):
    """One full-width Gauss-Jordan update per pivot on columns 0..stop-1,
    taking pivots from row ``pivot`` on: the reduced matrix, every row of
    it, and the pivot columns."""
    a = np.array(matrix, dtype=np.int64, copy=True)
    a %= p
    nrows, ncols = a.shape
    cols = []
    for col in range(ncols if stop is None else stop):
        if pivot >= nrows:
            break
        stuck = np.nonzero(a[pivot:, col])[0]
        if stuck.size == 0:
            continue
        first = pivot + int(stuck[0])
        if first != pivot:
            a[[pivot, first]] = a[[first, pivot]]
        inv = pow(int(a[pivot, col]), p - 2, p)
        a[pivot] = a[pivot] * inv % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != pivot]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[pivot])) % p
        cols.append(col)
        pivot += 1
    return a, cols


def reference_rref(matrix, p):
    """The oracle: the top rows of ``reference_steps`` on every column."""
    a, cols = reference_steps(matrix, p)
    return a[:len(cols)]


def assert_same_rref(matrix, p):
    got = rref_mod_p(matrix, p)
    want = reference_rref(matrix, p)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_residues(gen, rows, cols, p, lo=0):
    return gen.integers(lo, p, size=(rows, cols), dtype=np.int64)


def low_rank(gen, rows, cols, rank, p):
    """A product of random rows x rank and rank x cols factors mod p."""
    left = random_residues(gen, rows, rank, p)
    right = random_residues(gen, rank, cols, p)
    return (left.astype(object).dot(right.astype(object)) % p).astype(np.int64)


PRIMES = (DEFAULT_PRIME, 101)


def test_rank_matches_sympy_on_small_integers():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        mat = small_matrix(rng, rows, cols)
        if rng.random() < 0.5 and rows > 1:
            # plant a dependent row to exercise rank deficiency
            mat[-1] = mat[0] + mat[rng.randrange(rows - 1)]
        expected = sympy.Matrix(mat.tolist()).rank()
        assert rank_mod_p(mat, DEFAULT_PRIME) == expected


def test_rref_is_canonical_for_the_row_space():
    rng = random.Random(29)
    p = DEFAULT_PRIME
    base = small_matrix(rng, 4, 7, lo=0, hi=50)
    reduced = rref_mod_p(base, p)
    for _ in range(10):
        # random invertible recombination over F_p keeps the row space
        while True:
            mix = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(4)])
            if rank_mod_p(mix, p) == 4:
                break
        recombined = np.zeros_like(base)
        for i in range(4):
            acc = np.zeros(7, dtype=object)
            for j in range(4):
                acc = acc + int(mix[i, j]) * base[j].astype(object)
            recombined[i] = [int(v) % p for v in acc]
        assert np.array_equal(rref_mod_p(recombined, p), reduced)


def span_dimension(nvars, degree, rows):
    """Dimension of the span of the rows of forms of one ring and degree."""
    return type_of(module_of(nvars, degree, rows))


def test_span_dimension_basics():
    rng = random.Random(31)
    quadrics = random_forms(3, 2, 3, rng)
    assert span_dimension(3, 2, quadrics) == 3
    assert span_dimension(3, 2, quadrics + [quadrics[0]]) == 3
    doubled = quadrics + [scaled(quadrics[1], 7)]
    assert span_dimension(3, 2, doubled) == 3
    # a module has a nonzero generator: no row, or a zero row, is refused
    for rows in (np.zeros((0, 6), dtype=np.int64), [[0] * 6]):
        with pytest.raises(ValueError):
            InverseModule(3, 2, DEFAULT_PRIME, rows)


def test_span_dimension_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        span_dimension(2, 2, [form("y1^2", 2, 2), form("y1^3", 2, 3)])


def test_span_dimension_invariant_under_scaling_and_order():
    rng = random.Random(37)
    forms = random_forms(3, 3, 4, rng)
    dim = span_dimension(3, 3, forms)
    shuffled = forms[::-1]
    multiples = [scaled(f, rng.randrange(1, DEFAULT_PRIME)) for f in forms]
    assert span_dimension(3, 3, shuffled) == dim
    assert span_dimension(3, 3, multiples) == dim


def test_tower_of_three_fourth_powers():
    dims = tuple(map(len, tower(3, 4, [form("y1^4 + y2^4 + y3^4", 3, 4)])))
    assert dims == (1, 3, 3, 3, 1)


def test_tower_of_monomial_product():
    dims = tuple(map(len, tower(3, 3, [form("y1*y2*y3", 3, 3)])))
    assert dims == (1, 3, 3, 1)


def test_tower_of_generic_quartics():
    rng = random.Random(41)
    gens = random_forms(3, 4, 4, rng)
    dims = tuple(map(len, tower(3, 4, gens)))
    assert dims == (1, 3, 6, 10, 4)


def test_tower_dims_respect_ring_and_derivative_caps():
    rng = random.Random(43)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        count = rng.randint(1, 3)
        gens = random_forms(nvars, degree, count, rng)
        spans = tower(nvars, degree, gens)
        assert len(spans) == degree + 1
        for j, basis in enumerate(spans):
            assert basis.shape[1] == ring_dim(nvars, j)
            assert len(basis) <= binomial(nvars + j - 1, j)
            assert len(basis) <= count * binomial(nvars + degree - j - 1, degree - j)
        # walking down can multiply dimension by at most nvars
        for lower, upper in zip(spans, spans[1:]):
            assert len(lower) <= nvars * len(upper)


def test_tower_empty_generators():
    # a module needs a generator, so no tower starts from an empty array
    with pytest.raises(ValueError, match="need generator rows"):
        derivative_spaces(InverseModule(3, 2, DEFAULT_PRIME, np.zeros((0, 6), dtype=np.int64)))


def test_levels_below_a_full_level_share_one_read_only_identity():
    # one variable: every level has one monomial, so below the top every
    # level is the same 1 x 1 identity, built once per tower
    levels = derivative_spaces(InverseModule(1, 50, DEFAULT_PRIME, [[3]]))
    assert [level.tolist() for level in levels] == [[[1]]] * 51
    assert len({id(level) for level in levels[:-1]}) == 1
    assert not levels[0].flags.writeable
    # three variables: identities of each size below the full level 2
    levels = tower(3, 3, [form("y1^3 + y2^3 + y3^3 + y1*y2*y3", 3, 3),
                          form("y1^2*y2 + y2^2*y3 + y3^2*y1", 3, 3)])
    assert len(levels[2]) == 6
    for level, size in zip(levels[:2], (1, 3)):
        assert level.tobytes() == np.eye(size, dtype=np.int64).tobytes()
        assert not level.flags.writeable


def test_basis_forms_regenerate_the_same_span():
    rng = random.Random(47)
    gens = random_forms(3, 3, 2, rng)
    spans = tower(3, 3, gens)
    assert span_dimension(3, 2, spans[2]) == len(spans[2])
    regenerated = tower(3, 3, spans[3])
    assert list(map(len, regenerated)) == list(map(len, spans))


@pytest.mark.parametrize("p", (7, 101, DEFAULT_PRIME))
def test_stacked_derivatives_match_the_reference_derivative(p):
    rng = random.Random(61)
    for _ in range(30):
        nvars = rng.randint(1, 4)
        degree = rng.randint(1, 5)
        gens = random_forms(nvars, degree, rng.randint(1, 4), rng, p)
        for d, basis in enumerate(tower(nvars, degree, gens, p)[1:], start=1):
            stacked = spans._stacked_derivatives(basis, nvars, d, p)
            dim = len(basis)
            assert stacked.shape == (nvars * dim, ring_dim(nvars, d - 1))
            for var in range(nvars):
                block = stacked[var * dim:(var + 1) * dim]
                assert block.tolist() == [reference_derivative(nvars, d, row, var, p)
                                          for row in basis]


@pytest.mark.parametrize("per_gather", (1, 2, 3, 4))
def test_stacked_derivatives_keep_the_rows_from_each_start(monkeypatch, per_gather):
    # 5 cubics in 4 variables: each variable's block is 5 rows of 10 quadric
    # coefficients, and _CHUNK_CELLS = 50 k gathers k variables at a time
    nvars, degree, p, rows = 4, 3, 101, 5
    rng = np.random.default_rng(71)
    matrix = rng.integers(0, p, (rows, ring_dim(nvars, degree)), dtype=np.int64)
    blocks = spans._stacked_derivatives(matrix, nvars, degree, p).reshape(nvars, rows, -1)
    monkeypatch.setattr(spans, "_CHUNK_CELLS", per_gather * rows * ring_dim(nvars, degree - 1))
    for starts in ([0] * nvars, [0, 1, 2, 3], [0, 2, rows, 1], [4, 0, 3, rows - 1]):
        stacked = spans._stacked_derivatives(matrix, nvars, degree, p, starts)
        expected = np.concatenate([block[start:] for block, start in zip(blocks, starts)])
        assert stacked.dtype == np.int32 and stacked.shape == expected.shape
        assert stacked.tobytes() == expected.tobytes()


# The growth test's body, run in a fresh interpreter: the bytes CPython's
# free lists keep for spans.py depend on which tests ran before it.  It
# prints the bytes each file gained and what the caches should hold.
GROWTH = """
import json, sys, tracemalloc
from random import Random
from levellab import forms, spans
from levellab.constructions import compressed_generic_module
from levellab.modules import h_vector, module_from_text, module_to_text

def grown(run):
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        run()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return {stat.traceback[0].filename: stat.size_diff
            for stat in after.compare_to(before, "filename") if stat.size_diff > 0}

def tower():
    module = compressed_generic_module(21, 3, 2, Random(5))
    assert h_vector(module).h == (1, 21, 42, 2)

def text():
    assert module_from_text(module_to_text(module)) == module

warm = compressed_generic_module(20, 3, 2, Random(3))
h_vector(warm)
tower_grown = grown(tower)
module_from_text(module_to_text(warm))
module = compressed_generic_module(22, 3, 2, Random(7))
text_grown = grown(text)
strings = forms._monomial_strings(22, 3)
json.dump({"tower_spans": tower_grown.get(spans.__file__, 0),
           "tower_forms": tower_grown.get(forms.__file__, 0),
           "tables": sum(array.nbytes for d in (2, 3) for array in forms.raising_table(21, d)),
           "text_forms": text_grown.get(forms.__file__, 0),
           "strings": sys.getsizeof(strings) + sum(map(sys.getsizeof, strings))}, sys.stdout)
"""


def test_a_tower_pins_no_monomial_table():
    # warm what towers and text share across rings (the prime check, code
    # objects, free lists), then run each in a ring no other test uses.
    # Once the tower's module is dropped, the only new arrays are the
    # raising tables of degrees 3 and 2, cached in forms.py: level 1 is all
    # of R_1, so the tower stops there.  spans.py keeps no array, only the
    # few small lists and tuples that CPython's free lists hold on to.
    # Exponent tuples of 20 or more entries skip CPython's tuple free
    # lists, which would keep freed ones traced.  The slack covers array
    # and cache headers.
    src = str(Path(forms.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", GROWTH], env=env, capture_output=True,
                         text=True, check=True)
    grown = json.loads(run.stdout)
    assert grown["tower_spans"] < 1024
    assert grown["tables"] <= grown["tower_forms"] < grown["tables"] + 8192
    # printing and parsing a module of another fresh ring lists no exponent
    # tuple: of what forms.py allocates, only that ring's tuple of monomial
    # strings stays alive
    assert grown["strings"] <= grown["text_forms"] < grown["strings"] + 8192


def reference_raising_table(nvars, degree):
    """The raising table by a walk over every degree-d monomial and each
    variable it contains: the oracle for the binomial ranks."""
    lower = {m: j for j, m in enumerate(grevlex(nvars, degree - 1))}
    index = np.empty((nvars, len(lower)), dtype=np.int32)
    mult = np.empty_like(index)
    for i, mono in enumerate(grevlex(nvars, degree)):
        for var in compress(range(nvars), mono):
            j = lower[mono[:var] + (mono[var] - 1,) + mono[var + 1:]]
            index[var, j], mult[var, j] = i, mono[var]
    return index, mult


@pytest.mark.parametrize("nvars", range(1, 13))
def test_raising_table_matches_the_monomial_walk(nvars):
    for degree in range(1, 6):
        got = raising_table(nvars, degree)
        for a, b in zip(got, reference_raising_table(nvars, degree)):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
    # few variables and a high degree, where the binomials grow largest
    for a, b in zip(raising_table(2, 300), reference_raising_table(2, 300)):
        assert a.tobytes() == b.tobytes()


def test_rational_dims_see_characteristic():
    # y1^q + y2^q with tiny prime q: over F_q all first partials vanish,
    # which is why a module's prime must exceed its degree
    q = 5
    f = parse_form(f"y1^{q} + y2^{q}", 2, q, q)
    stacked = spans._stacked_derivatives(f[None], 2, q, q)
    assert stacked.shape == (2, q) and not stacked.any()
    with pytest.raises(HypothesisError, match=f"prime {q} "):
        InverseModule(2, q, q, [f])


# ------------------------------------------------------------ blocked kernel


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_kernel_matches_reference_across_panel_widths(p):
    gen = np.random.default_rng(59)
    widths = [1, 2, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH, 2 * _BATCH + 1,
              3 * _BATCH + 7, 150, 300]
    for cols in widths:
        for rows in (1, 3, cols // 2 + 1, cols, cols + 9):
            assert_same_rref(random_residues(gen, rows, cols, p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_kernel_on_tall_and_wide_shapes(p):
    gen = np.random.default_rng(61)
    for rows, cols in ((400, 40), (700, 70), (5, 290), (40, 260), (2, 1000)):
        assert_same_rref(random_residues(gen, rows, cols, p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_kernel_with_rank_deficiency_and_zero_columns(p):
    gen = np.random.default_rng(67)
    for rows, cols, rank in ((120, 200, 37), (90, 150, 90), (250, 110, 70),
                             (60, 300, 1), (80, 130, 0)):
        mat = low_rank(gen, rows, cols, rank, p)
        zero = gen.choice(cols, size=cols // 4, replace=False)
        mat[:, zero] = 0
        # a whole zero column block and repeated rows as well
        mat[:, _BATCH:2 * _BATCH] = 0
        mat[rows // 2:rows // 2 + 5] = mat[:5]
        assert_same_rref(mat, p)


def test_blocked_kernel_with_pivots_on_panel_edges():
    p = DEFAULT_PRIME
    gen = np.random.default_rng(71)
    cols = 4 * _BATCH + 3
    edges = [0, _BATCH - 1, _BATCH, 2 * _BATCH - 1, 2 * _BATCH + 1, 3 * _BATCH,
             4 * _BATCH - 1, 4 * _BATCH]
    echelon = random_residues(gen, len(edges), cols, p)
    for i, col in enumerate(edges):
        echelon[i, :col] = 0
        echelon[i, col] = 1 + i
    for rows in (len(edges), 3 * len(edges)):
        mix = random_residues(gen, rows, len(edges), p)
        mat = (mix.astype(object).dot(echelon.astype(object)) % p).astype(np.int64)
        reduced = rref_mod_p(mat, p)
        assert reduced.tobytes() == reference_rref(mat, p).tobytes()
        assert [int(np.flatnonzero(row)[0]) for row in reduced] == edges


@pytest.mark.parametrize("p", (DEFAULT_PRIME, 65537))
def test_blocked_kernel_with_entries_near_the_modulus(p):
    # p - 1 has every bit of both 16-bit halves set that p allows
    gen = np.random.default_rng(73)
    for rows, cols in ((70, 100), (200, 2 * _BATCH + 5), (33, 97)):
        mat = random_residues(gen, rows, cols, p, lo=p - 40)
        assert_same_rref(mat, p)
        mat[:, ::3] = p - 1
        assert_same_rref(mat, p)


def test_rank_matches_sympy_beyond_one_panel():
    rng = random.Random(79)
    for rows, cols in ((12, 3 * _BATCH), (2 * _BATCH + 6, _BATCH + 9), (30, 2 * _BATCH + 1)):
        mat = small_matrix(rng, rows, cols, lo=0, hi=7)
        # plant dependent rows and columns so the rank falls short of both sides
        for i in range(0, rows, 4):
            mat[i] = mat[(i + 1) % rows] + 2 * mat[(i + 2) % rows]
        for j in range(0, cols, 5):
            mat[:, j] = mat[:, (j + 1) % cols] + mat[:, (j + 3) % cols]
        # sympy's domain matrices over QQ; Matrix.rank is far too slow here
        exact = DomainMatrix.from_list_sympy(rows, cols, mat.tolist())
        assert rank_mod_p(mat, DEFAULT_PRIME) == exact.convert_to(sympy.QQ).rank()


def test_towers_match_reference_kernel(monkeypatch):
    # an r = 18 cubic tower and an r = 16 Gorenstein quartic tower
    cases = [compressed_generic_module(18, 3, 18, Random(83)),
             compressed_generic_module(16, 4, 1, Random(89))]
    blocked = [derivative_spaces(m) for m in cases]
    monkeypatch.setattr(spans, "rref_mod_p", reference_rref)
    for module, got in zip(cases, blocked):
        want = derivative_spaces(module)
        assert list(map(len, got)) == list(map(len, want))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    assert list(map(len, blocked[0])) == [1, 18, 171, 18]
    assert list(map(len, blocked[1])) == [1, 16, 136, 16, 1]


# ------------------------------------------------------------- early exit

EXIT_PRIMES = (101, 65537, DEFAULT_PRIME)


def full_reduction(module):
    """Every level of the tower stacked and reduced by ``reference_rref``,
    with no stop at a full level."""
    p = module.p
    levels = [reference_rref(module.coeffs, p)]
    for degree in range(module.degree, 0, -1):
        stacked = spans._stacked_derivatives(levels[-1], module.nvars, degree, p)
        levels.append(reference_rref(stacked, p))
    return levels[::-1]


def first_full(levels, nvars):
    """The highest degree whose level is all of R_d, or None."""
    full = [d for d in range(1, len(levels)) if len(levels[d]) == ring_dim(nvars, d)]
    return max(full, default=None)


# (nvars, degree, builder, the highest full level): compressed modules full
# at the top and in the middle, and sums of few powers, full nowhere
STOP_CASES = [
    (3, 2, lambda rng, p: compressed_generic_module(3, 2, 6, rng, p), 2),
    (4, 3, lambda rng, p: compressed_generic_module(4, 3, 20, rng, p), 3),
    (6, 3, lambda rng, p: compressed_generic_module(6, 3, 6, rng, p), 2),
    (5, 4, lambda rng, p: compressed_generic_module(5, 4, 2, rng, p), 2),
    (4, 3, lambda rng, p: powers_partition_module(4, 3, (2,), rng, p), None),
    (5, 4, lambda rng, p: powers_partition_module(5, 4, (3,), rng, p), None),
]


@pytest.mark.parametrize("p", EXIT_PRIMES + ("next",))
@pytest.mark.parametrize("nvars, degree, build, full", STOP_CASES)
def test_full_level_stop_matches_the_full_reduction(monkeypatch, p, nvars, degree, build, full):
    p = {2: 3, 3: 5, 4: 5}[degree] if p == "next" else p  # the smallest prime above e
    rng = Random(nvars * 100 + degree)
    while True:
        # small primes make a draw degenerate now and then: draw again
        module = build(rng, p)
        want = full_reduction(module)
        if first_full(want, nvars) == full:
            break
    built = []
    table = spans.raising_table
    monkeypatch.setattr(spans, "raising_table",
                        lambda nvars, d: built.append(d) or table(nvars, d))
    got = derivative_spaces(module)
    # a level of independent rows may come unreduced: it must span the
    # reference level, so it reduces to the same rows and has its length
    assert [a.dtype for a in got] == [np.dtype(np.int64)] * (degree + 1)
    assert [len(a) for a in got] == [len(b) for b in want]
    assert [reference_rref(a, p).tobytes() for a in got] == [b.tobytes() for b in want]
    # no raising table is read at or below a full level
    assert built == list(range(degree, full or 0, -1))


def reference_schedule(matrix, p):
    """For each batch read up to the first that reaches full column rank,
    the number of its rows outside the span of all the rows before it."""
    rows, cols = matrix.shape
    schedule = []
    for lo in range(0, rows, _BATCH):
        batch = matrix[lo:lo + _BATCH].astype(object)
        basis = reference_rref(matrix[:lo], p)
        pivots = [int(np.flatnonzero(row)[0]) for row in basis]
        residual = (batch - batch[:, pivots].dot(basis.astype(object))) % p
        schedule.append(int(residual.any(axis=1).sum()))
        if len(reference_rref(matrix[:lo + _BATCH], p)) == cols:
            break
    return schedule


def full_rank_at(gen, rows, cols, at, p, schedule):
    """A rows x cols matrix whose first ``at`` rows span F_p^cols and whose
    first at - 1 rows do not; with ``at`` None no prefix does.  Small primes
    make a draw degenerate now and then, so it is drawn again until its
    batches hand on the rows a generic draw does, ``schedule``."""
    while True:
        mat = low_rank(gen, rows, cols, cols - 1, p)
        if at is not None:
            mat[at - 1] = random_residues(gen, 1, cols, p)
            mat[at:] = random_residues(gen, rows - at, cols, p)
        if reference_schedule(mat, p) == schedule:
            return mat


def batches_reduced(monkeypatch, matrix, p):
    """The rref of ``matrix`` and, for each batch read, the number of its
    rows left nonzero by the basis, which the pivot steps then reduce: the
    panels of ``_pivot_steps`` on a matrix wider than 2 _BATCH, in-place
    ``_steps`` on a narrower one.  The one pass of a small matrix calls
    ``_steps`` too, but reduces its input by ``%``; only the batch loop
    reduces each batch by ``_mod`` before its steps, so a call counts as a
    batch only after ``_mod`` has run."""
    seen, reduced = [], []
    name = "_pivot_steps" if matrix.shape[1] > 2 * _BATCH else "_steps"
    steps, mod = getattr(spans, name), spans._mod

    def counted_mod(x, p):
        reduced.append(len(x))
        return mod(x, p)

    def counting(a, *args):
        if reduced:
            seen.append(len(a))
        return steps(a, *args)

    monkeypatch.setattr(spans, "_mod", counted_mod)
    monkeypatch.setattr(spans, name, counting)
    return rref_mod_p(matrix, p), seen


# Batches hold 32 rows; below full rank a generic matrix of rank cols - 1
# leaves 32 new rows in the first batch and cols - 1 - 32 in the second.
@pytest.mark.parametrize("p", EXIT_PRIMES)
@pytest.mark.parametrize("rows, cols, at, batches", [
    (100, 10, 20, [_BATCH]),                    # inside the first batch
    (200, 40, 40, [_BATCH, _BATCH]),            # inside the second batch
    (200, 40, 80, [_BATCH, _BATCH, 17]),        # inside a later batch
    (203, 40, 203, [_BATCH] * 2 + [0] * 4 + [1]),  # only at the last row, in a short batch
    (203, 40, None, [_BATCH] * 2 + [0] * 5),    # never
    (200, 32, 32, [_BATCH]),                    # at the end of the first batch
    (200, 40, 96, [_BATCH, _BATCH, 1]),         # at a later batch boundary
])
def test_early_exit_matches_reference(monkeypatch, p, rows, cols, at, batches):
    gen = np.random.default_rng(101)
    mat = full_rank_at(gen, rows, cols, at, p, batches)
    want = reference_rref(mat, p)
    if at is not None:
        assert len(reference_rref(mat[:at - 1], p)) < cols == len(want)
    got, seen = batches_reduced(monkeypatch, mat, p)
    assert seen == batches
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_tall_matrices_with_zero_columns_match_reference(p):
    gen = np.random.default_rng(103)
    for rows, cols in ((150, 50), (97, 33), (400, 2 * _BATCH)):
        # a zero column keeps any number of further rows short of full rank
        mat = random_residues(gen, rows, cols, p)
        mat[:, cols // 3] = 0
        assert_same_rref(mat, p)
    for rows in (1, _BATCH, _BATCH + 1, 100):
        assert_same_rref(np.zeros((rows, 0), dtype=np.int64), p)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_rank_growing_across_batches_matches_reference(p):
    # Each block of 40 rows mixes more directions of a 36-dimensional span.
    # The first nine miss the even columns, so later pivots fall between
    # earlier ones and the basis must be back-substituted and re-sorted.
    gen = np.random.default_rng(109)
    cols = 40
    span = random_residues(gen, 36, cols, p)
    span[:9, ::2] = 0
    blocks = []
    for rows, dim in ((40, 9), (40, 20), (40, 20), (40, 36), (7, 30)):
        mix = random_residues(gen, rows, dim, p)
        blocks.append(mix.astype(object).dot(span[:dim].astype(object)) % p)
    mat = np.vstack(blocks).astype(np.int64)
    want = reference_rref(mat, p)
    assert len(reference_rref(mat[:40], p)) == 9 and len(want) == 36
    assert_same_rref(mat, p)


# ------------------------------------------------- panels and deferred blocks


def dependent_panel(gen, rows, cols, p):
    """rows x cols residues whose first _BATCH columns have rank 10, so a
    batch of more rows takes the rest of its pivots from a second panel."""
    mat = random_residues(gen, rows, cols, p)
    mat[:, :_BATCH] = low_rank(gen, rows, _BATCH, 10, p)
    return mat


def interleaved(gen, p):
    """Three batches of a 60-dimensional span in 200 columns, every seventh
    column zero.  The first batch only mixes directions that vanish on the
    odd columns, so the live columns of the later batches interleave with
    its pivots and with the zero columns."""
    cols = 200
    span = random_residues(gen, 60, cols, p)
    span[:20, 1::2] = 0
    span[:, ::7] = 0
    first = random_residues(gen, _BATCH, 20, p).astype(object).dot(span[:20].astype(object))
    later = random_residues(gen, 2 * _BATCH, 60, p).astype(object).dot(span.astype(object))
    return (np.vstack([first, later]) % p).astype(np.int64)


def many_blocks(gen, p):
    """Rank 230 in 250 columns, 20 of them zero: eight batches add rows to
    the basis, and the rank stays short of the columns, so all of them are
    back-substituted."""
    mat = random_residues(gen, 400, 250, p)
    mat[:, gen.choice(250, size=20, replace=False)] = 0
    return mat


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_pivots_from_a_second_panel_match_reference(p):
    gen = np.random.default_rng(113)
    for rows in (_BATCH, _BATCH + 9):
        mat = dependent_panel(gen, rows, 3 * _BATCH + 10, p)
        assert len(reference_rref(mat[:, :_BATCH], p)) == 10
        assert_same_rref(mat, p)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_live_columns_between_earlier_pivots_match_reference(p):
    gen = np.random.default_rng(127)
    mat = interleaved(gen, p)
    first = reference_rref(mat[:_BATCH], p)
    assert len(first) == 20 and len(reference_rref(mat, p)) == 60
    assert not first[:, 1::2].any() and not mat[:, ::7].any()
    assert_same_rref(mat, p)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_many_blocks_back_substituted_match_reference(monkeypatch, p):
    gen = np.random.default_rng(131)
    mat = many_blocks(gen, p)
    got, seen = batches_reduced(monkeypatch, mat, p)
    assert sum(1 for rows in seen if rows) >= 6
    assert got.tobytes() == reference_rref(mat, p).tobytes()


def test_narrow_batches_take_no_panel_product(monkeypatch):
    # A matrix at most 2 _BATCH columns wide, of any height, reduces every
    # batch by in-place pivot steps and never enters the panel loop; a
    # wider one reduces every batch by panels, even of one or two rows.
    p = DEFAULT_PRIME
    gen = np.random.default_rng(137)
    inside = []
    steps, product = spans._pivot_steps, spans._matmul_mod

    def tracked_steps(a, p):
        entered.append(len(a))
        inside.append(True)
        try:
            return steps(a, p)
        finally:
            inside.pop()

    def counted_product(x, y, p):
        calls.append(bool(inside))
        return product(x, y, p)

    monkeypatch.setattr(spans, "_pivot_steps", tracked_steps)
    monkeypatch.setattr(spans, "_matmul_mod", counted_product)
    for rows, cols in ((_BATCH, 2 * _BATCH), (200, 2 * _BATCH), (150, 50), (_BATCH, 1)):
        calls, entered = [], []
        assert_same_rref(random_residues(gen, rows, cols, p), p)
        assert not entered and not any(calls)
    for rows in (1, 2 * _BATCH + 1, 400):
        # rank short of the columns, so every batch is read
        calls, entered = [], []
        assert_same_rref(low_rank(gen, rows, 2 * _BATCH, 40, p), p)
        assert not entered and not any(calls)
    for rows, cols in ((1, 3 * _BATCH), (2, 3 * _BATCH), (_BATCH, 2 * _BATCH + 1)):
        calls, entered = [], []
        assert_same_rref(random_residues(gen, rows, cols, p), p)
        assert entered == [rows] and any(calls)


def test_products_at_the_inner_bound_stay_exact():
    # left halves at their largest (0x7FFF high in p - 1, 0xFFFF low in
    # p - 2^16) against 64 inner terms of the largest residue carry the
    # float64 sums to 64 (2^31 - 2)(2^16 - 1) = 2^53 - 2^37 - 2^23 + 2^7,
    # the closest to 2^53 the kernel's products come
    p = DEFAULT_PRIME
    x = np.full((3, 64), p - 1, dtype=np.int64)
    x[1] = p - 2**16
    x[2, ::7] = np.arange(10) + p - 40
    y = np.full((64, 2), p - 1, dtype=np.int64)
    assert 64 * (p - 1) * (2**16 - 1) == 2**53 - 2**37 - 2**23 + 2**7
    got = spans._matmul_mod(spans._halves(x), y.astype(np.float64), p)
    want = x.astype(object).dot(y.astype(object)) % p
    assert (got >= 0).all()
    assert (got % p).tolist() == want.tolist()
    with pytest.raises(SoundnessError, match="65"):
        spans._matmul_mod(spans._halves(np.ones((2, 65), dtype=np.int64)), np.ones((65, 3)), p)


def test_the_modulus_is_read_by_value():
    # the kernel's inverses take a plain int: a numpy prime used to end in
    # pow's TypeError, a float one in numpy's
    mat = np.array([[3, 5, 1], [6, 1, 4], [2, 2, 2]])
    want = rref_mod_p(mat, 101)
    for p in (np.int64(101), np.int32(101)):
        assert rref_mod_p(mat, p).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="prime must be an integer, got 101.0"):
        rref_mod_p(mat, 101.0)


@pytest.mark.parametrize("p", (0, 1, -7, 2**31, 2**32 - 5, 2**61 - 1))
def test_modulus_outside_the_int64_range_refused(p):
    with pytest.raises(HypothesisError, match=str(p)):
        rref_mod_p(np.eye(3, dtype=np.int64), p)


@pytest.mark.parametrize("matrix, p", [
    (np.eye(3, dtype=np.int64), 4),  # answered rank 3
    ([[3, 1], [1, 1]], 2**31 - 3),  # answered rank 2
    ([[2, 1], [1, 1]], 4),  # raised ValueError: 2 has no inverse mod 4
    (np.eye(80, dtype=np.int64), 91),  # past the one-pass size
])
def test_composite_modulus_refused(matrix, p):
    with pytest.raises(HypothesisError, match=f"modulus {p} is not prime"):
        rank_mod_p(matrix, p)


@pytest.mark.parametrize("per_batch, batches", [(1, 200), (2, 100)])
def test_a_slowly_growing_rank_keeps_few_blocks(monkeypatch, per_batch, batches):
    # batch k of 32 rows mixes the first (k + 1) per_batch rows of a random
    # basis, so each batch adds per_batch pivots.  The last block takes the
    # new rows in while it stays within 64 rows, so a batch is cleared
    # against at most rank / _BATCH + 1 blocks, plus one clear to merge.
    # One block per batch takes 39,800 clears on the first matrix, where
    # this takes 614 (306 on the second).
    p, ncols = 32003, 300
    rng = np.random.default_rng(11)
    rank = per_batch * batches
    mix = rng.integers(0, p, (batches * _BATCH, rank))
    for k in range(batches):
        mix[k * _BATCH:(k + 1) * _BATCH, (k + 1) * per_batch:] = 0
    matrix = mix @ rng.integers(0, p, (rank, ncols)) % p  # below 2^38 before the %
    calls = 0
    clear = spans._Block.clear

    def counted(*args):
        nonlocal calls
        calls += 1
        clear(*args)

    monkeypatch.setattr(spans._Block, "clear", counted)
    assert rank_mod_p(matrix, p) == rank
    blocks = rank // _BATCH + 1
    # the clears of every batch, then back-substitution once per pair of blocks
    assert calls <= batches * (blocks + 1) + blocks * (blocks - 1) // 2


def test_rank_probe_beyond_2_31_refused():
    # here int64 products would overflow; the old kernel reported rank 4
    # for 49 of 50 of these rank-3 matrices
    rng = random.Random(97)
    p = 2**32 - 5
    for _ in range(5):
        base = small_matrix(rng, 3, 6, lo=1, hi=p)
        mat = np.vstack([base, base[0] + base[1]])
        with pytest.raises(HypothesisError):
            rank_mod_p(mat, p)
    assert rank_mod_p(mat % DEFAULT_PRIME, DEFAULT_PRIME) == 3


# ------------------------------------------------ reductions and block clears


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_floor_division_remainder_matches_percent(p):
    gen = np.random.default_rng(139)
    # besides random values, the extremes the kernel reduces: products of
    # _matmul_mod below 2^54, its high half below 63 (2^31 - 1) 2^15, and
    # a clear's difference, a residue minus a product, above -2^54
    edges = [-2**62, 2**62, 2**54 - 1, -(2**54 - 1), 63 * (2**31 - 1) * 0x7FFF,
             0, 1, -1, p - 1, p, p + 1, -p + 1, -p, -p - 1]
    x = np.concatenate([np.array(edges, dtype=np.int64),
                        gen.integers(-2**62, 2**62, size=5000, dtype=np.int64, endpoint=True)])
    want = x % p
    assert spans._mod(x, p) is x
    assert x.tobytes() == want.tobytes()


def late_left_pivots(gen, p):
    """A first batch zero on the first 40 of 150 columns, of rank 20, then
    two batches of full rows, whose pivots fall left of the first block's
    first pivot.  The short first block takes the second batch in, and the
    rank, 84, stays short of the columns, so every block is
    back-substituted."""
    first = low_rank(gen, _BATCH, 110, 20, p)
    later = random_residues(gen, 2 * _BATCH, 150, p)
    return np.vstack([np.hstack([np.zeros((_BATCH, 40), dtype=np.int64), first]), later])


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_pivots_left_of_the_first_block_match_reference(p):
    mat = late_left_pivots(np.random.default_rng(149), p)
    first, want = reference_rref(mat[:_BATCH], p), reference_rref(mat, p)
    assert len(first) == 20 and int(np.flatnonzero(first[0])[0]) >= 40
    assert len(want) == 84 and want[0, 0] == 1
    assert_same_rref(mat, p)


def test_clears_write_from_the_first_pivot_on(monkeypatch):
    # a block's rows are zero left of its first pivot, so every clear by a
    # block writes the columns from that pivot on only, and its one cached
    # float copy is as wide as the columns it writes
    p = DEFAULT_PRIME
    clear = spans._Block.clear
    widths = []

    def checked(block, a, p):
        start = int(block.cols.min())
        left = a[:, :start].copy()
        assert not block.rows[:, :start].any()
        clear(block, a, p)
        assert (a[:, :start] == left).all()
        assert block.floats.dtype == np.float64
        assert block.floats.shape == (len(block.rows), a.shape[1] - start)
        widths.append(a.shape[1] - start)

    monkeypatch.setattr(spans._Block, "clear", checked)
    gen = np.random.default_rng(151)
    for mat in (late_left_pivots(gen, p), many_blocks(gen, p)):
        assert_same_rref(mat, p)
    # the first block of late_left_pivots starts at column 40 or later
    assert widths and min(widths) <= 110


@pytest.mark.parametrize("matrix", [
    [[1.5, 2]],
    np.array([[1.5, 2.0]]),
    np.array([[1.0, 2.0]]),
    np.array([["1", "2"]]),
    [[2**70, 1]],
    np.array([[2**63, 1]], dtype=np.uint64),
])
def test_non_integer_matrices_refused(matrix):
    # a cast to int64 would truncate, parse or wrap these into other residues
    with pytest.raises(ValueError, match="integers"):
        rref_mod_p(matrix, 7)


def test_integer_matrices_of_any_width_reduce_alike():
    want = rref_mod_p(np.array([[3, 5], [6, 1]], dtype=np.int64), 7)
    for dtype in (np.int8, np.int32, np.uint16, np.uint64, object):
        got = rref_mod_p(np.array([[3, 5], [6, 1]], dtype=dtype), 7)
        assert got.tobytes() == want.tobytes()
    extremes = [[2**63 - 1, -2**63], [1, 1]]
    want = reference_rref(np.array(extremes, dtype=np.int64), 7)
    for matrix in (extremes, np.array(extremes, dtype=object)):
        assert rref_mod_p(matrix, 7).tobytes() == want.tobytes()
    top = [[2**63 - 2, 1]]
    assert rref_mod_p(np.array(top, dtype=np.uint64), 7).tolist() == [[1, 6]]


# --------------------------------------------------- one pass on small matrices


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_small_matrices_take_one_pass_and_match_reference(monkeypatch, p):
    # up to 2 _BATCH rows and columns the pivot steps run once over the
    # whole matrix; one more row or column takes the batched kernel
    gen = np.random.default_rng(157)
    small, large = 2 * _BATCH, 2 * _BATCH + 1
    for rows, cols in ((small - 1, small), (small, small), (small, small - 1),
                       (large, small), (small, large), (large, large)):
        for mat in (random_residues(gen, rows, cols, p),
                    low_rank(gen, rows, cols, min(rows, cols) // 3, p)):
            mat[:, cols // 2] = 0
            want = reference_rref(mat, p)
            got, batches = batches_reduced(monkeypatch, mat, p)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert (not batches) == (rows <= small and cols <= small)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_one_pass_at_full_rank_and_without_columns(monkeypatch, p):
    gen = np.random.default_rng(163)
    # tall and square full rank reduce to the identity
    for rows, cols in ((2 * _BATCH, 20), (40, 40), (3, 3), (1, 1)):
        got, batches = batches_reduced(monkeypatch, random_residues(gen, rows, cols, p), p)
        assert not batches
        assert got.tobytes() == np.eye(cols, dtype=np.int64).tobytes()
    for rows in (0, 1, 2 * _BATCH):
        for cols in (0, 5):
            mat = np.zeros((rows, cols), dtype=np.int64)
            got, batches = batches_reduced(monkeypatch, mat, p)
            assert not batches
            assert got.shape == (0, cols) == reference_rref(mat, p).shape
    # a zero column and repeated rows keep it short of full rank
    mat = random_residues(gen, 2 * _BATCH, 30, p)
    mat[:, 7] = 0
    mat[1::2] = mat[::2]
    got, batches = batches_reduced(monkeypatch, mat, p)
    assert not batches and len(got) == 29
    assert got.tobytes() == reference_rref(mat, p).tobytes()


def test_one_pass_leaves_its_input_as_it_was():
    module = compressed_generic_module(4, 2, 3, Random(167))
    before = module.coeffs.copy()
    assert len(rref_mod_p(module.coeffs, module.p)) == 3
    assert np.array_equal(module.coeffs, before)
    mat = np.array([[2, 4], [1, 3]], dtype=np.int32)
    assert rref_mod_p(mat, 7).tolist() == [[1, 0], [0, 1]]
    assert mat.tolist() == [[2, 4], [1, 3]]


# ------------------------------------------------------------ chunked partials


def partials_one_variable_at_a_time(matrix, nvars, degree, p):
    index, mult = raising_table(nvars, degree)
    return np.vstack([matrix[:, index[var]] * mult[var] % p for var in range(nvars)])


@pytest.mark.parametrize("p", EXIT_PRIMES)
@pytest.mark.parametrize("nvars, degree, count, gathers", [
    (5, 3, 2, [5]),          # 5 x 2 x 15 cells in all: one gather
    (4, 4, 3, [4]),
    (30, 3, 30, [1] * 30),   # 30 x 465 = 13,950 cells a variable: one each
    (22, 3, 40, [1] * 22),
])
def test_chunked_partials_match_gathers_one_variable_at_a_time(monkeypatch, p, nvars, degree,
                                                                count, gathers):
    matrix = rref_mod_p(compressed_generic_module(nvars, degree, count, Random(nvars), p).coeffs, p)
    seen = []
    reduce = spans._mod

    def counted(x, p):
        seen.append(x.shape[1])  # the gather is rows x variables x monomials
        return reduce(x, p)

    monkeypatch.setattr(spans, "_mod", counted)
    got = spans._stacked_derivatives(matrix, nvars, degree, p)
    assert got.dtype == np.int32 and got.shape == (nvars * len(matrix), ring_dim(nvars, degree - 1))
    assert got.tolist() == partials_one_variable_at_a_time(matrix, nvars, degree, p).tolist()
    assert seen == gathers


# ------------------------------------------------------- partials read lazily


@pytest.mark.parametrize("p", EXIT_PRIMES)
@pytest.mark.parametrize("nvars, degree, rows, starts", [
    (4, 3, 5, None),
    (4, 3, 5, [4, 0, 5, 1]),  # an empty block, and blocks of one row
    (6, 4, 12, None),
    (6, 4, 12, [0, 12, 12, 3, 11, 7]),
    (30, 3, 3, None),  # more variables than a batch has rows
])
def test_partials_read_as_their_stack(p, nvars, degree, rows, starts):
    # the lazy level is the stack it stands for: as a whole, byte for byte,
    # and in every batch read, as int64 residues
    rng = np.random.default_rng(nvars * 100 + rows)
    basis = rng.integers(0, p, (rows, ring_dim(nvars, degree)), dtype=np.int64)
    source = spans._Partials(basis, nvars, degree, p, starts)
    want = spans._stacked_derivatives(basis, nvars, degree, p, starts)
    assert source.shape == want.shape and len(source) == len(want)
    got = np.asarray(source)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array(source, dtype=np.int64).tobytes() == want.astype(np.int64).tobytes()
    total = len(want)
    cuts = [(0, total), (0, _BATCH), (total - 1, total), (3, total + _BATCH)]
    cuts += [tuple(sorted(rng.integers(0, total + 1, 2))) for _ in range(20)]
    for lo, hi in cuts:
        batch = source.read(int(lo), int(hi))
        assert batch.dtype == np.int64
        assert batch.tobytes() == want[lo:hi].astype(np.int64).tobytes()


def test_a_tall_wide_level_is_read_only_up_to_full_rank(monkeypatch):
    # the 900 x 465 stack of all first partials of an r = 30 compressed
    # cubic tower reaches full rank after about half its rows: those rows
    # are gathered batch by batch, and the level is never stacked
    read, stacked = [], []
    partials_read, stack = spans._Partials.read, spans._stacked_derivatives

    def counted(source, lo, hi):
        batch = partials_read(source, lo, hi)
        read.append((source.shape, len(batch)))
        return batch

    def recorded(*args):
        out = stack(*args)
        stacked.append(out.shape)
        return out

    monkeypatch.setattr(spans._Partials, "read", counted)
    monkeypatch.setattr(spans, "_stacked_derivatives", recorded)
    module = compressed_generic_module(30, 3, 30, Random(5))
    assert h_vector(module).h == (1, 30, 465, 30)
    assert {shape for shape, _ in read} == {(900, 465)}
    assert 465 <= sum(rows for _, rows in read) <= 512
    assert (900, 465) not in stacked


# h_vector's traced peak on an r = 30 compressed cubic tower, in a fresh
# interpreter so that no cached raising table lowers it
PEAK = """
import tracemalloc
from random import Random
from levellab.constructions import compressed_generic_module
from levellab.modules import h_vector

tracemalloc.start()
assert h_vector(compressed_generic_module(30, 3, 30, Random(5))).h == (1, 30, 465, 30)
print(tracemalloc.get_traced_memory()[1])
"""


def test_a_tall_wide_level_keeps_the_tower_peak_low():
    # stacking the 900 x 465 level, with halves cached for every block,
    # peaked at 8.2 MiB
    src = str(Path(forms.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", PEAK], env=env, capture_output=True,
                         text=True, check=True)
    assert int(run.stdout) < 7 * 2**20


# ---------------------------------------------------------- two pivots a step


def test_pair_sums_fit_int64_below_the_prime_limit():
    # a two-pivot update subtracts two products of residues of p - 1 at
    # most, so raising PRIME_LIMIT must fail here, not wrap in numpy's
    # integer products, which do not warn on overflow
    assert 2 * (PRIME_LIMIT - 2) ** 2 < 2**63
    assert 2 * (DEFAULT_PRIME - 1) ** 2 == 2**63 - 2**34 + 8


def assert_same_steps(matrix, p, pivot, stop):
    want, cols = reference_steps(matrix, p, pivot, stop)
    got = np.array(matrix, dtype=np.int64) % p
    assert spans._steps(got, p, pivot, stop) == cols
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_entries_of_p_minus_one_match_reference(p):
    # below an identity block every other row is p - 1, so at 2^31 - 1 the
    # first step's sums reach 2 (p - 1)^2 = 2^63 - 2^34 + 8
    for rows, cols in ((5, 7), (2 * _BATCH, 2 * _BATCH), (40, 200)):
        mat = np.full((rows, cols), p - 1, dtype=np.int64)
        assert_same_rref(mat, p)
        mat[:2, :2] = np.eye(2, dtype=np.int64)
        assert_same_rref(mat, p)
        assert_same_steps(mat, p, 0, cols)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_singular_leading_blocks_match_reference(p):
    # the second row is a multiple of the first on the two columns only,
    # or zero there, so the block is singular though the rows are not
    gen = np.random.default_rng(173)
    for rows, cols in ((6, 9), (2 * _BATCH, 2 * _BATCH), (_BATCH, 3 * _BATCH)):
        for factor in (0, 1, 2, p - 1):
            mat = random_residues(gen, rows, cols, p)
            mat[1, :2] = mat[0, :2] * factor % p
            assert_same_rref(mat, p)
            assert_same_steps(mat, p, 0, cols)
        # a zero pivot with an invertible block swaps the two rows
        mat[0, 0] = 0
        assert_same_rref(mat, p)
        # a singular block every second step, and one zero in the first column
        mat[1::2, :cols // 2] = mat[::2, :cols // 2][:len(mat[1::2])] * 3 % p
        mat[0, :2] = 0
        assert_same_rref(mat, p)
        assert_same_steps(mat, p, 0, cols)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_singular_blocks_pair_with_a_later_row_match_reference(p):
    # rows pivot + 1 .. pivot + 3 are zero on the first two columns, or a
    # multiple of the pivot row there, so the step swaps up the first row
    # after them, the one the one-pivot steps would take next; on six rows
    # from pivot 2 no row is left to pair with
    gen = np.random.default_rng(191)
    for rows, cols in ((6, 9), (2 * _BATCH, 2 * _BATCH), (_BATCH, 3 * _BATCH - 1)):
        for pivot in (0, 1, 2):
            mat = random_residues(gen, rows, cols, p)
            for row, factor in zip(range(pivot + 1, pivot + 4), (0, 1, p - 1)):
                mat[row, :2] = mat[pivot, :2] * factor % p
            for stop in (cols, cols - 1 - cols % 2, 3):
                assert_same_steps(mat, p, pivot, stop)
            assert_same_rref(mat, p)
    # stacked partials of a module with the pure power of a new variable:
    # sparse rows, singular with the pivot row on several steps
    for base in (powers_partition_module(4, 3, (2, 2), Random(3), p),
                 compressed_generic_module(4, 3, 2, Random(3), p)):
        module = add_new_variable_power(base)
        stack = spans._stacked_derivatives(module.coeffs, module.nvars, module.degree, p)
        for pivot in (0, 1):
            for stop in (stack.shape[1], stack.shape[1] - 2):
                assert_same_steps(stack, p, pivot, stop)
        assert_same_rref(stack, p)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_steps_up_to_stop_from_any_pivot_match_reference(p):
    # panels call the steps on [panel | I] from a pivot past the rows
    # already found, up to the panel's width: an odd width leaves a last
    # column that a pair would cross, and the last row is one pivot alone
    gen = np.random.default_rng(179)
    for rows, width in ((7, 5), (_BATCH, 2 * _BATCH - 1), (9, 4), (3, 8)):
        panel = np.hstack([random_residues(gen, rows, width, p),
                           np.eye(rows, dtype=np.int64)])
        for pivot in (0, 1, 2, rows - 1):
            for stop in (width, width - 1, 1):
                assert_same_steps(panel, p, pivot, stop)
    for rows, cols in ((1, 5), (1, 1), (3, 1), (2, 2)):
        assert_same_rref(random_residues(gen, rows, cols, p), p)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_panels_from_a_later_pivot_match_reference(monkeypatch, p):
    # a first panel of rank 10 leaves rows of a 32-row batch unpivoted, so
    # the next panel's steps start at pivot 10, and zero columns from
    # 2 _BATCH - 1 on leave that panel 31 columns wide
    gen = np.random.default_rng(181)
    calls = []
    steps = spans._steps

    def recorded(a, p, pivot, stop):
        calls.append((pivot, stop))
        return steps(a, p, pivot, stop)

    monkeypatch.setattr(spans, "_steps", recorded)
    for rows in (5, _BATCH):
        mat = dependent_panel(gen, rows, 4 * _BATCH + 3, p)
        mat[:, 2 * _BATCH - 1:] = 0
        assert_same_rref(mat, p)
    assert (10, _BATCH - 1) in calls


# ------------------------------------------------------- unreduced levels

# (nvars, degree, count, rows of each stack): the top levels stay
# unreduced, so the k-th stack under them lists each order-k derivative of
# the generators once, t C(r + k - 1, k) rows; a reduced level resets
# that, as (6, 5, 1) shows: its level 3 spans 56 columns and is reduced,
# and the stack under it takes all six partials of each of its 21 rows
UNREDUCED_CASES = [
    (9, 4, 1, [9, 45]),
    (8, 4, 2, [16, 72]),
    (6, 5, 1, [6, 21, 126]),
    (7, 5, 1, [7, 28, 84]),
]


@pytest.mark.parametrize("p", EXIT_PRIMES + ("next",))
@pytest.mark.parametrize("nvars, degree, count, stacks", UNREDUCED_CASES)
def test_unreduced_levels_span_the_full_reduction(monkeypatch, p, nvars, degree, count, stacks):
    p = {4: 5, 5: 7}[degree] if p == "next" else p  # the smallest prime above e
    rng = Random(nvars * 100 + degree)
    expected = list(expected_h_compressed(nvars, degree, count))
    while True:
        # small primes make a draw degenerate now and then: draw again
        module = compressed_generic_module(nvars, degree, count, rng, p)
        want = full_reduction(module)
        if list(map(len, want)) == expected:
            break
    seen, widths = [], []
    stack, rref = spans._stacked_derivatives, spans.rref_mod_p
    monkeypatch.setattr(spans, "_stacked_derivatives",
                        lambda *args: seen.append(stack(*args)) or seen[-1])
    monkeypatch.setattr(spans, "rref_mod_p",
                        lambda matrix, p: widths.append(matrix.shape[1]) or rref(matrix, p))
    got = derivative_spaces(module)
    assert [a.dtype for a in got] == [np.dtype(np.int64)] * (degree + 1)
    assert list(map(len, got)) == expected
    assert [reference_rref(a, p).tobytes() for a in got] == [b.tobytes() for b in want]
    assert [len(a) for a in seen] == stacks
    # the levels over more than 2 _BATCH columns are only checked there,
    # and come as they are, unreduced
    wide = sum(ring_dim(nvars, d) > 2 * _BATCH for d in range(degree + 1))
    assert widths[:wide] == [2 * _BATCH] * wide and max(widths[wide:]) <= 2 * _BATCH


def test_an_unreduced_int32_stack_is_differentiated_in_int64(monkeypatch):
    # at 2^31 - 1 a residue times an exponent up to 4 passes 2^31, so the
    # int32 stack of a level kept unreduced must be read as int64
    module = compressed_generic_module(9, 4, 1, Random(7))
    want = full_reduction(module)
    seen = []
    stack = spans._stacked_derivatives

    def recorded(matrix, *args):
        out = stack(matrix, *args)
        seen.append((matrix.dtype, out.dtype))
        return out

    monkeypatch.setattr(spans, "_stacked_derivatives", recorded)
    got = derivative_spaces(module)
    assert seen == [(np.dtype(np.int64), np.dtype(np.int32))] * 2
    assert [reference_rref(a, DEFAULT_PRIME).tobytes() for a in got] == [b.tobytes() for b in want]


def test_dependent_rows_of_a_wide_level_are_reduced():
    # R_4 in five variables has 70 monomials: three rows, the third the
    # sum of the first two, fail the check on the first 2 _BATCH columns
    rows = random_residues(np.random.default_rng(191), 2, ring_dim(5, 4), DEFAULT_PRIME)
    rows = np.vstack([rows, rows.sum(axis=0) % DEFAULT_PRIME])
    with pytest.raises(DependentGeneratorsError) as err:
        h_vector(InverseModule(5, 4, DEFAULT_PRIME, rows))
    assert (err.value.presented, err.value.rank) == (3, 2)


@pytest.mark.parametrize("p", EXIT_PRIMES)
def test_independent_rows_zero_on_the_checked_columns_are_reduced(p):
    # the pure power of a new seventh variable is the last unit vector of
    # R_3's 84 monomials: zero on the first 2 _BATCH columns, so the check
    # fails on independent rows
    module = add_new_variable_power(compressed_generic_module(6, 3, 2, Random(193), p))
    assert not module.coeffs[-1, :2 * _BATCH].any()
    got = derivative_spaces(module)
    want = full_reduction(module)
    assert list(map(len, got)) == [1, 7, 13, 3]
    assert [reference_rref(a, p).tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("degree", (4, 3))
def test_truncate_level_prints_the_reduced_level(degree):
    module = compressed_generic_module(9, 4, 1, Random(197))
    want = module_to_text(InverseModule(9, degree, module.p, full_reduction(module)[degree]))
    assert module_to_text(truncate_level(module, degree)) == want
    # the tower keeps this level unreduced, and its text differs
    raw = derivative_spaces(module)[degree]
    assert module_to_text(InverseModule(9, degree, module.p, raw)) != want
