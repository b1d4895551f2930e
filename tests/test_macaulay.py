"""Tests for the integer growth layer.

The Macaulay bound is checked against a brute-force lex-segment count and
binomials against a Pascal triangle, so the closed formulas never certify
themselves.
"""

import random

import numpy as np
import pytest

from levellab.macaulay import (
    GrowthViolation,
    HVector,
    binomial,
    binomial_expansion,
    first_difference,
    is_admissible,
    is_o_sequence,
    is_si_sequence,
    macaulay_upper_bound,
    o_sequence_violation,
    shift_expansion,
)


# ---------------------------------------------------------------- oracles


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        tri.append(row)
    return tri


def monomials(r, d):
    if r == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in monomials(r - 1, d - first))
    return out


def lex_segment_growth(n, d, r):
    """Degree d+1 count of the lex-segment quotient holding n monomials in
    degree d: remove the multiples of the lex-greatest complement."""
    degree_d = sorted(monomials(r, d), reverse=True)
    ideal_piece = degree_d[: len(degree_d) - n]
    multiples = set()
    for mono in ideal_piece:
        for var in range(r):
            bumped = list(mono)
            bumped[var] += 1
            multiples.add(tuple(bumped))
    return len(monomials(r, d + 1)) - len(multiples)


# ---------------------------------------------------------------- binomial


def test_binomial_matches_pascal_triangle():
    tri = pascal_triangle(40)
    for n in range(40):
        for k in range(n + 1):
            assert binomial(n, k) == tri[n][k]


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(4, -2) == 0
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1


# ------------------------------------------------------------- expansions


def all_expansions(n, i):
    """Every decomposition n = C(m_i, i) + ... + C(m_j, j) with strictly
    decreasing tops, consecutive bottoms ending at j >= 1, and m_k >= k."""
    found = []

    def extend(remainder, k, top_cap, acc):
        if remainder == 0:
            found.append(tuple(acc))
            return
        if k == 0:
            return
        for m in range(k, top_cap):
            c = binomial(m, k)
            if 0 < c <= remainder:
                extend(remainder - c, k - 1, m, acc + [(m, k)])

    extend(n, i, n + i + 2, [])
    return found


def test_expansion_frozen_examples():
    assert binomial_expansion(25, 2).terms == ((7, 2), (4, 1))
    assert binomial_expansion(8, 3).terms == ((4, 3), (3, 2), (1, 1))
    assert binomial_expansion(1, 4).terms == ((4, 4),)
    assert str(binomial_expansion(25, 2)) == "C(7,2)+C(4,1)"


def test_expansion_is_the_unique_valid_decomposition():
    for n in range(1, 45):
        for i in range(1, 4):
            candidates = all_expansions(n, i)
            assert len(candidates) == 1, (n, i, candidates)
            assert binomial_expansion(n, i).terms == candidates[0]


def test_expansion_reconstruction_full_range():
    for n in range(1, 5001):
        for i in range(1, 9):
            exp = binomial_expansion(n, i)
            assert exp.value == n
            tops = [t for t, _ in exp.terms]
            bots = [b for _, b in exp.terms]
            assert tops == sorted(tops, reverse=True)
            assert len(set(tops)) == len(tops)
            assert bots == list(range(i, i - len(bots), -1))
            assert bots[-1] >= 1
            assert all(t >= b for t, b in exp.terms)


def test_expansion_rejects_nonpositive():
    with pytest.raises(ValueError):
        binomial_expansion(0, 2)
    with pytest.raises(ValueError):
        binomial_expansion(5, 0)
    with pytest.raises(ValueError):
        binomial_expansion(-3, 1)


def test_shift_identity_and_frozen_values():
    for n, i in [(1, 1), (7, 2), (25, 2), (100, 5), (4999, 8)]:
        exp = binomial_expansion(n, i)
        assert shift_expansion(exp, 0) == n
    assert shift_expansion(binomial_expansion(25, 2), -1) == 7
    assert shift_expansion(binomial_expansion(5, 2), 1) == 7


def test_shift_below_zero_index_is_an_error():
    exp = binomial_expansion(25, 2)  # ends in C(4,1)
    with pytest.raises(ValueError):
        shift_expansion(exp, -2)


# ----------------------------------------------------------- growth bound


def test_macaulay_bound_frozen_values():
    assert macaulay_upper_bound(5, 2) == 7
    assert macaulay_upper_bound(6, 2) == 10
    assert macaulay_upper_bound(3, 1) == 6
    assert macaulay_upper_bound(2, 2) == 2
    assert macaulay_upper_bound(3, 2) == 4
    for d in range(1, 9):
        assert macaulay_upper_bound(1, d) == 1


def test_macaulay_bound_equals_lex_segment_count():
    for r in range(1, 5):
        for d in range(1, 5):
            dim_d = binomial(r + d - 1, d)
            for n in range(1, dim_d + 1):
                assert macaulay_upper_bound(n, d) == lex_segment_growth(n, d, r), (r, d, n)


def test_macaulay_bound_monotone_in_n():
    for d in range(1, 7):
        values = [macaulay_upper_bound(n, d) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_full_ring_growth_is_fixed_point():
    # a polynomial ring's own Hilbert function meets the bound exactly
    for r in range(1, 7):
        for d in range(1, 7):
            assert macaulay_upper_bound(binomial(r + d - 1, d), d) == binomial(r + d, d + 1)


# ---------------------------------------------------------------- HVector


def test_hvector_validation():
    assert HVector([1, 3, 6, 0, 0]).entries == (1, 3, 6)
    assert HVector([1]).entries == (1,)
    with pytest.raises(ValueError):
        HVector([2, 3])
    with pytest.raises(ValueError):
        HVector([1, 0, 3])
    with pytest.raises(ValueError):
        HVector([1, -2])
    with pytest.raises(ValueError):
        HVector([])


def test_hvector_accessors():
    h = HVector([1, 3, 6, 10, 4])
    assert h.socle_degree == 4
    assert h.codimension == 3
    assert h.type == 4
    assert not h.is_symmetric()
    assert HVector([1, 3, 5, 3, 1]).is_symmetric()
    assert h == (1, 3, 6, 10, 4)
    assert h.replace(3, 9) == (1, 3, 6, 9, 4)
    assert str(h) == "1,3,6,10,4"
    assert HVector.parse("1,3,6,10,4") == h
    assert HVector.parse("(1, 3, 6, 10, 4)") == h
    for text, entry in (("1,3,,6,3", 2), (",1,3", 0), ("1,3,", 2), ("1, ,3", 1), ("", 0)):
        with pytest.raises(ValueError, match=f"empty entry {entry} "):
            HVector.parse(text)


def test_hvector_refuses_non_integer_entries():
    for entry in (3.9, "3", None):
        with pytest.raises(ValueError, match=rf"h_1 = {entry!r} is not an integer"):
            HVector([1, entry, 2])
    assert HVector([np.int64(1), np.int32(3), np.uint8(2)]) == (1, 3, 2)


def test_an_hvector_is_the_tuple_of_its_entries():
    h = HVector([1, 3, 6, 10, 4, 0])
    assert isinstance(h, tuple) and h.entries is h
    assert hash(h) == hash(tuple(h)) == hash((1, 3, 6, 10, 4))
    assert h == (1, 3, 6, 10, 4) and (1, 3, 6, 10, 4) == h
    assert {(1, 3, 6, 10, 4): "found"}[h] == "found"
    # the one change from the wrapper it was: a list is no longer equal
    assert h != [1, 3, 6, 10, 4] and [1, 3, 6, 10, 4] != h
    assert h[1:3] == (3, 6) and type(h[1:3]) is tuple and h[::-1][0] == 4
    assert len(h) == 5 and list(h) == [1, 3, 6, 10, 4] and h[-1] == h.type == 4
    assert HVector([1, 2]) < HVector([1, 3]) < HVector([1, 3, 1])
    assert h + (9,) == (1, 3, 6, 10, 4, 9) and type(h + (9,)) is tuple
    with pytest.raises(TypeError):
        h[1] = 5
    with pytest.raises(AttributeError):
        h.entries = (1, 2)
    with pytest.raises(AttributeError):
        h.note = "no instance dictionary"


@pytest.mark.parametrize("entries, message", [
    ([2, 3], "h_0 must be 1, got 2"),
    ([1, 0, 3], "entry h_1 = 0 is not positive"),
    ([1, -2], "entry h_1 = -2 is not positive"),
    ([], "an h-vector needs at least the entry h_0 = 1"),
    ([0, 0], "an h-vector needs at least the entry h_0 = 1"),
    ([1, 2.0], "entry h_1 = 2.0 is not an integer"),
    ([1, "3"], "entry h_1 = '3' is not an integer"),
])
def test_hvector_refusals_keep_their_messages(entries, message):
    with pytest.raises(ValueError) as info:
        HVector(entries)
    assert str(info.value) == message


# ------------------------------------------------------------ O-sequences


def test_o_sequence_frozen_cases():
    assert is_o_sequence(HVector([1]))
    assert is_o_sequence(HVector([1, 3, 6, 10, 4]))
    assert is_o_sequence(HVector([1, 3, 6, 10, 3]))
    assert is_o_sequence(HVector([1, 1000000]))
    assert not is_o_sequence(HVector([1, 3, 5, 8, 8, 5, 3, 1]))


def test_o_sequence_violation_details():
    bad = o_sequence_violation(HVector([1, 3, 5, 8, 8, 5, 3, 1]))
    assert bad == GrowthViolation(degree=2, value=5, next_value=8, bound=7)
    assert "5 -> 8" in str(bad) and "7" in str(bad)
    assert o_sequence_violation(HVector([1, 3, 6, 10, 4])) is None


def test_admissible_raw_sequences():
    assert is_admissible((1, 2, 2, 2))
    assert is_admissible((1, 2, 3, 2))
    assert not is_admissible((1, 2, 2, 3))
    assert is_admissible((1, 1, 0, 0))
    assert not is_admissible((1, 0, 1))
    assert not is_admissible((1, 2, -1))
    assert not is_admissible((0, 1))


def test_every_prefix_of_an_o_sequence_is_one():
    rng = random.Random(7)
    for _ in range(200):
        entries = [1]
        for d in range(1, 6):
            cap = macaulay_upper_bound(entries[-1], d) if d > 1 else 9
            entries.append(rng.randint(1, cap))
        h = HVector(entries)
        assert is_o_sequence(h)
        for cut in range(1, len(entries)):
            assert is_o_sequence(HVector(entries[:cut]))


# ----------------------------------------------------------- SI-sequences


def test_first_difference_frozen():
    assert first_difference(HVector([1, 3, 6, 10, 4])) == (1, 2, 3)
    assert first_difference(HVector([1, 3, 5, 7, 7, 5, 3, 1])) == (1, 2, 2, 2)
    assert first_difference(HVector([1])) == (1,)


def test_si_sequence_frozen_cases():
    assert is_si_sequence(HVector([1, 2, 1]))
    assert is_si_sequence(HVector([1, 3, 5, 7, 7, 5, 3, 1]))
    assert is_si_sequence(HVector([1, 3, 6, 8, 8, 6, 3, 1]))
    assert not is_si_sequence(HVector([1, 3, 5, 8, 8, 5, 3, 1]))
    assert not is_si_sequence(HVector([1, 3, 6, 10, 4]))
    # symmetric but with a non-admissible first difference
    assert not is_si_sequence(HVector([1, 3, 5, 4, 5, 3, 1]))


def test_si_implies_first_half_is_o_sequence():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        half = [1]
        for _ in range(rng.randint(1, 4)):
            half.append(half[-1] + rng.randint(0, 4))
        # mirror into a symmetric vector, repeating the middle when e is odd
        if rng.random() < 0.5:
            full = half + half[-2::-1]
        else:
            full = half + half[::-1]
        h = HVector(full)
        assert h.is_symmetric()
        if is_si_sequence(h):
            checked += 1
            assert is_admissible(h.entries[: h.socle_degree // 2 + 1])
    assert checked > 50
