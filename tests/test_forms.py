"""Tests for forms, differentiation, and the text grammar."""

import random
import time
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levellab.errors import HypothesisError, ParseError
from levellab.forms import (
    _grevlex_rank,
    _monomial_strings,
    DEFAULT_PRIME,
    MAX_CELLS,
    MAX_MONOMIALS,
    Form,
    check_prime,
    check_ring,
    format_form,
    is_prime,
    parse_form,
    random_form,
    randrange_many,
    ring_dim,
)
from monomials import (
    dict_power,
    dict_product,
    form,
    form_terms,
    grevlex,
    monomial_positions,
    random_forms,
    reference_derivative,
)


def y(var, nvars, p=DEFAULT_PRIME):
    """The stack of one linear form y_{var+1}."""
    return Form(nvars, 1, p, [[int(k == var) for k in range(nvars)]])


def fields(f):
    """Everything a ``Form`` holds, as plain values that compare with ==."""
    return f.nvars, f.degree, f.p, f.coeffs.tolist()


def stack_terms(f):
    """The nonzero coefficients of each form of a stack by monomial."""
    return [form_terms(f.nvars, f.degree, row) for row in f.coeffs]


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert check_prime(101, 0) == 101
    with pytest.raises(HypothesisError, match="modulus 91 is not prime"):
        check_prime(91, 0)


def test_check_prime_range():
    assert check_prime(DEFAULT_PRIME, 40) == DEFAULT_PRIME
    assert check_prime(5, 4) == 5
    for p, degree in ((5, 5), (2, 4), (4294967291, 3), (2**61 - 1, 3), (91, 3), (1, 0)):
        with pytest.raises(HypothesisError, match=str(p)):
            check_prime(p, degree)


def test_check_prime_returns_a_plain_int_and_refuses_other_numbers():
    # a float of a prime's value must not share the cache entry of the int
    assert check_prime(101, 0) == 101
    for p in (np.int64(101), np.int32(101), np.uint16(101)):
        got = check_prime(p, 0)
        assert type(got) is int and got == 101
    for p in (101.0, "101", np.float64(101), None):
        with pytest.raises(ValueError, match="prime must be an integer"):
            check_prime(p, 0)
    with pytest.raises(HypothesisError, match="modulus 1 is not prime"):
        check_prime(True, 0)  # True reads as 1


def test_monomial_order_frozen():
    assert tuple(monomial_positions(3, 2)) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    )
    assert tuple(monomial_positions(2, 0)) == ((0, 0),)
    assert tuple(monomial_positions(1, 5)) == ((5,),)


def test_monomial_order_is_descending_grevlex():
    # among monomials of one degree, m comes before m' in descending
    # grevlex when the last nonzero entry of m - m' is negative, which is
    # ascending order of the reversed tuples
    for r in range(1, 8):
        for d in range(0, 7):
            monos = [tuple(c.count(v) for v in range(r))
                     for c in combinations_with_replacement(range(r), d)]
            assert tuple(monomial_positions(r, d)) == tuple(sorted(monos, key=lambda m: m[::-1]))


def test_check_ring_bounds_monomials_and_cells():
    assert check_ring(40, 4) == 123410 and 123410 * 40 == 4936400 <= MAX_CELLS
    assert check_ring(1, 10**9) == 1
    with pytest.raises(ValueError, match=f"degree 2 in 100000 variables has over {MAX_MONOMIALS}"):
        check_ring(100000, 2)
    with pytest.raises(ValueError, match=f"4000 monomials of 4000 exponents, over {MAX_CELLS}"):
        check_ring(4000, 1)
    with pytest.raises(ValueError, match="at least one variable"):
        check_ring(0, 2)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        check_ring(3, -1)


def test_monomial_counts():
    from levellab.macaulay import binomial

    for r in range(1, 6):
        for d in range(0, 7):
            assert len(monomial_positions(r, d)) == binomial(r + d - 1, d)
            assert ring_dim(r, d) == len(monomial_positions(r, d))
    with pytest.raises(ValueError, match="at least one variable"):
        ring_dim(0, 2)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        ring_dim(2, -1)


def test_form_validation():
    assert stack_terms(Form(2, 2, 7, [[1, 0, 6]])) == [{(2, 0): 1, (0, 2): 6}]
    with pytest.raises(ValueError, match="2 coefficients for 3 monomials"):
        Form(2, 2, DEFAULT_PRIME, [[1, 0]])  # wrong length
    with pytest.raises(ValueError, match="3 coefficients for 2 monomials"):
        Form(2, 1, DEFAULT_PRIME, [[1, 0, 0]])  # wrong length
    for residue in (7, -1):
        with pytest.raises(ValueError, match="out of range for p=7"):
            Form(2, 1, 7, [[1, residue]])  # residue outside [0, p)


def test_a_stack_holds_forms_of_one_ring_and_degree():
    stack = Form(2, 2, 7, [[1, 0, 6], [0, 3, 0]])
    assert stack.coeffs.shape == (2, 3) and not stack.coeffs.flags.writeable
    int32 = Form(2, 2, 7, np.array([[1, 0, 6], [0, 3, 0]], dtype=np.int32))
    assert fields(stack) == fields(int32) and int32.coeffs.dtype == np.int64
    with pytest.raises(ValueError, match="2 coefficients for 3 monomials"):
        Form(2, 2, 7, [[1, 0], [0, 3]])  # wrong last-axis length
    # one form is a stack of one, not a row
    for array, ndim in (([[[1, 0, 6]]], 3), ((1, 0, 6), 1)):
        with pytest.raises(ValueError, match=f"not a {ndim}-d array"):
            Form(2, 2, 7, array)
    for residue in (7, -1):
        with pytest.raises(ValueError, match="out of range for p=7"):
            Form(2, 2, 7, [[1, 0, 6], [0, residue, 0]])
    # a product multiplies form by form
    for other in (Form(2, 1, 7, [[1, 0], [0, 1], [1, 1]]), Form(2, 1, 7, [[1, 1]])):
        with pytest.raises(ValueError, match="different numbers of forms"):
            stack * other


def test_binomial_cube():
    f = Form(2, 1, DEFAULT_PRIME, [form("y1 + y2", 2, 1)])
    assert format_form(2, 3, (f**3).coeffs[0]) == "y1^3 + 3*y1^2*y2 + 3*y1*y2^2 + y2^3"


def test_power_of_dense_linear_form_is_dense():
    ell = Form(3, 1, DEFAULT_PRIME, [[2, 5, 7]])
    quartic = ell**4
    assert len(stack_terms(quartic)[0]) == 15
    assert quartic.degree == 4
    for low in (ell, Form(1, 1, DEFAULT_PRIME, [[3]])):  # one variable has its own path
        with pytest.raises(ValueError, match="an exponent of at least 1, got 0"):
            low**0


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 101, DEFAULT_PRIME))
def test_powers_match_the_dict_product(p):
    # dense and sparse linear forms, r = 1..8, e = 1..8, each a stack of
    # one and both stacked: a stack's power is the stack of the powers
    rng = random.Random(p)
    for nvars in range(1, 9):
        for e in range(9):
            ells = [[rng.randrange(p) if rng.random() < keep else 0 for _ in range(nvars)]
                    for keep in (1.0, 0.5)]
            stack = Form(nvars, 1, p, ells)
            if not e:  # drawn all the same, so e = 1..8 see the same forms
                with pytest.raises(ValueError, match="an exponent of at least 1"):
                    stack**e
                continue
            powers = [dict_power(form_terms(nvars, 1, ell), e, p) for ell in ells]
            assert [stack_terms(Form(nvars, 1, p, [ell]) ** e)[0] for ell in ells] == powers
            assert (stack**e).degree == e and stack_terms(stack**e) == powers


def test_products_by_a_linear_form_match_the_dict_product():
    rng = random.Random(17)
    for p in (2, 7, DEFAULT_PRIME):
        for nvars, degree in ((1, 3), (2, 0), (3, 2), (4, 4), (6, 3)):
            g = Form(nvars, degree, p, random_forms(nvars, degree, 1, rng, p))
            constant = Form(nvars, 0, p, random_forms(nvars, 0, 1, rng, p))
            with pytest.raises(ValueError, match="a linear factor, not one of degree 0"):
                g * constant
            for low in (Form(nvars, 1, p, random_forms(nvars, 1, 1, rng, p)),
                        y(nvars - 1, nvars, p)):
                assert stack_terms(g * low) == [
                    dict_product(stack_terms(low)[0], stack_terms(g)[0], p)]
                with pytest.raises(ValueError, match=f"not one of degree {degree}"):
                    low * g  # the linear factor comes second
            # three of each, form by form
            gs = Form(nvars, degree, p, random_forms(nvars, degree, 3, rng, p))
            constants = Form(nvars, 0, p, random_forms(nvars, 0, 3, rng, p))
            with pytest.raises(ValueError, match="a linear factor, not one of degree 0"):
                gs * constants
            lows = Form(nvars, 1, p, random_forms(nvars, 1, 3, rng, p))
            expected = [dict_product(low, g, p)
                        for low, g in zip(stack_terms(lows), stack_terms(gs))]
            assert (gs * lows).degree == degree + 1 and stack_terms(gs * lows) == expected


def test_products_need_a_linear_factor_in_one_ring():
    quadric = Form(2, 2, DEFAULT_PRIME, [form("y1^2 + 3*y2^2", 2, 2)])
    with pytest.raises(ValueError, match="a linear factor, not one of degree 2"):
        quadric * quadric
    with pytest.raises(ValueError, match="a linear factor, not one of degree 2"):
        quadric**2
    for other in (y(0, 3), y(0, 2, 7)):
        with pytest.raises(ValueError, match="different rings"):
            y(0, 2) * other
    with pytest.raises(ValueError, match=f"out of range for p={2**61 - 1} < 2"):
        Form(2, 1, 2**61 - 1, [[1, 0]])  # its products would overflow int64


def test_high_powers_follow_the_binomial_theorem():
    # (a y1 + b y2)^e has C(e, k) a^(e-k) b^k at y1^(e-k) y2^k, listed by k
    p, e = 101, 700
    power = Form(2, 1, p, [[3, 5]]) ** e
    assert power.coeffs.tolist() == [[comb(e, k) * 3**(e - k) * 5**k % p for k in range(e + 1)]]
    # one variable: c y1^d to the e is the one residue c^e, form by form
    assert fields(Form(1, 1, DEFAULT_PRIME, [[3]]) ** 100000) == (
        1, 100000, DEFAULT_PRIME, [[pow(3, 100000, DEFAULT_PRIME)]])
    assert stack_terms(Form(1, 2, 7, [[3]]) ** 3) == [dict_power({(2,): 3}, 3, 7)]
    assert fields(Form(1, 1, DEFAULT_PRIME, [[3], [0], [5]]) ** 100000) == (
        1, 100000, DEFAULT_PRIME, [[pow(c, 100000, DEFAULT_PRIME)] for c in (3, 0, 5)])


def test_derivative_frozen_example():
    f = form("y1^2*y2 + y2^3", 2, 3)
    assert format_form(2, 2, reference_derivative(2, 3, f, 1)) == "y1^2 + 3*y2^2"
    assert reference_derivative(2, 3, f, 0) == form("2*y1*y2", 2, 2)


def test_partials_commute():
    rng = random.Random(5)
    for _ in range(20):
        (f,) = random_forms(3, 4, 1, rng)
        for i in range(3):
            for j in range(3):
                assert (reference_derivative(3, 3, reference_derivative(3, 4, f, i), j)
                        == reference_derivative(3, 3, reference_derivative(3, 4, f, j), i))


def test_euler_identity():
    # sum of y_i * df/dy_i recovers deg(f) * f
    rng = random.Random(9)
    for nvars, degree in [(2, 3), (3, 4), (4, 5)]:
        (f,) = random_forms(nvars, degree, 1, rng)
        total = [0] * len(f)
        for var in range(nvars):
            partial = Form(nvars, degree - 1, DEFAULT_PRIME,
                           [reference_derivative(nvars, degree, f, var)])
            term = partial * y(var, nvars)
            total = [a + b for a, b in zip(total, term.coeffs[0].tolist())]
        assert [c % DEFAULT_PRIME for c in total] == [degree * c % DEFAULT_PRIME for c in f]


def test_power_rule_for_linear_forms():
    rng = random.Random(13)
    for _ in range(10):
        ell = Form(3, 1, DEFAULT_PRIME, random_forms(3, 1, 1, rng))
        e = rng.randint(2, 5)
        power = (ell**e).coeffs[0]
        lower = (ell ** (e - 1)).coeffs[0].tolist()
        for var, coefficient in enumerate(ell.coeffs[0].tolist()):
            assert reference_derivative(3, e, power, var) == [
                e * coefficient * c % DEFAULT_PRIME for c in lower]


def test_embedding_keeps_every_term():
    # monomials free of the new variables come first, in their old order,
    # so a form in more variables only gains trailing zero coefficients
    rng = random.Random(21)
    for nvars, degree, wide in [(1, 3, 2), (2, 2, 4), (3, 4, 5), (2, 0, 3)]:
        (f,) = random_forms(nvars, degree, 1, rng)
        pad = (0,) * (wide - nvars)
        zeros = [0] * (ring_dim(wide, degree) - len(f))
        order = monomial_positions(wide, degree)
        coeffs = [0] * len(order)
        for m, c in form_terms(nvars, degree, f).items():
            coeffs[order[m + pad]] = c
        assert f + zeros == coeffs


def test_random_linear_form_nonzero_and_seeded():
    a = random_form(4, 1, 1, random.Random(42))
    b = random_form(4, 1, 1, random.Random(42))
    assert fields(a) == fields(b)
    assert a.coeffs.shape == (1, 4) and a.coeffs.any()
    with pytest.raises(ValueError, match="at least one variable"):
        random_form(0, 1, 1, random.Random(42))


def draw_one_at_a_time(nvars, degree, count, rng, p):
    """``count`` forms drawn one after another, each drawn again while it
    is zero: the stream ``random_form`` replays.  Returns the rows and the
    number of zero draws."""
    size = ring_dim(nvars, degree)
    rows, zeros = [], 0
    while len(rows) < count:
        row = [rng.randrange(p) for _ in range(size)]
        if any(row):
            rows.append(row)
        else:
            zeros += 1
    return rows, zeros


@pytest.mark.parametrize("p", (2, 3, 101, DEFAULT_PRIME))
def test_a_stacked_draw_replays_the_draws_one_at_a_time(p):
    # one or two monomials make zero rows frequent at p = 2 and 3; a zero
    # row's redraw takes the values after it, which a stacked draw had
    # already read for the rows that follow
    zeros = 0
    for nvars, degree in ((1, 1), (1, 4), (2, 1), (3, 1), (3, 2), (4, 3)):  # 20 monomials
        for count in (1, 2, 5, 40):
            seed = str((p, nvars, degree, count))
            stacked, single = random.Random(seed), random.Random(seed)
            rows, skipped = draw_one_at_a_time(nvars, degree, count, single, p)
            forms = random_form(nvars, degree, count, stacked, p)
            assert forms.coeffs.tolist() == rows
            assert stacked.random() == single.random()
            zeros += skipped
    assert zeros or p > 3


@pytest.mark.parametrize("p", (5, 101, DEFAULT_PRIME))
def test_computed_forms_are_read_only_and_equal_their_checked_copies(p):
    rng = random.Random(p)
    linear = random_form(4, 1, 3, rng, p)
    line = random_form(1, 2, 3, rng, p)  # one variable takes its own power path
    computed = [linear, linear ** 2 * linear, linear ** 3, line ** 2,
                random_form(3, 2, 20, rng, p),
                Form(4, 0, p, np.full((3, 1), 3)) * linear]
    for f in computed:
        assert f.coeffs.dtype == np.int64 and not f.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0, 0] = 1
        assert fields(f) == fields(Form(f.nvars, f.degree, f.p, f.coeffs))
        assert ((0 <= f.coeffs) & (f.coeffs < p)).all()
        assert f.coeffs.shape[1] == ring_dim(f.nvars, f.degree)
    # a product never shares its factors' arrays
    assert not any(np.shares_memory(linear.coeffs, f.coeffs) for f in computed[1:])


@pytest.mark.parametrize("count", (0, 1, 7, 15, 16, 17, 5000))
@pytest.mark.parametrize("n", (2, 101, 65537, 2**30 + 1, 2**31 - 1))
def test_randrange_many_replays_randrange(n, count):
    # 2^30 + 1 keeps the top 31 bits of a word, so about half are rejected
    bulk, single = random.Random(n + count), random.Random(n + count)
    drawn = randrange_many(bulk, n, count)
    assert drawn.dtype == np.int64 and drawn.shape == (count,)
    assert drawn.tolist() == [single.randrange(n) for _ in range(count)]
    assert bulk.random() == single.random()


@pytest.mark.parametrize("n", (1, 2**31))
def test_randrange_many_refuses_moduli_outside_the_range(n):
    with pytest.raises(HypothesisError, match=str(n)):
        randrange_many(random.Random(0), n, 3)
    with pytest.raises(HypothesisError, match=str(n)):
        random_form(2, 2, 1, random.Random(0), n)


# ------------------------------------------------------------------ text


# Rings at check_ring's limits: the most monomials, the degree-4 ring in 40
# variables (4.9 of the 8.4 million cells), a high power of one variable.
# Each costs a string table once; more of them would not keep the test fast.
LIMIT_RINGS = [(2, MAX_MONOMIALS - 1), (40, 4), (1, 10**6)]


@st.composite
def rows(draw):
    """(nvars, degree, p, row): a small ring with a dense row, or a ring
    up to check_ring's limits with at most eight nonzero residues."""
    p = draw(st.sampled_from([2, 7, 101, DEFAULT_PRIME]))
    if draw(st.booleans()):
        nvars, degree = draw(st.integers(1, 4)), draw(st.integers(0, 5))
        size = check_ring(nvars, degree)
        return nvars, degree, p, draw(st.lists(st.integers(0, p - 1), min_size=size,
                                               max_size=size))
    nvars, degree = draw(st.sampled_from(LIMIT_RINGS))
    size = check_ring(nvars, degree)
    row = [0] * size
    for at, residue in draw(st.dictionaries(st.integers(0, size - 1), st.integers(0, p - 1),
                                            max_size=8)).items():
        row[at] = residue
    return nvars, degree, p, row


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows())
def test_format_parse_round_trip_random(case):
    nvars, degree, p, row = case
    assert parse_form(format_form(nvars, degree, row), nvars, degree, p).tolist() == row


def test_monomial_strings_follow_the_grevlex_walk():
    # built one variable at a time, the table matches the exponent walk it
    # replaced, on small rings and on check_ring's limits, the largest
    # linear ring among them
    def walk(nvars, degree):
        return tuple("*".join(f"y{var}" if a == 1 else f"y{var}^{a}"
                              for var, a in enumerate(mono, start=1) if a)
                     for mono in grevlex(nvars, degree))

    rings = [(r, d) for r in range(1, 8) for d in range(8)]
    for nvars, degree in rings + LIMIT_RINGS + [(2896, 1)]:
        assert _monomial_strings(nvars, degree) == walk(nvars, degree)
    assert check_ring(2896, 1) * 2896 <= MAX_CELLS < 2897 * 2897


def test_printing_in_more_rings_than_the_text_cache_holds_keeps_it_bounded():
    rings = [(r, d) for r in range(1, 4) for d in range(30)]
    for nvars, degree in rings:
        format_form(nvars, degree, [1] * ring_dim(nvars, degree))
    info = _monomial_strings.cache_info()
    assert info.maxsize == 64 < len(rings)
    assert info.currsize <= info.maxsize


def test_format_refuses_a_row_of_another_ring():
    with pytest.raises(ValueError):
        format_form(2, 2, [1, 0, 0, 1])


def test_grevlex_rank_matches_the_monomial_table():
    for r in range(1, 8):
        for d in range(7):
            size = ring_dim(r, d)
            for mono, at in monomial_positions(r, d).items():
                assert _grevlex_rank(mono, size) == at


def test_parse_examples():
    row = parse_form("y1^4 + 3*y2^3*y3", 3, 4)
    assert row.dtype == np.int64 and row.shape == (15,)
    assert form_terms(3, 4, row) == {(4, 0, 0): 1, (0, 3, 1): 3}
    assert form_terms(2, 3, parse_form("y2*y1*y2", 2, 3)) == {(1, 2): 1}
    assert form_terms(2, 0, parse_form("7", 2, 0)) == {(0, 0): 7}
    assert parse_form("0", 3, 4).tolist() == [0] * 15
    assert form_terms(2, 1, parse_form("y1 - y2", 2, 1)) == {(1, 0): 1, (0, 1): DEFAULT_PRIME - 1}
    assert form_terms(2, 1, parse_form("  y1   +\t2*y2 ", 2, 1)) == {(1, 0): 1, (0, 1): 2}
    assert form_terms(1, 1, parse_form("-y1", 1, 1)) == {(1,): DEFAULT_PRIME - 1}


def test_parse_rejects_bad_text():
    cases = [
        ("3y1", 2),            # missing *
        ("y1 + + y2", 2),      # doubled separator
        ("y5", 3),             # variable out of range
        ("y0", 3),             # variables start at y1
        ("y1 + y2^2", 2),      # mixed degrees
        ("y1 *", 2),           # dangling *
        ("y1 +", 2),           # dangling sign
        ("", 2),               # empty
        ("x1", 2),             # unknown letter
        ("y1 y2", 2),          # missing separator
        ("+", 2),              # lone signs
        ("-", 2),
        (" - ", 2),
        ("3*4", 2),            # a coefficient is not a factor
        ("y1*3", 2),
        ("--y1", 2),
        ("1" * 5000 + "*y1", 2),  # integers beyond Python's 4,300 digits
        ("y1^" + "1" * 5000, 2),
        ("y" + "1" * 5000, 2),
    ]
    for text, nvars in cases:
        with pytest.raises(ParseError):
            parse_form(text, nvars, 1)


def test_parse_error_reports_position():
    try:
        parse_form("y1 + z2", 2, 1)
    except ParseError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected a parse error")


def test_parse_degree_guard():
    with pytest.raises(ParseError):
        parse_form("y1^2", 2, 3)


def test_parse_refuses_a_ring_too_large_to_tabulate_at_once():
    start = time.perf_counter()
    for text, nvars, degree in (("y1", 4000, 1), ("7", 10**7, 0), ("y1^1000000", 2, 10**6)):
        with pytest.raises(ParseError, match="over"):
            parse_form(text, nvars, degree)
    assert time.perf_counter() - start < 1


SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def form_texts(draw):
    """Text in the form grammar and the (nvars, degree, p, coefficients by
    monomial) it names.  Exponents stay at most 4, so every table is
    small; terms with a coefficient divisible by p may take another
    degree, since they carry none."""
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    p = draw(st.sampled_from([7, 101, DEFAULT_PRIME]))
    coeffs = dict.fromkeys(monomial_positions(nvars, degree), 0)
    text = draw(SPACE)
    for i in range(draw(st.integers(1, 4))):
        coeff = draw(st.one_of(st.just(0), st.just(p), st.integers(1, 3 * p)))
        left = degree if coeff % p else draw(st.integers(0, 4))
        factors, exps = [], [0] * nvars
        while left or draw(st.integers(0, 4)) == 4:  # now and then a y<i>^0
            exp = draw(st.integers(min(1, left), min(4, left)))
            var = draw(st.integers(1, nvars))
            factors.append(f"y{var}" if exp == 1 and draw(st.booleans()) else f"y{var}^{exp}")
            exps[var - 1] += exp
            left -= exp
        star = draw(SPACE) + "*" + draw(SPACE)
        if not factors:
            body = str(coeff)
        elif coeff == 1 and draw(st.booleans()):
            body = star.join(factors)
        else:
            body = star.join([str(coeff)] + factors)
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "", "+", "-"]))
        text += sign + draw(SPACE) + body + draw(SPACE)
        if coeff % p:
            coeffs[tuple(exps)] += -coeff if sign == "-" else coeff
    return text, (nvars, degree, p, coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(form_texts())
def test_parse_grammar_property(case):
    text, (nvars, degree, p, coeffs) = case
    assert parse_form(text, nvars, degree, p).tolist() == [c % p for c in coeffs.values()]
