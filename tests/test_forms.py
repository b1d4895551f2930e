"""Tests for forms, differentiation, and the text grammar."""

import random

import pytest

from levellab.errors import HypothesisError, ParseError
from levellab.forms import (
    _BULK_DRAWS,
    DEFAULT_PRIME,
    Form,
    check_prime,
    format_form,
    is_prime,
    monomials_of_degree,
    parse_form,
    random_form,
    random_linear_form,
    randrange_many,
)
from test_spans import reference_derivative


def y(var, nvars, p=DEFAULT_PRIME):
    mono = tuple(1 if k == var else 0 for k in range(nvars))
    return Form.from_terms(nvars, 1, [(mono, 1)], p)


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


def test_monomial_order_frozen():
    assert monomials_of_degree(3, 2) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    )
    assert monomials_of_degree(2, 0) == ((0, 0),)
    assert monomials_of_degree(1, 5) == ((5,),)


def test_monomial_counts():
    from levellab.macaulay import binomial

    for r in range(1, 6):
        for d in range(0, 7):
            assert len(monomials_of_degree(r, d)) == binomial(r + d - 1, d)


def test_form_validation():
    assert Form(2, 2, 7, (1, 0, 6)).terms == {(2, 0): 1, (0, 2): 6}
    with pytest.raises(ValueError, match="2 coefficients for 3 monomials"):
        Form(2, 2, DEFAULT_PRIME, (1, 0))  # wrong length
    with pytest.raises(ValueError, match="3 coefficients for 2 monomials"):
        Form(2, 1, DEFAULT_PRIME, (1, 0, 0))  # wrong length
    for residue in (7, -1):
        with pytest.raises(ValueError, match="out of range for p=7"):
            Form(2, 1, 7, (1, residue))  # residue outside [0, p)
    with pytest.raises(ValueError, match="not a degree-2 monomial in 2 variables"):
        Form.from_terms(2, 2, [((1, 0), 1)])  # degree mismatch
    with pytest.raises(ValueError, match="not a degree-1 monomial in 2 variables"):
        Form.from_terms(2, 1, [((1, 0, 0), 1)])  # wrong variable count


def test_addition_drops_cancelled_terms():
    p = DEFAULT_PRIME
    f = parse_form("y1^2 + 3*y1*y2", 2, p)
    g = parse_form("y1^2 - 3*y1*y2", 2, p)
    total = f + g
    assert total.terms == {(2, 0): 2}
    assert total.coeffs == (2, 0, 0)
    assert (f + f.scaled(-1)).is_zero


def test_binomial_cube():
    f = parse_form("y1 + y2", 2)
    assert format_form(f**3) == "y1^3 + 3*y1^2*y2 + 3*y1*y2^2 + y2^3"


def test_power_of_dense_linear_form_is_dense():
    rng = random.Random(3)
    ell = Form.from_terms(3, 1, [((1, 0, 0), 2), ((0, 1, 0), 5), ((0, 0, 1), 7)])
    quartic = ell**4
    assert len(quartic.terms) == 15
    assert quartic.degree == 4
    assert ell**0 == Form.from_terms(3, 0, [((0, 0, 0), 1)])


def test_derivative_frozen_example():
    f = parse_form("y1^2*y2 + y2^3", 2)
    assert format_form(reference_derivative(f, 1)) == "y1^2 + 3*y2^2"
    assert reference_derivative(f, 0) == parse_form("2*y1*y2", 2)


def test_partials_commute():
    rng = random.Random(5)
    for _ in range(20):
        f = random_form(3, 4, rng)
        for i in range(3):
            for j in range(3):
                assert (reference_derivative(reference_derivative(f, i), j)
                        == reference_derivative(reference_derivative(f, j), i))


def test_euler_identity():
    # sum of y_i * df/dy_i recovers deg(f) * f
    rng = random.Random(9)
    for nvars, degree in [(2, 3), (3, 4), (4, 5)]:
        f = random_form(nvars, degree, rng)
        total = Form.zero(nvars, degree, f.p)
        for var in range(nvars):
            total = total + y(var, nvars) * reference_derivative(f, var)
        assert total == f.scaled(degree)


def test_power_rule_for_linear_forms():
    rng = random.Random(13)
    for _ in range(10):
        ell = random_linear_form(3, rng)
        e = rng.randint(2, 5)
        power = ell**e
        for var in range(3):
            coefficient = ell.terms.get((1 if var == 0 else 0, 1 if var == 1 else 0, 1 if var == 2 else 0), 0)
            assert reference_derivative(power, var) == (ell ** (e - 1)).scaled(e * coefficient)


def test_embedding_keeps_every_term():
    rng = random.Random(21)
    for nvars, degree, wide in [(1, 3, 2), (2, 2, 4), (3, 4, 5), (2, 0, 3)]:
        f = random_form(nvars, degree, rng)
        pad = (0,) * (wide - nvars)
        assert f.embedded(wide) == Form.from_terms(
            wide, degree, [(m + pad, c) for m, c in f.terms.items()])


def test_random_linear_form_nonzero_and_seeded():
    a = random_linear_form(4, random.Random(42))
    b = random_linear_form(4, random.Random(42))
    assert a == b
    assert not a.is_zero
    with pytest.raises(ValueError, match="at least one variable"):
        random_linear_form(0, random.Random(42))


@pytest.mark.parametrize("count", (1, 7, _BULK_DRAWS, 5000))
@pytest.mark.parametrize("n", (2, 101, 65537, 2**30 + 1, 2**31 - 1))
def test_randrange_many_replays_randrange(n, count):
    # 2^30 + 1 keeps the top 31 bits of a word, so about half are rejected
    bulk, single = random.Random(n + count), random.Random(n + count)
    drawn = randrange_many(bulk, n, count)
    assert drawn == [single.randrange(n) for _ in range(count)]
    assert all(type(v) is int for v in drawn)
    assert bulk.random() == single.random()


@pytest.mark.parametrize("n", (1, 2**31))
def test_randrange_many_refuses_moduli_outside_the_range(n):
    with pytest.raises(HypothesisError, match=str(n)):
        randrange_many(random.Random(0), n, 3)
    with pytest.raises(HypothesisError, match=str(n)):
        random_form(2, 2, random.Random(0), n)


# ------------------------------------------------------------------ text


def test_format_parse_round_trip_random():
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        degree = rng.randint(0, 5)
        f = random_form(nvars, degree, rng)
        assert parse_form(format_form(f), nvars) == f


def test_parse_examples():
    f = parse_form("y1^4 + 3*y2^3*y3", 3)
    assert f.terms == {(4, 0, 0): 1, (0, 3, 1): 3}
    assert parse_form("y2*y1*y2", 2).terms == {(1, 2): 1}
    assert parse_form("7", 2).terms == {(0, 0): 7}
    assert parse_form("0", 3, expected_degree=4) == Form.zero(3, 4)
    assert parse_form("y1 - y2", 2).terms == {(1, 0): 1, (0, 1): DEFAULT_PRIME - 1}
    assert parse_form("  y1   +\t2*y2 ", 2).terms == {(1, 0): 1, (0, 1): 2}
    assert parse_form("-y1", 1).terms == {(1,): DEFAULT_PRIME - 1}


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
    ]
    for text, nvars in cases:
        with pytest.raises(ParseError):
            parse_form(text, nvars)


def test_parse_error_reports_position():
    try:
        parse_form("y1 + z2", 2)
    except ParseError as exc:
        assert exc.position == 5
    else:
        pytest.fail("expected a parse error")


def test_parse_degree_guard():
    with pytest.raises(ParseError):
        parse_form("y1^2", 2, expected_degree=3)
