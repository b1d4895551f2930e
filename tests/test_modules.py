"""Tests for inverse system modules and generator files."""

import random
from dataclasses import fields, replace

import numpy as np
import pytest

from levellab.constructions import maximal_profile, powers_partition_module
from levellab.errors import (
    DependentGeneratorsError,
    HypothesisError,
    ParseError,
    SoundnessError,
)
from levellab.forms import DEFAULT_PRIME, parse_form, random_form
from levellab.modules import (
    InverseModule,
    common_derivative_dims,
    generic_subquotient,
    h_vector,
    is_gorenstein,
    is_level_presentation,
    module_from_text,
    module_to_text,
    truncate_level,
    type_of,
)


def make_module(texts, nvars, degree, p=DEFAULT_PRIME):
    return InverseModule(nvars, degree, p, [parse_form(t, nvars, degree, p) for t in texts])


def random_module(nvars, degree, count, rng, p=DEFAULT_PRIME):
    return InverseModule(nvars, degree, p, random_form(nvars, degree, count, rng, p).coeffs)


def test_module_validation():
    quadric = parse_form("y1^2", 2, 2)
    cubic = parse_form("y1^3", 2, 3)
    with pytest.raises(ValueError):
        InverseModule(2, 2, DEFAULT_PRIME, [quadric, cubic])
    with pytest.raises(ValueError, match="zero forms"):
        InverseModule(2, 2, DEFAULT_PRIME, [parse_form("0", 2, 2)])
    # at p <= e the derivative multipliers vanish; above 2^31 int64 overflows
    for p in (5, 7, 4294967291):
        with pytest.raises(HypothesisError, match=f"prime {p} "):
            InverseModule(2, 7, p, [parse_form("y1^7", 2, 7, p)])


@pytest.mark.parametrize("rows, match", [
    (np.zeros((0, 3), dtype=np.int64), "shape"),
    ([[1, 2]], "shape"),
    ([1, 2, 3], "shape"),
    ([[1, 2, 3], [0, 0, 0]], "zero forms"),
    ([[1, 2, -1]], "out of range"),
    ([[1, 2, 7]], "out of range"),
    # refused before any cast: int64 would truncate, parse or wrap these
    ([[1.5, 2.7, 1]], "integers"),
    (np.array([[1.0, 2.0, 3.0]]), "integers"),
    ([["1", "2", "3"]], "integers"),
    ([[2**70, 1, 1]], "integers"),
    ([[2**63, 1, 1]], "integers"),
    (np.array([[2**63, 1, 1]], dtype=np.uint64), "integers"),
])
def test_module_array_is_checked_at_construction(rows, match):
    with pytest.raises(ValueError, match=match):
        InverseModule(2, 2, 7, rows)


@pytest.mark.parametrize("rows", [
    np.array([[1, 2, 3]], dtype=np.int32),
    np.array([[1, 2, 3]], dtype=np.uint8),
    np.array([[1, 2, 3]], dtype=np.uint64),
    np.array([[1, 2, 3]], dtype=object),
])
def test_module_takes_integer_rows_of_any_width(rows):
    module = InverseModule(2, 2, 7, rows)
    assert module.coeffs.dtype == np.int64
    assert module == InverseModule(2, 2, 7, [[1, 2, 3]])


def test_module_array_is_read_only():
    from levellab.spans import coefficient_matrix

    rows = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    view = rows[0]
    module = InverseModule(2, 2, 7, rows)
    for array in (module.coeffs, coefficient_matrix(module)):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5
    # the module keeps its own copy: the caller's array and its views
    # still write, and the module does not change
    view[0] = 6
    rows[1] = 0
    assert module.coeffs.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert module_to_text(module) == ("ring r=2 e=2\ny1^2 + 2*y1*y2 + 3*y2^2\n"
                                      "4*y1^2 + 5*y1*y2 + 6*y2^2\n")


def test_module_equality_reads_ring_prime_and_array():
    module = make_module(["y1^2 + y2^2", "y1*y2"], 2, 2)
    same = make_module(["y1^2 + y2^2", "y1*y2"], 2, 2)
    assert module == same
    assert module != make_module(["y1^2 + y2^2", "2*y1*y2"], 2, 2)
    assert module != make_module(["y1^2 + y2^2", "y1*y2"], 2, 2, p=101)
    assert module != module_to_text(module)
    assert [f.name for f in fields(module)] == ["nvars", "degree", "p", "coeffs"]


def test_h_vector_frozen_examples():
    assert h_vector(make_module(["y1*y2*y3"], 3, 3)).h == (1, 3, 3, 1)
    assert h_vector(make_module(["y1^4 + y2^4 + y3^4"], 3, 4)).h == (1, 3, 3, 3, 1)
    assert h_vector(make_module(["y1^3"], 1, 3)).h == (1, 1, 1, 1)


def test_h_vector_profile_consistency():
    from levellab.macaulay import binomial

    rng = random.Random(3)
    for _ in range(10):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        count = rng.randint(1, min(3, binomial(nvars + degree - 1, degree)))
        module = random_module(nvars, degree, count, rng)
        profile = h_vector(module)
        assert profile.dims == tuple(profile.h)
        assert profile.h.type == count
        # the module, not its profile, carries the prime and seed
        assert [f.name for f in fields(profile)] == ["h"]


def test_dependent_generators_reported():
    f = parse_form("y1^2 + y2^2", 2, 2)
    module = InverseModule(2, 2, DEFAULT_PRIME, [f, 5 * f])
    assert type_of(module) == 1
    assert not is_level_presentation(module)
    with pytest.raises(DependentGeneratorsError) as exc:
        h_vector(module)
    assert exc.value.presented == 2
    assert exc.value.rank == 1


def test_is_gorenstein():
    rng = random.Random(5)
    single = make_module(["y1^4 + y2^4 + y3^4"], 3, 4)
    assert is_gorenstein(single)
    pair = random_module(3, 3, 2, rng)
    assert not is_gorenstein(pair)
    # five general fifth powers in three variables
    from levellab.constructions import sum_of_powers

    module = InverseModule(3, 5, DEFAULT_PRIME, [sum_of_powers(3, 5, 5, rng)])
    assert h_vector(module).h == (1, 3, 5, 5, 3, 1)
    assert is_gorenstein(module)


def test_is_gorenstein_reads_the_span_not_the_presentation():
    f = parse_form("y1^4 + y2^4 + y3^4", 3, 4)
    g = parse_form("y1^2*y2^2", 3, 4)
    # a dependent presentation of a principal span is still Gorenstein
    assert is_gorenstein(InverseModule(3, 4, DEFAULT_PRIME, [f, 5 * f]))
    # a dependent presentation of a type-2 span is not
    assert not is_gorenstein(InverseModule(3, 4, DEFAULT_PRIME, [f, g, f + g]))


def test_is_gorenstein_refuses_an_asymmetric_principal_tower(monkeypatch):
    monkeypatch.setattr("levellab.modules.derivative_spaces",
                        lambda module: [[0] * d for d in (1, 3, 2, 1)])
    module = make_module(["y1^3 + y2^3 + y3^3"], 3, 3)
    with pytest.raises(SoundnessError, match="asymmetric"):
        is_gorenstein(module)


def test_common_derivative_dims_disjoint_powers():
    assert common_derivative_dims(make_module(["y1^4", "y2^4"], 3, 4)) == (1, 0, 0, 0, 0)


def test_common_derivative_dims_same_form():
    f = "y1^2*y2 + y2^3"
    dims = h_vector(make_module([f], 3, 3)).dims
    assert common_derivative_dims(make_module([f, f], 3, 3)) == dims


@pytest.mark.parametrize("other", [make_module(["y1^4"], 3, 4),
                                   make_module(["y1^4", "y2^4", "y3^4"], 3, 4),
                                   (parse_form("y1^4", 3, 4), parse_form("y2^4", 3, 4)),
                                   "ring r=3 e=4\ny1^4\ny2^4\n"])
def test_common_derivative_dims_needs_a_module_of_two_generators(other):
    with pytest.raises(ValueError, match="two generators"):
        common_derivative_dims(other)


def test_common_derivative_dims_bounds():
    rng = random.Random(7)
    for _ in range(10):
        pair = random_module(3, 4, 2, rng)
        dims_f, dims_g = (h_vector(replace(pair, coeffs=pair.coeffs[k:k + 1])).dims
                          for k in (0, 1))
        common = common_derivative_dims(pair)
        for c, a, b in zip(common, dims_f, dims_g):
            assert 0 <= c <= min(a, b)
        assert common[0] == 1


def test_generic_subquotient_type_and_domination():
    rng = random.Random(11)
    module = random_module(3, 4, 3, rng)
    base = h_vector(module)
    quotient = generic_subquotient(module, 2, rng)
    prof = h_vector(quotient)
    assert prof.h.type == 2
    assert all(q <= b for q, b in zip(prof.dims, base.dims))
    with pytest.raises(ValueError):
        generic_subquotient(module, 4, rng)
    with pytest.raises(ValueError):
        generic_subquotient(module, 0, rng)


@pytest.mark.parametrize("shape, c, seed, text", [
    ((2, 3, 3, 1, DEFAULT_PRIME), 2, 2,
     "ring r=2 e=3\n"
     "1758445687*y1^3 + 366947531*y1^2*y2 + 2130971862*y1*y2^2 + 260837268*y2^3\n"
     "1727160469*y1^3 + 63840868*y1^2*y2 + 1269809547*y1*y2^2 + 73248044*y2^3\n"),
    # p = 5 and p = 3 are the smallest primes above the degrees 4 and 2
    ((3, 4, 3, 3, 5), 2, 4,
     "ring r=3 e=4\n"
     "3*y1^4 + 2*y1^2*y2^2 + 4*y1*y2^3 + 3*y2^4 + y1*y2^2*y3 + 2*y2^3*y3 + 2*y1^2*y3^2"
     " + y1*y2*y3^2 + 3*y2^2*y3^2 + 2*y1*y3^3 + y2*y3^3 + 4*y3^4\n"
     "y1^4 + 3*y1^3*y2 + 4*y1^2*y2^2 + 2*y1*y2^3 + 3*y2^4 + 3*y1*y2^2*y3 + y2^3*y3"
     " + 3*y1^2*y3^2 + 2*y1*y2*y3^2 + 3*y1*y3^3\n"),
    ((2, 2, 3, 5, 3), 1, 6, "ring r=2 e=2\ny1*y2 + y2^2\n"),
    ((3, 2, 4, 7, 101), 3, 8,
     "ring r=3 e=2\n"
     "69*y1*y2 + 8*y2^2 + 97*y1*y3 + 28*y2*y3 + 58*y3^2\n"
     "65*y1^2 + 50*y1*y2 + 35*y2^2 + 74*y1*y3 + 99*y2*y3 + 70*y3^2\n"
     "61*y1^2 + 25*y1*y2 + 53*y2^2 + 44*y1*y3 + 55*y2*y3 + 77*y3^2\n"),
])
def test_generic_subquotient_frozen(shape, c, seed, text):
    nvars, degree, count, module_seed, p = shape
    module = random_module(nvars, degree, count, random.Random(module_seed), p)
    assert module_to_text(generic_subquotient(module, c, random.Random(seed))) == text


def test_truncate_level_prefix():
    rng = random.Random(13)
    module = random_module(3, 4, 2, rng)
    full = h_vector(module).dims
    for cut in range(1, 5):
        shorter = truncate_level(module, cut)
        assert h_vector(shorter).dims == full[: cut + 1]
        assert len(shorter.coeffs) == full[cut]
    same = truncate_level(module, 4)
    assert h_vector(same).dims == full
    with pytest.raises(ValueError):
        truncate_level(module, 0)
    with pytest.raises(ValueError):
        truncate_level(module, 5)


# --------------------------------------------------------- generator files


def test_module_text_round_trip():
    rng = random.Random(17)
    module = random_module(3, 3, 2, rng)
    text = module_to_text(module)
    parsed = module_from_text(text)
    assert parsed == module
    assert module_to_text(parsed) == text
    # the winner of a trial search is its generators, whichever seed drew them
    winner, _, _ = maximal_profile(lambda g: powers_partition_module(3, 4, (3, 2), g), 17)
    assert module_from_text(module_to_text(winner)) == winner


def test_module_text_format():
    module = make_module(["y1^2", "y1*y2 + 7*y2^2"], 2, 2)
    assert module_to_text(module) == "ring r=2 e=2\ny1^2\ny1*y2 + 7*y2^2\n"


def test_module_from_text_accepts_comments_and_blanks():
    text = """
# socle degree two sample
ring r=2 e=2

# the generators
y1^2 + y2^2
y1*y2
"""
    module = module_from_text(text)
    assert module.nvars == 2
    assert len(module.coeffs) == 2


def test_module_from_text_errors():
    with pytest.raises(ParseError):
        module_from_text("y1^2\n")  # no header
    with pytest.raises(ParseError):
        module_from_text("ring r=2 e=2\n")  # no generators
    with pytest.raises(ParseError):
        module_from_text("ring r=2 e=2\ny1^3\n")  # degree mismatch
    with pytest.raises(ParseError):
        module_from_text("ring r=0 e=2\n7\n")
    try:
        module_from_text("ring r=2 e=2\ny1^2\ny3^2\n")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")
