"""Tests for the randomized module constructions and their expected profiles."""

import random
import re
import tracemalloc

import pytest

from levellab import constructions
from levellab.classify import build_recipe
from levellab.constructions import (
    add_new_variable_power,
    augment_with_powers,
    compressed_generic_module,
    expected_h_augment,
    expected_h_compressed,
    expected_h_powers_partition,
    expected_h_sum_of_powers,
    greedy_partition,
    maximal_profile,
    powers_partition_module,
    sum_of_powers,
)
from levellab.errors import DependentGeneratorsError, HypothesisError
from levellab.forms import DEFAULT_PRIME, Form, random_form, ring_dim
from levellab.macaulay import binomial
from levellab.modules import InverseModule, h_vector, module_to_text
from levellab.seeds import derive_seed
from monomials import power_sums_part_by_part


def best_h(builder, master_seed, trials=5):
    return maximal_profile(builder, master_seed, trials)[1].h


def test_expected_sum_of_powers_frozen():
    assert expected_h_sum_of_powers(3, 4, 2) == (1, 2, 2, 2, 1)
    assert expected_h_sum_of_powers(3, 5, 5) == (1, 3, 5, 5, 3, 1)
    assert expected_h_sum_of_powers(2, 2, 10) == (1, 2, 1)
    assert expected_h_sum_of_powers(4, 3, 7) == (1, 4, 4, 1)


def test_sum_of_powers_matches_expected():
    for nvars in range(1, 4):
        for degree in range(1, 5):
            for count in range(1, 7):
                expected = expected_h_sum_of_powers(nvars, degree, count)
                h = best_h(
                    lambda rng: InverseModule(nvars, degree, DEFAULT_PRIME,
                                              [sum_of_powers(nvars, degree, count, rng)]),
                    derive_seed(101, nvars, degree, count),
                )
                assert h == expected, (nvars, degree, count)


@pytest.mark.parametrize("per_slice", (1, 3, 10))
def test_a_sum_powered_in_slices_is_the_sum_of_its_powers(monkeypatch, per_slice):
    # a sum too large for one stack is drawn and powered slice by slice;
    # its row and the draws it takes are those of its forms one at a time
    monkeypatch.setattr(constructions, "_POWER_CELLS", per_slice * 4 * ring_dim(4, 3))
    for p in (5, 101, DEFAULT_PRIME):
        rng, single = random.Random(p), random.Random(p)
        row = sum_of_powers(4, 3, 10, rng, p)
        powers = [(random_form(4, 1, 1, single, p) ** 3).coeffs[0] for _ in range(10)]
        assert row.tolist() == (sum(powers) % p).tolist()
        assert rng.random() == single.random()


def test_partition_module_frozen():
    assert expected_h_powers_partition(3, 4, (3, 3, 3)) == (1, 3, 6, 9, 3)
    assert expected_h_powers_partition(3, 4, (3, 3, 3, 3)) == (1, 3, 6, 10, 4)
    assert expected_h_powers_partition(3, 2, (3, 3)) == (1, 3, 2)
    h = best_h(lambda rng: powers_partition_module(3, 4, (3, 3, 3), rng), 7)
    assert h == (1, 3, 6, 9, 3)
    h = best_h(lambda rng: powers_partition_module(3, 4, (3, 3, 3, 3), rng), 7)
    assert h == (1, 3, 6, 10, 4)


def test_partition_module_random_agreement():
    rng = random.Random(23)
    for trial in range(12):
        nvars = rng.randint(2, 3)
        degree = rng.randint(2, 4)
        parts = tuple(
            sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True)
        )
        expected = expected_h_powers_partition(nvars, degree, parts)
        h = best_h(
            lambda r: powers_partition_module(nvars, degree, parts, r),
            derive_seed(911, trial),
        )
        assert h == expected, (nvars, degree, parts)


@pytest.mark.parametrize("parts", [(), (0,), (3, -1)])
def test_partition_module_refuses_an_empty_or_nonpositive_partition(parts):
    with pytest.raises(ValueError):
        powers_partition_module(3, 3, parts, random.Random(0))


def test_greedy_partition():
    assert greedy_partition(6, 2, 3) == (3, 3)
    assert greedy_partition(7, 3, 3) == (3, 3, 1)
    assert greedy_partition(5, 2, 3) == (3, 2)
    assert greedy_partition(4, 4, 9) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        greedy_partition(7, 2, 3)
    with pytest.raises(ValueError):
        greedy_partition(1, 2, 3)


@pytest.mark.parametrize("r, e, parts, seed, h", [
    (7, 2, [7] * 25, 13, (1, 7, 25)),  # socle degree 2: t sums of r squares
    (2, 2, [2], 13, (1, 2, 1)),
    (3, 3, [3, 3], 17, (1, 3, 6, 2)),  # socle degree 3: one sum of cubes per part
    (3, 3, [3, 2], 17, (1, 3, 5, 2)),
])
def test_socle2_and_socle3_partition_recipes(r, e, parts, seed, h):
    recipe = {"kind": "powers_partition", "nvars": r, "degree": e, "parts": parts}
    assert best_h(lambda rng: build_recipe(recipe, rng), seed) == h


def test_augment_frozen():
    def builder(rng):
        return augment_with_powers(powers_partition_module(3, 4, (3, 3, 3), rng), 1, rng)

    assert best_h(builder, 29) == (1, 3, 6, 10, 4)
    assert expected_h_augment(expected_h_powers_partition(3, 4, (3, 3, 3)), 3, 1) == (
        1, 3, 6, 10, 4)


def test_augment_random_agreement():
    # the augmentation formula H_i = min(h_i + min(m, R_i, R_{e-i}), R_i)
    # matches the computed profile across random level modules
    for trial in range(15):
        rng = random.Random(derive_seed(31, trial))
        nvars = rng.randint(2, 3)
        degree = rng.randint(2, 4)
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        room = binomial(nvars + degree - 1, degree) - len(parts)
        if room < 1:
            continue
        count = rng.randint(1, min(room, 4))
        expected = expected_h_augment(
            expected_h_powers_partition(nvars, degree, parts), nvars, count)

        def builder(r):
            return augment_with_powers(
                powers_partition_module(nvars, degree, parts, r), count, r)

        assert best_h(builder, derive_seed(31, trial, "max")) == expected


def test_augment_room_check():
    rng = random.Random(37)
    module = powers_partition_module(2, 2, (2, 2, 2), rng)  # all C(3,2)=3 quadrics used up
    with pytest.raises(HypothesisError):
        augment_with_powers(module, 1, rng)


def test_add_new_variable_power():
    rng = random.Random(41)
    module = powers_partition_module(3, 3, (3, 3), rng)
    base = h_vector(module).h
    bigger = add_new_variable_power(module)
    assert bigger.nvars == 4
    grown = h_vector(bigger).h
    assert grown == tuple(base[j] + (1 if j else 0) for j in range(len(base)))


def test_compressed_frozen():
    assert expected_h_compressed(2, 3, 2) == (1, 2, 3, 2)
    assert expected_h_compressed(3, 4, 2) == (1, 3, 6, 6, 2)
    h = best_h(lambda rng: compressed_generic_module(2, 3, 2, rng), 43)
    assert h == (1, 2, 3, 2)
    h = best_h(lambda rng: compressed_generic_module(3, 4, 2, rng), 43)
    assert h == (1, 3, 6, 6, 2)


def test_maximal_profile_deterministic():
    builder = lambda rng: powers_partition_module(3, 3, (2, 2), rng)
    first = maximal_profile(builder, 47)
    second = maximal_profile(builder, 47)
    assert first[1].dims == second[1].dims
    assert first[0] == second[0]
    assert first[2] == second[2]
    assert first[2] in {derive_seed(47, "trial", k) for k in range(5)}
    # the seed alone replays the winner
    assert builder(random.Random(first[2])) == first[0]


# Each power-sum bound as its own closed form, for reference.
def reference_sum_of_powers(nvars, degree, count):
    return (1,) + tuple(min(count, ring_dim(nvars, j), ring_dim(nvars, degree - j))
                        for j in range(1, degree + 1))


def reference_powers_partition(nvars, degree, parts):
    return (1,) + tuple(
        min(sum(min(m, ring_dim(nvars, j), ring_dim(nvars, degree - j)) for m in parts),
            ring_dim(nvars, j))
        for j in range(1, degree + 1))


def reference_augment(h, nvars, count):
    e = len(h) - 1
    addend = reference_sum_of_powers(nvars, e, count)
    return (1,) + tuple(min(h[j] + addend[j], ring_dim(nvars, j)) for j in range(1, e + 1))


PARTITIONS = [(m,) for m in range(1, 9)] + [(3, 3), (8, 1), (5, 5, 2), (2, 2, 2, 2), (8, 8, 8)]


def test_one_bound_matches_the_three_closed_forms():
    for nvars in range(1, 6):
        for degree in range(1, 6):
            for parts in PARTITIONS:  # parts above nvars included
                base = expected_h_powers_partition(nvars, degree, parts)
                assert base.entries == reference_powers_partition(nvars, degree, parts)
                if len(parts) == 1:
                    assert expected_h_sum_of_powers(nvars, degree, parts[0]).entries == (
                        reference_sum_of_powers(nvars, degree, parts[0]))
                for count in (1, 2, 5, 8):
                    assert expected_h_augment(base, nvars, count).entries == (
                        reference_augment(base.entries, nvars, count)), (nvars, degree, parts)


def test_sum_of_powers_recipe_is_the_one_part_partition():
    for m, seed, p in [(1, 0, DEFAULT_PRIME), (3, 1, 101), (5, 2, 7), (4, 3, DEFAULT_PRIME)]:
        single = {"kind": "sum_of_powers", "nvars": 3, "degree": 4, "count": m}
        one_part = {"kind": "powers_partition", "nvars": 3, "degree": 4, "parts": [m]}
        assert module_to_text(build_recipe(single, random.Random(seed), p)) == (
            module_to_text(build_recipe(one_part, random.Random(seed), p)))


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert 0 <= derive_seed(0) < 2 ** 64


# (nvars, degree, type, seed, prime), the rng's next 32 bits after the
# build, and the generator text.  Rows are drawn one after another, one
# randrange_many each, and a zero row is drawn again: at p = 2 and r = 1
# seed 3 draws two zero rows first.
FROZEN_DRAWS = [
    ((1, 1, 1, 0, 2), 3255389356,
     "ring r=1 e=1\n"
     "y1\n"
    ),
    ((1, 1, 1, 3, 2), 3933953013,
     "ring r=1 e=1\n"
     "y1\n"
    ),
    ((2, 1, 2, 4, 2), 2056767043,
     "ring r=2 e=1\n"
     "y2\n"
     "y2\n"
    ),
    ((3, 2, 2, 1, 3), 2095328386,
     "ring r=3 e=2\n"
     "2*y1*y2 + y1*y3 + y3^2\n"
     "y1^2 + y1*y2 + 2*y2^2 + y1*y3\n"
    ),
    ((4, 3, 3, 7, 101), 2658625969,
     "ring r=4 e=3\n"
     "41*y1^3 + 19*y1^2*y2 + 50*y1*y2^2 + 83*y2^3 + 6*y1^2*y3 + 9*y1*y2*y3"
     " + 68*y2^2*y3 + 12*y1*y3^2 + 46*y2*y3^2 + 74*y3^3 + 7*y1^2*y4"
     " + 64*y1*y2*y4 + 27*y2^2*y4 + 4*y1*y3*y4 + 11*y2*y3*y4 + 55*y3^2*y4"
     " + 53*y1*y4^2 + 8*y2*y4^2 + 30*y3*y4^2 + 11*y4^3\n"
     "70*y1^3 + 54*y1^2*y2 + 7*y1*y2^2 + 72*y2^3 + 15*y1^2*y3 + 28*y1*y2*y3"
     " + 80*y2^2*y3 + 80*y1*y3^2 + 74*y2*y3^2 + 7*y3^3 + 73*y1^2*y4"
     " + 74*y1*y2*y4 + 50*y2^2*y4 + 6*y1*y3*y4 + 28*y2*y3*y4 + 5*y3^2*y4"
     " + 71*y1*y4^2 + 17*y2*y4^2 + 37*y3*y4^2 + 53*y4^3\n"
     "18*y1^3 + 69*y1^2*y2 + 15*y1*y2^2 + 73*y2^3 + 39*y1^2*y3 + 71*y1*y2*y3"
     " + 87*y2^2*y3 + 23*y1*y3^2 + 13*y2*y3^2 + 74*y3^3 + 73*y1^2*y4"
     " + 81*y1*y2*y4 + 24*y2^2*y4 + 47*y1*y3*y4 + 12*y2*y3*y4 + 70*y3^2*y4"
     " + 91*y1*y4^2 + 8*y2*y4^2 + 72*y3*y4^2 + 7*y4^3\n"
    ),
    ((3, 4, 2, 9, DEFAULT_PRIME), 674984870,
     "ring r=3 e=4\n"
     "994300727*y1^4 + 1316869687*y1^3*y2 + 801681272*y1^2*y2^2"
     " + 573666814*y1*y2^3 + 297511125*y2^4 + 399743235*y1^3*y3"
     " + 1860927402*y1^2*y2*y3 + 1453081007*y1*y2^2*y3 + 13819176*y2^3*y3"
     " + 726548507*y1^2*y3^2 + 1079716291*y1*y2*y3^2 + 995834408*y2^2*y3^2"
     " + 1929080206*y1*y3^3 + 1298580838*y2*y3^3 + 173548139*y3^4\n"
     "717311089*y1^4 + 1190286755*y1^3*y2 + 2010873343*y1^2*y2^2"
     " + 1324245884*y1*y2^3 + 1503449659*y2^4 + 87822983*y1^3*y3"
     " + 1563780918*y1^2*y2*y3 + 813938401*y1*y2^2*y3 + 363814224*y2^3*y3"
     " + 1510712627*y1^2*y3^2 + 2031982178*y1*y2*y3^2 + 970707528*y2^2*y3^2"
     " + 2042839338*y1*y3^3 + 1557066026*y2*y3^3 + 907497995*y3^4\n"
    ),
]


@pytest.mark.parametrize("shape, after, text", FROZEN_DRAWS)
def test_compressed_draws_are_frozen(shape, after, text):
    nvars, degree, count, seed, p = shape
    rng = random.Random(seed)
    assert module_to_text(compressed_generic_module(nvars, degree, count, rng, p)) == text
    assert rng.getrandbits(32) == after


def draw_rows_one_at_a_time(count, size, rng, p):
    """``count`` rows of ``size`` residues drawn one after another, a zero
    row drawn again: the row-by-row stream ``random_rows`` replays.  Returns
    the rows and the number of zero draws."""
    rows, zeros = [], 0
    while len(rows) < count:
        row = [rng.randrange(p) for _ in range(size)]
        if any(row):
            rows.append(row)
        else:
            zeros += 1
    return rows, zeros


@pytest.mark.parametrize("p", (2, 3, 101, DEFAULT_PRIME))
def test_a_compressed_module_replays_its_rows_drawn_one_at_a_time(p):
    # rings of one to three monomials make zero rows frequent at p = 2 and 3
    zeros = 0
    shapes = [(1, 1, 1), (2, 1, 2), (3, 1, 3)]
    if p > 2:
        shapes += [(1, 2, 1), (2, 2, 3)]
    if p > 3:
        shapes += [(4, 3, 20), (3, 4, 7)]
    for nvars, degree, count in shapes:
        for repeat in range(20):
            seed = str((p, nvars, degree, count, repeat))
            stacked, single = random.Random(seed), random.Random(seed)
            rows, skipped = draw_rows_one_at_a_time(count, ring_dim(nvars, degree), single, p)
            module = compressed_generic_module(nvars, degree, count, stacked, p)
            assert module.coeffs.tolist() == rows
            assert stacked.random() == single.random()
            zeros += skipped
    assert zeros or p > 3



@pytest.mark.parametrize("per_slice", (None, 2, 5))
@pytest.mark.parametrize("p", (2, 3, 101, DEFAULT_PRIME))
def test_a_module_drawn_as_one_stack_replays_its_parts_drawn_one_by_one(monkeypatch, p,
                                                                        per_slice):
    # narrow linear forms make zero rows frequent at p = 2 and 3; the (12, 4)
    # ring powers 64 forms per slice, so the second part of (40, 40) is split,
    # and slices of 2 or 5 forms split parts and span several
    zeros = 0
    shapes = [(1, 1, (1, 3)), (2, 1, (2, 1, 2)), (3, 1, (1, 1, 3))]
    if p > 2:
        shapes += [(1, 2, (2, 1)), (2, 2, (3, 1, 2))]
    if p > 3:
        shapes += [(4, 3, (4, 4, 2)), (3, 4, (3, 3, 3, 1)), (12, 4, (40, 40))]
    for nvars, degree, parts in shapes:
        if per_slice:
            monkeypatch.setattr(constructions, "_POWER_CELLS",
                                per_slice * nvars * ring_dim(nvars, degree))
        for repeat in range(20 if nvars < 12 else 2):
            seed = str((p, nvars, degree, parts, repeat))
            stacked, single = random.Random(seed), random.Random(seed)
            try:
                rows = power_sums_part_by_part(nvars, degree, parts, single, p,
                                               constructions._POWER_CELLS)
            except DependentGeneratorsError as exc:
                with pytest.raises(DependentGeneratorsError, match=re.escape(str(exc))):
                    powers_partition_module(nvars, degree, parts, stacked, p)
                continue
            module = powers_partition_module(nvars, degree, parts, stacked, p)
            assert module.coeffs.tolist() == rows
            assert stacked.getstate() == single.getstate()
            zeros += draw_rows_one_at_a_time(sum(parts), nvars, random.Random(seed), p)[1]
    assert zeros or p > 3


@pytest.mark.parametrize("nvars, degree, parts, p", [(1, 1, (1, 2), 2), (1, 2, (2, 3), 3)])
def test_a_part_that_cancels_mod_p_is_a_degenerate_draw(nvars, degree, parts, p):
    # in one variable every linear form is c*y1, and c^e = 1 here, so the
    # second part sums to parts[1] = 0 mod p while the first does not
    with pytest.raises(DependentGeneratorsError,
                       match=f"{parts[1]} powers of degree {degree} cancel mod {p}"):
        powers_partition_module(nvars, degree, parts, random.Random(0), p)


def test_a_small_module_is_powered_by_one_pow(monkeypatch):
    # and each e-th power by e - 1 products, which the benchmark counts
    calls, products = [], []
    power, product = Form.__pow__, Form.__mul__
    monkeypatch.setattr(Form, "__pow__", lambda form, e: calls.append(e) or power(form, e))
    monkeypatch.setattr(Form, "__mul__",
                        lambda form, linear: products.append(form.degree) or product(form, linear))
    powers_partition_module(4, 3, (4, 3, 2), random.Random(5))
    augment_with_powers(powers_partition_module(3, 4, (3, 3), random.Random(6)), 2,
                        random.Random(7))
    assert calls == [3, 4, 4]
    assert products == [1, 2] + [1, 2, 3] * 2


def test_a_module_wider_than_one_slice_is_powered_in_little_memory():
    # all 1,365 quartic powers of the (12, 4) ring at once would peak near
    # 179 MB; slices of 64 forms stay near 7 MB
    tracemalloc.start()
    try:
        powers_partition_module(12, 4, (700, 665), random.Random(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
