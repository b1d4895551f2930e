"""Acceptance suite: one test per shipped criterion, exact tolerances.

Each test prints a single "criterion N: PASS" line (visible with -s);
under plain pytest the per-test PASSED/FAILED line serves the same role.
The whole module is budgeted to run in well under a minute.
"""

import time
from random import Random

import pytest

from levellab.bounds import (
    gorenstein_middle_interval,
    gorenstein_socle4_interval,
    level_quotient_floor_ceil,
    max_prefix_type_range,
    max_prefix_vector,
    socle2_min_codim,
    socle3_interval,
    type2_quotient_floor,
    type_interval,
    type_reduction_applies,
)
from levellab.classify import Status, classify
from levellab.constructions import (
    augment_with_powers,
    compressed_generic_module,
    expected_h_augment,
    maximal_profile,
    powers_partition_module,
    sum_of_powers,
)
from levellab.forms import DEFAULT_PRIME
from levellab.macaulay import (
    HVector,
    binomial,
    binomial_expansion,
    is_si_sequence,
    o_sequence_violation,
)
from levellab.modules import (
    InverseModule,
    common_derivative_dims,
    generic_subquotient,
    h_vector,
    is_gorenstein,
)
from levellab.scans import scan_ic
from levellab.store import record_from_classification, store_append, verify_store_file


def _pass(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


def test_criterion_01_classify_triple():
    start = time.monotonic()
    up = classify(HVector.parse("1,3,6,10,4"))
    assert up.status is Status.LEVEL
    assert up.certificate.kind == "construction"
    assert up.certificate.ranks == (1, 3, 6, 10, 4)

    down = classify(HVector.parse("1,3,6,9,3"))
    assert down.status is Status.LEVEL
    assert down.certificate.kind == "construction"
    assert down.certificate.ranks == (1, 3, 6, 9, 3)

    middle = classify(HVector.parse("1,3,6,10,3"))
    assert middle.status is Status.NONLEVEL
    assert middle.condition == "ci-range"
    assert "3*3 = 9" in middle.detail
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(1, f"triple classified with certificates in {elapsed:.2f}s")


def test_criterion_02_growth_and_si_checks():
    violation = o_sequence_violation(HVector.parse("1,3,5,8,8,5,3,1"))
    assert violation is not None
    assert (violation.degree, violation.value, violation.next_value) == (2, 5, 8)
    assert violation.bound == 7
    assert is_si_sequence(HVector.parse("1,3,5,7,7,5,3,1"))
    assert is_si_sequence(HVector.parse("1,3,6,8,8,6,3,1"))
    _pass(2, "growth bound 7 rejects 5->8; both symmetric vectors are SI")


def test_criterion_03_expansion_and_socle2_scan():
    assert str(binomial_expansion(25, 2)) == "C(7,2)+C(4,1)"
    assert socle2_min_codim(25) == 7
    report = scan_ic(HVector.parse("1,7,25"), 2, [25])
    assert report.classifications[0].status is Status.LEVEL
    assert report.classifications[0].certificate.kind == "construction"
    assert report.gaps == ()
    _pass(3, "25 = C(7,2)+C(4,1), minimal codimension 7, (1,7,25) certified level")


def test_criterion_04_sum_of_powers_oracle():
    checked = 0
    for r in range(1, 5):
        for e in range(1, 6):
            cap = binomial(r + e - 1, e)
            for m in range(1, cap + 1):
                builder = lambda rng: InverseModule(
                    r, e, DEFAULT_PRIME, [sum_of_powers(r, e, m, rng, DEFAULT_PRIME)])
                _, profile, _ = maximal_profile(builder, 1000 * r + 10 * e + m)
                oracle = tuple(
                    min(m, binomial(r + j - 1, j), binomial(r + e - j - 1, e - j))
                    for j in range(e + 1)
                )
                assert profile.h == oracle, (r, e, m)
                checked += 1
    _pass(4, f"{checked} sums of powers match the min formula entrywise")


def test_criterion_05_augmentation_agreement():
    base, base_profile, _ = maximal_profile(
        lambda rng: powers_partition_module(3, 4, (3, 3, 3), rng, DEFAULT_PRIME), 0)
    assert base_profile.h == (1, 3, 6, 9, 3)
    _, grown, _ = maximal_profile(lambda rng: augment_with_powers(base, 1, rng), 1)
    assert grown.h == (1, 3, 6, 10, 4)
    assert grown.h == expected_h_augment(base_profile.h, 3, 1)

    rng = Random(20260815)
    agreements = 0
    while agreements < 50:
        r = rng.randint(2, 4)
        e = rng.randint(2, 4)
        t = rng.randint(1, 3)
        parts = tuple(rng.randint(1, r) for _ in range(t))
        seed = rng.randrange(2**32)
        module, profile, _ = maximal_profile(
            lambda g: powers_partition_module(r, e, parts, g, DEFAULT_PRIME), seed)
        room = binomial(r + e - 1, e) - profile.h.type
        if room < 1:
            continue
        count = rng.randint(1, min(3, room))
        _, bigger, _ = maximal_profile(
            lambda g: augment_with_powers(module, count, g), seed + 1)
        assert bigger.h == expected_h_augment(profile.h, r, count), (r, e, parts, count)
        agreements += 1
    _pass(5, "augmentation h-vector matches the min formula on 1 + 50 instances")


def test_criterion_06_gorenstein_intervals():
    interval = gorenstein_middle_interval(HVector.parse("1,3,3,3,1"))
    assert list(interval) == [3, 4, 5, 6]
    for b in interval:
        target = HVector((1, 3, b, 3, 1))
        result = classify(target)
        assert result.status is Status.LEVEL, b
        module, profile, _ = maximal_profile(
            lambda rng: InverseModule(3, 4, DEFAULT_PRIME,
                                      [sum_of_powers(3, 4, b, rng, DEFAULT_PRIME)]),
            b)
        assert profile.h == target
        assert is_gorenstein(module)

    wide = gorenstein_socle4_interval(24, 20)
    assert wide == range(20, 301)
    assert {21, 22, 23} <= set(wide)
    _pass(6, "(1,3,b,3,1) realized for b in 3..6; codim 24 interval is 20..300")


def test_criterion_07_quotient_floors():
    rng = Random(7)
    modules = 0
    while modules < 100:
        r = rng.randint(2, 4)
        e = rng.randint(1, 5)
        cap = binomial(r + e - 1, e)
        if cap < 2:
            continue
        t = rng.randint(2, min(4, cap))
        module = compressed_generic_module(r, e, t, Random(rng.randrange(2**32)),
                                           DEFAULT_PRIME)
        profile = h_vector(module)
        if profile.h.type != t:
            continue
        c = rng.randint(1, t - 1)
        quotient = generic_subquotient(module, c, Random(rng.randrange(2**32)))
        qh = h_vector(quotient).h
        floor = level_quotient_floor_ceil(profile.h, c)
        assert all(qh[i] >= floor[i] for i in range(e + 1)), (profile.h, c)
        if t == 2:
            dims = common_derivative_dims(module)
            pair_floor = type2_quotient_floor(profile.h, dims)
            gor = h_vector(generic_subquotient(module, 1,
                                               Random(rng.randrange(2**32)))).h
            assert all(gor[i] >= pair_floor[i] for i in range(e + 1)), profile.h
        modules += 1
    _pass(7, "100 generic quotients dominate both lower-bound formulas")


def test_criterion_08_formula_level_intervals():
    assert socle3_interval(40, 35, 45) == range(35, 821)
    tall = HVector.parse("1,60,55,50,55,70")
    assert type_reduction_applies(tall)
    assert type_interval(tall) == range(59, 71)
    assert gorenstein_middle_interval(HVector.parse("1,40,30,40,1")) == range(30, 821)
    _pass(8, "socle 3 interval 35..820, type interval 59..70, middle interval 30..820")


def test_interval_endpoints_realized_at_codim_40():
    # top member of the socle-3 interval: 45 generic cubics in 40 variables
    module = compressed_generic_module(40, 3, 45, Random(0), DEFAULT_PRIME)
    assert h_vector(module).h == (1, 40, 820, 45)
    # top member of the Gorenstein interval: one generic quartic
    single = compressed_generic_module(40, 4, 1, Random(0), DEFAULT_PRIME)
    assert h_vector(single).h == (1, 40, 820, 40, 1)


def test_criterion_09_maximal_prefix_type_range():
    start = time.monotonic()
    assert max_prefix_type_range(2, 3) == range(2, 5)
    for t in max_prefix_type_range(2, 3):
        h = max_prefix_vector(2, 3, t)
        assert h == (1, 2, 3, t)
        result = classify(h)
        assert result.status is Status.LEVEL, t
        assert result.certificate is not None

    low = classify(max_prefix_vector(2, 3, 1))
    assert low.status is Status.NONLEVEL
    assert low.condition == "ci-range"
    high = classify(max_prefix_vector(2, 3, 5))
    assert high.status is Status.NONLEVEL
    assert high.condition == "o-sequence"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(9, f"types 2..4 realized, 1 and 5 rejected, in {elapsed:.2f}s")


def test_criterion_10_scan_integrity(tmp_path):
    store = str(tmp_path / "acceptance.jsonl")
    stored = 0

    def run_scan(base, values):
        nonlocal stored
        report = scan_ic(base, 2, values)
        assert all(c.status is Status.LEVEL for c in report.classifications), base
        assert report.gaps == ()
        assert not any(g.kind == "nonlevel" for g in report.gaps)
        for result in report.classifications:
            store_append(record_from_classification(result), store)
            stored += 1

    for r in range(1, 7):
        top = binomial(r + 1, 2)
        run_scan(HVector((1, r, 1)), range(1, top + 1))

    for r in range(1, 6):
        cap = binomial(r + 1, 2)
        for t in range(max(1, r - 2), cap + 1):
            lo, hi = max(r, t), min(r * t, cap)
            if lo > hi:
                continue
            run_scan(HVector((1, r, lo, t)), range(lo, hi + 1))

    assert verify_store_file(store) == stored
    _pass(10, f"no gaps in socle 2 and 3 families; {stored} certificates replayed")
