"""Tests for interval scans and gap detection."""

import gc
import hashlib
import json
import random
from pathlib import Path
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

import numpy as np
import pytest

from levellab.classify import Certificate, Classification, Status, classify, realize_recipe
from levellab.constructions import DEFAULT_TRIALS
from levellab.errors import HypothesisError
from levellab.macaulay import HVector, binomial
from levellab.modules import module_to_text
from levellab.scans import Gap, find_gaps, scan_gic, scan_ic
from levellab.seeds import derive_seed
from levellab.store import record_from_classification


def stub(status):
    kinds = {Status.LEVEL: "criterion", Status.NONLEVEL: "condition"}
    cert = Certificate(kinds[status], rule="stub") if status in kinds else None
    return Classification(HVector((1,)), cert)


L = Status.LEVEL
N = Status.NONLEVEL
U = Status.UNKNOWN


def test_find_gaps_synthetic():
    def gaps(statuses, start=1):
        values = range(start, start + len(statuses))
        return find_gaps(values, [stub(s) for s in statuses])

    assert gaps([L, U, L]) == (Gap((2,), "unknown"),)
    assert gaps([L, N, L]) == (Gap((2,), "nonlevel"),)
    assert gaps([L, U, N, U, L]) == (Gap((2, 3, 4), "nonlevel"),)
    # runs touching either end are not bracketed, hence not gaps
    assert gaps([U, L, L]) == ()
    assert gaps([L, U, U]) == ()
    assert gaps([L, U, L, N, L]) == (Gap((2,), "unknown"), Gap((4,), "nonlevel"))
    assert gaps([L, L, L]) == ()
    assert gaps([]) == ()


def test_find_gaps_walks_the_values_in_value_order():
    # 4 is the top value of (1, 2, v), not a non-level value between 1 and 2
    report = scan_ic(HVector((1, 2, 1)), 2, [1, 4, 2])
    assert report.values == (1, 4, 2)
    assert [c.status for c in report.classifications] == [L, N, L]
    assert report.gaps == ()
    statuses = [U, L, N, U, L, L, U, L, N, N, L, U]  # of the values 1..12
    expected = find_gaps(range(1, 13), [stub(s) for s in statuses])
    assert expected == (Gap((3, 4), "nonlevel"), Gap((7,), "unknown"), Gap((9, 10), "nonlevel"))
    rng = random.Random(5)
    for _ in range(20):
        order = rng.sample(range(12), 12)
        assert find_gaps([k + 1 for k in order], [stub(statuses[k]) for k in order]) == expected


def test_scan_ic_all_level():
    report = scan_ic(HVector.parse("1,3,6,3"), 2, range(3, 7))
    assert report.degrees == (2,)
    assert report.values == (3, 4, 5, 6)
    assert all(c.status is Status.LEVEL for c in report.classifications)
    assert report.gaps == ()
    assert report.by_value()[4].h == (1, 3, 4, 3)


def test_scan_ic_single_point():
    report = scan_ic(HVector.parse("1,3,6,3"), 2, [6])
    assert report.values == (6,)
    assert report.classifications[0].status is Status.LEVEL
    assert report.gaps == ()


def test_scan_ic_validation():
    base = HVector.parse("1,3,6,3")
    with pytest.raises(ValueError):
        scan_ic(base, 0, [3])
    with pytest.raises(ValueError):
        scan_ic(base, 4, [3])
    with pytest.raises(ValueError):
        scan_ic(base, 2, [0, 3])
    # a fractional value used to be reported as given but classified rounded down
    with pytest.raises(ValueError, match="h_2 = 3.5 is not an integer"):
        scan_ic(base, 2, [3.5])


def test_scans_refuse_a_value_that_is_not_an_integer_before_classifying(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was classified before the refusal")

    monkeypatch.setattr("levellab.scans.classify", refuse)
    with pytest.raises(ValueError, match="h_2 = '3' is not an integer"):
        scan_ic(HVector.parse("1,3,6,3"), 2, [4, "3"])
    with pytest.raises(ValueError, match="h_1 = 2.0 is not an integer"):
        scan_gic(HVector.parse("1,3,3,3,1"), 1, [3, 2.0])


def certificates(report):
    return [(c.status, c.certificate) for c in report.classifications]


def test_scans_certify_integer_values_alike_whatever_their_type():
    # each value's seed hashes the repr of the degree and the value, so
    # both are read as plain ints first; True reads as 1
    for scan, base, i, values in ((scan_ic, (1, 3, 6, 3), 2, [4, 5]),
                                  (scan_gic, (1, 3, 3, 3, 1), 1, [2, 3])):
        want = scan(base, i, values, 2, master_seed=9, prime=101)
        assert type(want.values[0]) is int
        for cast in (np.int64, np.int32):
            got = scan(base, cast(i), np.array(values, dtype=cast), cast(2),
                       master_seed=cast(9), prime=cast(101))
            assert got.values == want.values and type(got.values[0]) is int
            assert got.degrees == want.degrees
            assert certificates(got) == certificates(want)
    ones = scan_ic((1, 3, 1), 1, [3], 1, master_seed=1)
    assert certificates(scan_ic((1, 3, 1), True, [3], True, master_seed=True)) == (
        certificates(ones))


def test_scans_refuse_a_non_integer_argument_before_classifying(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was classified before the refusal")

    monkeypatch.setattr("levellab.scans.classify", refuse)
    base = HVector.parse("1,3,6,3")
    with pytest.raises(ValueError, match="scan degree must be an integer, got 2.0"):
        scan_ic(base, 2.0, [4])
    with pytest.raises(ValueError, match="scan degree must be an integer"):
        scan_gic(HVector.parse("1,3,3,3,1"), "1", [3])
    for kwargs, name in (({"trials": 2.0}, "trials"), ({"master_seed": "9"}, "master_seed"),
                         ({"prime": 101.0}, "prime")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            scan_ic(base, 2, [4], **kwargs)


def test_scans_take_the_base_as_a_sequence():
    for scan, base, i, values in ((scan_ic, (1, 2, 1), 2, [1, 4, 2]),
                                  (scan_gic, (1, 3, 3, 1), 1, [2, 3])):
        given, typed = scan(base, i, values), scan(HVector(base), i, values)
        assert given.base == typed.base == HVector(base)
        assert [(c.status, c.certificate) for c in given.classifications] == [
            (c.status, c.certificate) for c in typed.classifications]


def test_scan_gic_middle_entry():
    report = scan_gic(HVector.parse("1,3,3,3,1"), 2, range(3, 7))
    # even socle degree, i == e - i: exactly one entry moves
    assert report.degrees == (2,)
    assert all(c.status is Status.LEVEL for c in report.classifications)
    assert all(c.certificate.kind == "criterion" for c in report.classifications)
    assert report.gaps == ()


def test_scan_gic_symmetric_pair():
    report = scan_gic(HVector.parse("1,3,6,7,7,6,3,1"), 3, range(7, 11))
    assert report.degrees == (3, 4)
    assert report.by_value()[9].h == (1, 3, 6, 9, 9, 6, 3, 1)
    assert all(c.status is Status.LEVEL for c in report.classifications)
    assert report.gaps == ()


def test_scan_gic_hypotheses():
    with pytest.raises(HypothesisError):
        scan_gic(HVector.parse("1,3,6,10,4"), 2, [6])
    with pytest.raises(HypothesisError):
        scan_gic(HVector.parse("1,2,2,1,1"), 2, [2])
    base = HVector.parse("1,3,3,3,1")
    with pytest.raises(ValueError):
        scan_gic(base, 0, [3])
    with pytest.raises(ValueError):
        scan_gic(base, 4, [3])


def test_scan_reports_nonlevel_gap(monkeypatch):
    def fake_classify(h, budget=None, *, master_seed=0, prime=0):
        v = h[2]
        if v in (3, 7):
            return Classification(h, Certificate("criterion", rule="stub"))
        if v == 5:
            return Classification(h, Certificate("condition", rule="stub"))
        return Classification(h)

    monkeypatch.setattr("levellab.scans.classify", fake_classify)
    report = scan_ic(HVector.parse("1,3,6,3"), 2, range(3, 8))
    assert report.gaps == (Gap((4, 5, 6), "nonlevel"),)
    assert report.by_value()[5].status is Status.NONLEVEL


def test_scans_refuse_primes_outside_the_exact_range():
    with pytest.raises(HypothesisError, match="4294967291"):
        scan_ic(HVector.parse("1,3,6,3"), 2, range(3, 5), prime=4294967291)
    with pytest.raises(HypothesisError, match="prime 3 "):
        scan_gic(HVector.parse("1,3,3,1"), 1, range(2, 4), prime=3)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.jsonl"
REPLAYED_FIELDS = ("status", "h", "recipe", "seed", "prime", "ranks", "generators")


def criterion10_families():
    """The socle-2 and socle-3 families scanned in degree 2 by acceptance
    criterion 10, in the order their 204 records open the frozen corpus."""
    families = [(HVector((1, r, 1)), range(1, binomial(r + 1, 2) + 1)) for r in range(1, 7)]
    for r in range(1, 6):
        cap = binomial(r + 1, 2)
        for t in range(max(1, r - 2), cap + 1):
            lo, hi = max(r, t), min(r * t, cap)
            if lo <= hi:
                families.append((HVector((1, r, lo, t)), range(lo, hi + 1)))
    return families


def test_scans_reproduce_the_frozen_certificates():
    # the corpus predates char-0 certificates, so `characteristic` is not compared
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    frozen = iter(json.loads(line) for line in lines[:204])
    compared = 0
    for base, values in criterion10_families():
        stored = [next(frozen) for _ in values]
        if base.codimension > 4:
            continue
        report = scan_ic(base, 2, values)
        for record, result in zip(stored, report.classifications):
            fresh = record_from_classification(result)
            for field in REPLAYED_FIELDS:
                assert fresh.get(field) == record.get(field), (base, result.h, field)
            compared += 1
    assert next(frozen, None) is None
    assert compared == 80


def test_criterion_10_classifications_keep_their_signature():
    # every field of the 204 classifications but their timing: verdict,
    # certificate key, diagnostics and trial count.  The frozen scan above
    # compares only the 80 records of codimension at most 4, and not their
    # diagnostics.
    digest = hashlib.sha256()
    for base, values in criterion10_families():
        for value in values:
            result = classify(base.replace(2, value), master_seed=301)
            cert = result.certificate
            row = [result.h.entries, result.status.value, cert and cert.recipe,
                   cert and cert.seed, cert and cert.ranks, result.diagnostics,
                   result.trials_used]
            digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "517e57b339ac6b95841d126c98f0f3a01ad80e166e1b43a4efcc5c16d9eed038"


def reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, except
    through classes, modules and functions, which reach every global."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType, MethodType,
                                               BuiltinFunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_scan_report_keeps_no_module_and_replays_each_certificate():
    # a certificate keeps its replay key, so a report holds no array; each
    # module it prints is the winner realize_recipe rebuilds for its value
    base, degrees = HVector((1, 3, 1)), (2,)
    report = scan_ic(base, 2, range(1, 7), master_seed=9)
    assert not any(isinstance(obj, np.ndarray) for obj in reachable(report))
    built = 0
    for value, result in zip(report.values, report.classifications):
        cert = result.certificate
        if cert is None or cert.kind != "construction":
            continue
        assert any(isinstance(obj, np.ndarray) for obj in reachable(cert.module))
        seed = derive_seed(9, "scan", degrees, value)
        module, _, winner = realize_recipe(cert.recipe, seed, DEFAULT_TRIALS, cert.prime)
        assert (cert.module, cert.seed) == (module, winner)
        assert cert.generators == module_to_text(module)
        built += 1
    assert built >= 3
