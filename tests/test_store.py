"""Tests for the append-only certificate store and its verifier."""

from pathlib import Path
from random import Random

import pytest

from levellab.classify import classify
from levellab.errors import VerificationError
from levellab.macaulay import HVector
from levellab.modules import h_vector, module_to_text
from levellab.constructions import powers_partition_module
from levellab.forms import DEFAULT_PRIME
from levellab.store import (
    STORE_ENV,
    record_from_classification,
    store_append,
    store_load,
    store_verify,
    verify_store_file,
)


@pytest.fixture
def sample_records():
    vectors = ("1,3,6,9,3", "1,3,3,3,1", "1,3,6,10,3", "1,5,4,5")
    return [record_from_classification(classify(HVector.parse(v)))
            for v in vectors]


def test_round_trip_and_filters(tmp_path, sample_records):
    path = str(tmp_path / "store.jsonl")
    for record in sample_records:
        store_append(record, path)
    loaded = store_load(path)
    assert len(loaded) == 4
    assert [r["status"] for r in loaded] == ["level", "level", "nonlevel", "unknown"]

    level = store_load(path, status="level")
    assert len(level) == 2
    assert {r["t"] for r in level} == {3, 1}

    one = store_load(path, h="1,3,6,10,3")
    assert len(one) == 1
    assert one[0]["condition"] == "ci-range"

    by_entries = store_load(path, h=(1, 5, 4, 5))
    assert len(by_entries) == 1
    assert by_entries[0]["status"] == "unknown"


def test_every_record_kind_verifies(tmp_path, sample_records):
    path = str(tmp_path / "store.jsonl")
    for record in sample_records:
        store_verify(record)
        store_append(record, path)
    assert verify_store_file(path) == 4


def test_construction_record_fields(sample_records):
    record = sample_records[0]
    assert record["schema"] == 1
    assert record["h"] == [1, 3, 6, 9, 3]
    assert (record["r"], record["e"], record["t"]) == (3, 4, 3)
    assert record["ranks"] == [1, 3, 6, 9, 3]
    assert record["recipe"]["kind"]
    assert isinstance(record["seed"], int)
    assert record["generators"].startswith("ring r=3 e=4")


def test_tampered_generators_rejected(sample_records):
    record = dict(sample_records[0])
    record["generators"] = record["generators"].replace(" + ", " + 2*", 1)
    with pytest.raises(VerificationError):
        store_verify(record)


def test_tampered_ranks_rejected(sample_records):
    record = dict(sample_records[0])
    record["ranks"] = list(reversed(record["ranks"]))
    with pytest.raises(VerificationError):
        store_verify(record)


def test_inconsistent_shape_fields_rejected(sample_records):
    record = dict(sample_records[0])
    record["t"] = 99
    with pytest.raises(VerificationError):
        store_verify(record)


def test_unsupported_schema_rejected(sample_records):
    record = dict(sample_records[0])
    record["schema"] = 2
    with pytest.raises(VerificationError):
        store_verify(record)


def test_stale_nonlevel_condition_rejected(sample_records):
    record = dict(sample_records[2])
    # claim the rejected vector was the level one next door
    record.update(h=[1, 3, 6, 9, 3], t=3)
    with pytest.raises(VerificationError):
        store_verify(record)


def test_stale_criterion_rejected(sample_records):
    record = dict(sample_records[1])
    assert record["criterion"] == "si-classification"
    record.update(h=[1, 3, 6, 5, 6, 3, 1], e=6)
    with pytest.raises(VerificationError):
        store_verify(record)


def test_recipe_free_payload_recomputed():
    module = powers_partition_module(3, 3, (1, 1, 1), Random(5), DEFAULT_PRIME)
    profile = h_vector(module)
    record = {
        "schema": 1,
        "h": list(profile.h.entries),
        "r": 3,
        "e": 3,
        "t": profile.h.type,
        "status": "level",
        "prime": DEFAULT_PRIME,
        "ranks": list(profile.dims),
        "generators": module_to_text(module),
    }
    store_verify(record)

    # same claimed ranks, but a payload that cannot produce them
    poorer = powers_partition_module(3, 3, (1,), Random(5), DEFAULT_PRIME)
    forged = dict(record)
    forged["generators"] = module_to_text(poorer)
    with pytest.raises(VerificationError):
        store_verify(forged)


def test_verify_reports_line_numbers(tmp_path, sample_records):
    path = str(tmp_path / "store.jsonl")
    store_append(sample_records[0], path)
    bad = dict(sample_records[0])
    bad["ranks"] = [9, 9, 9, 9, 9]
    store_append(bad, path)
    with pytest.raises(VerificationError, match="line 2"):
        verify_store_file(path)

    garbled = str(tmp_path / "garbled.jsonl")
    with open(garbled, "w", encoding="utf-8") as fh:
        fh.write("not json\n")
    with pytest.raises(VerificationError, match="line 1"):
        verify_store_file(garbled)


@pytest.mark.parametrize("seed", ["missing", "12", 1.5, None, True])
def test_record_without_integer_seed_rejected(tmp_path, sample_records, seed):
    record = dict(sample_records[0])
    if seed == "missing":
        del record["seed"]
    else:
        record["seed"] = seed
    with pytest.raises(VerificationError, match="seed"):
        store_verify(record)
    path = str(tmp_path / "store.jsonl")
    store_append(sample_records[1], path)
    store_append(record, path)
    with pytest.raises(VerificationError, match="line 2: .*seed"):
        verify_store_file(path)


def test_unknown_recipe_kind_rejected(tmp_path, sample_records):
    record = dict(sample_records[0])
    record["recipe"] = dict(record["recipe"], kind="wishful")
    with pytest.raises(VerificationError, match="wishful"):
        store_verify(record)
    path = str(tmp_path / "store.jsonl")
    store_append(record, path)
    with pytest.raises(VerificationError, match="line 1: .*wishful"):
        verify_store_file(path)


def test_unknown_characteristic_rejected(tmp_path, sample_records):
    record = dict(sample_records[0], characteristic="char-2")
    with pytest.raises(VerificationError, match="char-2"):
        store_verify(record)
    path = str(tmp_path / "store.jsonl")
    store_append(record, path)
    with pytest.raises(VerificationError, match="line 1: .*char-2"):
        verify_store_file(path)


def test_char0_claim_rederived():
    # a genuine claim: (1,3,6,9,3) is the compressed profile, reached over Q
    genuine = record_from_classification(
        classify(HVector.parse("1,3,6,9,3"), exact_rational=True))
    assert genuine["characteristic"] == "char-0-verified"
    store_verify(genuine)
    # (1,3,4,2) lies below the compressed profile; the integer lift of its
    # stored residues is a generic cubic pair with larger ranks over Q
    record = record_from_classification(classify(HVector.parse("1,3,4,2")))
    assert record["characteristic"] == "char-p"
    store_verify(record)
    forged = dict(record, characteristic="char-0-verified")
    with pytest.raises(VerificationError, match="char-0-verified"):
        store_verify(forged)


@pytest.mark.parametrize("prime", [4294967291, 2, 91, "2147483647"])
def test_record_prime_outside_the_exact_range_rejected(sample_records, prime):
    record = dict(sample_records[0], prime=prime)
    with pytest.raises(VerificationError, match="prime"):
        store_verify(record)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.jsonl"


def test_frozen_corpus_replays():
    # the benchmark's frozen certificate corpus, only ever read
    assert verify_store_file(str(CORPUS)) == 222


def test_env_default_path(tmp_path, monkeypatch, sample_records):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv(STORE_ENV, path)
    store_append(sample_records[0])
    assert len(store_load()) == 1
    assert verify_store_file() == 1

    monkeypatch.delenv(STORE_ENV)
    with pytest.raises(ValueError):
        store_append(sample_records[0])
    with pytest.raises(ValueError):
        store_load()
