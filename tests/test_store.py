"""Tests for the append-only certificate store and its verifier."""

import copy
import functools
import json
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levellab.classify import Status, build_recipe, classify, expected_h_for_recipe
from levellab.errors import ParseError, VerificationError
from levellab.macaulay import HVector, binomial
from levellab.modules import h_vector, module_from_text, module_to_text
from levellab.constructions import powers_partition_module
from levellab.forms import DEFAULT_PRIME, MAX_MONOMIALS
from levellab.store import (
    CHARACTERISTICS,
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
    # every construction certificate meets its recipe bound, which
    # certifies characteristic 0 below the compressed profile too
    for text in ("1,3,6,9,3", "1,3,4,2", "1,4,4,4,1"):
        record = record_from_classification(classify(HVector.parse(text)))
        assert record["characteristic"] == "char-0-verified"
        store_verify(record)
        store_verify(dict(record, characteristic="char-p"))


def test_char0_claim_without_a_recipe_refused():
    record = record_from_classification(classify(HVector.parse("1,3,4,2")))
    del record["recipe"]
    with pytest.raises(VerificationError, match="without a recipe"):
        store_verify(record)
    store_verify(dict(record, characteristic="char-p"))


def degenerate_record(recipe, prime):
    """An honest char-p record of the first seed whose ranks fall short of
    the recipe bound."""
    bound = expected_h_for_recipe(recipe)
    for seed in range(100):
        module = build_recipe(recipe, Random(seed), prime)
        profile = h_vector(module)
        if profile.h != bound:
            h = profile.h
            return {
                "schema": 1, "h": list(h.entries), "r": h.codimension,
                "e": h.socle_degree, "t": h.type, "status": "level",
                "recipe": recipe, "seed": seed, "prime": prime,
                "ranks": list(profile.dims), "generators": module_to_text(module),
                "characteristic": "char-p",
            }
    raise AssertionError("no degenerate seed found")


def test_char0_claim_short_of_the_bound_refused():
    # at p = 3 two random linear forms are often proportional, so a sum of
    # two squares spans one linear form instead of two
    recipe = {"kind": "sum_of_powers", "nvars": 2, "degree": 2, "count": 2}
    record = degenerate_record(recipe, 3)
    assert record["ranks"] == [1, 1, 1]
    store_verify(record)
    forged = dict(record, characteristic="char-0-verified")
    with pytest.raises(VerificationError, match="bound"):
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


def corpus_records():
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_tampered_rule_detail_rejected():
    # a condition or criterion record stores the text its rule gives, and
    # the rule must give it again word for word
    rules = [record for record in corpus_records() if "detail" in record]
    assert len(rules) == 13
    for record in rules:
        store_verify(record)
        for tampered in (dict(record, detail="anything at all"), dict(record, detail=None)):
            with pytest.raises(VerificationError, match="stored detail .* differs"):
                store_verify(tampered)


def test_corpus_rule_records_are_what_classify_writes():
    # every condition and criterion record of the frozen corpus is written
    # again, key for key, from a fresh verdict
    rules = [record for record in corpus_records() if "detail" in record]
    assert sorted(("condition" in r, "criterion" in r) for r in rules) == (
        [(False, True)] * 9 + [(True, False)] * 4)
    for record in rules:
        written = record_from_classification(classify(HVector(record["h"])))
        assert dict(written, timestamp=None) == dict(record, timestamp=None)


def recipe_free(record, **changes):
    record = dict(record, **changes)
    del record["recipe"]
    return record


CONSTRUCTION = next(r for r in corpus_records() if r.get("recipe"))
MALFORMED = {
    "ranks not a list": dict(CONSTRUCTION, ranks=5),
    "h missing": dict(CONSTRUCTION, h=None),
    "h of floats": dict(CONSTRUCTION, h=[float(v) for v in CONSTRUCTION["h"]]),
    "generators not text": recipe_free(CONSTRUCTION, generators=123),
    "variable outside the ring": recipe_free(
        CONSTRUCTION, generators=CONSTRUCTION["generators"].replace("y2", "y9", 1)),
    "unknown criterion": dict(corpus_records()[0], criterion="wishful"),
    "unknown condition": dict(
        next(r for r in corpus_records() if r["status"] == "nonlevel"), condition="wishful"),
    "not an object": [CONSTRUCTION],
    "status that is a list": dict(CONSTRUCTION, status=["level"]),
    "augment in the wrong ring": dict(
        next(r for r in corpus_records() if (r.get("recipe") or {}).get("kind") == "augment"),
        recipe={"kind": "augment", "nvars": 2, "count": 1,
                "base": {"kind": "powers_partition", "nvars": 3, "degree": 4,
                         "parts": [3, 3, 3]}}),
    "recipe with no variables": dict(
        CONSTRUCTION, recipe=dict(CONSTRUCTION["recipe"], nvars=0)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_record_raises_only_verification_error(tmp_path, name):
    record = MALFORMED[name]
    with pytest.raises(VerificationError):
        store_verify(record)
    path = tmp_path / "store.jsonl"
    path.write_text(json.dumps(CONSTRUCTION) + "\n" + json.dumps(record) + "\n",
                    encoding="utf-8")
    with pytest.raises(VerificationError, match="line 2: "):
        verify_store_file(str(path))


@pytest.mark.parametrize("line, fault", [
    ("{}", "unknown status None"),
    ("[1,2]", "a record must be an object, got list"),
    ('{"status":"level","r":1}', "field e=None is not an integer"),
    ('{"status":["level"],"r":1,"e":1}', r"unknown status \['level'\]"),
])
def test_store_load_names_a_malformed_line(tmp_path, line, fault):
    path = tmp_path / "store.jsonl"
    path.write_text(json.dumps(CONSTRUCTION) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(VerificationError, match=f"line 2: {fault}"):
        store_load(str(path))


def corpus_record_of_kind(kind):
    return copy.deepcopy(
        next(r for r in corpus_records() if (r.get("recipe") or {}).get("kind") == kind))


# Each oversized recipe below is refused before anything is built; without
# the size check several would build for a long time or exhaust memory.
def test_recipe_with_more_variables_than_its_ring_refused():
    record = corpus_record_of_kind("sum_of_powers")
    record["recipe"]["nvars"] = 10**6
    with pytest.raises(VerificationError, match="variables, more than the ring's 4"):
        store_verify(record)
    grown = corpus_record_of_kind("add_variable")
    grown["recipe"]["base"]["nvars"] = 10**6
    with pytest.raises(VerificationError, match="variables"):
        store_verify(grown)


def test_recipe_node_with_too_many_monomials_refused():
    record = corpus_record_of_kind("truncate")
    # a 40-variable ring admits the node's variables, but its sextics number
    # C(45, 6) = 8,145,060
    record["generators"] = record["generators"].replace("ring r=3 ", "ring r=40 ", 1)
    record["recipe"]["source"].update(nvars=40, degree=6)
    with pytest.raises(VerificationError, match="degree 6 in 40 variables has over 131072"):
        store_verify(record)


def test_recipe_node_with_too_many_cells_refused():
    record = corpus_record_of_kind("truncate")
    # the header's 4,095 quadrics in 90 variables pass, and so do the
    # node's 125,580 cubics, but their table holds 11,302,200 exponents
    record["generators"] = record["generators"].replace("ring r=3 ", "ring r=90 ", 1)
    record["recipe"]["source"].update(nvars=90, degree=3)
    with pytest.raises(VerificationError, match="degree 3 in 90 variables .* over 8388608 cells"):
        store_verify(record)


def test_ring_header_too_large_to_build_refused():
    record = recipe_free(corpus_record_of_kind("sum_of_powers"))
    # C(100001, 2) quadric monomials
    record["generators"] = "ring r=100000 e=2\ny1^2\n"
    with pytest.raises(VerificationError, match="degree 2 in 100000 variables has over 131072"):
        store_verify(record)
    # a header whose degree is not the socle degree cannot verify, and
    # module_to_text writes its header first
    for text in ("ring r=1 e=1000000000\ny1^1000000000\n", "# note\nring r=3 e=2\ny1^2\n"):
        record["generators"] = text
        with pytest.raises(VerificationError, match="do not start with 'ring r=<r> e=2'"):
            store_verify(record)
    assert MAX_MONOMIALS >= binomial(40 + 4 - 1, 4) == 123410


def test_ring_header_with_too_many_cells_refused_at_once():
    # 4000 linear monomials are few, but a table of them holds 4000
    # exponents each, 16,000,000 in all
    text = "ring r=4000 e=1\ny1\n"
    record = recipe_free(corpus_record_of_kind("sum_of_powers"), h=[1, 1], r=1, e=1, t=1,
                         ranks=[1, 1], characteristic="char-p", generators=text)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="over 8388608 cells at line 1"):
        module_from_text(text)
    with pytest.raises(VerificationError, match="4000 variables .* over 8388608 cells"):
        store_verify(record)
    assert time.perf_counter() - start < 1


def test_recipe_degree_above_2e_plus_2_refused():
    record = corpus_record_of_kind("truncate")
    record["recipe"]["source"]["degree"] = 10**6
    with pytest.raises(VerificationError, match=r"above 2e \+ 2 = 6"):
        store_verify(record)


@pytest.mark.parametrize("kind, field, value", [
    ("sum_of_powers", "count", 10**7),
    ("powers_partition", "parts", [2, 10**7]),
    ("powers_partition", "parts", [1, 1, 1, 1]),  # 4 generators in dim R_2 = 3
    ("compressed", "count", 10**7),
    ("augment", "count", 10**7),
])
def test_recipe_counts_above_the_ring_dimension_refused(kind, field, value):
    record = corpus_record_of_kind(kind)
    record["recipe"][field] = value
    with pytest.raises(VerificationError, match="exceed dim R_"):
        store_verify(record)


def test_refusal_of_a_long_partition_names_its_first_count_only():
    record = corpus_record_of_kind("powers_partition")
    record["recipe"]["parts"] = [1] * 10**5
    with pytest.raises(VerificationError, match="exceed dim R_") as caught:
        store_verify(record)
    assert len(str(caught.value)) < 200


@pytest.fixture
def no_draws(monkeypatch):
    """store_verify with a build_recipe that fails: a test that still sees
    its VerificationError shows the recipe was refused before any draw."""
    def refuse(*args):
        raise AssertionError("a refused recipe was built")

    monkeypatch.setattr("levellab.store.build_recipe", refuse)


def test_truncate_of_a_source_degree_at_least_the_prime_refused(no_draws):
    record = corpus_record_of_kind("truncate")
    record["prime"] = 5  # above the socle degree 2, but not the source's
    record["recipe"]["source"]["degree"] = 5
    with pytest.raises(VerificationError,
                       match="recipe_size: prime 5 must exceed the socle degree 5"):
        store_verify(record)


def test_augment_naming_other_variables_than_its_base_refused(no_draws):
    record = corpus_record_of_kind("augment")
    record["recipe"]["nvars"] = 2
    with pytest.raises(VerificationError, match="augment names 2 variables, not 3"):
        store_verify(record)


def test_unknown_recipe_kind_refused_by_the_size_walk(no_draws):
    record = corpus_record_of_kind("truncate")
    record["recipe"]["source"]["kind"] = "sum_of_squares"
    with pytest.raises(VerificationError,
                       match="recipe_size: unknown recipe kind 'sum_of_squares'"):
        store_verify(record)


@pytest.mark.parametrize("nodes", [4, 985])
def test_recipe_of_more_than_three_nested_nodes_refused(no_draws, nodes):
    # truncating to the same degree again changes no module, so only the
    # nesting limit refuses these; at about 985 nodes a recursive walk
    # would exhaust CPython's recursion limit
    record = corpus_record_of_kind("truncate")
    for _ in range(nodes - 2):
        record["recipe"] = {"kind": "truncate", "to": 2, "source": record["recipe"]}
    with pytest.raises(VerificationError, match="recipe nests more than 3 nodes"):
        store_verify(record)


@functools.lru_cache(maxsize=None)
def fresh_records() -> tuple[dict, ...]:
    vectors = ("1,3,6,9,3", "1,3,4,2", "1,4,4,4,1", "1,3,3,3,1", "1,3,6,10,3", "1,5,4,5")
    return tuple(record_from_classification(classify(HVector.parse(v))) for v in vectors)


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(-1, 6), max_size=6),
    st.dictionaries(st.text(max_size=4), st.integers(-1, 6), max_size=3),
)


def field_slots(value, slots):
    """Every (container, key) pair inside a record, recipes within recipes too."""
    keys = value.keys() if isinstance(value, dict) else range(len(value))
    for key in keys:
        slots.append((value, key))
        if isinstance(value[key], (dict, list)):
            field_slots(value[key], slots)
    return slots


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_records_raise_only_verification_error(data):
    pool = corpus_records()[::7] + list(fresh_records())
    record = copy.deepcopy(data.draw(st.sampled_from(pool)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = field_slots(record, [])
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        if isinstance(container, dict) and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(JUNK)
    try:
        store_verify(record)
    except VerificationError:
        pass


def nearby_values(key, value) -> list:
    """Values next to ``value`` of its own kind: another status or
    characteristic, an integer off by one, a list short of its last entry or
    with its first raised, a string with its last character changed."""
    vocabulary = {"status": [status.value for status in Status],
                  "characteristic": list(CHARACTERISTICS)}
    if key in vocabulary:
        return [word for word in vocabulary[key] if word != value]
    if isinstance(value, int):
        return [value - 1, value + 1]
    if isinstance(value, list):
        return [value[:-1], [value[0] + 1, *value[1:]]]
    if isinstance(value, str):
        return [value[:-1] + chr(ord(value[-1]) ^ 1)]
    return []


def claim_mutations(record, path=()):
    """(path, value) for each field of ``record``, recipes within recipes
    too: deleted (value None), then set to each of its ``nearby_values``."""
    for key, field in record.items():
        yield path + (key,), None
        for value in nearby_values(key, field):
            yield path + (key,), value
        if isinstance(field, dict):
            yield from claim_mutations(field, path + (key,))


def mutated(record, path, value):
    record = copy.deepcopy(record)
    container = functools.reduce(dict.__getitem__, path[:-1], record)
    if value is None:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    return record


def true_claim(record, path, value) -> str | None:
    """Why a mutation of a corpus record still makes a true claim, or None."""
    char_p = record.get("characteristic") == "char-p"
    if path == ("timestamp",):
        return "the timestamp is no claim"
    if path == ("status",) and value == "unknown":
        return "an unknown record claims nothing"
    if char_p and path == ("recipe",) and value is None:
        return "a record without a recipe is checked from its generators"
    if char_p and path == ("characteristic",) and value is None:
        return "a record without a characteristic claims char-p"
    if char_p and path == ("characteristic",) and value == "char-0-verified":
        return "char0_certified re-derives char-0, and it holds"
    if path == ("recipe", "source", "degree") and record["recipe"]["kind"] == "truncate" \
            and value == 5:
        return "truncated to degree 2, the same powers of degree 4 or 5 span the same squares"
    return None


def test_every_claim_field_is_rechecked():
    # each single-field mutation of a sample of the corpus, at least one
    # record of every kind, is refused, unless it still makes a true claim
    records = corpus_records()
    kinds = {}
    for record in records:
        kinds.setdefault((record["status"], (record.get("recipe") or {}).get("kind"),
                          record.get("criterion"), record.get("condition")), record)
    reasons = set()
    for record in [*kinds.values(), *records[::7]]:
        for path, value in claim_mutations(record):
            reason = true_claim(record, path, value)
            try:
                store_verify(mutated(record, path, value))
            except VerificationError:
                assert reason is None, (path, value, reason)
            else:
                assert reason is not None, (path, value, record)
                reasons.add(reason)
    assert len(reasons) == 6

