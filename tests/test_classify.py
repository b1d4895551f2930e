"""Tests for the classification pipeline and its certificates."""

import dataclasses
import importlib
import json
from pathlib import Path
from random import Random

import numpy as np
import pytest

from levellab.bounds import gorenstein_socle4_interval, socle2_type_range, socle3_interval
from levellab.classify import (
    MAX_RECIPE_DEPTH,
    Certificate,
    Classification,
    Status,
    build_recipe,
    candidate_recipes,
    char0_certified,
    classify,
    expected_h_for_recipe,
    first_rule_firing,
    realize_recipe,
    recipe_size,
    recipe_tag,
    rule_still_fires,
)
from levellab.constructions import DEFAULT_TRIALS, maximal_profile
from levellab.errors import DependentGeneratorsError, HypothesisError, SoundnessError
from levellab.forms import DEFAULT_PRIME
from levellab.macaulay import HVector, binomial
from levellab.modules import HProfile, InverseModule, module_to_text
from levellab.store import record_from_classification


def test_frozen_triple():
    up = classify(HVector.parse("1,3,6,10,4"))
    assert up.status is Status.LEVEL
    assert up.certificate.kind == "construction"
    assert up.certificate.ranks == (1, 3, 6, 10, 4)

    down = classify(HVector.parse("1,3,6,9,3"))
    assert down.status is Status.LEVEL
    assert down.certificate.kind == "construction"

    between = classify(HVector.parse("1,3,6,10,3"))
    assert between.status is Status.NONLEVEL
    assert between.certificate.rule == "ci-range"
    assert "9" in between.certificate.detail


def test_pure_powers_and_field():
    ones = classify(HVector.parse("1,1,1,1,1"))
    assert ones.status is Status.LEVEL
    field = classify(HVector((1,)))
    assert field.status is Status.LEVEL
    assert field.certificate.rule == "field"


def test_necessary_condition_order():
    # growth failure fires before anything else
    name, _ = first_rule_firing("condition", HVector.parse("1,3,5,8,8,5,3,1"))
    assert name == "o-sequence"
    # derivative cap fires on growth-admissible input
    name, _ = first_rule_firing("condition", HVector.parse("1,2,3,1"))
    assert name == "ci-range"
    # type 1 asymmetric, caps fine
    name, _ = first_rule_firing("condition", HVector.parse("1,2,2,1,1"))
    assert name == "gorenstein-symmetry"
    # symmetric codim 3 that is not SI
    name, _ = first_rule_firing("condition", HVector.parse("1,3,6,5,6,3,1"))
    assert name == "si-classification"
    assert first_rule_firing("condition", HVector.parse("1,3,6,9,3")) is None


def test_si_criterion_certificates():
    for text in ("1,3,5,7,7,5,3,1", "1,3,6,8,8,6,3,1", "1,2,3,3,2,1"):
        result = classify(HVector.parse(text))
        assert result.status is Status.LEVEL
        assert result.certificate.kind == "criterion"
        assert result.certificate.rule == "si-classification"


def test_unknown_is_honest():
    # passes every necessary condition but matches no construction recipe
    result = classify(HVector.parse("1,5,4,5"))
    assert result.status is Status.UNKNOWN
    assert result.certificate is None
    assert result.diagnostics


def test_condition_reevaluation():
    assert rule_still_fires("condition", "ci-range", HVector.parse("1,3,6,10,3"))
    assert not rule_still_fires("condition", "ci-range", HVector.parse("1,3,6,9,3"))
    assert rule_still_fires("criterion", "si-classification", HVector.parse("1,3,3,3,1"))
    assert not rule_still_fires("criterion", "si-classification", HVector.parse("1,3,6,9,3"))
    with pytest.raises(ValueError, match="unknown condition 'nonsense'"):
        rule_still_fires("condition", "nonsense", HVector.parse("1,2,1"))
    with pytest.raises(ValueError, match="unknown criterion 'nonsense'"):
        rule_still_fires("criterion", "nonsense", HVector.parse("1,2,1"))


def test_candidate_recipes_match_their_expectation():
    for text in ("1,3,6,9,3", "1,3,6,10,4", "1,7,25", "1,2,3,4", "1,3,5,5,3,1"):
        h = HVector.parse(text)
        recipes = list(candidate_recipes(h))
        assert recipes, text
        for recipe in recipes:
            assert expected_h_for_recipe(recipe) == h


@pytest.mark.parametrize("text", ["1,3,1", "1,5,1", "1,3,3,1", "1,4,4,4,1"])
def test_no_two_candidates_build_the_same_module(text):
    # a sum of m powers and the partition (m) are one build: only the sum stays
    recipes = list(candidate_recipes(HVector.parse(text)))
    texts = [module_to_text(build_recipe(recipe, Random(3))) for recipe in recipes]
    assert len(set(texts)) == len(texts)
    assert recipes[0]["kind"] == "sum_of_powers"


def test_a_power_sum_that_cancels_mod_p_is_a_degenerate_trial():
    # at p = 2 two linear forms cancel now and then: such a trial is skipped
    # like a dependent draw, and the search goes on
    recipe = {"kind": "powers_partition", "nvars": 2, "degree": 1, "parts": [2, 2]}
    with pytest.raises(DependentGeneratorsError, match="cancel mod 2"):
        build_recipe(recipe, Random(2), 2)
    result = classify(HVector.parse("1,2"), prime=2)
    assert result.status is Status.LEVEL and result.certificate.recipe == recipe


def test_expected_arithmetic_for_composite_recipes():
    trunc = {"kind": "truncate", "to": 3,
             "source": {"kind": "sum_of_powers", "nvars": 3, "degree": 6, "count": 5}}
    assert expected_h_for_recipe(trunc) == (1, 3, 5, 5)
    grown = {"kind": "add_variable",
             "base": {"kind": "compressed", "nvars": 2, "degree": 3, "count": 2}}
    assert expected_h_for_recipe(grown) == (1, 3, 4, 3)
    aug = {"kind": "augment", "nvars": 3, "count": 1,
           "base": {"kind": "powers_partition", "nvars": 3, "degree": 4,
                    "parts": [3, 3, 3]}}
    assert expected_h_for_recipe(aug) == (1, 3, 6, 10, 4)
    with pytest.raises(ValueError):
        expected_h_for_recipe({"kind": "nonsense"})


def test_recipe_size_refuses_an_unknown_kind():
    bogus = {"kind": "bogus", "nvars": 3, "degree": 2, "count": 2}
    with pytest.raises(ValueError, match="unknown recipe kind 'bogus'"):
        recipe_size(bogus, 3, 2, 101)
    with pytest.raises(ValueError, match="unknown recipe kind 'bogus'"):
        recipe_size({"kind": "add_variable", "base": bogus}, 4, 2, 101)


@pytest.mark.parametrize("to", [0, 5])
def test_recipe_size_refuses_a_truncate_outside_its_source_degrees(to):
    # the source has degree 4: degree 0 and degree 5 are no truncation of it
    recipe = {"kind": "truncate", "to": to,
              "source": {"kind": "sum_of_powers", "nvars": 3, "degree": 4, "count": 3}}
    with pytest.raises(ValueError, match=f"truncation degree must be in 1..4, got {to}"):
        recipe_size(recipe, 3, 4, 101)
    assert recipe_size(dict(recipe, to=4), 3, 4, 101) == (3, 4)


@pytest.mark.parametrize("to", [0, 5])
def test_a_truncate_bound_refuses_a_degree_outside_its_source(to):
    # the source's own bound 1,2,2,2,1 at to = 5, and 1 at to = 0, were
    # answered as the truncate's bound and certified ranks of that length
    recipe = {"kind": "truncate", "to": to,
              "source": {"kind": "sum_of_powers", "nvars": 3, "degree": 4, "count": 2}}
    for read in (expected_h_for_recipe, lambda rc: char0_certified(rc, (1, 2, 2, 2, 1)),
                 lambda rc: char0_certified(rc, (1,))):
        with pytest.raises(ValueError, match=f"^truncation degree must be in 1..4, got {to}$"):
            read(recipe)
    kept = expected_h_for_recipe(dict(recipe, to=2))
    assert kept == (1, 2, 2) and type(kept) is HVector


BASE_2_2 = {"kind": "sum_of_powers", "nvars": 3, "degree": 2, "count": 2}


@pytest.mark.parametrize("recipe", [
    dict(BASE_2_2, count=0),
    dict(BASE_2_2, count=-1),
    {"kind": "compressed", "nvars": 3, "degree": 2, "count": 0},
    {"kind": "augment", "nvars": 3, "count": 0, "base": BASE_2_2},
])
def test_a_count_below_one_is_refused_by_the_walk_and_the_bound(recipe):
    with pytest.raises(ValueError, match=f"^{recipe['kind']} count must be at least 1, "
                                         f"got {recipe['count']}$"):
        recipe_size(recipe, 3, 2, 101)
    with pytest.raises(ValueError, match="at least one"):
        expected_h_for_recipe(recipe)


def nested_chain(nodes: int) -> dict:
    """A power sum inside ``nodes`` - 1 add-variable nodes."""
    recipe = {"kind": "sum_of_powers", "nvars": 2, "degree": 2, "count": 1}
    for _ in range(nodes - 1):
        recipe = {"kind": "add_variable", "base": recipe}
    return recipe


@pytest.mark.parametrize("nodes", [MAX_RECIPE_DEPTH + 1, 3000])
def test_every_recipe_reader_refuses_a_recipe_nested_too_deeply(nodes):
    recipe = nested_chain(nodes)
    readers = (expected_h_for_recipe, lambda rc: build_recipe(rc, Random(1)),
               lambda rc: recipe_size(rc, 5000, 2, 101))
    for read in readers:
        with pytest.raises(ValueError, match=f"^recipe nests more than {MAX_RECIPE_DEPTH} nodes$"):
            read(recipe)


def test_recipe_size_takes_no_depth_of_its_own():
    deepest = nested_chain(MAX_RECIPE_DEPTH)
    assert recipe_size(deepest, 4, 2, 101) == (4, 2)
    assert expected_h_for_recipe(deepest) == (1, 3, 3)
    with pytest.raises(TypeError):
        recipe_size(nested_chain(MAX_RECIPE_DEPTH + 2), 6, 2, 101, depth=-5)


def test_build_recipe_replays_byte_identically():
    recipe = {"kind": "augment", "nvars": 3, "count": 1,
              "base": {"kind": "powers_partition", "nvars": 3, "degree": 4,
                       "parts": [3, 3, 3]}}
    first = build_recipe(recipe, Random(99))
    second = build_recipe(recipe, Random(99))
    assert first == second
    other = build_recipe(recipe, Random(100))
    assert other != first


def test_classify_is_deterministic():
    a = classify(HVector.parse("1,3,6,9,3"), master_seed=7)
    b = classify(HVector.parse("1,3,6,9,3"), master_seed=7)
    assert a.certificate.seed == b.certificate.seed
    assert a.certificate.generators == b.certificate.generators
    c = classify(HVector.parse("1,3,6,9,3"), master_seed=8)
    assert c.status is Status.LEVEL


def test_a_certificate_holds_its_module_and_prints_it_on_each_read():
    result = classify(HVector.parse("1,3,6,9,3"), master_seed=7)
    cert = result.certificate
    assert "generators" not in {field.name for field in dataclasses.fields(Certificate)}
    assert isinstance(cert.module, InverseModule)
    # the winner of the recipe's trials, rebuilt from its seed
    module, _, seed = realize_recipe(cert.recipe, 7, DEFAULT_TRIALS, cert.prime)
    assert (cert.module, cert.seed) == (module, seed)
    first, second = cert.generators, cert.generators
    assert first == second == module_to_text(cert.module) and first is not second
    assert record_from_classification(result)["generators"] == first
    assert Certificate(kind="criterion").generators is None


def test_classify_monotone_in_budget():
    h = HVector.parse("1,3,6,10,4")
    small = classify(h, 1)
    large = classify(h, 8)
    assert small.status is Status.LEVEL
    assert large.status is Status.LEVEL


def test_budget_without_trials_refused():
    # no trial ran, so "every trial degenerated" would be a false diagnosis
    for trials in (0, -3):
        with pytest.raises(ValueError, match=f"at least one trial, got {trials}"):
            classify(HVector.parse("1,3,4,2"), trials)
        with pytest.raises(ValueError, match=f"at least one trial, got {trials}"):
            maximal_profile(lambda rng: None, 0, trials)


def test_certificates_are_char0_verified():
    # (1,3,6,9,3) is compressed; the other three lie below the compressed
    # profile, where only the recipe bound certifies characteristic 0
    for text in ("1,3,6,9,3", "1,4,4,4,1", "1,4,5,4,1", "1,3,4,2"):
        result = classify(HVector.parse(text))
        assert result.status is Status.LEVEL, text
        cert = result.certificate
        assert cert.characteristic == "char-0-verified"
        assert char0_certified(cert.recipe, cert.ranks)


def test_char0_certified_is_the_recipe_bound():
    recipe = {"kind": "sum_of_powers", "nvars": 4, "degree": 4, "count": 4}
    assert char0_certified(recipe, (1, 4, 4, 4, 1))
    assert char0_certified(recipe, [1, 4, 4, 4, 1])
    assert not char0_certified(recipe, (1, 4, 3, 4, 1))
    assert not char0_certified(recipe, (1, 4, 4, 4))


def test_profile_above_the_recipe_bound_is_a_soundness_error(monkeypatch):
    def inflated(recipe, master_seed, trials, p):
        module, _, seed = realize_recipe(recipe, master_seed, trials, p)
        return module, HProfile(HVector((1, 3, 5, 2))), seed

    # the package exports the function classify under the module's name
    module = importlib.import_module("levellab.classify")
    monkeypatch.setattr(module, "realize_recipe", inflated)
    with pytest.raises(SoundnessError, match="above its bound"):
        classify(HVector.parse("1,3,4,2"))


def test_recipe_tag_is_canonical():
    a = recipe_tag({"kind": "compressed", "nvars": 3, "degree": 2, "count": 4})
    b = recipe_tag({"count": 4, "degree": 2, "nvars": 3, "kind": "compressed"})
    assert a == b


def test_a_verdict_keeps_no_status_of_its_own():
    assert [f.name for f in dataclasses.fields(Classification)] == [
        "h", "certificate", "trials_used", "diagnostics"]
    h = HVector((1, 2, 1))
    assert Classification(h).status is Status.UNKNOWN
    for kind, status in (("condition", Status.NONLEVEL), ("criterion", Status.LEVEL),
                         ("construction", Status.LEVEL)):
        assert Classification(h, Certificate(kind)).status is status


@pytest.mark.parametrize("h, kwargs, kind", [
    ((1, 3, 5, 3), {"master_seed": 1}, "construction"),  # its recipe is a dict
    ((1, 3, 5, 7, 7, 5, 3, 1), {}, "criterion"),
    ((1, 3, 6, 10, 3), {}, "condition"),
    ((1, 4, 8, 9), {"trials": 1, "master_seed": 7}, None),
])
def test_equal_verdicts_hash_alike(h, kwargs, kind):
    a, b = classify(h, **kwargs), classify(h, **kwargs)
    assert (a.certificate and a.certificate.kind) == kind
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    if kind == "construction":
        # an equal recipe in another dict hashes the same
        twin = dataclasses.replace(a.certificate, recipe=dict(reversed(a.certificate.recipe.items())))
        assert twin == a.certificate and hash(twin) == hash(a.certificate)


def test_classify_repeats_verdict_certificate_and_diagnostics():
    # the budget counts trials only, so machine load cannot change a verdict
    for text in ("1,7,25", "1,5,4,5", "1,3,4,2"):
        a = classify(HVector.parse(text), 2, master_seed=3)
        b = classify(HVector.parse(text), 2, master_seed=3)
        assert a == b


def test_certificates_depend_on_integer_values_not_types():
    # seeds hash the repr of their tags, so every integer argument is read
    # as a plain int first; True reads as 1, as operator.index has it
    h = (1, 3, 4, 2)
    want = classify(h, 2, master_seed=5, prime=101).certificate
    assert want.kind == "construction"
    for cast in (np.int64, np.int32, np.uint8):
        got = classify(h, cast(2), master_seed=cast(5), prime=cast(101)).certificate
        assert got == want and type(got.prime) is int
    ones = classify(h, 1, master_seed=1).certificate
    assert classify(h, True, master_seed=True).certificate == ones


def test_classify_refuses_a_non_integer_argument_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a recipe was realized before the refusal")

    monkeypatch.setattr(importlib.import_module("levellab.classify"), "realize_recipe", refuse)
    h = (1, 3, 4, 2)
    for kwargs, name in (({"trials": 2.0}, "trials"), ({"trials": "2"}, "trials"),
                         ({"master_seed": 5.0}, "master_seed"),
                         ({"master_seed": "5"}, "master_seed"),
                         ({"prime": 101.0}, "prime"), ({"prime": "101"}, "prime")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            classify(h, **kwargs)


def test_certificate_ranks_share_the_verdicts_entries():
    result = classify(HVector.parse("1,3,4,2"))
    assert result.certificate.ranks is result.h.entries


def test_classify_refuses_primes_outside_the_exact_range():
    h = HVector.parse("1,3,6,9,3")
    for prime in (4294967291, 2**61 - 1, 3, 91):
        with pytest.raises(HypothesisError, match=str(prime)):
            classify(h, prime=prime)


def test_classify_refuses_a_ring_the_store_refuses(monkeypatch):
    # every candidate for (1,300,1) names the 300-variable quadrics, whose
    # table of 45,150 monomials holds 13,545,000 exponents; none is built
    monkeypatch.setattr(importlib.import_module("levellab.classify"),
                        "realize_recipe", None)
    with pytest.raises(HypothesisError, match="degree 2 in 300 variables .* over 8388608 cells"):
        classify(HVector((1, 300, 1)))


def test_classify_refuses_a_huge_ring_before_listing_candidates(monkeypatch):
    # 200,000 linear forms: a powers_partition candidate's tag alone would
    # run past a megabyte
    monkeypatch.setattr(importlib.import_module("levellab.classify"),
                        "candidate_recipes", None)
    with pytest.raises(HypothesisError) as refused:
        classify(HVector((1, 200000)))
    message = str(refused.value)
    assert len(message) < 200
    assert "1,200000" in message and "degree 1 in 200000 variables" in message
    # (1,300,10,2) matches no candidate, and its ring is refused all the same
    with pytest.raises(HypothesisError, match="degree 3 in 300 variables"):
        classify(HVector((1, 300, 10, 2)))
    # the rules still decide first
    verdict = classify(HVector((1, 200000, 10**11)))
    assert (verdict.status, verdict.certificate.rule) == (Status.NONLEVEL, "o-sequence")


def test_classify_skips_refused_candidates_and_tries_the_rest(monkeypatch):
    # the degree-6 truncate sources of (1,20,30) and of its add-variable base
    # are refused; the other eight candidates are admitted.  Each admitted one
    # is made to degenerate, since building them takes about a minute.
    built = []

    def degenerate(recipe, *args):
        built.append(recipe)
        raise DependentGeneratorsError("stub")

    monkeypatch.setattr(importlib.import_module("levellab.classify"),
                        "realize_recipe", degenerate)
    hv = HVector((1, 20, 30))
    recipes = list(candidate_recipes(hv))
    result = classify(hv, 1)
    refused = [d for d in result.diagnostics if d.startswith("refused ")]
    assert result.status is Status.UNKNOWN
    assert len(recipes) == 10 and len(built) == 8 and len(refused) == 2
    assert built == [rc for rc in recipes if '"degree":6' not in recipe_tag(rc)]
    assert all("degree 6 in" in line and "over 131072 monomials" in line
               for line in refused)


def test_classify_skips_candidates_that_need_a_larger_prime(monkeypatch):
    # at p = 5 the partition candidate of (1,3,4,4) degenerates in its one
    # trial, and the truncates of quintics and above cannot be built mod 5:
    # they are refused, and an add-variable candidate is level
    hv = HVector((1, 3, 4, 4))
    result = classify(hv, 1, prime=5)
    assert result.status is Status.LEVEL
    assert result.certificate.recipe["kind"] == "add_variable"
    refused = [d for d in result.diagnostics if d.startswith("refused ")]
    assert [line.split("prime 5 must exceed the socle degree ")[1][0] for line in refused] == [
        "5", "6", "7", "8"]
    assert all('{"kind":"truncate"' in line for line in refused)
    # when every candidate needs a larger prime, the first refusal is raised
    truncates = [rc for rc in candidate_recipes(hv) if rc["kind"] == "truncate"]
    monkeypatch.setattr(importlib.import_module("levellab.classify"), "candidate_recipes",
                        lambda h: truncates)
    with pytest.raises(HypothesisError, match="prime 5 must exceed the socle degree 5"):
        classify(hv, 1, prime=5)


def recorded(monkeypatch, name):
    """Calls of a ``levellab.classify`` function, by first argument, as
    ``classify`` makes them."""
    module = importlib.import_module("levellab.classify")
    calls, real = [], getattr(module, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def test_classify_works_out_no_candidate_after_the_winner(monkeypatch):
    # (1,3,4,4) is level by its first candidate, the partition (1,1,1,1);
    # four truncates and seven add-variable candidates follow it
    hv = HVector((1, 3, 4, 4))
    recipes = list(candidate_recipes(hv))
    assert [rc["kind"] for rc in recipes].count("add_variable") == 7
    bounded = recorded(monkeypatch, "expected_h_for_recipe")
    realized = recorded(monkeypatch, "realize_recipe")
    result = classify(hv, 1, master_seed=7)
    assert result.status is Status.LEVEL and result.certificate.recipe == recipes[0]
    assert realized == recipes[:1]
    # the partition (3,3,3,3) misses h, then the winner: no truncate is
    # bounded, and no add-variable base in two variables
    assert bounded == [dict(recipes[0], parts=[3, 3, 3, 3]), recipes[0]]


def test_an_unknown_verdict_realizes_every_candidate_in_order(monkeypatch):
    # at p = 5 and seed 7 both candidates of (1,3,6,2) realize (1,3,5,2)
    hv = HVector((1, 3, 6, 2))
    recipes = list(candidate_recipes(hv))
    realized = recorded(monkeypatch, "realize_recipe")
    result = classify(hv, 1, master_seed=7, prime=5)
    assert result.status is Status.UNKNOWN
    assert len(recipes) == 2 and realized == recipes
    assert result.diagnostics == tuple(
        f"{recipe_tag(rc)} realized 1,3,5,2, wanted 1,3,6,2" for rc in recipes)
    assert result.trials_used == 2


def one_trial_status(entries):
    return classify(HVector(entries), 1, master_seed=7).status


def test_classify_never_contradicts_the_paper_intervals():
    # socle3_interval (t >= r - 2) and gorenstein_socle4_interval are proven
    # level from any level start: from the least value classify certifies,
    # no member may come out nonlevel, while every value above the sharp cap
    # must.  Members may stay unknown: a construction can miss.
    for r in range(2, 7):
        for t in range(max(1, r - 2), binomial(r + 2, 3) + 1):
            cap = min(r * t, binomial(r + 1, 2))
            start = next((a for a in range(1, cap + 1)
                          if one_trial_status((1, r, a, t)) is Status.LEVEL), None)
            members = socle3_interval(r, start, t) if start else ()
            assert all(one_trial_status((1, r, b, t)) is not Status.NONLEVEL
                       for b in members), (r, t)
            assert all(one_trial_status((1, r, b, t)) is Status.NONLEVEL
                       for b in range(cap + 1, cap + 4)), (r, t)
    for r in range(2, 8):
        cap = binomial(r + 1, 2)
        start = next(a for a in range(1, cap + 1)
                     if one_trial_status((1, r, a, r, 1)) is Status.LEVEL)
        assert all(one_trial_status((1, r, b, r, 1)) is not Status.NONLEVEL
                   for b in gorenstein_socle4_interval(r, start)), r
        assert all(one_trial_status((1, r, b, r, 1)) is Status.NONLEVEL
                   for b in range(cap + 1, cap + 4)), r
    # socle degree 2: (1, r, t) is nonlevel exactly outside socle2_type_range(r)
    for r in range(1, 9):
        types = socle2_type_range(r)
        for t in range(1, types.stop + 3):
            assert (one_trial_status((1, r, t)) is Status.NONLEVEL) == (t not in types), (r, t)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.jsonl"


def test_level_verdicts_and_certificates_hold_at_one_more_trial():
    # every fifth of the 204 criterion-10 candidates that open the frozen
    # corpus.  Only the verdict is guaranteed: an earlier recipe could win
    # with an added trial, but on these 41 none does.
    lines = CORPUS.read_text(encoding="utf-8").splitlines()[:204:5]
    level = 0
    for h in (HVector(json.loads(line)["h"]) for line in lines):
        results = [classify(h, k, master_seed=11) for k in (1, 2, 3)]
        for smaller, larger in zip(results, results[1:]):
            if smaller.status is Status.LEVEL:
                level += 1
                assert larger.status is Status.LEVEL, h
                assert larger.certificate == smaller.certificate, h
    assert level == 82


def recipe_depth(recipe):
    inner = recipe.get("source") or recipe.get("base")
    return 1 + (recipe_depth(inner) if inner else 0)


def test_recipe_size_admits_every_candidate_of_the_criterion_10_vectors():
    # the 204 criterion-10 candidates that open the frozen corpus; the
    # deepest candidate, add_variable of a truncate of a power sum, sets the
    # nesting limit
    lines = CORPUS.read_text(encoding="utf-8").splitlines()[:204]
    depths = set()
    for h in (HVector(json.loads(line)["h"]) for line in lines):
        for recipe in candidate_recipes(h):
            recipe_size(recipe, h.codimension, h.socle_degree, DEFAULT_PRIME)
            depths.add(recipe_depth(recipe))
    assert max(depths) == MAX_RECIPE_DEPTH == 3
