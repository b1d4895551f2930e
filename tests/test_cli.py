"""End-to-end tests of the command line interface via main()."""

import argparse
import importlib
import io

import pytest

from levellab.classify import Certificate, Classification
from levellab.cli import STORE_ENV, build_parser, main


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_expand():
    code, text = run(["expand", "25", "2"])
    assert code == 0
    assert text == "25 = C(7,2)+C(4,1)\n"


def test_bound_rules():
    code, text = run(["bound", "upper", "25", "2"])
    assert (code, text) == (0, "66\n")
    code, text = run(["bound", "bg", "25", "2"])
    assert (code, text) == (0, "7\n")
    code, text = run(["bound", "ci", "25", "2", "10"])
    assert (code, text) == (0, "7..10\n")
    code, text = run(["bound", "ci", "2", "2", "1"])
    assert code == 0
    assert text.startswith("infeasible")


def test_bound_ci_needs_variable_count(capsys):
    code, text = run(["bound", "ci", "25", "2"])
    assert code == 1
    assert text == ""
    assert "error:" in capsys.readouterr().err


def test_osequence_and_si():
    assert run(["osequence", "1,3,6,10"]) == (0, "ok\n")
    code, text = run(["osequence", "1,3,5,8,8,5,3,1"])
    assert code == 0
    assert text.startswith("violation:")

    assert run(["si", "1,3,5,7,7,5,3,1"]) == (0, "ok\n")
    assert run(["si", "1,3,6,10,4"]) == (0, "violation: not symmetric\n")
    code, text = run(["si", "1,3,6,5,6,3,1"])
    assert (code, text) == (0, "violation: first half is not differentiable\n")


def test_classify_outputs():
    code, text = run(["classify", "1,3,6,9,3"])
    assert code == 0
    assert "status: level" in text
    assert "certificate: construction" in text
    assert "ranks: 1,3,6,9,3" in text

    code, text = run(["classify", "1,3,6,10,3"])
    assert code == 0
    assert "status: nonlevel" in text
    assert "condition: ci-range" in text

    code, text = run(["classify", "1,5,4,5"])
    assert code == 0
    assert "status: unknown" in text
    assert "note:" in text


FROZEN_VERDICTS = [
    (["classify", "1,3,6,10,3"],
     "h: 1,3,6,10,3\n"
     "status: nonlevel\n"
     "condition: ci-range\n"
     "detail: degree 3 entry 10 exceeds the derivative cap 3*3 = 9\n"),
    (["classify", "1,3,5,7,7,5,3,1"],
     "h: 1,3,5,7,7,5,3,1\n"
     "status: level\n"
     "certificate: criterion si-classification\n"
     "detail: type 1 h-vectors in at most 3 variables are exactly the SI-sequences,"
     " and this one is SI\n"),
    (["classify", "1"],
     "h: 1\n"
     "status: level\n"
     "certificate: criterion field\n"
     "detail: socle degree 0 is the base field\n"),
    (["classify", "1,3,6,9,3"],
     "h: 1,3,6,9,3\n"
     "status: level\n"
     "certificate: construction powers_partition\n"
     "seed: 7425791258405952788\n"
     "prime: 2147483647\n"
     "ranks: 1,3,6,9,3\n"
     "characteristic: char-0-verified\n"),
    (["classify", "1,4,8,9", "--trials", "1", "--seed", "7"],
     "h: 1,4,8,9\n"
     "status: unknown\n"
     "note: no construction recipe matches this h-vector\n"),
    (["scan-ic", "1,3,6,10,3", "--at", "3", "--from", "8", "--to", "11"],
     "base: 1,3,6,10,3  degrees: 3\n"
     "value 8: level (powers_partition)\n"
     "value 9: level (powers_partition)\n"
     "value 10: nonlevel (ci-range)\n"
     "value 11: nonlevel (o-sequence)\n"
     "gaps: none\n"),
    (["scan-ic", "1,2,1", "--at", "2", "--from", "1", "--to", "4"],
     "base: 1,2,1  degrees: 2\n"
     "value 1: level (si-classification)\n"
     "value 2: level (powers_partition)\n"
     "value 3: level (powers_partition)\n"
     "value 4: nonlevel (o-sequence)\n"
     "gaps: none\n"),
]


@pytest.mark.parametrize("argv, text", FROZEN_VERDICTS,
                         ids=[" ".join(a) for a, _ in FROZEN_VERDICTS])
def test_verdict_output_is_frozen(capsys, argv, text):
    # one verdict of each witness kind (condition, criterion, construction,
    # none) and scan labels of all three kinds, byte for byte
    assert run(argv) == (0, text)
    assert capsys.readouterr().err == ""


def test_construct_powers():
    code, text = run(["construct", "powers", "3", "5", "5"])
    assert code == 0
    assert text.startswith("# h: 1,3,5,5,3,1\n# seed: ")
    assert "ring r=3 e=5" in text


def test_construct_is_deterministic():
    first = run(["construct", "compressed", "3", "4", "2", "--seed", "11"])
    second = run(["construct", "compressed", "3", "4", "2", "--seed", "11"])
    assert first == second
    third = run(["construct", "compressed", "3", "4", "2", "--seed", "12"])
    assert third != first


# Every family's stdout at --seed 9: any change to what a family draws, or
# in which order, shows here.
FROZEN_CONSTRUCT = [
    (["powers", "3", "5", "5", "--seed", "9"],
     "# h: 1,3,5,5,3,1\n"
     "# seed: 12935857645263839508\n"
     "ring r=3 e=5\n"
     "1479208763*y1^5 + 1712452145*y1^4*y2 + 173595156*y1^3*y2^2"
     " + 490166549*y1^2*y2^3 + 564007463*y1*y2^4 + 1158044390*y2^5"
     " + 293833346*y1^4*y3 + 1487029254*y1^3*y2*y3 + 769269906*y1^2*y2^2*y3"
     " + 951321557*y1*y2^3*y3 + 1096744365*y2^4*y3 + 1006873490*y1^3*y3^2"
     " + 1450391064*y1^2*y2*y3^2 + 1629208786*y1*y2^2*y3^2"
     " + 1315245275*y2^3*y3^2 + 2093050671*y1^2*y3^3 + 206887699*y1*y2*y3^3"
     " + 1128648242*y2^2*y3^3 + 424307013*y1*y3^4 + 1332892590*y2*y3^4"
     " + 1806547623*y3^5\n"
    ),
    (["compressed", "2", "3", "2", "--seed", "9"],
     "# h: 1,2,3,2\n"
     "# seed: 7835513308047264237\n"
     "ring r=2 e=3\n"
     "1488577976*y1^3 + 1457471475*y1^2*y2 + 1715006291*y1*y2^2"
     " + 1079541384*y2^3\n"
     "337612200*y1^3 + 311407738*y1^2*y2 + 2136606868*y1*y2^2"
     " + 1981575042*y2^3\n"
    ),
    (["socle2", "3", "4", "--seed", "9"],
     "# h: 1,3,4\n"
     "# seed: 750400037937446319\n"
     "ring r=3 e=2\n"
     "974754578*y1^2 + 653558306*y1*y2 + 340243130*y2^2 + 737363767*y1*y3"
     " + 1251206911*y2*y3 + 732612370*y3^2\n"
     "93356072*y1^2 + 109722817*y1*y2 + 317244107*y2^2 + 176604633*y1*y3"
     " + 110223787*y2*y3 + 1863506515*y3^2\n"
     "1952826140*y1^2 + 2043065224*y1*y2 + 1168277633*y2^2 + 1730462725*y1*y3"
     " + 1517974140*y2*y3 + 1357231278*y3^2\n"
     "1605305478*y1^2 + 1733158361*y1*y2 + 1285815435*y2^2 + 551853860*y1*y3"
     " + 2141306302*y2*y3 + 791599156*y3^2\n"
    ),
    (["socle3", "3", "--parts", "3,2", "--seed", "9"],
     "# h: 1,3,5,2\n"
     "# seed: 13002037647471662259\n"
     "ring r=3 e=3\n"
     "1284027198*y1^3 + 502897622*y1^2*y2 + 898144660*y1*y2^2"
     " + 1620256538*y2^3 + 350673755*y1^2*y3 + 19231131*y1*y2*y3"
     " + 709246963*y2^2*y3 + 924188541*y1*y3^2 + 396101976*y2*y3^2"
     " + 1304024487*y3^3\n"
     "1597529655*y1^3 + 1060661338*y1^2*y2 + 1280687259*y1*y2^2"
     " + 1713361614*y2^3 + 1453888298*y1^2*y3 + 2121607380*y1*y2*y3"
     " + 1086859373*y2^2*y3 + 797756297*y1*y3^2 + 808936363*y2*y3^2"
     " + 1266679752*y3^3\n"
    ),
]


@pytest.mark.parametrize("argv, text", FROZEN_CONSTRUCT, ids=[a[0] for a, _ in FROZEN_CONSTRUCT])
def test_construct_output_is_frozen(argv, text):
    assert run(["construct", *argv]) == (0, text)


@pytest.mark.parametrize("argv, fault", [
    (["socle2", "3", "7"], "hypothesis: socle degree 2 type must be in 1..6, got 7"),
    (["socle3", "3", "--parts", "4"],
     "hypothesis: socle degree 3 parts must be nonempty with entries in 1..3, got (4,)"),
    (["socle3", "3", "--parts", "2,0"],
     "hypothesis: socle degree 3 parts must be nonempty with entries in 1..3, got (2, 0)"),
    (["socle3", "3"], "value: socle3 needs --parts, e.g. --parts 3,3,2"),
    (["socle2", "2", "1", "--parts", "9,9", "--seed", "1"],
     "value: --parts applies to socle3 only, not socle2"),
    (["powers", "3", "4", "2", "--parts", "2"],
     "value: --parts applies to socle3 only, not powers"),
    (["compressed", "2", "3", "1", "--parts", "1"],
     "value: --parts applies to socle3 only, not compressed"),
])
def test_construct_refuses_a_family_outside_its_hypothesis(capsys, argv, fault):
    assert run(["construct", *argv]) == (1, "")
    assert capsys.readouterr().err == f"error: {fault}\n"


def test_file_pipeline(tmp_path):
    module_file = str(tmp_path / "module.txt")
    code, text = run(["construct", "socle3", "3", "--parts", "3,3"])
    assert code == 0
    assert text.startswith("# h: 1,3,6,2\n")
    with open(module_file, "w", encoding="utf-8") as fh:
        fh.write(text)

    code, text = run(["hvec", module_file])
    assert code == 0
    assert "h: 1,3,6,2" in text
    assert "type: 2" in text

    code, text = run(["augment", module_file, "--count", "1"])
    assert code == 0
    assert text.startswith("# h: 1,3,6,3\n")
    bigger_file = str(tmp_path / "bigger.txt")
    with open(bigger_file, "w", encoding="utf-8") as fh:
        fh.write(text)

    code, text = run(["truncate", bigger_file, "--to", "2"])
    assert code == 0
    assert text.startswith("# h: 1,3,6\n")

    code, text = run(["quotient", bigger_file, "--type", "1"])
    assert code == 0
    assert text.startswith("# h: 1,")


def test_quotient_type_too_large(tmp_path, capsys):
    code, text = run(["construct", "socle3", "3", "--parts", "3,3"])
    module_file = str(tmp_path / "module.txt")
    with open(module_file, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, text = run(["quotient", module_file, "--type", "9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    code, text = run(["hvec", "/nonexistent/module.txt"])
    assert code == 1
    assert "error: io:" in capsys.readouterr().err


def test_scan_store_verify_report(tmp_path):
    store = str(tmp_path / "store.jsonl")
    code, text = run(["scan-ic", "1,3,6,3", "--at", "2",
                      "--from", "3", "--to", "6", "--store", store])
    assert code == 0
    assert "base: 1,3,6,3  degrees: 2" in text
    assert "value 3: level" in text
    assert "gaps: none" in text

    code, text = run(["verify", store])
    assert (code, text) == (0, "verified 4 records\n")

    code, text = run(["report", store])
    assert code == 0
    assert "records: 4" in text
    assert "level: 4  nonlevel: 0  unknown: 0" in text
    assert "family r=3 e=3: 4" in text


def test_verify_without_store_fails(capsys):
    code, text = run(["verify"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_env_default_path(tmp_path, monkeypatch, capsys):
    # only the command line reads the variable: a store named by neither a
    # flag nor a file argument
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv(STORE_ENV, str(path))
    assert run(["classify", "1,3,6,10,3"])[0] == 0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1
    assert run(["verify"]) == (0, "verified 1 records\n")
    code, text = run(["report"])
    assert code == 0 and text.startswith("records: 1\n")

    monkeypatch.delenv(STORE_ENV)
    capsys.readouterr()
    for command in ("verify", "report"):
        assert run([command]) == (1, "")
        assert capsys.readouterr().err == (
            "error: value: no store path given and LEVELLAB_STORE is not set\n")
    assert run(["classify", "1,3,6,10,3"])[0] == 0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_usage_errors_exit_2():
    for h in ("1,x,3", "1,3,,6,3"):
        with pytest.raises(SystemExit) as exc:
            run(["classify", h])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["bound"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    # a flag the command does not read is refused, not ignored
    for argv in (["expand", "25", "2", "--seed", "1"],
                 ["verify", "f", "--store", "g"],
                 ["verify", "runs.jsonl", "--prime", "101"],
                 ["report", "f", "--trials", "3"],
                 ["hvec", "f", "--seed", "1"],
                 ["augment", "f", "--count", "1", "--trials", "2"],
                 ["construct", "powers", "3", "5", "5", "--store", "s"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


SUBCOMMAND_FLAGS = {
    "hvec": {"--prime"},
    "truncate": {"--prime"},
    "augment": {"--prime", "--seed"},
    "quotient": {"--prime", "--seed"},
    "construct": {"--prime", "--seed", "--trials"},
    **{name: {"--prime", "--seed", "--trials", "--store"}
       for name in ("classify", "scan-ic", "scan-gic")},
    **{name: set() for name in ("expand", "bound", "osequence", "si", "verify", "report")},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    shared = {"--prime", "--seed", "--trials", "--store"}
    taken = {name: shared & {flag for action in parser._actions
                             for flag in action.option_strings}
             for name, parser in sub.choices.items()}
    assert taken == SUBCOMMAND_FLAGS
    assert sum(map(len, taken.values())) == 21


def test_nonprime_modulus_rejected(capsys):
    code, text = run(["classify", "1,3,6,9,3", "--prime", "10"])
    assert code == 1
    assert text == ""
    assert "error: hypothesis: modulus 10 is not prime" in capsys.readouterr().err


def test_classify_refuses_a_ring_the_store_refuses(monkeypatch, capsys):
    # refused before any candidate is built
    monkeypatch.setattr(importlib.import_module("levellab.classify"),
                        "realize_recipe", None)
    code, text = run(["classify", "1,300,1"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: hypothesis: ")
    assert "degree 2 in 300 variables" in err and "over 8388608 cells" in err


def test_classify_refuses_a_huge_ring_in_one_short_line(capsys):
    code, text = run(["classify", "1,200000"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: hypothesis: ") and err.count("\n") == 1
    assert len(err) < 200 and "degree 1 in 200000 variables" in err


def test_classify_skips_a_candidate_the_prime_cannot_build(capsys):
    # the truncate candidates of (1,3,4,4) need a prime above 5; another
    # candidate still certifies the vector
    code, text = run(["classify", "1,3,4,4", "--trials", "1", "--prime", "5"])
    assert code == 0 and capsys.readouterr().err == ""
    assert "status: level\n" in text and "prime: 5\n" in text


@pytest.mark.parametrize("argv, fault", [
    (["powers", "100", "3", "1"], "degree 3 in 100 variables has over 131072 monomials"),
    (["compressed", "70", "4", "1"], "degree 4 in 70 variables has over 131072 monomials"),
    (["powers", "3", "3", "100000000"], "exceed dim R_3 = 10"),
    (["powers", "3", "5", "30"], "exceed dim R_5 = 21"),
])
def test_construct_refuses_a_ring_the_store_refuses(monkeypatch, capsys, argv, fault):
    # refused before any trial is built
    monkeypatch.setattr(importlib.import_module("levellab.cli"), "maximal_profile", None)
    code, text = run(["construct", *argv])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: value: ") and fault in err


@pytest.mark.parametrize("argv, fault", [
    (["powers", "1", "3", "2"], "sum_of_powers counts exceed dim R_3 = 1: first 2"),
    (["socle3", "2", "--parts", "5"],
     "powers_partition counts exceed dim R_3 = 4: first 5, of 1 parts"),
])
def test_a_count_refusal_names_parts_only_for_a_partition(capsys, argv, fault):
    assert run(["construct", *argv]) == (1, "")
    assert capsys.readouterr().err == f"error: value: {fault}\n"


def test_construct_refuses_a_degree_at_least_the_prime_before_any_draw(monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module("levellab.cli"), "maximal_profile", None)
    assert run(["construct", "powers", "3", "5", "5", "--prime", "5"]) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: hypothesis: prime 5 must exceed the socle degree 5")


@pytest.mark.parametrize("argv, text", FROZEN_CONSTRUCT, ids=[a[0] for a, _ in FROZEN_CONSTRUCT])
def test_construct_prints_the_winning_trials_profile(monkeypatch, argv, text):
    # maximal_profile returns the winner's profile, so no tower runs again
    def refuse(module):
        raise AssertionError("the winner's tower was computed twice")

    monkeypatch.setattr("levellab.cli.h_vector", refuse)
    assert run(["construct", *argv]) == (0, text)


@pytest.mark.parametrize("command", ["verify", "report"])
def test_a_line_nested_too_deeply_is_a_verify_error(tmp_path, capsys, command):
    # json.loads takes a frame per bracket, beyond CPython's recursion limit
    store = tmp_path / "store.jsonl"
    store.write_text('{"a":' * 5000 + "1" + "}" * 5000 + "\n", encoding="utf-8")
    assert run([command, str(store)]) == (1, "")
    assert capsys.readouterr().err.startswith("error: verify: line 1: ")


@pytest.mark.parametrize("line, fault", [
    ("{}", "unknown status None"),
    ("[1,2]", "a record must be an object, got list"),
    ('{"status":"level","r":1}', "field e=None is not an integer"),
])
def test_report_on_a_malformed_line_is_a_verify_error(tmp_path, capsys, line, fault):
    store = tmp_path / "store.jsonl"
    store.write_text(line + "\n", encoding="utf-8")
    code, text = run(["report", str(store)])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error: verify: line 1: {fault}\n"


def test_prime_beyond_int64_range_refused(capsys):
    # 2^32 - 5 is prime, but int64 elimination overflows on it
    code, text = run(["classify", "1,3,6,9,3", "--prime", "4294967291"])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert "error: hypothesis:" in err
    assert "4294967291" in err


def test_prime_at_most_the_socle_degree_refused(capsys):
    code, text = run(["classify", "1,3,6,9,3", "--prime", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: hypothesis: prime 2 must exceed the socle degree 4" in err


def test_module_prime_at_most_its_degree_refused(tmp_path, capsys):
    module_file = tmp_path / "module.txt"
    module_file.write_text("ring r=2 e=5\ny1^5 + y2^5\n", encoding="utf-8")
    code, text = run(["hvec", str(module_file), "--prime", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: hypothesis: prime 5 must exceed the socle degree 5" in err


def test_nonlevel_gap_exits_4(monkeypatch):
    def fake_classify(h, budget=None, *, master_seed=0, prime=0):
        v = h[2]
        if v in (3, 7):
            return Classification(h, Certificate("criterion", rule="stub", detail="stub"))
        if v == 5:
            return Classification(h, Certificate("condition", rule="stub", detail="stub"))
        return Classification(h)

    monkeypatch.setattr("levellab.scans.classify", fake_classify)
    code, text = run(["scan-ic", "1,3,6,3", "--at", "2",
                      "--from", "3", "--to", "7"])
    assert code == 4
    assert "gap: 4..6 kind=nonlevel" in text
    assert "value 5: nonlevel (stub)" in text
