"""Command line interface.

Exit codes: 0 success, 1 failure (with ``error: <category>: <message>`` on
stderr), 2 usage, 4 scan found a certified non-level gap between two
certified level values.
"""

import argparse
import sys
from random import Random

from levellab.bounds import (
    min_prev_entry,
    prev_entry_range,
)
from levellab.classify import Status, build_recipe, classify, recipe_size
from levellab.constructions import DEFAULT_TRIALS, augment_with_powers, maximal_profile
from levellab.errors import HypothesisError, LevelLabError
from levellab.forms import DEFAULT_PRIME, check_prime
from levellab.macaulay import (
    HVector,
    binomial,
    binomial_expansion,
    is_si_sequence,
    macaulay_upper_bound,
    o_sequence_violation,
)
from levellab.modules import (
    InverseModule,
    generic_subquotient,
    h_vector,
    module_from_text,
    module_to_text,
    truncate_level,
)
from levellab.scans import scan_gic, scan_ic
from levellab.seeds import derive_seed
from levellab.store import (
    default_store_path,
    record_from_classification,
    store_append,
    store_load,
    verify_store_file,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_COUNTEREXAMPLE = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(","))


_FLAGS = {
    "prime": dict(type=int, default=DEFAULT_PRIME,
                  help="prime modulus for all rank computations"),
    "seed": dict(type=int, default=0,
                 help="master seed; every random draw derives from it"),
    "trials": dict(type=_positive_int, default=DEFAULT_TRIALS,
                   help="random trials per construction"),
    "store": dict(default=None,
                  help="certificate store path (default: $LEVELLAB_STORE)"),
}
_SEARCH_FLAGS = ("prime", "seed", "trials", "store")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levellab",
        description="Hilbert functions of level algebras: bounds, constructions, "
                    "classification and interval scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, flags: tuple[str, ...], help_text: str):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        return p

    p = command("hvec", ("prime",), "Hilbert function of a generator file")
    p.add_argument("file")

    p = command("expand", (), "i-binomial expansion")
    p.add_argument("n", type=_positive_int)
    p.add_argument("i", type=_positive_int)

    p = command("bound", (), "growth and adjacency bounds")
    p.add_argument("rule", choices=["upper", "bg", "ci"])
    p.add_argument("n", type=_positive_int)
    p.add_argument("d", type=_positive_int)
    p.add_argument("r", type=_positive_int, nargs="?",
                   help="number of variables (ci rule only)")

    p = command("osequence", (), "check the growth condition")
    p.add_argument("h", type=HVector.parse)

    p = command("si", (), "check the symmetric differentiable condition")
    p.add_argument("h", type=HVector.parse)

    p = command("construct", ("prime", "seed", "trials"),
                "build a module and print it as a generator file")
    p.add_argument("family", choices=["powers", "compressed", "socle2", "socle3"])
    p.add_argument("args", type=_positive_int, nargs="*",
                   help="powers r e m | compressed r e t | socle2 r t | socle3 r")
    p.add_argument("--parts", type=_parts, default=None,
                   help="socle3 partition, e.g. 3,3,2")

    p = command("augment", ("prime", "seed"),
                "adjoin a sum of general powers to a module file")
    p.add_argument("file")
    p.add_argument("--count", type=_positive_int, required=True)

    p = command("quotient", ("prime", "seed"), "generic level quotient of a module file")
    p.add_argument("file")
    p.add_argument("--type", dest="quotient_type", type=_positive_int, required=True)

    p = command("truncate", ("prime",), "truncate a module file to a smaller socle degree")
    p.add_argument("file")
    p.add_argument("--to", dest="to_degree", type=_positive_int, required=True)

    p = command("classify", _SEARCH_FLAGS, "level / non-level / unknown with certificate")
    p.add_argument("h", type=HVector.parse)

    for name, help_text in (("scan-ic", "sweep one entry over a value range"),
                            ("scan-gic", "sweep a symmetric pair of a type 1 vector")):
        p = command(name, _SEARCH_FLAGS, help_text)
        p.add_argument("h", type=HVector.parse)
        p.add_argument("--at", type=_positive_int, required=True,
                       help="degree of the scanned entry")
        p.add_argument("--from", dest="start", type=_positive_int, required=True)
        p.add_argument("--to", dest="stop", type=_positive_int, required=True)

    p = command("verify", (), "replay every certificate in a store file")
    p.add_argument("file", nargs="?", default=None)

    p = command("report", (), "summarize a store file")
    p.add_argument("file", nargs="?", default=None)

    return parser


def _print_module(module: InverseModule, out, profile=None, seed=None) -> None:
    profile = profile or h_vector(module)
    print(f"# h: {profile.h}", file=out)
    if seed is not None:
        print(f"# seed: {seed}", file=out)
    print(module_to_text(module), end="", file=out)


def _print_classification(result, out) -> None:
    print(f"h: {result.h}", file=out)
    print(f"status: {result.status.value}", file=out)
    if result.status is Status.NONLEVEL:
        print(f"condition: {result.condition}", file=out)
        print(f"detail: {result.detail}", file=out)
    elif result.status is Status.LEVEL:
        cert = result.certificate
        if cert.kind == "criterion":
            print(f"certificate: criterion {cert.criterion}", file=out)
            print(f"detail: {cert.detail}", file=out)
        else:
            print(f"certificate: construction {cert.recipe['kind']}", file=out)
            print(f"seed: {cert.seed}", file=out)
            print(f"prime: {cert.prime}", file=out)
            print(f"ranks: {','.join(map(str, cert.ranks))}", file=out)
            print(f"characteristic: {cert.characteristic}", file=out)
    else:
        for note in result.diagnostics:
            print(f"note: {note}", file=out)


def _maybe_store(args, result) -> None:
    path = args.store or default_store_path()
    if path:
        store_append(record_from_classification(result), path)


def _load_module(path: str, prime: int) -> InverseModule:
    with open(path, encoding="utf-8") as fh:
        return module_from_text(fh.read(), prime)


def _cmd_hvec(args, out) -> int:
    module = _load_module(args.file, args.prime)
    profile = h_vector(module)
    print(f"h: {profile.h}", file=out)
    print(f"codimension: {profile.h.codimension}", file=out)
    print(f"socle degree: {profile.h.socle_degree}", file=out)
    print(f"type: {profile.h.type}", file=out)
    return EXIT_OK


def _cmd_expand(args, out) -> int:
    print(f"{args.n} = {binomial_expansion(args.n, args.i)}", file=out)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    if args.rule == "upper":
        print(macaulay_upper_bound(args.n, args.d), file=out)
    elif args.rule == "bg":
        print(min_prev_entry(args.n, args.d), file=out)
    else:
        if args.r is None:
            raise ValueError("the ci rule needs the number of variables")
        lo, hi = prev_entry_range(args.n, args.d, args.r)
        if lo > hi:
            print(f"infeasible: minimum {lo} exceeds cap {hi}", file=out)
        else:
            print(f"{lo}..{hi}", file=out)
    return EXIT_OK


def _cmd_osequence(args, out) -> int:
    violation = o_sequence_violation(args.h)
    if violation is None:
        print("ok", file=out)
    else:
        print(f"violation: {violation}", file=out)
    return EXIT_OK


def _cmd_si(args, out) -> int:
    if is_si_sequence(args.h):
        print("ok", file=out)
    elif not args.h.is_symmetric():
        print("violation: not symmetric", file=out)
    else:
        print("violation: first half is not differentiable", file=out)
    return EXIT_OK


def _cmd_construct(args, out) -> int:
    """Refuse a family's recipe by ``recipe_size`` before any draw, then
    keep the best of its recipe's trials."""
    family, extra, p = args.family, list(args.args), args.prime
    if args.parts is not None and family != "socle3":
        raise ValueError(f"--parts applies to socle3 only, not {family}")

    def need(count: int) -> list[int]:
        if len(extra) != count:
            raise ValueError(
                f"{family} takes {count} positional integers, got {len(extra)}"
            )
        return extra

    if family in ("powers", "compressed"):
        r, e, count = need(3)
        kind = "sum_of_powers" if family == "powers" else "compressed"
        recipe = {"kind": kind, "nvars": r, "degree": e, "count": count}
    elif family == "socle2":
        (r, t), e = need(2), 2
        cap = binomial(r + 1, 2)
        if t > cap:  # before a list of t parts is made
            raise HypothesisError(f"socle degree 2 type must be in 1..{cap}, got {t}")
        recipe = {"kind": "powers_partition", "nvars": r, "degree": e, "parts": [r] * t}
    else:
        (r,), e = need(1), 3
        if args.parts is None:
            raise ValueError("socle3 needs --parts, e.g. --parts 3,3,2")
        recipe = {"kind": "powers_partition", "nvars": r, "degree": e,
                  "parts": list(args.parts)}

    recipe_size(recipe, r, e, p)
    # after the size rule, which bounds the parts this refusal prints
    if family == "socle3" and not all(1 <= m <= r for m in args.parts):
        raise HypothesisError(f"socle degree 3 parts must be nonempty with entries "
                              f"in 1..{r}, got {args.parts}")
    module, profile, seed = maximal_profile(lambda rng: build_recipe(recipe, rng, p),
                                            derive_seed(args.seed, "construct", family),
                                            args.trials)
    _print_module(module, out, profile, seed)
    return EXIT_OK


def _cmd_augment(args, out) -> int:
    module = _load_module(args.file, args.prime)
    rng = Random(derive_seed(args.seed, "augment", args.count))
    _print_module(augment_with_powers(module, args.count, rng), out)
    return EXIT_OK


def _cmd_quotient(args, out) -> int:
    module = _load_module(args.file, args.prime)
    rng = Random(derive_seed(args.seed, "quotient", args.quotient_type))
    _print_module(generic_subquotient(module, args.quotient_type, rng), out)
    return EXIT_OK


def _cmd_truncate(args, out) -> int:
    module = _load_module(args.file, args.prime)
    _print_module(truncate_level(module, args.to_degree), out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    result = classify(args.h, args.trials, master_seed=args.seed, prime=args.prime)
    _print_classification(result, out)
    _maybe_store(args, result)
    return EXIT_OK


def _cmd_scan(args, out, scan) -> int:
    if args.stop < args.start:
        raise ValueError(f"empty scan range {args.start}..{args.stop}")
    report = scan(args.h, args.at, range(args.start, args.stop + 1),
                  args.trials, master_seed=args.seed,
                  prime=args.prime)
    degrees = ",".join(map(str, report.degrees))
    print(f"base: {report.base}  degrees: {degrees}", file=out)
    for value, result in zip(report.values, report.classifications):
        label = result.status.value
        if result.status is Status.LEVEL:
            cert = result.certificate
            label += (f" ({cert.criterion})" if cert.kind == "criterion"
                      else f" ({cert.recipe['kind']})")
        elif result.status is Status.NONLEVEL:
            label += f" ({result.condition})"
        print(f"value {value}: {label}", file=out)
        _maybe_store(args, result)
    if not report.gaps:
        print("gaps: none", file=out)
        return EXIT_OK
    exit_code = EXIT_OK
    for gap in report.gaps:
        span = f"{gap.values[0]}..{gap.values[-1]}"
        print(f"gap: {span} kind={gap.kind}", file=out)
        if gap.kind == "nonlevel":
            exit_code = EXIT_COUNTEREXAMPLE
    return exit_code


def _cmd_verify(args, out) -> int:
    count = verify_store_file(args.file)
    print(f"verified {count} records", file=out)
    return EXIT_OK


def _cmd_report(args, out) -> int:
    records = store_load(args.file)
    counts = {"level": 0, "nonlevel": 0, "unknown": 0}
    constructions = criteria = 0
    families: dict[tuple[int, int], int] = {}
    for record in records:
        counts[record["status"]] += 1
        if record.get("recipe"):
            constructions += 1
        elif record.get("criterion"):
            criteria += 1
        key = (record["r"], record["e"])
        families[key] = families.get(key, 0) + 1
    print(f"records: {len(records)}", file=out)
    print(f"level: {counts['level']}  nonlevel: {counts['nonlevel']}  "
          f"unknown: {counts['unknown']}", file=out)
    print(f"constructions: {constructions}  criteria: {criteria}", file=out)
    for (r, e), n in sorted(families.items()):
        print(f"family r={r} e={e}: {n}", file=out)
    return EXIT_OK


_COMMANDS = {
    "hvec": _cmd_hvec,
    "expand": _cmd_expand,
    "bound": _cmd_bound,
    "osequence": _cmd_osequence,
    "si": _cmd_si,
    "construct": _cmd_construct,
    "augment": _cmd_augment,
    "quotient": _cmd_quotient,
    "truncate": _cmd_truncate,
    "classify": _cmd_classify,
    "scan-ic": lambda args, out: _cmd_scan(args, out, scan_ic),
    "scan-gic": lambda args, out: _cmd_scan(args, out, scan_gic),
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if "prime" in args:
            check_prime(args.prime, 0)
        return _COMMANDS[args.command](args, out)
    except LevelLabError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: value: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
