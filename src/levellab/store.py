"""Append-only JSONL store for classification certificates.

One record per line, schema-versioned, diff-able.  Verification replays
construction recipes from their stored seed and demands byte-identical
generator text and identical ranks; criterion and non-level records are
re-evaluated from scratch.
"""

import json
import os
import re
from collections.abc import Iterator
from datetime import datetime, timezone
from random import Random

from levellab.classify import (
    Classification,
    Status,
    build_recipe,
    char0_certified,
    recipe_size,
    rule_still_fires,
)
from levellab.errors import LevelLabError, VerificationError
from levellab.forms import check_prime, check_ring
from levellab.macaulay import HVector
from levellab.modules import h_vector, module_from_text, module_to_text

SCHEMA_VERSION = 1
STORE_ENV = "LEVELLAB_STORE"
CHARACTERISTICS = ("char-p", "char-0-verified")


def default_store_path() -> str | None:
    return os.environ.get(STORE_ENV)


def record_from_classification(result: Classification) -> dict:
    """Flatten a classification into a storable record."""
    h = result.h
    record = {
        "schema": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "h": list(h.entries),
        "r": h.codimension,
        "e": h.socle_degree,
        "t": h.type,
        "status": result.status.value,
    }
    if result.status is Status.NONLEVEL:
        record["condition"] = result.condition
        record["detail"] = result.detail
    cert = result.certificate
    if cert is not None and cert.kind == "construction":
        record.update(
            recipe=cert.recipe,
            seed=cert.seed,
            prime=cert.prime,
            ranks=list(cert.ranks),
            generators=cert.generators,
            characteristic=cert.characteristic,
        )
    elif cert is not None and cert.kind == "criterion":
        record["criterion"] = cert.criterion
        record["detail"] = cert.detail
    return record


def _require_path(path: str | None) -> str:
    path = path or default_store_path()
    if not path:
        raise ValueError(
            f"no store path given and {STORE_ENV} is not set"
        )
    return path


def store_append(record: dict, path: str | None = None) -> None:
    """Append one record; creates the file on first use."""
    path = _require_path(path)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def store_load(path: str | None = None) -> list[dict]:
    """Load every record, in file order.

    A line that is not a JSON object with a known status and integer ``r``
    and ``e`` raises VerificationError naming it.
    """
    return list(_read_records(_require_path(path), _check_summary))


def store_verify(record: dict) -> None:
    """Re-establish a record's claim; raise VerificationError on any drift.

    Construction records are replayed from (recipe, seed, prime) and must
    reproduce the stored generator text byte for byte and the stored ranks;
    records without a recipe are recomputed from their generator payload.
    A ``char-0-verified`` claim is re-derived by ``char0_certified`` from
    the recipe and the replayed ranks, so a record without a recipe cannot
    carry it.  Criterion and non-level records re-run their decision rule,
    which must give the stored ``detail`` word for word.
    A malformed record of any shape raises VerificationError.
    """
    _check_summary(record)
    if record.get("schema") != SCHEMA_VERSION:
        raise VerificationError(f"unsupported schema {record.get('schema')!r}")
    h = _replay(HVector, _require_integers("h", record.get("h")))
    for key, value in (("r", h.codimension), ("e", h.socle_degree), ("t", h.type)):
        if record.get(key) != value:
            raise VerificationError(
                f"field {key}={record.get(key)!r} disagrees with h ({value})"
            )
    status = record.get("status")
    if status == Status.UNKNOWN.value:
        return
    kind = "condition" if status == Status.NONLEVEL.value else "criterion"
    if kind == "condition" or record.get("criterion"):
        name = record.get(kind)
        detail = _replay(rule_still_fires, kind, name, h) if name else None
        if detail is None:
            raise VerificationError(f"{kind} {name!r} no longer fires on {h}")
        if record.get("detail") != detail:
            raise VerificationError(
                f"stored detail {record.get('detail')!r} differs from the {kind}'s {detail!r}")
        return

    generators = record.get("generators")
    prime = record.get("prime")
    ranks = record.get("ranks")
    if not generators or not prime or ranks is None:
        raise VerificationError("level record lacks generators, prime or ranks")
    if not isinstance(generators, str):
        raise VerificationError(f"field generators={generators!r} is not text")
    if _require_integers("ranks", ranks) != list(h.entries):
        raise VerificationError(f"stored ranks {ranks} disagree with h {h}")
    characteristic = record.get("characteristic", "char-p")
    if characteristic not in CHARACTERISTICS:
        raise VerificationError(f"unknown characteristic {characteristic!r}")
    _require_integer("prime", prime)
    _replay(check_prime, prime, h.socle_degree)
    # bound the replay by the payload's ring, which the replay must
    # reproduce, not by h_1: a degenerate char-p record may exceed h_1
    ring = re.match(r"ring r=(\d+) e=(\d+)\n", generators)
    if ring is None or ring.group(2) != str(h.socle_degree):
        raise VerificationError(f"generators do not start with 'ring r=<r> e={h.socle_degree}'")
    r = _replay(int, ring.group(1))
    _replay(check_ring, r, h.socle_degree)

    recipe = record.get("recipe")
    if recipe is not None:
        seed = record.get("seed")
        _require_integer("seed", seed)
        _replay(recipe_size, recipe, r, h.socle_degree, prime)
        module = _replay(build_recipe, recipe, Random(seed), prime)
        replayed = module_to_text(module)
        if replayed != generators:
            raise VerificationError(
                "replayed generators differ from the stored payload"
            )
    elif characteristic == "char-0-verified":
        raise VerificationError("a record without a recipe cannot claim char-0-verified")
    else:
        module = _replay(module_from_text, generators, prime)
    profile = _replay(h_vector, module)
    if profile.dims != tuple(ranks):
        raise VerificationError(
            f"recomputed ranks {profile.dims} differ from stored {tuple(ranks)}"
        )
    if characteristic == "char-0-verified" and not char0_certified(recipe, profile.dims):
        raise VerificationError(
            f"ranks {profile.dims} miss the recipe bound, so char-0-verified does not hold"
        )


def _replay(step, *args):
    """One step of a replay; the error a malformed field raises in it
    becomes a VerificationError naming the step."""
    try:
        return step(*args)
    except (LevelLabError, KeyError, TypeError, ValueError) as exc:
        raise VerificationError(f"{step.__name__}: {exc}") from exc


def _require_integer(key: str, value) -> None:
    if type(value) is not int:
        raise VerificationError(f"field {key}={value!r} is not an integer")


def _require_integers(key: str, value) -> list:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise VerificationError(f"field {key}={value!r} is not a list of integers")
    return value


def verify_store_file(path: str | None = None) -> int:
    """Verify every record in a store; returns the count, raises on the
    first failure with its line number."""
    return sum(1 for _ in _read_records(_require_path(path), store_verify))


def _read_records(path: str, check) -> Iterator:
    """Every non-blank line of a store, parsed and passed to ``check``; a
    line that does not parse or that ``check`` refuses raises
    VerificationError with its line number."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                check(record)
            except VerificationError as exc:
                raise VerificationError(f"line {lineno}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise VerificationError(f"line {lineno}: not valid JSON: {exc}") from exc
            except RecursionError as exc:  # json.loads takes a frame per bracket
                raise VerificationError(f"line {lineno}: nested too deeply") from exc
            yield record


def _check_summary(record) -> None:
    """The fields every record carries and ``levellab report`` counts by."""
    if not isinstance(record, dict):
        raise VerificationError(f"a record must be an object, got {type(record).__name__}")
    if record.get("status") not in [status.value for status in Status]:
        raise VerificationError(f"unknown status {record.get('status')!r}")
    _require_integer("r", record.get("r"))
    _require_integer("e", record.get("e"))
