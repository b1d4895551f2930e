"""The three workloads: seeded inputs, the timed public call, output checks.

Each workload exposes ``items`` (one pass, in a seeded order), ``call``
(the public call an item's latency is timed around), ``follow`` (work the
item still owes after that call, counted in throughput only), ``check``
(one item's output, run outside the timed region) and ``check_all``
(checks that need every output, such as re-verifying the written store);
``follow`` and ``check_all`` do nothing unless a workload needs them.  A
check returns None when the output is right, else a reason.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from random import Random

import levellab
from levellab.store import record_from_classification

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.jsonl"
# The corpus is frozen: it was generated once by make_corpus.py and must
# replay unchanged; a different file is refused rather than measured.
CORPUS_SHA256 = "bc4fa8790e543fea8452b065d3cc7b239ab0a63eea9a14977350d61568a81ec6"


def criterion10_families() -> list[tuple[levellab.HVector, list[int]]]:
    """The 38 socle-degree-2 and -3 scan families of acceptance criterion 10,
    204 candidates in all, scanned in degree 2."""
    families = []
    for r in range(1, 7):
        families.append((levellab.HVector((1, r, 1)),
                         list(range(1, levellab.binomial(r + 1, 2) + 1))))
    for r in range(1, 6):
        cap = levellab.binomial(r + 1, 2)
        for t in range(max(1, r - 2), cap + 1):
            lo, hi = max(r, t), min(r * t, cap)
            if lo <= hi:
                families.append((levellab.HVector((1, r, lo, t)), list(range(lo, hi + 1))))
    return families


class Workload:
    items: list

    def follow(self, index: int, item, output) -> None:
        pass

    def check_all(self) -> dict[int, str]:
        return {}


class ScanSocle23(Workload):
    """scan_ic over the criterion-10 families, each result appended to a store."""

    def __init__(self, seed: int, out_dir: Path):
        rng = Random(seed)
        self.master_seed = rng.randrange(2**32)
        self.items = criterion10_families()
        rng.shuffle(self.items)
        self.store = out_dir / f"scan_socle23-{seed}.jsonl"
        self.store.unlink(missing_ok=True)
        self._owners: list[int] = []  # item index of every stored record

    def call(self, item):
        base, values = item
        return levellab.scan_ic(base, 2, values, master_seed=self.master_seed)

    def follow(self, index: int, item, report) -> None:
        for result in report.classifications:
            levellab.store_append(record_from_classification(result), str(self.store))
            self._owners.append(index)

    def check(self, item, report) -> str | None:
        base, values = item
        if list(report.values) != values:
            return f"{base}: scanned {report.values}, wanted {values}"
        for result in report.classifications:
            if result.status is not levellab.Status.LEVEL:
                return f"{result.h} is {result.status.value}, wanted level"
            cert = result.certificate
            if cert.kind == "construction" and tuple(cert.ranks) != tuple(result.h):
                return f"{result.h}: certificate ranks {cert.ranks}"
        if report.gaps:
            return f"{base}: gaps {report.gaps}"
        return None

    def check_all(self) -> dict[int, str]:
        """Re-verify every record of the written store, line by line."""
        failures: dict[int, str] = {}
        lines = self.store.read_text(encoding="utf-8").splitlines() if self._owners else []
        if len(lines) != len(self._owners):
            return {index: "store lost records" for index in set(self._owners)}
        for owner, line in zip(self._owners, lines):
            reason = _verify_line(line)
            if reason is not None:
                failures.setdefault(owner, reason)
        return failures


def _verify_line(line: str) -> str | None:
    try:
        levellab.store_verify(json.loads(line))
    except (levellab.VerificationError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def load_corpus() -> list[str]:
    data = CORPUS.read_bytes()
    if hashlib.sha256(data).hexdigest() != CORPUS_SHA256:
        raise SystemExit(f"{CORPUS} differs from the frozen corpus (sha256 mismatch)")
    return [line for line in data.decode("utf-8").splitlines() if line.strip()]


def tamper(lines: list[str]) -> list[str]:
    """Copy of the corpus with one generator coefficient changed."""
    out = list(lines)
    for k, line in enumerate(out):
        record = json.loads(line)
        text = record.get("generators")
        match = re.search(r"(\d+)\*y", text or "")
        if record.get("recipe") and match:
            value = int(match.group(1))
            record["generators"] = (text[:match.start(1)] + str(value % 1000 + 2)
                                    + text[match.end(1):])
            out[k] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            return out
    raise ValueError("corpus has no construction record with a coefficient")


class ReplayCorpus(Workload):
    """store_verify over every record of the frozen certificate corpus."""

    def __init__(self, seed: int, out_dir: Path, tampered: bool = False):
        lines = load_corpus()
        if tampered:
            lines = tamper(lines)
        self.items = [json.loads(line) for line in lines]
        Random(seed).shuffle(self.items)

    def call(self, record):
        levellab.store_verify(record)
        return True

    def check(self, item, output) -> str | None:
        return None if output is True else "record did not verify"


# (nvars, degree, type): generic cubics with t = r, Gorenstein quartics
# and type-2 quartics near r = 20.  Stacked-derivative matrices run from
# 289x153 to 900x465; r = 30 is the largest, to keep one pass near 16 s.
TOWER_SHAPES = (
    [(r, 3, r) for r in range(18, 31)]
    + [(r, 4, 1) for r in range(16, 23)]
    + [(r, 4, 2) for r in range(17, 21)]
)


class TowerCodim(Workload):
    """compressed_generic_module followed by h_vector on large codimension."""

    def __init__(self, seed: int, out_dir: Path, wrong_expected: bool = False):
        # The order stays fixed, so numpy's large temporaries meet the same
        # allocator history in every run; the seed draws the coefficients.
        rng = Random(seed)
        self.items = []
        for r, e, t in TOWER_SHAPES:
            expected = tuple(levellab.expected_h_compressed(r, e, t))
            self.items.append((r, e, t, rng.randrange(2**32), expected))
        if wrong_expected:
            r, e, t, s, expected = self.items[0]
            self.items[0] = (r, e, t, s, expected[:-1] + (expected[-1] + 1,))

    def call(self, item):
        r, e, t, seed, _ = item
        module = levellab.compressed_generic_module(r, e, t, Random(seed))
        return levellab.h_vector(module)

    def check(self, item, profile) -> str | None:
        expected = item[4]
        if tuple(profile.h) != expected:
            return f"h = {tuple(profile.h)}, expected {expected}"
        return None


WORKLOADS = {
    "scan_socle23": ScanSocle23,
    "replay_corpus": ReplayCorpus,
    "tower_codim": TowerCodim,
}
