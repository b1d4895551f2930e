"""Interval scanners: sweep one entry (or a symmetric pair) of a base
h-vector over a value range, classify every candidate, and report gaps.

Candidates are classified one after another in the caller's thread, each
from its own seed ``derive_seed(master_seed, "scan", degrees, value)``, so
a value's certificate does not depend on the other values or their order.

A gap is a maximal run of non-level values strictly between two certified
level values.  A gap containing a certified non-level value is the pattern
the scans are hunting for; a gap of unknowns is merely inconclusive.
"""

from dataclasses import dataclass

from levellab.classify import Classification, Status, classify
from levellab.constructions import DEFAULT_TRIALS
from levellab.errors import HypothesisError
from levellab.forms import DEFAULT_PRIME, check_integer, check_prime
from levellab.macaulay import HVector
from levellab.seeds import derive_seed


@dataclass(frozen=True)
class Gap:
    """A run of values with no level certificate, bracketed by certified
    level values on both sides."""

    values: tuple[int, ...]
    kind: str  # "nonlevel" | "unknown"


@dataclass(frozen=True)
class ScanReport:
    base: HVector
    degrees: tuple[int, ...]
    values: tuple[int, ...]
    classifications: tuple[Classification, ...]
    gaps: tuple[Gap, ...]

    def by_value(self) -> dict[int, Classification]:
        return dict(zip(self.values, self.classifications))


def find_gaps(values, classifications) -> tuple[Gap, ...]:
    """Maximal non-level runs strictly between level values, in value order,
    whatever order the values come in."""
    gaps: list[Gap] = []
    run: list[tuple[int, Status]] = []
    seen_level = False
    for value, result in sorted(zip(values, classifications), key=lambda pair: pair[0]):
        if result.status is Status.LEVEL:
            if run and seen_level:
                kind = ("nonlevel" if any(s is Status.NONLEVEL for _, s in run)
                        else "unknown")
                gaps.append(Gap(tuple(v for v, _ in run), kind))
            run = []
            seen_level = True
        elif seen_level:
            run.append((value, result.status))
    return tuple(gaps)


def _scan(base: HVector, degrees: tuple[int, ...], values, trials, master_seed,
          prime) -> ScanReport:
    prime = check_prime(prime, base.socle_degree)
    trials = check_integer("trials", trials)
    master_seed = check_integer("master_seed", master_seed)
    values = tuple(values)
    # every candidate before any is classified: HVector refuses a value that
    # is not an integer with ValueError
    candidates = [HVector([v if d in degrees else x for d, x in enumerate(base)])
                  for v in values]
    # plain ints, so a value's seed does not depend on its integer type
    values = tuple(check_integer("value", v) for v in values)
    if any(v < 1 for v in values):
        raise ValueError("scanned values must be positive")
    results = []
    for v, candidate in zip(values, candidates):
        seed = derive_seed(master_seed, "scan", degrees, v)
        results.append(classify(candidate, trials, master_seed=seed, prime=prime))
    results = tuple(results)
    return ScanReport(base, degrees, values, results, find_gaps(values, results))


def scan_ic(base, i: int, values, trials: int = DEFAULT_TRIALS, *,
            master_seed: int = 0, prime: int = DEFAULT_PRIME) -> ScanReport:
    """Classify the base vector, an :class:`HVector` or a sequence of its
    entries, with entry i replaced by each value."""
    base = base if isinstance(base, HVector) else HVector(base)
    e = base.socle_degree
    i = check_integer("scan degree", i)
    if not 1 <= i <= e:
        raise ValueError(f"scan degree must lie in 1..{e}, got {i}")
    return _scan(base, (i,), values, trials, master_seed, prime)


def scan_gic(base, i: int, values, trials: int = DEFAULT_TRIALS, *,
             master_seed: int = 0, prime: int = DEFAULT_PRIME) -> ScanReport:
    """Classify the base vector with the symmetric pair (i, e-i) jointly
    replaced by each value.  The base, an :class:`HVector` or a sequence of
    its entries, must be symmetric of type 1."""
    base = base if isinstance(base, HVector) else HVector(base)
    e = base.socle_degree
    if base.type != 1:
        raise HypothesisError(f"symmetric-pair scans need type 1, got {base.type}")
    if not base.is_symmetric():
        raise HypothesisError("symmetric-pair scans need a symmetric base")
    i = check_integer("scan degree", i)
    if not 1 <= i <= e - 1:
        raise ValueError(f"scan degree must lie in 1..{e - 1}, got {i}")
    degrees = (i,) if i == e - i else (i, e - i)
    return _scan(base, degrees, values, trials, master_seed, prime)
