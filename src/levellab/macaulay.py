"""Growth combinatorics for Hilbert functions of graded artinian algebras.

Everything in this module is exact integer arithmetic: binomial
coefficients, canonical i-binomial expansions, the Macaulay growth bound,
and the O-sequence and SI-sequence predicates built on top of them.

Conventions.  C(n, k) is 0 outside the Pascal triangle and C(n, 0) is 1
for n >= 0.  An expansion shifted so that a lower index would become
negative is an error, never a silent 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n or either is negative."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class BinomialExpansion:
    """The canonical expansion n = C(n_i, i) + C(n_{i-1}, i-1) + ... + C(n_j, j).

    ``terms`` lists (top, bottom) pairs with tops strictly decreasing and
    bottoms stepping down by exactly one, ending at some j >= 1.  The
    greedy construction in :func:`binomial_expansion` yields the unique
    such decomposition.
    """

    degree: int
    terms: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return sum(binomial(top, bot) for top, bot in self.terms)

    def __str__(self) -> str:
        return "+".join(f"C({top},{bot})" for top, bot in self.terms)


def _largest_top(remainder: int, k: int) -> int:
    # largest m with C(m, k) <= remainder; m >= k because C(k, k) = 1 <= remainder
    lo, hi = k, k + 1
    while binomial(hi, k) <= remainder:
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if binomial(mid, k) <= remainder:
            lo = mid
        else:
            hi = mid
    return lo


def binomial_expansion(n: int, i: int) -> BinomialExpansion:
    """Greedy i-binomial expansion of n; greedy choice makes it canonical."""
    if n <= 0:
        raise ValueError(f"expansion requires n >= 1, got {n}")
    if i <= 0:
        raise ValueError(f"expansion requires i >= 1, got {i}")
    terms: list[tuple[int, int]] = []
    remainder = n
    k = i
    # Terminates with k >= 1: at k = 1 the top C(remainder, 1) clears the rest.
    while remainder > 0:
        top = _largest_top(remainder, k)
        terms.append((top, k))
        remainder -= binomial(top, k)
        k -= 1
    return BinomialExpansion(i, tuple(terms))


def shift_expansion(expansion: BinomialExpansion, a: int) -> int:
    """Evaluate the expansion with every index shifted by a: sum of C(top+a, bot+a).

    Raises ValueError when some bottom index would drop below 0; with
    bottoms >= 0 the shifted tops stay >= bottoms, so C(top+a, 0) = 1
    cases are well defined.
    """
    total = 0
    for top, bot in expansion.terms:
        if bot + a < 0:
            raise ValueError(
                f"shift by {a} sends C({top},{bot}) below a zero lower index"
            )
        total += binomial(top + a, bot + a)
    return total


def macaulay_upper_bound(n: int, d: int) -> int:
    """Largest value allowed in degree d+1 when degree d holds n, by the
    Macaulay growth bound: expand n in base d, then shift both indices up
    by one."""
    return shift_expansion(binomial_expansion(n, d), 1)


class HVector:
    """Finite Hilbert function of a graded artinian algebra.

    Entries are positive integers (numpy integers too; floats and strings
    are refused rather than rounded), start at h_0 = 1, and trailing zeros
    supplied by the caller are trimmed.  An internal zero (a zero before a
    positive entry) is rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int]):
        values = []
        for d, v in enumerate(entries):
            try:
                values.append(operator.index(v))
            except TypeError:
                raise ValueError(f"entry h_{d} = {v!r} is not an integer") from None
        while values and values[-1] == 0:
            values.pop()
        if not values:
            raise ValueError("an h-vector needs at least the entry h_0 = 1")
        if values[0] != 1:
            raise ValueError(f"h_0 must be 1, got {values[0]}")
        for d, v in enumerate(values):
            if v <= 0:
                raise ValueError(f"entry h_{d} = {v} is not positive")
        self.entries = tuple(values)

    @classmethod
    def parse(cls, text: str) -> "HVector":
        """Read an h-vector from a comma separated string like '1,3,6,10,4'."""
        parts = text.replace("(", "").replace(")", "").split(",")
        for i, part in enumerate(parts):
            if not part.strip():
                raise ValueError(f"empty entry {i} in h-vector text {text!r}")
        try:
            return cls([int(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"bad h-vector text {text!r}: {exc}") from None

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    @property
    def codimension(self) -> int:
        return self.entries[1] if len(self.entries) > 1 else 0

    @property
    def type(self) -> int:
        return self.entries[-1]

    def is_symmetric(self) -> bool:
        return self.entries == self.entries[::-1]

    def replace(self, degree: int, value: int) -> "HVector":
        values = list(self.entries)
        values[degree] = value
        return HVector(values)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, d: int) -> int:
        return self.entries[d]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HVector):
            return self.entries == other.entries
        if isinstance(other, (tuple, list)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"HVector({list(self.entries)})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.entries)


@dataclass(frozen=True)
class GrowthViolation:
    """Record of a failed Macaulay growth step: h_{degree+1} exceeds the bound."""

    degree: int
    value: int
    next_value: int
    bound: int

    def __str__(self) -> str:
        return (
            f"degree {self.degree}->{self.degree + 1}: growth "
            f"{self.value} -> {self.next_value} exceeds bound {self.bound}"
        )


def admissible_violation(entries: Sequence[int]) -> GrowthViolation | None:
    """First growth violation in a raw integer sequence, or None.

    A sequence is admissible (an O-sequence) when it starts with 1, has no
    negative entries, never revives after a zero, and satisfies Macaulay's
    bound at every consecutive step from degree 1 on.  Growth from degree 0
    is unconstrained.  Raw sequences are accepted because first differences
    of symmetric vectors legitimately contain zeros.
    """
    if not entries or entries[0] != 1:
        return GrowthViolation(0, entries[0] if entries else 0, 0, 1)
    for d in range(1, len(entries)):
        if entries[d] < 0:
            return GrowthViolation(d - 1, entries[d - 1], entries[d], max(entries[d - 1], 0))
    for d in range(1, len(entries) - 1):
        here, after = entries[d], entries[d + 1]
        if here == 0:
            if after != 0:
                return GrowthViolation(d, 0, after, 0)
            continue
        bound = macaulay_upper_bound(here, d)
        if after > bound:
            return GrowthViolation(d, here, after, bound)
    return None


def is_admissible(entries: Sequence[int]) -> bool:
    """True when the raw integer sequence is an O-sequence."""
    return admissible_violation(entries) is None


def o_sequence_violation(h: HVector) -> GrowthViolation | None:
    """First Macaulay growth violation in h, or None when h is an O-sequence."""
    return admissible_violation(h.entries)


def is_o_sequence(h: HVector) -> bool:
    """True when h satisfies Macaulay's growth bound at every degree."""
    return o_sequence_violation(h) is None


def first_difference(h: HVector) -> tuple[int, ...]:
    """Consecutive differences of the first half of h, through degree
    floor(e/2), as used by the SI-sequence test.  The degree 0 entry is 1."""
    half = h.socle_degree // 2
    return (1,) + tuple(h[j] - h[j - 1] for j in range(1, half + 1))


def is_si_sequence(h: HVector) -> bool:
    """True when h is symmetric and the first difference of its first half
    is an O-sequence (the SI-sequence condition)."""
    return h.is_symmetric() and is_admissible(first_difference(h))
