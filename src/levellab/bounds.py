"""Arithmetic bounds and interval calculators for level h-vectors.

Everything here is exact integer or rational arithmetic, no randomness:
feasibility caps on adjacent entries, lower bounds for generic level
quotients, and the interval statements of the solved cases of the Interval
Conjecture.  No scanner reads the intervals: a scan classifies each value
on its own, and the tests hold ``classify`` to them.  Conditional
statements raise HypothesisError when their hypotheses fail, so callers can
tell "statement does not apply" from "interval is empty".
"""

from fractions import Fraction

from levellab.errors import HypothesisError
from levellab.macaulay import (
    HVector,
    binomial,
    binomial_expansion,
    is_si_sequence,
    shift_expansion,
)

__all__ = [
    "min_prev_entry",
    "prev_entry_range",
    "type2_quotient_floor",
    "level_quotient_floor",
    "level_quotient_floor_ceil",
    "socle3_step_applies",
    "socle3_interval_low",
    "socle3_interval",
    "socle2_min_codim",
    "socle2_type_range",
    "max_prefix_type_range",
    "max_prefix_vector",
    "type_reduction_applies",
    "type_interval",
    "gorenstein_middle_interval",
    "gorenstein_socle4_interval",
    "si_interval_closure",
]


def _inclusive(lo: int, hi: int) -> range:
    # inclusive endpoints; callers have already ruled out emptiness
    return range(lo, hi + 1)


def min_prev_entry(value: int, degree: int) -> int:
    """Least possible degree d-1 entry of an h-vector whose degree d entry
    is ``value``: the -1 index shift of the d-binomial expansion."""
    return shift_expansion(binomial_expansion(value, degree), -1)


def prev_entry_range(value: int, degree: int, nvars: int) -> tuple[int, int]:
    """Inclusive feasibility window for the degree d-1 entry of a level
    h-vector in r variables whose top (degree d) entry is ``value``.

    Every integer in the window is attained; an empty window (lo > hi)
    certifies that no level h-vector ends with this entry.
    """
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    lo = min_prev_entry(value, degree)
    hi = min(binomial(nvars + degree - 2, degree - 1), nvars * value)
    return lo, hi


def type2_quotient_floor(h: HVector, common_dims: tuple[int, ...]) -> tuple[int, ...]:
    """Lower bound for the h-vector of the generic Gorenstein quotient of a
    type 2 level algebra: entry i is at least h_{e-i} - d_i, where d_i is
    the dimension of the degree-i space of common derivatives of the two
    generators.  Floored at 0, indexed 0..e."""
    e = h.socle_degree
    if len(common_dims) != e + 1:
        raise ValueError(
            f"need {e + 1} common dimensions for socle degree {e}, got {len(common_dims)}"
        )
    return tuple(max(h[e - i] - common_dims[i], 0) for i in range(e + 1))


def level_quotient_floor(h: HVector, c: int) -> tuple[Fraction, ...]:
    """Exact rational lower bound for the h-vector of the generic type c
    level quotient of a type t level algebra with h-vector h:

        H_i >= ((t - c) h_{e-i} + (c t - 1) h_i) / (t^2 - 1).

    Requires t >= 2 and 1 <= c <= t; at c = t the formula collapses to h
    itself.  Indexed 0..e (the degree 0 value is always 1)."""
    t = h.type
    if t < 2:
        raise HypothesisError(f"quotient floor needs type >= 2, got {t}")
    if not 1 <= c <= t:
        raise HypothesisError(f"quotient type must lie in 1..{t}, got {c}")
    e = h.socle_degree
    den = t * t - 1
    return tuple(
        Fraction((t - c) * h[e - i] + (c * t - 1) * h[i], den) for i in range(e + 1)
    )


def level_quotient_floor_ceil(h: HVector, c: int) -> tuple[int, ...]:
    """Integer version of level_quotient_floor: entries of an h-vector are
    integers, so each rational bound rounds up."""
    return tuple(
        max(-(-f.numerator // f.denominator), 0) for f in level_quotient_floor(h, c)
    )


def socle3_step_applies(nvars: int, a: int, t: int) -> bool:
    """Whether a level (1, r, a, t) is known to stay level with the middle
    entry raised to a + 1.  True iff

        t(r - 2t) + 3 <= a <= C(r+1, 2) - 1   and   r >= t(a - t) + 2.
    """
    r = nvars
    return (
        t * (r - 2 * t) + 3 <= a <= binomial(r + 1, 2) - 1
        and r >= t * (a - t) + 2
    )


def socle3_interval_low(nvars: int, a: int, t: int) -> range:
    """Middle-entry interval for level (1, r, a, t) when the type is large,
    2t >= r: every b from a through min(t + 1, C(r+1, 2)) is level."""
    r = nvars
    if 2 * t < r:
        raise HypothesisError(f"need 2t >= r, got t={t}, r={r}")
    hi = min(t + 1, binomial(r + 1, 2))
    if not 1 <= a <= hi:
        raise HypothesisError(f"starting entry {a} outside 1..{hi}")
    return _inclusive(a, hi)


def socle3_interval(nvars: int, a: int, t: int) -> range:
    """Wider middle-entry interval for level (1, r, a, t) when t >= r - 2:
    every b from a through min(r*t, C(r+1, 2)) is level, and the cap is
    sharp (t cubics have at most r*t independent first derivatives)."""
    r = nvars
    if t < r - 2:
        raise HypothesisError(f"need t >= r - 2, got t={t}, r={r}")
    hi = min(r * t, binomial(r + 1, 2))
    if not 1 <= a <= hi:
        raise HypothesisError(f"starting entry {a} outside 1..{hi}")
    return _inclusive(a, hi)


def socle2_min_codim(t: int) -> int:
    """Least codimension r for which (1, r, t) is a level h-vector: the -1
    shift of the 2-binomial expansion of t.  Sharp."""
    return min_prev_entry(t, 2)


def socle2_type_range(nvars: int) -> range:
    """All types t for which (1, r, t) is level: 1 through C(r+1, 2),
    the cap being sharp."""
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    return _inclusive(1, binomial(nvars + 1, 2))


def max_prefix_type_range(nvars: int, degree: int) -> range:
    """All types t for which the socle degree e vector that is maximal
    through degree e-1 and ends in t is level:

        ceil(C(r+e-2, e-1) / r) <= t <= C(r+e-1, e),

    both bounds sharp."""
    r, e = nvars, degree
    if r < 1 or e < 1:
        raise ValueError(f"need r, e >= 1, got r={r}, e={e}")
    top = binomial(r + e - 2, e - 1)
    lo = -(-top // r)
    return _inclusive(lo, binomial(r + e - 1, e))


def max_prefix_vector(nvars: int, degree: int, t: int) -> HVector:
    """The vector (1, r, C(r+1,2), ..., C(r+e-2,e-1), t): every entry below
    the socle degree is the full ring dimension."""
    entries = [binomial(nvars + j - 1, j) for j in range(degree)]
    entries.append(t)
    return HVector(entries)


def type_reduction_applies(h: HVector) -> bool:
    """Whether a level h-vector (1, h_1, ..., h_{e-1}, t) is known to stay
    level with the type lowered to t - 1: requires, for i = 1..e-1,

        h_{e-i} + t^2 - t h_i - 1 > 0.
    """
    e = h.socle_degree
    t = h.type
    return all(h[e - i] + t * t - t * h[i] - 1 > 0 for i in range(1, e))


def type_interval(h: HVector) -> range:
    """Type interval below a level h-vector whose last entry t_0 dominates
    the middle: with M = max(h_1, ..., h_{e-1}) and t_0 >= M, every type
    from M - 1 through t_0 closes the vector to a level one."""
    e = h.socle_degree
    if e < 2:
        raise HypothesisError(f"need socle degree >= 2, got {e}")
    t0 = h.type
    m = max(h[i] for i in range(1, e))
    if t0 < m:
        raise HypothesisError(f"need the last entry {t0} >= maximal middle entry {m}")
    return _inclusive(m - 1, t0)


def _max_prefix_ok(h: HVector, through: int) -> bool:
    r = h.codimension
    return all(h[j] == binomial(r + j - 1, j) for j in range(through + 1))


def gorenstein_middle_interval(h: HVector) -> range:
    """Middle-entry interval for a symmetric type 1 h-vector that is maximal
    through degree floor(e/2) - 1: with a the middle entry (middle pair for
    odd socle degree), every b from a through C(r + floor(e/2) - 1, floor(e/2))
    stays in the family, the cap being sharp.

    The maximality hypothesis is checked entrywise and near-maximal input is
    rejected."""
    e = h.socle_degree
    if e < 2:
        raise HypothesisError(f"need socle degree >= 2, got {e}")
    if h.type != 1:
        raise HypothesisError(f"need type 1, got {h.type}")
    if not h.is_symmetric():
        raise HypothesisError("h-vector is not symmetric")
    half = e // 2
    if not _max_prefix_ok(h, half - 1):
        raise HypothesisError(
            f"entries through degree {half - 1} must be maximal, got {h}"
        )
    return _inclusive(h[half], binomial(h.codimension + half - 1, half))


def gorenstein_socle4_interval(nvars: int, a: int) -> range:
    """Middle-entry interval for (1, r, a, r, 1): every b from a through
    C(r+1, 2) keeps the vector in the family, the cap being sharp."""
    r = nvars
    if r < 1:
        raise ValueError(f"need at least one variable, got {r}")
    hi = binomial(r + 1, 2)
    if not 1 <= a <= hi:
        raise HypothesisError(f"middle entry {a} outside 1..{hi}")
    return _inclusive(a, hi)


def si_interval_closure(h_lo: HVector, h_hi: HVector, i: int) -> bool:
    """Whether the symmetric-pair interval between two h-vectors stays inside
    the SI class.

    The endpoints must agree everywhere except at degrees i and e - i, where
    the upper one exceeds the lower by a common step alpha >= 0.  Returns
    True iff every intermediate bump by beta = 0..alpha is an SI-sequence."""
    e = h_lo.socle_degree
    if h_hi.socle_degree != e:
        raise ValueError("endpoints must share the socle degree")
    if not 1 <= i <= e - 1:
        raise ValueError(f"bump degree must lie in 1..{e - 1}, got {i}")
    j = e - i
    alpha = h_hi[i] - h_lo[i]
    if alpha < 0:
        raise ValueError("upper endpoint is below the lower one")
    if h_hi[j] - h_lo[j] != alpha:
        raise ValueError(f"degrees {i} and {j} must move by the same step")
    for d in range(e + 1):
        if d not in (i, j) and h_lo[d] != h_hi[d]:
            raise ValueError(f"endpoints differ at untouched degree {d}")
    for beta in range(alpha + 1):
        bumped = h_lo.replace(i, h_lo[i] + beta).replace(j, h_lo[j] + beta)
        if not is_si_sequence(bumped):
            return False
    return True
