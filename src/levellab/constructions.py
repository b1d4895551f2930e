"""Randomized constructions of level modules with predicted h-vectors.

Each builder draws coefficients from a caller-supplied ``random.Random``,
so a (seed, prime) pair replays the construction byte for byte.  The
``expected_h_*`` companions give the h-vector the construction achieves
generically; computing the actual tower and comparing against the
prediction is how certificates get verified.

The predictions rest on two classical facts about sums of powers of
general linear forms: a single sum of m e-th powers spans
min(m, dim R_j, dim R_{e-j}) in each degree j, and adjoining such a sum to
a level module adds the two towers degreewise, capped by the ring.  One
formula applies the second fact over a partition (m_1, ..., m_t); a sum of
m powers is the partition (m), and the socle degree 2 and 3 realizations
are partition recipes (``levellab construct socle2`` and ``socle3``).
A power-sum module draws the linear forms of all its parts as one stack,
in the order of the parts, and raises them by one ``**``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import accumulate
from random import Random

from levellab.errors import DependentGeneratorsError, HypothesisError
import numpy as np

from levellab.forms import DEFAULT_PRIME, random_form, random_rows, ring_dim
from levellab.macaulay import HVector
from levellab.modules import HProfile, InverseModule, h_vector, type_of
from levellab.seeds import derive_seed


# Random trials per construction, unless a caller passes another count.
DEFAULT_TRIALS = 5
# A stack of k linear forms takes about k * nvars * dim R_e int64 cells to
# raise to the e-th power; a larger sum is powered in slices under this.
_POWER_CELLS = 1 << 20


def sum_of_powers(nvars: int, degree: int, count: int, rng: Random,
                  p: int = DEFAULT_PRIME) -> np.ndarray:
    """The int64 row of a sum of ``count`` e-th powers of independent random
    linear forms: the one-part case of ``_power_sums``."""
    if count < 1:
        raise ValueError(f"need at least one power, got {count}")
    return _power_sums(nvars, degree, (count,), rng, p)[0]


def _power_sums(nvars: int, degree: int, parts: tuple[int, ...], rng: Random,
                p: int = DEFAULT_PRIME) -> np.ndarray:
    """One int64 row per part, the i-th a sum of parts[i] e-th powers of
    independent random linear forms.  The linear forms of all parts are
    drawn as one stack and raised by one ``**`` (a module too large for
    ``_POWER_CELLS`` by slices of the stack, which may split a part); each
    power is added into its part's row, and the rows are reduced once.  A
    stacked draw replays its draws one at a time, so the rows are those of
    drawing the parts in order, each sum by itself."""
    if degree < 1:
        raise ValueError(f"powers need degree >= 1, got {degree}")
    starts = list(accumulate(parts, initial=0))  # part i holds forms starts[i]..starts[i+1]-1
    rows = np.zeros((len(parts), ring_dim(nvars, degree)), np.int64)
    step = max(1, _POWER_CELLS // (nvars * rows.shape[1]))
    for k in range(0, starts[-1], step):
        stop = min(k + step, starts[-1])
        powers = (random_form(nvars, 1, stop - k, rng, p) ** degree).coeffs
        # parts first..last-1 meet this slice; each one's run sums by one
        # reduceat, and a part of at most dim R_e <= 2^17 residues stays
        # below 2^48
        first, last = bisect_right(starts, k) - 1, bisect_left(starts, stop)
        cuts = [max(start - k, 0) for start in starts[first:last]]
        rows[first:last] += np.add.reduceat(powers, cuts, axis=0)
    rows %= p
    nonzero = rows.any(axis=1)
    if not nonzero.all():  # a degenerate draw, like dependent generators
        count = parts[int(nonzero.argmin())]
        raise DependentGeneratorsError(f"{count} powers of degree {degree} cancel mod {p}")
    return rows


def _add_power_sums(h: tuple[int, ...], nvars: int, parts) -> HVector:
    """h'_j = min(h_j + sum_i min(m_i, dim R_j, dim R_{e-j}), dim R_j) for
    j = 1..e, with e = len(h) - 1: the generic h-vector after adjoining one
    sum of m_i e-th powers per part to a level module with h-vector h."""
    if not parts or min(parts) < 1:
        raise ValueError(f"need at least one sum, each of at least one power, got {tuple(parts)}")
    e = len(h) - 1
    dims = [ring_dim(nvars, j) for j in range(e + 1)]
    return HVector((1,) + tuple(
        min(h[j] + sum(min(m, dims[j], dims[e - j]) for m in parts), dims[j])
        for j in range(1, e + 1)))


def expected_h_sum_of_powers(nvars: int, degree: int, count: int) -> HVector:
    """Generic h-vector of a sum of ``count`` e-th powers:
    h_j = min(count, dim R_j, dim R_{e-j})."""
    return expected_h_powers_partition(nvars, degree, (count,))


def powers_partition_module(nvars: int, degree: int, parts: tuple[int, ...], rng: Random,
                            p: int = DEFAULT_PRIME) -> InverseModule:
    """One generator per part, the i-th a sum of parts[i] e-th powers of
    random linear forms, drawn in order."""
    if not parts:
        raise ValueError("partition must have at least one part")
    if any(m < 1 for m in parts):
        raise ValueError(f"parts must be positive, got {parts}")
    return InverseModule(nvars, degree, p, _power_sums(nvars, degree, parts, rng, p))


def expected_h_powers_partition(nvars: int, degree: int, parts: tuple[int, ...]) -> HVector:
    """Generic h-vector of a partition module: degreewise sums of the
    single-generator profiles, capped by the ring dimension."""
    # a plain tuple: HVector trims trailing zeros, so it refuses a zero base
    return _add_power_sums((0,) * (degree + 1), nvars, parts)


def greedy_partition(total: int, count: int, cap: int) -> tuple[int, ...]:
    """Lexicographically greatest partition of ``total`` into exactly
    ``count`` parts, each between 1 and ``cap``."""
    if not count <= total <= count * cap:
        raise ValueError(
            f"no partition of {total} into {count} parts within 1..{cap}"
        )
    parts = []
    remaining = total
    for k in range(count, 0, -1):
        take = min(cap, remaining - (k - 1))
        parts.append(take)
        remaining -= take
    return tuple(parts)


def augment_with_powers(module: InverseModule, count: int, rng: Random) -> InverseModule:
    """Adjoin one generator, a sum of ``count`` general e-th powers."""
    room = ring_dim(module.nvars, module.degree) - type_of(module)
    if not 1 <= count <= room:
        raise HypothesisError(
            f"augmentation size must be in 1..{room} "
            f"(ring dimension minus current type), got {count}"
        )
    extra = sum_of_powers(module.nvars, module.degree, count, rng, module.p)
    return replace(module, coeffs=np.vstack([module.coeffs, extra]))


def expected_h_augment(h: HVector, nvars: int, count: int) -> HVector:
    """Generic h-vector after adjoining a sum of ``count`` powers to a
    level module with h-vector h: degreewise sum capped by the ring."""
    return _add_power_sums(h.entries, nvars, (count,))


def add_new_variable_power(module: InverseModule) -> InverseModule:
    """Juxtapose a fresh variable: embed the generators in r+1 variables
    and adjoin the pure power of the new variable.  Every entry of the
    h-vector from degree 1 through e grows by exactly one, because the new
    tower meets the old one only in the constants.

    Monomials free of the new variable come first in descending grevlex,
    in their old order, and its pure power comes last: each generator's
    coefficients gain trailing zeros, and the power is the last unit vector."""
    wide = module.nvars + 1
    coeffs = np.zeros((len(module.coeffs) + 1, ring_dim(wide, module.degree)), dtype=np.int64)
    coeffs[:-1, :module.coeffs.shape[1]] = module.coeffs
    coeffs[-1, -1] = 1
    return replace(module, nvars=wide, coeffs=coeffs)


def compressed_generic_module(nvars: int, degree: int, count: int, rng: Random,
                              p: int = DEFAULT_PRIME) -> InverseModule:
    """``count`` dense random generators, drawn by ``random_rows`` as if row
    by row (a zero row drawn again); generically the module is compressed."""
    cap = ring_dim(nvars, degree)
    if not 1 <= count <= cap:
        raise ValueError(f"type must be in 1..{cap}, got {count}")
    return InverseModule(nvars, degree, p, random_rows(count, cap, rng, p))


def expected_h_compressed(nvars: int, degree: int, count: int) -> HVector:
    """Maximal profile h_j = min(dim R_j, count * dim R_{e-j}), observed
    generically for dense random generators."""
    if count < 1:
        raise ValueError(f"need at least one generator, got {count}")
    return HVector((1,) + tuple(min(ring_dim(nvars, j), count * ring_dim(nvars, degree - j))
                                for j in range(1, degree + 1)))


def maximal_profile(builder, master_seed: int,
                    trials: int = DEFAULT_TRIALS) -> tuple[InverseModule, HProfile, int]:
    """Run a randomized builder on several derived seeds and keep the best
    witness.

    Span dimensions only drop on special coefficient choices, so the
    entrywise-largest h-vector over independent trials is the generic one;
    ties between incomparable profiles break deterministically by entry
    sum and then lexicographic order.  ``builder`` takes a Random and
    returns an InverseModule, or raises DependentGeneratorsError on a
    degenerate draw.  Returns the winner as (module, profile, seed), the
    seed its trial's Random was made from.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    best: tuple[InverseModule, HProfile, int] | None = None
    for k in range(trials):
        seed = derive_seed(master_seed, "trial", k)
        try:
            module = builder(Random(seed))
            profile = h_vector(module)
        except DependentGeneratorsError:
            continue
        if best is None or _profile_rank(profile) > _profile_rank(best[1]):
            best = (module, profile, seed)
    if best is None:
        raise DependentGeneratorsError(
            f"all {trials} trials drew dependent generators", presented=0, rank=0
        )
    return best


def _profile_rank(profile: HProfile) -> tuple[int, tuple[int, ...]]:
    return (sum(profile.dims), profile.dims)
