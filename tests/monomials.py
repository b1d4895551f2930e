"""Monomials as exponent tuples, walked one at a time: the oracles tests
compare the library's binomial ranks, raising tables and string tables
against.  The library itself lists no exponent tuples.  Also the power
sums of a partition drawn one part at a time, the oracle for the library's
one stacked draw per module."""

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import sub

from levellab.errors import DependentGeneratorsError
from levellab.forms import random_form, ring_dim


def grevlex(nvars, degree):
    """The exponent tuples of total degree ``degree``, one at a time, in
    descending grevlex order: ascending order of the reversed tuples, whose
    partial sums s_0 <= ... <= s_{r-2} <= degree come in ascending order
    from combinations_with_replacement; the exponents are their gaps."""
    for sums in combinations_with_replacement(range(degree + 1), nvars - 1):
        cuts = (degree, *sums[::-1], 0)
        yield tuple(map(sub, cuts, cuts[1:]))


@lru_cache(maxsize=None)
def monomial_positions(nvars, degree):
    """Coordinates by monomial, keyed in grevlex order."""
    ring_dim(nvars, degree)
    return {m: i for i, m in enumerate(grevlex(nvars, degree))}


def form_terms(f):
    """The nonzero coefficients of one ``Form`` by monomial, as Python ints,
    so the oracles that multiply them never wrap around int64."""
    return {m: c for m, c in zip(monomial_positions(f.nvars, f.degree), f.coeffs.tolist()) if c}


def power_sums_part_by_part(nvars, degree, parts, rng, p, cells):
    """The rows of a partition module drawn one part after another: each
    sum of m e-th powers draws its linear forms in slices of at most
    ``cells`` // (nvars * dim R_e) forms, sums every slice's powers and
    reduces once, and a sum that cancels mod p raises at once."""
    step = max(1, cells // (nvars * ring_dim(nvars, degree)))
    rows = []
    for count in parts:
        row = sum((random_form(nvars, 1, min(step, count - k), rng, p) ** degree).coeffs.sum(axis=0)
                  for k in range(0, count, step)) % p
        if not row.any():
            raise DependentGeneratorsError(f"{count} powers of degree {degree} cancel mod {p}")
        rows.append(row.tolist())
    return rows
