"""Monomials as exponent tuples, walked one at a time: the oracles tests
compare the library's binomial ranks, raising tables and string tables
against.  The library itself lists no exponent tuples."""

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import sub

from levellab.forms import ring_dim


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
