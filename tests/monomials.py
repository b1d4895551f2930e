"""Monomials as exponent tuples, walked one at a time: the oracles tests
compare the library's binomial ranks, raising tables and string tables
against.  The library itself lists no exponent tuples.  Forms here are
coefficient rows, as lists of residues so that rows compare with ``==``,
and their reference arithmetic works on dicts of coefficients by
monomial.  Also the power sums of a partition drawn one part at a time,
the oracle for the library's one stacked draw per module."""

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, sub

from levellab.errors import DependentGeneratorsError
from levellab.forms import DEFAULT_PRIME, parse_form, random_form, random_rows, ring_dim
from levellab.modules import InverseModule


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


def form_terms(nvars, degree, row):
    """The nonzero coefficients of one coefficient row by monomial, as
    Python ints, so the oracles that multiply them never wrap around int64."""
    return {m: int(c) for m, c in zip(monomial_positions(nvars, degree), row, strict=True) if c}


def form(text, nvars, degree, p=DEFAULT_PRIME):
    """The coefficient row ``text`` names, by ``parse_form``."""
    return parse_form(text, nvars, degree, p).tolist()


def random_forms(nvars, degree, count, rng, p=DEFAULT_PRIME):
    """``count`` random coefficient rows drawn as one stack by ``random_rows``."""
    return random_rows(count, ring_dim(nvars, degree), rng, p).tolist()


def scaled(row, c, p=DEFAULT_PRIME):
    """c times the form of a row, mod p."""
    return [c * v % p for v in row]


def module_of(nvars, degree, rows, p=DEFAULT_PRIME):
    """The module the coefficient rows of degree ``degree`` generate."""
    return InverseModule(nvars, degree, p, rows)


def reference_derivative(nvars, degree, row, var, p=DEFAULT_PRIME):
    """d f / d y_{var+1} of the row of a form of degree >= 1, term by term
    over its monomials: the oracle for the tower's index-array derivatives."""
    lower = monomial_positions(nvars, degree - 1)
    coeffs = [0] * len(lower)
    for mono, coeff in form_terms(nvars, degree, row).items():
        if mono[var]:
            coeffs[lower[mono[:var] + (mono[var] - 1,) + mono[var + 1:]]] += coeff * mono[var]
    return [c % p for c in coeffs]


def dict_product(f, g, p):
    """f g mod p by every pair of terms of two dicts of coefficients by
    monomial, zero terms dropped: the oracle for the products through the
    raising table."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def dict_power(f, e, p):
    """f^e mod p for e >= 1 by repeated squaring through ``dict_product``."""
    result, base = None, f
    while e:
        if e & 1:
            result = base if result is None else dict_product(result, base, p)
        e >>= 1
        if e:
            base = dict_product(base, base, p)
    return result


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
