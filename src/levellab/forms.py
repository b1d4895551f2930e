"""Homogeneous forms over a prime field: coefficient rows, text, powers.

Forms live in a divided-power style polynomial ring k[y1..yr] on which the
dual ring acts by partial differentiation (``levellab.spans`` differentiates
whole coefficient matrices at once).  A form of degree d is a row of one
residue modulo a prime p, a plain integer in [0, p-1], for every monomial
of degree d, zeros included, in descending graded reverse lexicographic
order (grevlex); that order fixes every coefficient array and every
printed and serialized representation.  Text becomes int64 rows and back
by binomial ranks and one cached tuple of monomial strings per ring.
``Form`` only computes the powers of linear forms that constructions sum:
it holds one 2-d int64 array, a stack of rows, and ``random_form`` draws
a module's linear forms as one stack, which ``**`` raises one linear
factor at a time through ``raising_table``, the table the derivative
tower reads, for every row at once; no exponent tuple is ever listed.
Its public constructor checks the array it is given; the products,
powers and draws the class computes itself are only marked read-only,
since they are residues of the right shape by construction.

The default prime 2^31 - 1 keeps products inside 64-bit integers so the
elimination kernel can vectorize; any prime larger than the degrees in
play gives the same generic answers.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from random import Random
from typing import Sequence

import numpy as np

from levellab.errors import HypothesisError, ParseError

DEFAULT_PRIME = 2**31 - 1
# Every modulus stays below this, so int64 products of residues are exact.
PRIME_LIMIT = 2**31
# The largest ring ``check_ring`` admits for form text, module files and
# replayed records: its forms, coefficient matrices and derivative maps are
# as wide as its monomial table, and the table holds nvars exponents per
# monomial, so few monomials can still cost much (the 4,000 linear ones of
# r = 4000 are 16,000,000 cells and 277 MB).  Both limits admit r = 40,
# e = 4: 123,410 quartics, 4,936,400 cells.
MAX_MONOMIALS = 1 << 17
MAX_CELLS = 1 << 23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_integer(name: str, value) -> int:
    """``value`` as a plain int, whatever its integer type, so that seeds
    derived from it do not depend on the type: ``True`` reads as 1.  A
    float, a string or any other non-integer raises ValueError naming
    ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@lru_cache(maxsize=64, typed=True)  # typed: 101.0 must not hit the entry of 101
def check_prime(p: int, degree: int) -> int:
    """Require a prime p with degree < p < 2^31; returns it as a plain int.

    Above the range the int64 elimination overflows; at or below the degree
    the derivative multipliers vanish mod p, so neither can certify."""
    p = check_integer("prime", p)
    if not degree < p < PRIME_LIMIT:
        raise HypothesisError(
            f"prime {p} must exceed the socle degree {degree} and stay below 2^31"
        )
    if not is_prime(p):
        raise HypothesisError(f"modulus {p} is not prime")
    return p


def check_integers(values) -> np.ndarray:
    """``np.asarray(values)``, required to hold integers within int64.

    Floats, strings and wider integers raise ValueError before anything is
    reduced: a cast to int64 would truncate, parse or wrap them into other
    residues.  Integer arrays of any width pass unconverted."""
    array = np.asarray(values)
    if array.dtype == object:
        # Python integers too wide for any fixed-width dtype land here
        fits = all(isinstance(v, (int, np.integer)) and -2**63 <= v < 2**63 for v in array.flat)
    else:
        fits = array.dtype.kind in "biu" and not (
            array.dtype == np.uint64 and array.size and array.max() >= 2**63)
    if not fits:
        raise ValueError(f"expected integers within int64, got {array.dtype} entries")
    return array


def ring_dim(nvars: int, degree: int) -> int:
    """dim R_degree = C(nvars + degree - 1, degree), listing no monomial."""
    if nvars <= 0:
        raise ValueError(f"need at least one variable, got {nvars}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return comb(nvars + degree - 1, degree)


def check_ring(nvars: int, degree: int) -> int:
    """``ring_dim(nvars, degree)`` for a ring whose monomial table is small
    enough to build: at most ``MAX_MONOMIALS`` monomials and ``MAX_CELLS``
    exponents in all; a larger one raises ValueError.  C(n, k) for
    n = nvars + degree - 1 grows with k up to min(degree, nvars - 1) <= n / 2,
    so a huge ring is refused within a few small steps, before ``ring_dim``."""
    for k in range(1, min(degree, nvars - 1) + 1):
        if comb(nvars + degree - 1, k) > MAX_MONOMIALS:
            raise ValueError(f"degree {degree} in {nvars} variables has over "
                             f"{MAX_MONOMIALS} monomials")
    size = ring_dim(nvars, degree)
    if size * nvars > MAX_CELLS:
        raise ValueError(f"degree {degree} in {nvars} variables has {size} monomials "
                         f"of {nvars} exponents, over {MAX_CELLS} cells")
    return size


@lru_cache(maxsize=64)  # bounded: a power of degree e reads e tables in turn
def raising_table(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """nvars x dim R_{d-1} int32 arrays ``index`` and ``mult``: for y_v and
    the degree d-1 monomial m, the coordinate of y_v m among the degree-d
    monomials and its exponent of y_v.  Grevlex lists a degree-d monomial
    at dim R_d - 1 - sum_k C(c_k, k) for c_k = a_1 + ... + a_k + k - 1,
    k = 1..nvars-1, by the combinatorial number system; so the c_k of the
    degree d-1 monomials are read off their coordinates greedily, and y_v,
    which raises c_k by one exactly for k > v, moves m by a running sum."""
    size = ring_dim(nvars, degree - 1)
    cap = ring_dim(nvars, degree)  # keeps columns exact below it, and sorted
    # C(n, k) capped, column by column: C(n, k) = C(0, k-1) + ... + C(n-1, k-1)
    choose = np.ones((degree + nvars, nvars), dtype=np.int64)
    choose[0, 1:] = 0
    for k in range(1, nvars):
        np.minimum(np.cumsum(choose[:-1, k - 1]), cap, out=choose[1:, k])
    rest = np.arange(size - 1, -1, -1)
    cuts = np.empty((nvars - 1, size), dtype=np.int64)
    for k in range(nvars - 1, 0, -1):
        cuts[k - 1] = np.searchsorted(choose[:, k], rest, side="right") - 1
        rest -= choose[cuts[k - 1], k]
    # y_v m sits at cap - 1 - sum_k C(c_k + 1, k) + sum_{k<=v} C(c_k, k - 1),
    # as C(c + 1, k) - C(c, k) = C(c, k - 1)
    k = np.arange(1, nvars)[:, None]
    steps = np.vstack([np.zeros((1, size), np.int64), np.cumsum(choose[cuts, k - 1], axis=0)])
    index = cap - 1 - choose[cuts + 1, k].sum(axis=0) + steps
    exps = np.diff(cuts - k + 1, axis=0, prepend=0, append=degree - 1)
    return index.astype(np.int32), (exps + 1).astype(np.int32)


@dataclass(frozen=True, eq=False)
class Form:
    """A stack of homogeneous forms over F_p of one ring and degree, kept
    only to raise linear forms to powers.

    ``coeffs`` is a read-only 2-d int64 array with one form per row and one
    residue in [0, p) per monomial of the degree, in descending grevlex
    order, and every product acts on all rows at once.  ``Form(...)``
    copies and checks its array; a stack the class computes is built by
    ``_computed``, which checks nothing.
    """

    nvars: int
    degree: int
    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        size = ring_dim(self.nvars, self.degree)
        # a copy of its own, so no array or view the caller keeps writes to it
        coeffs = np.array(check_integers(self.coeffs), dtype=np.int64)
        if coeffs.ndim != 2:
            raise ValueError(f"a stack of forms, not a {coeffs.ndim}-d array")
        if coeffs.shape[1] != size:
            raise ValueError(f"{coeffs.shape[1]} coefficients for {size} monomials")
        # below 2^31, products of residues stay exact in int64; as uint64 a
        # negative entry is above 2^63, so one maximum checks both ends
        if not self.p < PRIME_LIMIT or (coeffs.size and coeffs.view(np.uint64).max() >= self.p):
            raise ValueError(f"coefficients out of range for p={self.p} < 2^31")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _computed(cls, nvars: int, degree: int, p: int, coeffs: np.ndarray) -> "Form":
        """A stack of a fresh int64 array of residues that no caller holds,
        dim R_degree wide: marked read-only, not copied or checked again."""
        form = object.__new__(cls)
        coeffs.flags.writeable = False
        form.__dict__.update(nvars=nvars, degree=degree, p=p, coeffs=coeffs)
        return form

    def __mul__(self, linear: "Form") -> "Form":
        """Each form times the linear form in the same row of ``linear``:
        c_v y_v g lands at ``raising_table`` index[v], one to one, so each
        cell sums at most nvars residues."""
        if linear.degree != 1:
            raise ValueError(f"a product needs a linear factor, not one of degree {linear.degree}")
        if self.nvars != linear.nvars or self.p != linear.p:
            raise ValueError("forms live in different rings")
        if len(self.coeffs) != len(linear.coeffs):
            raise ValueError("factors hold different numbers of forms")
        # one np.add.at over forms x nvars x dim R_d flat positions: numpy's
        # fast path, about twice an (..., index) subscript's speed
        p, g = self.p, self.coeffs
        index, _ = raising_table(self.nvars, self.degree + 1)
        forms, size = len(g), ring_dim(self.nvars, self.degree + 1)
        out = np.zeros(forms * size, np.int64)
        np.add.at(out, (index + size * np.arange(forms)[:, None, None]).ravel(),
                  (linear.coeffs[:, :, None] * g[:, None, :] % p).ravel())
        return Form._computed(self.nvars, self.degree + 1, p, out.reshape(forms, size) % p)

    def __pow__(self, exponent: int) -> "Form":
        """self * ... * self for an exponent of at least 1, every form of
        the stack at once; in one variable, c y1^d to the e is c^e y1^(de)."""
        if exponent < 1:
            raise ValueError(f"powers need an exponent of at least 1, got {exponent}")
        if self.nvars == 1:
            powers = [[pow(c, exponent, self.p)] for c in self.coeffs[:, 0].tolist()]
            return Form._computed(1, self.degree * exponent, self.p, np.array(powers, np.int64))
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result


def random_form(nvars: int, degree: int, count: int, rng: Random,
                p: int = DEFAULT_PRIME) -> Form:
    """A stack of ``count`` dense random forms, each monomial a uniform
    residue, drawn by ``random_rows``."""
    return Form._computed(nvars, degree, p, random_rows(count, ring_dim(nvars, degree), rng, p))


def random_rows(count: int, size: int, rng: Random, p: int = DEFAULT_PRIME) -> np.ndarray:
    """A fresh ``count`` x ``size`` int64 array of uniform residues with no
    zero row: the rows of ``count`` draws one at a time, where a row that
    comes out zero is drawn again.  Such a redraw takes the values that
    follow the zero row, so the rows are drawn in one ``randrange_many``,
    the zero ones dropped and the shortfall drawn again."""
    kept = randrange_many(rng, p, count * size).reshape(count, size)
    while not kept.any(axis=1).all():
        kept = kept[kept.any(axis=1)]
        drawn = randrange_many(rng, p, (count - len(kept)) * size)
        kept = np.vstack([kept, drawn.reshape(-1, size)])
    return kept


def randrange_many(rng: Random, n: int, count: int) -> np.ndarray:
    """The values of ``count`` calls of ``rng.randrange(n)`` as an int64
    array, with ``rng`` left in the same state as those calls leave it.

    ``randrange(n)`` keeps the top n.bit_length() bits of one 32-bit
    Mersenne Twister word per attempt and rejects values >= n, and
    ``getrandbits(32 * m)`` returns the next m words, least significant
    first.  So the words are drawn in bulk, shifted and filtered, and the
    shortfall is drawn again until ``count`` values are kept, for any
    count: ``count`` calls would save only microseconds on a few values."""
    if not 2 <= n < PRIME_LIMIT:
        raise HypothesisError(f"modulus {n} is outside 2..2^31-1")
    shift = 32 - n.bit_length()
    kept = np.empty(0, dtype=np.int64)
    while len(kept) < count:
        want = count - len(kept)
        words = rng.getrandbits(32 * want).to_bytes(4 * want, "little")
        drawn = np.frombuffer(words, dtype="<u4") >> shift
        kept = np.concatenate([kept, drawn[drawn < n]])
    return kept


# ------------------------------------------------------------------ text


@lru_cache(maxsize=None)
def _monomial_strings(nvars: int, degree: int) -> tuple[str, ...]:
    """The text of every degree-``degree`` monomial in grevlex order, like
    ``y1^2*y3``, and ``""`` for the constant: the one table printing keeps.
    It grows one variable at a time: the degree-d strings of y1..yk are
    those of y1..y(k-1), then for a = 1..d those of degree d - a times
    yk^a.  Only the last variable needs no lower degree."""
    ring_dim(nvars, degree)
    every = range(degree + 1)
    strings = {d: (_power(1, d),) for d in (every if nvars > 1 else [degree])}
    for var in range(2, nvars + 1):
        powers = [_power(var, a) for a in every]
        strings = {d: strings[d] + tuple(f"{body}*{powers[a]}" if body else powers[a]
                                         for a in range(1, d + 1) for body in strings[d - a])
                   for d in (every if var < nvars else [degree])}
    return strings[degree]


def _power(var: int, a: int) -> str:
    return "" if not a else f"y{var}" if a == 1 else f"y{var}^{a}"


def format_form(nvars: int, degree: int, row) -> str:
    """Canonical text of a coefficient row: terms in descending grevlex,
    plain residues, unit coefficients omitted; ``parse_form`` inverts it."""
    parts = []
    for body, coeff in zip(_monomial_strings(nvars, degree), row, strict=True):
        if not coeff:
            continue
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts) or "0"


def _grevlex_rank(exps: Sequence[int], size: int) -> int:
    """The grevlex coordinate of the monomial with exponents ``exps`` among
    the ``size`` of its degree: size - 1 - sum_k C(a_1 + ... + a_k + k - 1, k),
    k = 1..r-1, the combinatorial number system ``levellab.spans`` reads."""
    sums = accumulate(exps[:-1])  # a_1 + ... + a_k for k = 1..r-1
    return size - 1 - sum(comb(s + k - 1, k) for k, s in enumerate(sums, start=1))


# One term and the sign before it.  Groups: 1 the sign, 2 the term, 3 its
# coefficient, 4 its factors (led by the '*' after a coefficient), 5 a '*'
# that no factor follows.
_FACTOR = re.compile(r"y(\d+)(?:\^(\d+))?")
_TERM = re.compile(r"\s*([+-]?)\s*((\d+)?((?(3)\s*\*\s*)y\d+(?:\^\d+)?"
                   r"(?:\s*\*\s*y\d+(?:\^\d+)?)*)?)\s*(\*\s*)?")


def _integer(match: re.Match, group: int) -> int:
    """The digits of ``group`` as an int, 1 if it did not match; a
    ParseError at them past the digits Python converts."""
    try:
        return int(match[group] or 1)
    except ValueError:
        raise ParseError("integer too long to convert", position=match.start(group)) from None


def parse_form(text: str, nvars: int, degree: int, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Parse one degree-``degree`` form from text like ``y1^4 + 3*y2^3*y3``
    into its int64 coefficient row: ``[sign] term (sign term)*`` with
    ``term := int | [int '*'] factor ('*' factor)*``, ``factor :=
    y<i>[^<e>]``, signs + and -, and whitespace around operators and at
    both ends.  Repeated variables add their exponents.  Every term with a
    nonzero coefficient mod p has the given degree, and text with none
    (like ``0``) is the zero row.  A ParseError names a ring too large for
    ``check_ring``, or gives the offset where the text leaves the grammar."""
    try:
        size = check_ring(nvars, degree)
    except ValueError as exc:
        raise ParseError(str(exc), position=0) from None
    coeffs, pos = [0] * size, 0
    while pos < len(text) or not pos:  # empty text still reads one term
        term = _TERM.match(text, pos)
        if pos and not term[1]:
            raise ParseError("expected '+' or '-' between terms", position=term.start(1))
        if not term[2]:
            raise ParseError("expected a term", position=term.start(2))
        if term[5]:
            raise ParseError("expected a variable after '*'", position=term.end(5))
        exps = [0] * nvars  # a bare integer's factor span (-1, -1) reads as empty
        for factor in _FACTOR.finditer(text, *term.span(4)):
            var = _integer(factor, 1)
            if not 1 <= var <= nvars:
                raise ParseError(f"variable y{var} out of range 1..{nvars}",
                                 position=factor.start())
            exps[var - 1] += _integer(factor, 2)
        coeff = _integer(term, 3)
        if coeff % p:  # a term with a zero coefficient carries no degree
            if sum(exps) != degree:
                raise ParseError(f"term of degree {sum(exps)} in a form of degree {degree}",
                                 position=term.start(2))
            coeffs[_grevlex_rank(exps, size)] += -coeff if term[1] == "-" else coeff
        pos = term.end()
    return np.array([c % p for c in coeffs], dtype=np.int64)
