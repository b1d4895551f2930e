"""Inverse system modules: finitely generated spans closed under differentiation.

An :class:`InverseModule` holds degree-e generators as the rows of one
read-only int64 array, built from rows only.  Its h-vector is the tuple of
per-degree span dimensions of the derivative tower, which is the Hilbert
function of the level algebra the generators present (type = number of
independent generators, socle degree = e).

Generator files are plain text: comment lines start with '#', the header
line is ``ring r=<r> e=<e>``, and every following non-blank line is one
generator row in the form grammar of ``parse_form`` and ``format_form``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from random import Random

import numpy as np

from levellab.errors import DependentGeneratorsError, ParseError, SoundnessError
from levellab.forms import (
    DEFAULT_PRIME,
    check_integers,
    check_prime,
    check_ring,
    format_form,
    parse_form,
    randrange_many,
    ring_dim,
)
from levellab.macaulay import HVector
from levellab.spans import coefficient_matrix, derivative_spaces, rank_mod_p, rref_mod_p


@dataclass(frozen=True, eq=False, slots=True)
class InverseModule:
    """Generators of an inverse system, nonzero forms of degree e over F_p
    for a prime e < p < 2^31: the rows of ``coeffs``, a read-only
    t x dim R_e int64 array of residues.  Modules are equal when their
    rings, primes and arrays are."""

    nvars: int
    degree: int
    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_prime(self.p, self.degree)
        # a copy of its own, so no array or view the caller keeps writes to it
        coeffs = np.array(check_integers(self.coeffs), dtype=np.int64)
        size = ring_dim(self.nvars, self.degree)
        if coeffs.ndim != 2 or coeffs.shape[1] != size or not len(coeffs):
            raise ValueError(f"need generator rows of {size} coefficients, got shape {coeffs.shape}")
        if coeffs.min() < 0 or coeffs.max() >= self.p:
            raise ValueError(f"coefficients out of range for p={self.p}")
        if not coeffs.any(axis=1).all():
            raise ValueError("zero forms cannot be generators")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InverseModule)
                and (self.nvars, self.degree, self.p) == (other.nvars, other.degree, other.p)
                and np.array_equal(self.coeffs, other.coeffs))


@dataclass(frozen=True)
class HProfile:
    """Computed Hilbert function of a module; the module carries its
    prime."""

    h: HVector

    @property
    def dims(self) -> tuple[int, ...]:
        return self.h.entries


def type_of(module: InverseModule) -> int:
    """Number of linearly independent generators."""
    return rank_mod_p(coefficient_matrix(module), module.p)


def is_level_presentation(module: InverseModule) -> bool:
    """True when the presented generators are linearly independent, so the
    module presents a level algebra of type exactly len(generators)."""
    return type_of(module) == len(module.coeffs)


def h_vector(module: InverseModule) -> HProfile:
    """Hilbert function of the module as an :class:`HProfile`.

    Dependent generators are reported as an error: the span is still a
    level module, but of smaller type, and the caller must decide whether
    that was intended.
    """
    dims = tuple(map(len, derivative_spaces(module)))
    presented = len(module.coeffs)
    if dims[-1] != presented:
        raise DependentGeneratorsError(
            f"presented {presented} generators but only {dims[-1]} are independent",
            presented=presented,
            rank=dims[-1],
        )
    return HProfile(HVector(dims))


def is_gorenstein(module: InverseModule) -> bool:
    """True when the module spans a principal (type 1) inverse system, in
    any presentation.  A principal span has a symmetric tower, so an
    asymmetric one is an arithmetic bug and raises."""
    dims = tuple(map(len, derivative_spaces(module)))
    if dims[-1] != 1:
        return False
    if dims != dims[::-1]:
        raise SoundnessError(
            f"principal module computed an asymmetric h-vector {dims}"
        )
    return True


def common_derivative_dims(module: InverseModule) -> tuple[int, ...]:
    """Per-degree dimensions of the intersections of the derivative spans
    of a module's two generators f and g, via dim(A) + dim(B) - dim(A+B).
    Anything but a module of two generators raises ValueError."""
    if not isinstance(module, InverseModule) or len(module.coeffs) != 2:
        raise ValueError("common derivative dimensions need a module of two generators")
    dims_f, dims_g, dims_fg = (map(len, derivative_spaces(replace(module, coeffs=rows)))
                               for rows in (module.coeffs[:1], module.coeffs[1:], module.coeffs))
    return tuple(a + b - c for a, b, c in zip(dims_f, dims_g, dims_fg))


def generic_subquotient(module: InverseModule, c: int, rng: Random) -> InverseModule:
    """Module generated by c random independent combinations of the
    generators.  The combination matrix is resampled until it has rank c,
    so the result presents a type-c level quotient.  Each combination is a
    sum of coefficient rows in int64, reduced mod p after every product."""
    gens = coefficient_matrix(module)
    t = len(gens)
    if not 1 <= c <= t:
        raise ValueError(f"subquotient type must be in 1..{t}, got {c}")
    rank = type_of(module)
    if rank != t:
        raise DependentGeneratorsError("refusing to quotient a dependent presentation",
                                       presented=t, rank=rank)
    p = module.p
    while True:
        mix = randrange_many(rng, p, c * t).reshape(c, t)
        if rank_mod_p(mix, p) == c:
            break
    combos = np.zeros((c, gens.shape[1]), dtype=np.int64)
    for k, gen in enumerate(gens):
        combos += mix[:, k:k + 1] * gen  # below 2^62 + 2^31 before the reduction
        combos %= p
    return InverseModule(module.nvars, module.degree, p, combos)


def truncate_level(module: InverseModule, new_degree: int) -> InverseModule:
    """Module generated by the RREF of the degree ``new_degree`` component.
    Its h-vector is the prefix of the original through that degree."""
    if not 0 < new_degree <= module.degree:
        raise ValueError(
            f"truncation degree must be in 1..{module.degree}, got {new_degree}"
        )
    basis = rref_mod_p(derivative_spaces(module)[new_degree], module.p)
    return InverseModule(module.nvars, new_degree, module.p, basis)


# --------------------------------------------------------- generator files

_HEADER = re.compile(r"^ring\s+r=(\d+)\s+e=(\d+)\s*$")


def module_to_text(module: InverseModule) -> str:
    """Serialize to the generator file format; canonical and replayable."""
    lines = [f"ring r={module.nvars} e={module.degree}"]
    lines += (format_form(module.nvars, module.degree, row) for row in module.coeffs.tolist())
    return "\n".join(lines) + "\n"


def module_from_text(text: str, p: int = DEFAULT_PRIME) -> InverseModule:
    """Parse a generator file: comments, one header, one form per line.
    A header whose ring ``check_ring`` refuses is refused before any form
    is read."""
    header: tuple[int, int] | None = None
    rows: list[np.ndarray] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            match = _HEADER.match(line)
            if match is None:
                raise ParseError(
                    "expected header 'ring r=<r> e=<e>' before any generator",
                    line=lineno,
                )
            header = (int(match.group(1)), int(match.group(2)))
            try:
                check_ring(*header)
            except ValueError as exc:
                raise ParseError(f"bad header: {exc}", line=lineno) from None
            continue
        try:
            rows.append(parse_form(line, *header, p))
        except ParseError as exc:
            raise ParseError(f"bad generator: {exc}", line=lineno) from None
    if header is None:
        raise ParseError("missing 'ring r=<r> e=<e>' header", line=1)
    if not rows:
        raise ParseError("generator file lists no generators", line=1)
    return InverseModule(*header, p, rows)
