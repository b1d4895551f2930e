"""Inverse system modules: finitely generated spans closed under differentiation.

An :class:`InverseModule` is one read-only int64 array of degree-e
generators.  Its h-vector is the tuple of per-degree span dimensions of the
derivative tower, which is the Hilbert function of the level algebra the
generators present (type = number of independent generators, socle degree = e).

Generator files are plain text: comment lines start with '#', the header
line is ``ring r=<r> e=<e>``, and every following non-blank line is one
generator in the form grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from random import Random
from typing import Sequence

import numpy as np

from levellab.errors import DependentGeneratorsError, ParseError, SoundnessError
from levellab.forms import (
    DEFAULT_PRIME,
    Form,
    check_prime,
    check_ring,
    format_form,
    parse_form,
    randrange_many,
    ring_dim,
)
from levellab.macaulay import HVector
from levellab.spans import coefficient_matrix, derivative_spaces, rank_mod_p


@dataclass(frozen=True, eq=False)
class InverseModule:
    """Generators of an inverse system, nonzero forms of degree e over F_p
    for a prime e < p < 2^31: the rows of ``coeffs``, a read-only
    t x dim R_e int64 array of residues.  ``seed`` records how randomized
    builders drew them (None for hand-written or parsed modules).  Modules
    are equal when their rings, primes, seeds and arrays are."""

    nvars: int
    degree: int
    p: int
    coeffs: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        check_prime(self.p, self.degree)
        # a copy of its own, so no array or view the caller keeps writes to it
        coeffs = np.array(self.coeffs, dtype=np.int64)
        size = ring_dim(self.nvars, self.degree)
        if coeffs.ndim != 2 or coeffs.shape[1] != size or not len(coeffs):
            raise ValueError(f"need generator rows of {size} coefficients, got shape {coeffs.shape}")
        if coeffs.min() < 0 or coeffs.max() >= self.p:
            raise ValueError(f"coefficients out of range for p={self.p}")
        if not coeffs.any(axis=1).all():
            raise ValueError("zero forms cannot be generators")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_forms(cls, forms: Sequence[Form]) -> "InverseModule":
        """The module generated by ``forms``, which share one ring and degree."""
        rings = {(g.nvars, g.degree, g.p) for g in forms}
        if len(rings) != 1:
            raise ValueError("a module needs at least one generator, all of one ring and degree")
        (nvars, degree, p), = rings
        return cls(nvars, degree, p, np.array([g.coeffs for g in forms], dtype=np.int64))

    @property
    def generators(self) -> tuple[Form, ...]:
        """The rows of ``coeffs`` as forms, for printing."""
        return tuple(Form(self.nvars, self.degree, self.p, tuple(row))
                     for row in self.coeffs.tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, InverseModule) and self.seed == other.seed
                and (self.nvars, self.degree, self.p) == (other.nvars, other.degree, other.p)
                and np.array_equal(self.coeffs, other.coeffs))

    def with_seed(self, seed: int | None) -> "InverseModule":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class HProfile:
    """Computed Hilbert function of a module; the module carries its prime
    and seed."""

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


def common_derivative_dims(f: Form, g: Form) -> tuple[int, ...]:
    """Per-degree dimensions of the intersections of the derivative spans
    of f and g, via dim(A) + dim(B) - dim(A+B).  Forms of two rings or
    degrees, or a zero form, raise ValueError from ``from_forms``."""
    dims_f, dims_g, dims_fg = (map(len, derivative_spaces(InverseModule.from_forms(forms)))
                               for forms in ([f], [g], [f, g]))
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
    return InverseModule(module.nvars, module.degree, p, combos, seed=module.seed)


def truncate_level(module: InverseModule, new_degree: int) -> InverseModule:
    """Module generated by a basis of the degree ``new_degree`` component.
    Its h-vector is the prefix of the original through that degree."""
    if not 0 < new_degree <= module.degree:
        raise ValueError(
            f"truncation degree must be in 1..{module.degree}, got {new_degree}"
        )
    basis = derivative_spaces(module)[new_degree]
    return InverseModule(module.nvars, new_degree, module.p, basis, seed=module.seed)


# --------------------------------------------------------- generator files

_HEADER = re.compile(r"^ring\s+r=(\d+)\s+e=(\d+)\s*$")


def module_to_text(module: InverseModule) -> str:
    """Serialize to the generator file format; canonical and replayable."""
    lines = [f"ring r={module.nvars} e={module.degree}"]
    lines.extend(map(format_form, module.generators))
    return "\n".join(lines) + "\n"


def module_from_text(text: str, p: int = DEFAULT_PRIME) -> InverseModule:
    """Parse a generator file: comments, one header, one form per line.
    A header whose ring ``check_ring`` refuses is refused before any form
    is read."""
    header: tuple[int, int] | None = None
    forms: list[Form] = []
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
            forms.append(parse_form(line, header[0], p, expected_degree=header[1]))
        except ParseError as exc:
            raise ParseError(f"bad generator: {exc}", line=lineno) from None
    if header is None:
        raise ParseError("missing 'ring r=<r> e=<e>' header", line=1)
    if not forms:
        raise ParseError("generator file lists no generators", line=1)
    return InverseModule.from_forms(forms)
