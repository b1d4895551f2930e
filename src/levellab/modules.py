"""Inverse system modules: finitely generated spans closed under differentiation.

An :class:`InverseModule` holds degree-e generator forms.  Its h-vector is
the tuple of per-degree span dimensions of the derivative tower, which is
the Hilbert function of the level algebra the generators present (type =
number of independent generators, socle degree = e).

Generator files are plain text: comment lines start with '#', the header
line is ``ring r=<r> e=<e>``, and every following non-blank line is one
generator in the form grammar.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, dataclass, replace
from random import Random

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
)
from levellab.macaulay import HVector
from levellab.spans import derivative_spaces, rank_mod_p, span_dimension


@dataclass(frozen=True)
class InverseModule:
    """Generators of an inverse system: forms of one common degree over F_p,
    for a prime p above that degree and below 2^31.

    ``seed`` records how randomized builders drew the coefficients; it is
    None for hand-written or parsed modules.
    """

    nvars: int
    degree: int
    p: int
    generators: tuple[Form, ...]
    seed: int | None = None

    def __post_init__(self):
        check_prime(self.p, self.degree)
        if not self.generators:
            raise ValueError("a module needs at least one generator")
        for g in self.generators:
            if g.nvars != self.nvars or g.p != self.p:
                raise ValueError("generator lives in a different ring")
            if g.degree != self.degree:
                raise ValueError(
                    f"generator degree {g.degree} differs from module degree {self.degree}"
                )
            if g.is_zero:
                raise ValueError("zero forms cannot be generators")

    def with_seed(self, seed: int | None) -> "InverseModule":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class HProfile:
    """Computed Hilbert function of a module, with its provenance."""

    h: HVector
    _: KW_ONLY
    prime: int
    seed: int | None = None

    @property
    def dims(self) -> tuple[int, ...]:
        return self.h.entries


def type_of(module: InverseModule) -> int:
    """Number of linearly independent generators."""
    return span_dimension(list(module.generators))


def is_level_presentation(module: InverseModule) -> bool:
    """True when the presented generators are linearly independent, so the
    module presents a level algebra of type exactly len(generators)."""
    return type_of(module) == len(module.generators)


def h_vector(module: InverseModule) -> HProfile:
    """Hilbert function of the module as an :class:`HProfile`.

    Dependent generators are reported as an error: the span is still a
    level module, but of smaller type, and the caller must decide whether
    that was intended.
    """
    dims = tuple(map(len, derivative_spaces(list(module.generators))))
    presented = len(module.generators)
    if dims[-1] != presented:
        raise DependentGeneratorsError(
            f"presented {presented} generators but only {dims[-1]} are independent",
            presented=presented,
            rank=dims[-1],
        )
    return HProfile(HVector(dims), prime=module.p, seed=module.seed)


def is_gorenstein(module: InverseModule) -> bool:
    """True when the module spans a principal (type 1) inverse system, in
    any presentation.  A principal span has a symmetric tower, so an
    asymmetric one is an arithmetic bug and raises."""
    dims = tuple(map(len, derivative_spaces(list(module.generators))))
    if dims[-1] != 1:
        return False
    if dims != dims[::-1]:
        raise SoundnessError(
            f"principal module computed an asymmetric h-vector {dims}"
        )
    return True


def common_derivative_dims(f: Form, g: Form) -> tuple[int, ...]:
    """Per-degree dimensions of the intersections of the derivative spans
    of f and g, via dim(A) + dim(B) - dim(A+B)."""
    if f.nvars != g.nvars or f.p != g.p:
        raise ValueError("forms live in different rings")
    if f.degree != g.degree:
        raise ValueError("common derivative dimensions need equal degrees")
    if f.is_zero or g.is_zero:
        raise ValueError("zero forms have no derivative tower")
    dims_f, dims_g, dims_fg = (map(len, derivative_spaces(forms)) for forms in ([f], [g], [f, g]))
    return tuple(a + b - c for a, b, c in zip(dims_f, dims_g, dims_fg))


def generic_subquotient(module: InverseModule, c: int, rng: Random) -> InverseModule:
    """Module generated by c random independent combinations of the
    generators.  The combination matrix is resampled until it has rank c,
    so the result presents a type-c level quotient.  Each combination is a
    sum of coefficient rows in int64, reduced mod p after every product."""
    t = len(module.generators)
    if not 1 <= c <= t:
        raise ValueError(f"subquotient type must be in 1..{t}, got {c}")
    if not is_level_presentation(module):
        raise DependentGeneratorsError(
            "refusing to quotient a dependent presentation",
            presented=t,
            rank=type_of(module),
        )
    p = module.p
    while True:
        drawn = randrange_many(rng, p, c * t)
        rows = [drawn[i:i + t] for i in range(0, c * t, t)]
        if rank_mod_p(np.array(rows, dtype=np.int64), p) == c:
            break
    gens = np.array([g.coeffs for g in module.generators], dtype=np.int64)
    combos = []
    for row in rows:
        acc = np.zeros_like(gens[0])
        for coeff, gen in zip(row, gens):
            acc = (acc + coeff * gen) % p  # below 2^62 + 2^31 before the reduction
        combos.append(Form(module.nvars, module.degree, p, tuple(acc.tolist())))
    return InverseModule(module.nvars, module.degree, p, tuple(combos), seed=module.seed)


def truncate_level(module: InverseModule, new_degree: int) -> InverseModule:
    """Module generated by a basis of the degree ``new_degree`` component.
    Its h-vector is the prefix of the original through that degree."""
    if not 0 < new_degree <= module.degree:
        raise ValueError(
            f"truncation degree must be in 1..{module.degree}, got {new_degree}"
        )
    basis = derivative_spaces(list(module.generators))[new_degree]
    forms = tuple(Form(module.nvars, new_degree, module.p, tuple(row)) for row in basis.tolist())
    return InverseModule(module.nvars, new_degree, module.p, forms, seed=module.seed)


# --------------------------------------------------------- generator files

_HEADER = re.compile(r"^ring\s+r=(\d+)\s+e=(\d+)\s*$")


def module_to_text(module: InverseModule) -> str:
    """Serialize to the generator file format; canonical and replayable."""
    lines = [f"ring r={module.nvars} e={module.degree}"]
    lines.extend(format_form(g) for g in module.generators)
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
    return InverseModule(header[0], header[1], p, tuple(forms))
