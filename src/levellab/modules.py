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
from dataclasses import dataclass, replace
from random import Random

import numpy as np

from levellab.errors import DependentGeneratorsError, ParseError, SoundnessError
from levellab.forms import DEFAULT_PRIME, Form, check_prime, format_form, parse_form
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
    dims: tuple[int, ...]
    prime: int
    seed: int | None = None

    def __post_init__(self):
        if tuple(self.h) != self.dims:
            raise SoundnessError("profile entries disagree with recorded dimensions")


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
    spans = derivative_spaces(list(module.generators))
    dims = tuple(s.dim for s in spans)
    presented = len(module.generators)
    if dims[-1] != presented:
        raise DependentGeneratorsError(
            f"presented {presented} generators but only {dims[-1]} are independent",
            presented=presented,
            rank=dims[-1],
        )
    return HProfile(HVector(dims), dims, module.p, module.seed)


def is_gorenstein(module: InverseModule) -> bool:
    """True when the module is principal (type 1).  For a principal module
    the computed h-vector must be symmetric; an asymmetric answer would be
    an arithmetic bug, so it raises instead of returning."""
    if type_of(module) != 1:
        return False
    profile = h_vector(module) if len(module.generators) == 1 else None
    if profile is None:
        # dependent presentation of a principal span: reduce to one generator
        reduced = derivative_spaces(list(module.generators))[-1].forms()
        profile = h_vector(InverseModule(module.nvars, module.degree, module.p, tuple(reduced)))
    if not profile.h.is_symmetric():
        raise SoundnessError(
            f"principal module computed an asymmetric h-vector {profile.h}"
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
    dims_f = [s.dim for s in derivative_spaces([f])]
    dims_g = [s.dim for s in derivative_spaces([g])]
    dims_fg = [s.dim for s in derivative_spaces([f, g])]
    return tuple(a + b - c for a, b, c in zip(dims_f, dims_g, dims_fg))


def generic_subquotient(module: InverseModule, c: int, rng: Random) -> InverseModule:
    """Module generated by c random independent combinations of the
    generators.  The combination matrix is resampled until it has rank c,
    so the result presents a type-c level quotient."""
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
        rows = [[rng.randrange(p) for _ in range(t)] for _ in range(c)]
        if rank_mod_p(np.array(rows, dtype=np.int64), p) == c:
            break
    combos = []
    for row in rows:
        acc = Form.zero(module.nvars, module.degree, p)
        for coeff, gen in zip(row, module.generators):
            if coeff:
                acc = acc + gen.scaled(coeff)
        combos.append(acc)
    return InverseModule(module.nvars, module.degree, p, tuple(combos), seed=module.seed)


def truncate_level(module: InverseModule, new_degree: int) -> InverseModule:
    """Module generated by a basis of the degree ``new_degree`` component.
    Its h-vector is the prefix of the original through that degree."""
    if not 0 < new_degree <= module.degree:
        raise ValueError(
            f"truncation degree must be in 1..{module.degree}, got {new_degree}"
        )
    spans = derivative_spaces(list(module.generators))
    basis = spans[new_degree].forms()
    return InverseModule(module.nvars, new_degree, module.p, tuple(basis), seed=module.seed)


# --------------------------------------------------------- generator files

_HEADER = re.compile(r"^ring\s+r=(\d+)\s+e=(\d+)\s*$")


def module_to_text(module: InverseModule) -> str:
    """Serialize to the generator file format; canonical and replayable."""
    lines = [f"ring r={module.nvars} e={module.degree}"]
    lines.extend(format_form(g) for g in module.generators)
    return "\n".join(lines) + "\n"


def module_from_text(text: str, p: int = DEFAULT_PRIME) -> InverseModule:
    """Parse a generator file: comments, one header, one form per line."""
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
            if header[0] < 1:
                raise ParseError("header needs r >= 1", line=lineno)
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
