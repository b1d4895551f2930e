"""Level / non-level classification with replayable certificates.

The pipeline is deliberately one-sided: non-level verdicts come only from
necessary conditions that can be re-evaluated from scratch, and level
verdicts come only from an exact criterion or a reproducible construction
whose computed Hilbert function matches the candidate on the nose.  A
failed construction search never claims non-leveledness; it returns
Unknown with diagnostics.
"""

import json
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from random import Random

from levellab.constructions import (
    DEFAULT_TRIALS,
    expected_h_augment,
    expected_h_compressed,
    expected_h_powers_partition,
    add_new_variable_power,
    augment_with_powers,
    compressed_generic_module,
    greedy_partition,
    maximal_profile,
    powers_partition_module,
)
from levellab.errors import DependentGeneratorsError, HypothesisError, SoundnessError
from levellab.forms import DEFAULT_PRIME, check_integer, check_prime, check_ring
from levellab.macaulay import HVector, is_si_sequence, o_sequence_violation
from levellab.modules import (
    HProfile,
    InverseModule,
    module_to_text,
    truncate_level,
)
from levellab.seeds import derive_seed


class Status(Enum):
    LEVEL = "level"
    NONLEVEL = "nonlevel"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class Certificate:
    """Replayable witness for a verdict.

    Construction certificates keep only their replay key: the recipe, the
    winning seed, the prime and the computed per-degree ranks.  ``module``
    rebuilds the witness from it byte for byte on each read, as
    ``store_verify`` does, and ``generators`` prints that module.
    Rule certificates name instead the ``rule`` of their kind in ``RULES``
    that fired and the ``detail`` it gave: a ``"criterion"`` proves the
    vector level, a ``"condition"`` proves it non-level.
    """

    kind: str  # "construction" | "criterion" | "condition"
    recipe: dict | None = None
    seed: int | None = None
    prime: int | None = None
    ranks: tuple[int, ...] | None = None
    characteristic: str | None = None  # "char-p" | "char-0-verified"
    rule: str | None = None
    detail: str | None = None

    def __hash__(self) -> int:
        # the recipe dict hashes as its tag, which equal recipes share
        tag = None if self.recipe is None else recipe_tag(self.recipe)
        return hash((self.kind, tag, self.seed, self.prime, self.ranks,
                     self.characteristic, self.rule, self.detail))

    @property
    def module(self) -> InverseModule | None:
        if self.recipe is None:
            return None
        return build_recipe(self.recipe, Random(self.seed), self.prime)

    @property
    def generators(self) -> str | None:
        module = self.module
        return None if module is None else module_to_text(module)


@dataclass(frozen=True, slots=True)
class Classification:
    """A verdict on h: its certificate, the construction trials spent and
    why a search found nothing.  The status is read off the certificate,
    so it cannot disagree with it: none is Unknown, a condition is
    non-level, a criterion or a construction is level."""

    h: HVector
    certificate: Certificate | None = None
    trials_used: int = 0
    diagnostics: tuple[str, ...] = ()

    @property
    def status(self) -> Status:
        if self.certificate is None:
            return Status.UNKNOWN
        return Status.NONLEVEL if self.certificate.kind == "condition" else Status.LEVEL


# ------------------------------------------------------ necessary conditions


def _o_sequence_detail(h: HVector) -> str | None:
    violation = o_sequence_violation(h)
    return None if violation is None else str(violation)


def _ci_range_detail(h: HVector) -> str | None:
    # a module generated in top degree has every component spanned by the
    # first derivatives of the next one, so h_{d-1} <= r * h_d throughout
    r = h.codimension
    for d in range(1, h.socle_degree + 1):
        if h[d - 1] > r * h[d]:
            return (
                f"degree {d - 1} entry {h[d - 1]} exceeds the derivative cap "
                f"{r}*{h[d]} = {r * h[d]}"
            )
    return None


def _gorenstein_symmetry_detail(h: HVector) -> str | None:
    if h.type == 1 and not h.is_symmetric():
        return "type 1 forces a symmetric h-vector"
    return None


def _si_classification_detail(h: HVector) -> str | None:
    if h.type == 1 and 1 <= h.codimension <= 3 and not is_si_sequence(h):
        return (
            "type 1 h-vectors in at most 3 variables are exactly the "
            "SI-sequences, and this one is not SI"
        )
    return None


NECESSARY_CONDITIONS: tuple[tuple[str, object], ...] = (
    ("o-sequence", _o_sequence_detail),
    ("ci-range", _ci_range_detail),
    ("gorenstein-symmetry", _gorenstein_symmetry_detail),
    ("si-classification", _si_classification_detail),
)


# ------------------------------------------------------------ exact criteria


def _field_criterion(h: HVector) -> str | None:
    if h.socle_degree == 0:
        return "socle degree 0 is the base field"
    return None


def _si_criterion(h: HVector) -> str | None:
    if h.type == 1 and 1 <= h.codimension <= 3 and is_si_sequence(h):
        return (
            "type 1 h-vectors in at most 3 variables are exactly the "
            "SI-sequences, and this one is SI"
        )
    return None


LEVEL_CRITERIA: tuple[tuple[str, object], ...] = (
    ("field", _field_criterion),
    ("si-classification", _si_criterion),
)

# A rule fires when its check returns a detail: a condition when violated,
# a criterion when it holds.
RULES = {"condition": NECESSARY_CONDITIONS, "criterion": LEVEL_CRITERIA}


def first_rule_firing(kind: str, h: HVector) -> tuple[str, str] | None:
    """The first rule of a kind in ``RULES`` that fires on h, as
    (name, detail), or None."""
    for name, check in RULES[kind]:
        detail = check(h)
        if detail is not None:
            return name, detail
    return None


def rule_still_fires(kind: str, name: str, h: HVector) -> str | None:
    """Re-evaluate a named rule of a kind in ``RULES`` from scratch: the
    detail it gives now if it fires, else None."""
    for known, check in RULES[kind]:
        if known == name:
            return check(h)
    raise ValueError(f"unknown {kind} {name!r}")


# ------------------------------------------------------------------- recipes


def recipe_tag(recipe: dict) -> str:
    """Canonical one-line form of a recipe, stable across runs."""
    return json.dumps(recipe, sort_keys=True, separators=(",", ":"))


def expected_h_for_recipe(recipe: dict) -> HVector:
    """Generic h-vector a recipe aims for, by pure arithmetic.

    It is also an entrywise upper bound on the h-vector of the recipe's
    module over any field; see :func:`char0_certified`."""
    kind = recipe["kind"]
    if kind in ("sum_of_powers", "powers_partition"):  # a sum of m powers is the partition (m)
        parts = recipe["parts"] if kind == "powers_partition" else [recipe["count"]]
        return expected_h_powers_partition(recipe["nvars"], recipe["degree"], tuple(parts))
    if kind == "compressed":
        return expected_h_compressed(recipe["nvars"], recipe["degree"], recipe["count"])
    if kind == "truncate":
        source = expected_h_for_recipe(recipe["source"])
        return HVector(source.entries[: recipe["to"] + 1])
    if kind == "add_variable":
        base = expected_h_for_recipe(recipe["base"])
        return HVector((1,) + tuple(x + 1 for x in base.entries[1:]))
    if kind == "augment":
        base = expected_h_for_recipe(recipe["base"])
        return expected_h_augment(base, recipe["nvars"], recipe["count"])
    raise ValueError(f"unknown recipe kind {kind!r}")


def char0_certified(recipe: dict, ranks) -> bool:
    """Whether ranks realized over F_p by ``build_recipe(recipe, ...)``
    certify the same level h-vector in characteristic 0: exactly when they
    meet the recipe's bound ``expected_h_for_recipe(recipe)``.

    Lower bound.  Lift the recipe's own draws to Z: the linear forms and
    dense coefficients are drawn in [0, p), the pure power of a new
    variable has coefficient 1, and ``truncate`` is generated by the
    integer derivatives of its lifted source.  Every order-k derivative of
    the lifted generators reduces mod p to the same derivative of the F_p
    generators, and those span the F_p tower in each degree, so every
    tower matrix of the lift has rank over Q at least the rank over F_p.

    Upper bound.  The recipe's bound holds over Q for each kind:

    - powers: every derivative of L^e is a multiple of a power of L, so a
      sum of m powers spans at most m forms in each degree, and order-k
      derivatives span at most dim R_k (Iarrobino-Kanev, Power Sums,
      Gorenstein Algebras, and Determinantal Loci, LNM 1721);
    - partition and augment: the span of a union is at most the sum of the
      spans, and never more than the ring;
    - compressed: the ring, and t generators times the dim R_{e-j}
      operators of order e - j, bound every degree trivially;
    - add_variable: the base tower plus the powers of the new variable, a
      direct sum that adds one in each positive degree;
    - truncate: the tower of the degree-``to`` piece is a prefix of its
      source's tower.

    Conclusion.  When the F_p ranks meet the bound, the ranks over Q are
    squeezed to the same values.  The lifted module is generated in one
    degree, so it presents a level algebra over Q with that h-vector.
    """
    return tuple(ranks) == expected_h_for_recipe(recipe).entries


def build_recipe(recipe: dict, rng: Random, p: int = DEFAULT_PRIME) -> InverseModule:
    """Materialize a recipe; the rng is consumed in a fixed order, so a
    seeded Random reproduces the module exactly."""
    kind = recipe["kind"]
    if kind in ("sum_of_powers", "powers_partition"):  # a sum of m powers is the partition (m)
        parts = recipe["parts"] if kind == "powers_partition" else [recipe["count"]]
        return powers_partition_module(recipe["nvars"], recipe["degree"], tuple(parts), rng, p)
    if kind == "compressed":
        return compressed_generic_module(
            recipe["nvars"], recipe["degree"], recipe["count"], rng, p
        )
    if kind == "truncate":
        return truncate_level(build_recipe(recipe["source"], rng, p), recipe["to"])
    if kind == "add_variable":
        return add_new_variable_power(build_recipe(recipe["base"], rng, p))
    if kind == "augment":
        return augment_with_powers(build_recipe(recipe["base"], rng, p), recipe["count"], rng)
    raise ValueError(f"unknown recipe kind {kind!r}")


def candidate_recipes(h: HVector) -> Iterator[dict]:
    """Recipes whose expected h-vector equals h exactly, cheapest first.

    Everything here is arithmetic; no matrix ranks are computed until a
    candidate is realized.  Each recipe is worked out only when it is
    asked for, so a caller that stops early skips the rest.
    """
    yield from _direct_recipes(h)
    e = h.socle_degree
    if h.codimension >= 2 and e >= 1 and all(h[j] >= 2 for j in range(1, e + 1)):
        # a new variable's power adds one in every positive degree
        smaller = HVector((1,) + tuple(h[j] - 1 for j in range(1, e + 1)))
        for base in _direct_recipes(smaller):
            yield {"kind": "add_variable", "base": base}


def _direct_recipes(h: HVector) -> Iterator[dict]:
    r, e = h.codimension, h.socle_degree
    if e < 1 or r < 1:
        return
    seen: set[str] = set()
    for recipe in _direct_shapes(h):
        if expected_h_for_recipe(recipe) != h:
            continue
        parts = recipe.get("parts", ())  # the partition (m) builds a sum of m powers
        tag = recipe_tag(recipe if len(parts) != 1 else {
            "kind": "sum_of_powers", "nvars": r, "degree": e, "count": parts[0]})
        if tag not in seen:
            seen.add(tag)
            yield recipe


def _direct_shapes(h: HVector) -> Iterator[dict]:
    """The direct recipes to test against h, in the order they are tried."""
    r, e, t = h.codimension, h.socle_degree, h.type
    if t == 1:
        yield {"kind": "sum_of_powers", "nvars": r, "degree": e, "count": max(h.entries)}
    yield {"kind": "powers_partition", "nvars": r, "degree": e, "parts": [r] * t}
    if e >= 2:
        try:
            parts = greedy_partition(h[e - 1], t, r)
        except ValueError:
            parts = None
        if parts is not None:
            yield {"kind": "powers_partition", "nvars": r, "degree": e, "parts": list(parts)}
    yield {"kind": "compressed", "nvars": r, "degree": e, "count": t}
    for degree_src in range(e + 1, 2 * e + 3):
        yield {"kind": "truncate", "to": e,
               "source": {"kind": "sum_of_powers", "nvars": r,
                          "degree": degree_src, "count": max(h.entries)}}


# add_variable of a truncate of a power sum: the deepest recipe that
# candidate_recipes emits
MAX_RECIPE_DEPTH = 3


def recipe_size(recipe: dict, r: int, e: int, p: int, *, depth: int = 1) -> tuple[int, int]:
    """The (nvars, degree) of a recipe's module, by the one walk that admits
    a recipe for ``classify``, ``store_verify`` and ``levellab construct``.
    Before anything is built it refuses a recipe of more than
    ``MAX_RECIPE_DEPTH`` nested nodes (``depth`` counts this node's), an
    augment that names other variables than its base, and a node in more
    than r variables, of degree above 2e + 2 (the largest truncate source
    ``candidate_recipes`` emits), in a ring ``check_ring`` refuses, with a
    count or part above dim R_degree, or of degree not below p."""
    if depth > MAX_RECIPE_DEPTH:
        raise ValueError(f"recipe nests more than {MAX_RECIPE_DEPTH} nodes")
    kind = recipe["kind"]
    if kind == "truncate":
        return recipe_size(recipe["source"], r, e, p, depth=depth + 1)[0], recipe["to"]
    if kind in ("add_variable", "augment"):
        nvars, degree = recipe_size(recipe["base"], r, e, p, depth=depth + 1)
        if kind == "augment" and recipe["nvars"] != nvars:  # the bound counts recipe["nvars"]
            raise ValueError(f"augment names {recipe['nvars']} variables, not {nvars}")
        nvars += kind == "add_variable"
    else:
        nvars, degree = recipe["nvars"], recipe["degree"]
    parts = recipe.get("parts", [])
    if nvars > r:
        raise ValueError(f"{kind} names {nvars} variables, more than the ring's {r}")
    if degree > 2 * e + 2:
        raise ValueError(f"{kind} has degree {degree}, above 2e + 2 = {2 * e + 2}")
    cap = check_ring(nvars, degree)
    counts = chain(parts, (len(parts), recipe.get("count", 0)))
    over = next((count for count in counts if count > cap), None)
    if over is not None:  # name the first only: a partition may have many parts
        of_parts = f", of {len(parts)} parts" if parts else ""
        raise ValueError(f"{kind} counts exceed dim R_{degree} = {cap}: first {over}{of_parts}")
    check_prime(p, degree)
    return nvars, degree


def realize_recipe(recipe: dict, master_seed: int, trials: int,
                   p: int = DEFAULT_PRIME) -> tuple[InverseModule, HProfile, int]:
    """Run a recipe on seeds derived from the master seed and the recipe
    tag, keeping the trial with the largest profile: (module, profile,
    seed) as ``maximal_profile`` returns it."""
    tag = recipe_tag(recipe)
    return maximal_profile(
        lambda rng: build_recipe(recipe, rng, p),
        derive_seed(master_seed, "recipe", tag),
        trials,
    )


# -------------------------------------------------------------- the pipeline


def classify(h, trials: int = DEFAULT_TRIALS, *, master_seed: int = 0,
             prime: int = DEFAULT_PRIME) -> Classification:
    """Decide level / non-level / unknown for a candidate h-vector.

    A non-level verdict's certificate names a necessary condition that
    fails; a level verdict's names either an exact criterion or a
    construction whose replay reproduces the ranks.  ``trials`` random
    trials run per recipe; the candidate recipes are finitely many, so
    this bounds the work.  The verdict is monotone in the trials: a level
    verdict reached with fewer is never revoked with more, since more only
    adds trials.  Its certificate may change, because an earlier recipe
    can win with the added trials.  The result depends only on the input,
    the seed, the prime and the trial count, never on machine load.
    """
    trials = check_integer("trials", trials)
    master_seed = check_integer("master_seed", master_seed)
    if trials < 1:
        raise ValueError(f"classify needs at least one trial, got {trials}")
    hv = h if isinstance(h, HVector) else HVector(h)
    prime = check_prime(prime, hv.socle_degree)

    for kind in RULES:  # conditions before criteria
        fired = first_rule_firing(kind, hv)
        if fired is not None:
            name, detail = fired
            return Classification(hv, Certificate(kind, rule=name, detail=detail))

    # every candidate builds this ring or a larger one; its tag can be long
    try:
        check_ring(hv.codimension, hv.socle_degree)
    except ValueError as exc:
        raise HypothesisError(f"h = {hv} needs a ring too large to build: {exc}") from None
    diagnostics: list[str] = []
    trials_used = seen = 0
    refused = []
    # candidates are worked out one at a time, and none after the winner
    for seen, recipe in enumerate(candidate_recipes(hv), 1):
        # skip what the store would refuse to replay, or p cannot build
        try:
            recipe_size(recipe, hv.codimension, hv.socle_degree, prime)
        except (ValueError, HypothesisError) as exc:
            refused.append(f"{recipe_tag(recipe)}: {exc}")
            diagnostics.append(f"refused {refused[-1]}")
            continue
        trials_used += trials
        try:
            _, profile, seed = realize_recipe(recipe, master_seed, trials, prime)
        except DependentGeneratorsError:
            diagnostics.append(f"every trial of {recipe_tag(recipe)} degenerated")
            continue
        # every candidate's bound is hv
        if any(d > b for d, b in zip(profile.dims, hv)):
            raise SoundnessError(
                f"{recipe_tag(recipe)} realized {profile.h} above its bound {hv}"
            )
        if profile.h != hv:
            diagnostics.append(
                f"{recipe_tag(recipe)} realized {profile.h}, wanted {hv}"
            )
            continue
        # candidates expect exactly hv, so the profile meets the recipe bound
        # and char0_certified(recipe, profile.dims) holds; the ranks share
        # the verdict's tuple
        cert = Certificate(kind="construction", recipe=recipe, seed=seed,
                           prime=prime, ranks=hv.entries,
                           characteristic="char-0-verified")
        return Classification(hv, cert, trials_used, tuple(diagnostics))
    if not seen:
        diagnostics.append("no construction recipe matches this h-vector")
    elif len(refused) == seen:
        raise HypothesisError(refused[0])
    return Classification(hv, trials_used=trials_used, diagnostics=tuple(diagnostics))
