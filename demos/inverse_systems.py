"""Inverse systems by hand: forms, derivative spans, h-vectors, file format.

A module generated by forms of one degree models a level algebra: the
h-vector entry in degree j is the dimension of the span of all order
(e - j) derivatives of the generators.

Run: python3 demos/inverse_systems.py
"""

from random import Random

from levellab import (
    DEFAULT_PRIME,
    InverseModule,
    common_derivative_dims,
    generic_subquotient,
    h_vector,
    is_gorenstein,
    module_from_text,
    module_to_text,
    parse_form,
    type2_quotient_floor,
)


def main() -> None:
    # A monomial with all three variables: the complete intersection shape.
    # A form parses to its coefficient row over the cubic monomials.
    f = parse_form("y1*y2*y3", nvars=3, degree=3)
    module = InverseModule(3, 3, DEFAULT_PRIME, [f])
    profile = h_vector(module)
    print(f"y1*y2*y3 generates h = ({profile.h}), "
          f"Gorenstein: {is_gorenstein(module)}")

    # Three pure powers: the derivative spans stay 3-dimensional all the
    # way down, so the h-vector is flat.
    g = parse_form("y1^4 + y2^4 + y3^4", nvars=3, degree=4)
    module = InverseModule(3, 4, DEFAULT_PRIME, [g])
    print(f"y1^4+y2^4+y3^4 generates h = ({h_vector(module).h})")

    # Two generators of the same degree make a type 2 module.
    pair = module_from_text("ring r=3 e=3\ny1^3 + y2^3\ny2*y3^2\n")
    profile = h_vector(pair)
    print(f"two cubics generate h = ({profile.h}), type {profile.h.type}")

    # A generic combination of the two generators presents a type 1
    # quotient; its h-vector sits above the pair floor computed from the
    # common derivative dimensions of the generators.
    dims = common_derivative_dims(pair)
    quotient = generic_subquotient(pair, 1, Random(0))
    print(f"common derivative dimensions: {dims}")
    print(f"generic type 1 quotient: h = ({h_vector(quotient).h}), "
          f"floor {type2_quotient_floor(profile.h, dims)}")

    # Modules serialize to a plain text format and round-trip exactly.
    text = module_to_text(pair)
    print("\nserialized:")
    print(text, end="")
    again = module_from_text(text)
    assert h_vector(again).h == profile.h
    print("round trip reproduces the h-vector")


if __name__ == "__main__":
    main()
