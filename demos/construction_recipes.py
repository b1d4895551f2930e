"""Seeded random constructions: sums of powers, partitions, compression,
augmentation and truncation.

Every builder takes an explicit rng, so a fixed seed reproduces the same
module and the same ranks; maximal_profile retries a few seeds and keeps
the largest h-vector, which is the generic one, returning the module,
its profile and the seed that replays it.

Run: python3 demos/construction_recipes.py
"""

from levellab import (
    DEFAULT_PRIME,
    InverseModule,
    augment_with_powers,
    compressed_generic_module,
    expected_h_sum_of_powers,
    h_vector,
    maximal_profile,
    powers_partition_module,
    sum_of_powers,
    truncate_level,
)


def main() -> None:
    # One generator that is a sum of m general e-th powers.  The computed
    # h-vector matches the entrywise min formula exactly.
    for m in (2, 5, 9):
        builder = lambda rng: InverseModule(
            3, 4, DEFAULT_PRIME, [sum_of_powers(3, 4, m, rng, DEFAULT_PRIME)])
        _, profile, _ = maximal_profile(builder, m)
        print(f"sum of {m} fourth powers in 3 variables: h = ({profile.h}), "
              f"formula ({expected_h_sum_of_powers(3, 4, m)})")

    # Several such generators at once, one per part of a partition.
    print()
    module, profile, seed = maximal_profile(
        lambda rng: powers_partition_module(3, 4, (3, 3, 3), rng, DEFAULT_PRIME), 0)
    print(f"partition (3,3,3) in degree 4: h = ({profile.h}), winning seed {seed}")

    # Adjoining one more general fourth power bumps the top two entries.
    _, grown, _ = maximal_profile(lambda rng: augment_with_powers(module, 1, rng), 1)
    print(f"after adjoining one general power: h = ({grown.h})")

    # Compressed modules max out every entry below the socle.
    _, top, _ = maximal_profile(
        lambda rng: compressed_generic_module(3, 4, 2, rng, DEFAULT_PRIME), 2)
    print(f"two generic quartics (compressed): h = ({top.h})")

    # Truncation keeps a prefix of the h-vector; the cut degree becomes the
    # new socle degree and the new type.
    cut = truncate_level(module, 2)
    print(f"partition module truncated to degree 2: h = ({h_vector(cut).h})")


if __name__ == "__main__":
    main()
