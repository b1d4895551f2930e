"""Classifying candidate h-vectors with replayable certificates.

Verdicts are one-sided by design: non-level comes only from a necessary
condition that can be re-run from scratch, level comes only from an exact
criterion or a construction whose ranks were actually computed, and
everything else stays Unknown.

Run: python3 demos/classification.py
"""

from levellab import HVector, classify


def show(text: str) -> None:
    # the certificate decides the status: none is unknown, a condition
    # non-level, a criterion or a construction level
    result = classify(HVector.parse(text))
    print(f"({result.h}): {result.status.value}")
    cert = result.certificate
    if cert is None:
        for note in result.diagnostics:
            print(f"  note: {note}")
    elif cert.kind == "construction":
        print(f"  recipe: {cert.recipe}")
        print(f"  seed {cert.seed}, ranks {cert.ranks}")
    else:
        print(f"  {cert.kind}: {cert.rule}")
        if cert.kind == "condition":
            print(f"  detail: {cert.detail}")


def main() -> None:
    # Three neighbors: the middle one fails the derivative cap 10 > 3*3.
    for text in ("1,3,6,10,4", "1,3,6,10,3", "1,3,6,9,3"):
        show(text)

    # Type 1 in up to three variables is decided exactly, no sampling.
    print()
    show("1,3,5,7,7,5,3,1")
    show("1,3,6,5,6,3,1")

    # Honest ignorance: nothing rejects this vector and no recipe builds it.
    print()
    show("1,5,4,5")


if __name__ == "__main__":
    main()
