"""Interval scans with a verifiable certificate store.

A scan sweeps one entry (or a symmetric pair) of a base h-vector across a
value range, classifies every candidate in turn, and reports gaps:
maximal non-level runs bracketed by certified level values.  Certificates
go into an append-only JSONL store whose verifier replays every
construction from its seed and demands byte-identical generators.

Run: python3 demos/scans_and_store.py
"""

import os
import tempfile

from levellab import (
    HVector,
    record_from_classification,
    scan_gic,
    scan_ic,
    store_append,
    store_load,
    verify_store_file,
)


def describe(report) -> None:
    degrees = ",".join(map(str, report.degrees))
    print(f"base ({report.base}), scanning degree(s) {degrees}")
    for value, result in zip(report.values, report.classifications):
        print(f"  value {value}: {result.status.value}")
    if report.gaps:
        for gap in report.gaps:
            print(f"  gap {gap.values[0]}..{gap.values[-1]} kind={gap.kind}")
    else:
        print("  no gaps")


def main() -> None:
    # Sweep the middle entry of a socle degree 3 family.
    single = scan_ic(HVector.parse("1,3,6,3"), 2, range(3, 7))
    describe(single)

    # Symmetric pair sweep on a type 1 vector with odd socle degree: the
    # two middle entries move together.
    print()
    pair = scan_gic(HVector.parse("1,3,6,7,7,6,3,1"), 3, range(7, 11))
    describe(pair)

    # Persist the certificates and verify the whole store by replay.
    print()
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        for result in single.classifications + pair.classifications:
            store_append(record_from_classification(result), path)
        count = verify_store_file(path)
        print(f"store verified: {count} records replayed")
        constructions = [r for r in store_load(path) if "recipe" in r]
        if constructions:
            sample = constructions[0]
            print(f"sample record: h={sample['h']} recipe={sample['recipe']} "
                  f"seed={sample['seed']}")
    finally:
        os.unlink(path)


if __name__ == "__main__":
    main()
