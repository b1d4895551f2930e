"""Generate the frozen replay corpus, once.

    python3 perfbench/make_corpus.py perfbench/corpus.jsonl

The corpus holds the 204 criterion-10 scan records, higher-socle
Gorenstein sums of powers, one construction record for every recipe kind
``build_recipe`` accepts, and criterion and non-level records.  It was
written by the library as it stood when the benchmark was defined, and is
never regenerated: a replay that no longer matches it byte for byte is a
failure the benchmark must report.  The script refuses to overwrite.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import levellab  # noqa: E402
from levellab.classify import (  # noqa: E402
    Certificate,
    Classification,
    expected_h_for_recipe,
    realize_recipe,
)
from levellab.store import record_from_classification  # noqa: E402

from workloads import criterion10_families  # noqa: E402

GORENSTEIN = ["1,5,10,10,5,1", "1,6,6,6,6,1", "1,4,10,10,4,1", "1,4,7,4,1"]
# build_recipe accepts these kinds; scans only ever reach some of them
RECIPES = [
    {"kind": "sum_of_powers", "nvars": 4, "degree": 4, "count": 9},
    {"kind": "powers_partition", "nvars": 4, "degree": 4, "parts": [4, 3]},
    {"kind": "compressed", "nvars": 3, "degree": 3, "count": 2},
    {"kind": "compressed", "nvars": 4, "degree": 3, "count": 3},
    {"kind": "truncate", "to": 2,
     "source": {"kind": "sum_of_powers", "nvars": 3, "degree": 4, "count": 5}},
    {"kind": "add_variable",
     "base": {"kind": "sum_of_powers", "nvars": 3, "degree": 4, "count": 5}},
    {"kind": "augment", "nvars": 3, "count": 1,
     "base": {"kind": "powers_partition", "nvars": 3, "degree": 4, "parts": [3, 3, 3]}},
]
CRITERION = ["1", "1,2,3,2,1", "1,3,5,3,1"]
NONLEVEL = ["1,3,6,10,3", "1,3,5,8,8,5,3,1", "1,2,2,1,1", "1,3,3,4,3,3,1"]


def records() -> list[dict]:
    out = []
    for base, values in criterion10_families():
        report = levellab.scan_ic(base, 2, values)
        assert all(c.status is levellab.Status.LEVEL for c in report.classifications)
        out.extend(record_from_classification(c) for c in report.classifications)
    assert len(out) == 204
    for text in GORENSTEIN:
        result = levellab.classify(levellab.HVector.parse(text))
        assert result.certificate.recipe["kind"] == "sum_of_powers", text
        out.append(record_from_classification(result))
    for k, recipe in enumerate(RECIPES):
        module, profile = realize_recipe(recipe, 7000 + k, 5)
        assert profile.h == expected_h_for_recipe(recipe), recipe
        cert = Certificate(kind="construction", recipe=recipe, seed=module.seed,
                           prime=module.p, ranks=profile.dims,
                           generators=levellab.module_to_text(module),
                           characteristic="char-p")
        out.append(record_from_classification(
            Classification(profile.h, levellab.Status.LEVEL, certificate=cert)))
    for text in CRITERION:
        result = levellab.classify(levellab.HVector.parse(text))
        assert result.certificate.kind == "criterion", text
        out.append(record_from_classification(result))
    for text in NONLEVEL:
        result = levellab.classify(levellab.HVector.parse(text))
        assert result.status is levellab.Status.NONLEVEL, text
        out.append(record_from_classification(result))
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    path = Path(sys.argv[1])
    if path.exists():
        print(f"{path} exists; the corpus is frozen and is not regenerated",
              file=sys.stderr)
        return 1
    rows = records()
    for record in rows:
        levellab.store_append(record, str(path))
    print(f"wrote {len(rows)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
