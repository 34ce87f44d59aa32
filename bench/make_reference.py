"""Regenerate oracle_reference.json: the mixed n = 3 SI error at a larger cutoff.

The mixed-state n >= 3 invariant test has no route apart from the dense Fock
oracle, so the benchmark compares its cutoff-9 value with this cutoff-13
value (13^3 = 2197 is the largest cube within the default dense limit).
The gap between cutoffs 12 and 13 is stored as a measure of the remaining
truncation error.

    python3 bench/make_reference.py        # about a minute on 2 CPUs
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sqitest import fock  # noqa: E402

THETA, MIXTURE, ALPHA = 0.3, 0.1, 0.05
BENCH_CUTOFF, REFERENCE_CUTOFF = 9, 13


def main():
    values = {d: fock.si_type2_fock(THETA, MIXTURE, ALPHA, fock.FockConfig(1, 3, d))
              for d in (REFERENCE_CUTOFF - 1, REFERENCE_CUTOFF)}
    entry = {
        "theta": THETA, "mixture": MIXTURE, "alpha": ALPHA,
        "bench_cutoff": BENCH_CUTOFF, "reference_cutoff": REFERENCE_CUTOFF,
        "beta": values[REFERENCE_CUTOFF],
        "cutoff_gap": abs(values[REFERENCE_CUTOFF] - values[REFERENCE_CUTOFF - 1]),
    }
    path = HERE / "oracle_reference.json"
    path.write_text(json.dumps({"mixed-n3": entry}, indent=2) + "\n")
    print(f"wrote {path}: {entry}")


if __name__ == "__main__":
    main()
