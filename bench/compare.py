#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``, metric by workload.

    python3 bench/compare.py bench/out/result_0.json other/result_0.json

Each row gives the base median, the new median, their ratio (new / base) and
a verdict against the bound BENCHMARK.json fixes for the metric:

* ``improved``      every new run better than every base run (needs
                    ``--repeat`` > 1 on both sides; a claim still needs the
                    paired runs of the choosing-metrics guide);
* ``within bound``  no worse than the bound allows;
* ``regressed``     worse than the bound allows;
* ``unresolved``    the spread between repeats is wider than the bound, so
                    the runs cannot tell (rerun with a larger ``--repeat``).

``=`` marks values that are bit-equal, which is what two runs of one seed
must show for wire bytes, accuracy, the mean train loss and the history
digest while the arithmetic is untouched. Exits 1 on any regression, on more failed rounds,
or on a failed check inside either file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Classify ``new`` against ``base`` (two ``_summary`` dicts)."""
    sign = 1.0 if better == "lower" else -1.0
    if not base["median"]:
        return "within bound" if not new["median"] else "unresolved"
    worse_by = sign * (new["median"] - base["median"]) / abs(base["median"])
    # Single runs carry no spread, so they can regress but never "improve".
    repeated = len(base["runs"]) > 1 and len(new["runs"]) > 1
    if repeated and (max(sign * v for v in new["runs"])
                     < min(sign * v for v in base["runs"])):
        return "improved"
    if max(base["rel_spread"], new["rel_spread"]) > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "within bound"


def compare(base: dict, new: dict, contract: dict) -> int:
    failures = 0
    for label, result in (("base", base), ("new", new)):
        for problem in result["problems"]:
            print(f"CHECK FAILED in {label}: {problem}")
            failures += 1
    print(f"{'workload':<24}{'metric':<24}{'base':>14}{'new':>14}"
          f"{'new/base':>10}  verdict")
    for entry in contract["workloads"]:
        name = entry["name"]
        base_row, new_row = base["workloads"][name], new["workloads"][name]
        # Recorded, not gated: exact per seed, too seed-dependent to bound.
        for key in ("history_digest", "mean_train_loss"):
            old, cur = str(base_row[key])[:12], str(new_row[key])[:12]
            print(f"{name:<24}{key:<24}{old:>14}{cur:>14}{'':>10}  "
                  f"{'=' if base_row[key] == new_row[key] else 'differs'}")
        if new_row["failed"] * base_row["attempted"] > \
                base_row["failed"] * new_row["attempted"]:
            print(f"{name:<24}more failed rounds: {new_row['failed']}/"
                  f"{new_row['attempted']} vs {base_row['failed']}/"
                  f"{base_row['attempted']}")
            failures += 1
        for metric in contract["end_to_end"]:
            old = base_row["end_to_end"][metric["name"]]
            cur = new_row["end_to_end"][metric["name"]]
            outcome = verdict(old, cur, metric["better"], metric["bound"])
            failures += outcome == "regressed"
            ratio = (cur["median"] / old["median"] if old["median"]
                     else float("nan"))
            exact = " =" if len(set(old["runs"] + cur["runs"])) == 1 else ""
            print(f"{name:<24}{metric['name']:<24}{old['median']:>14.6g}"
                  f"{cur['median']:>14.6g}{ratio:>10.4f}  {outcome}{exact}")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    with open(sys.argv[1]) as handle:
        base = json.load(handle)
    with open(sys.argv[2]) as handle:
        new = json.load(handle)
    return compare(base, new, contract)


if __name__ == "__main__":
    sys.exit(main())
