#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name with its unit.

One workload, the form BENCHMARK.json records and its driver calls::

    python3 bench/run.py --workload flat_wide --seed 0 --seconds 15 --trace 0

prints a table and, as the last line of stdout, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). The
detail of the run goes to ``bench/out/run_<workload>_s<seed>_t<trace>.json``
and, when traced, the spans to ``bench/out/trace_<workload>.json``.

Without ``--workload`` every workload runs in a fresh subprocess of the form
above, ``--repeat N`` times, and the results are gathered into
``bench/out/result_<seed>.json`` (and ``noise_<seed>.json`` when N > 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from measure import BENCH_DIR, OUT_DIR, ROOT, SAME_HISTORY_AS, run_workload


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload; the form the driver calls."""
    contract = load_contract()
    section = "per_layer" if args.trace else "end_to_end"
    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    measured = detail["metrics"]
    declared = {entry["name"]: entry["unit"] for entry in contract[section]}
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
    # A layer the workload does not reach (no scheduler on the hierarchical
    # trainer, no codec on flat_wide ...) is listed as absent in the detail
    # file; the driver's line must still carry every declared name.
    detail["absent"] = sorted(set(declared) - set(measured))
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    detail["metrics"] = metrics
    stem = f"{args.workload}_s{args.seed}_t{args.trace}"
    with open(OUT_DIR / f"run_{stem}.json", "w") as handle:
        json.dump(detail, handle, indent=1)

    print(f"{args.workload} seed={args.seed} passes={detail['passes']} "
          f"x {detail['rounds_per_pass']} rounds, {detail['wall_s']:.1f} s")
    for name, entry in metrics.items():
        note = "  (absent)" if name in detail["absent"] else ""
        print(f"  {name:<44}{entry['value']:>16.6g} {entry['unit']}{note}")
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": detail["correct"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


def _spawn(workload: str, args: argparse.Namespace, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=True)
    sys.stdout.write(completed.stdout)
    with open(OUT_DIR / f"run_{workload}_s{args.seed}_t{trace}.json") as f:
        return json.load(f)


def _summary(values: list) -> dict:
    """Median, quartiles and relative spread of one metric's repeats."""
    median = statistics.median(values)
    low, high = ((min(values), max(values)) if len(values) < 2 else
                 statistics.quantiles(values, n=4)[::2])
    return {"median": median, "q1": low, "q3": high, "runs": values,
            "rel_spread": (high - low) / abs(median) if median else 0.0}


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, ``--repeat`` times, each in a fresh subprocess."""
    contract = load_contract()
    workloads = [entry["name"] for entry in contract["workloads"]]
    traces = (0, 1) if args.trace else (0,)
    runs = {name: {trace: [] for trace in traces} for name in workloads}
    for _ in range(args.repeat):
        for name in workloads:
            for trace in traces:
                runs[name][trace].append(_spawn(name, args, trace))

    problems = []
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    result = {"environment": dict(runs[workloads[0]][0][0]["environment"],
                                  git_commit=commit),
              "repeat": args.repeat, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    for name in workloads:
        details = [d for trace in traces for d in runs[name][trace]]
        digests = {d["history_digest"] for d in details}
        if len(digests) > 1:
            problems.append(f"{name}: history_digest differs between runs "
                            "of one seed")
        problems += [f"{name}: {p}" for d in details for p in d["problems"]]
        row = {"history_digest": details[0]["history_digest"],
               "mean_train_loss": details[0]["mean_train_loss"],
               "correct": all(d["correct"] for d in details),
               "attempted": sum(d["attempted"] for d in details),
               "failed": sum(d["failed"] for d in details)}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace not in traces:
                continue
            repeats = runs[name][trace]
            row[section] = {
                metric: dict(
                    _summary([d["metrics"][metric]["value"]
                              for d in repeats]),
                    unit=repeats[0]["metrics"][metric]["unit"])
                for metric in repeats[0]["metrics"]
                if metric not in repeats[0]["absent"]
            }
        result["workloads"][name] = row
    # Same arithmetic on another backend must give the same history.
    from_digest = {name: row["history_digest"]
                   for name, row in result["workloads"].items()}
    for name, twin in SAME_HISTORY_AS.items():
        if from_digest[name] != from_digest[twin]:
            problems.append(f"{name}: history_digest differs from {twin}'s")
    result["problems"] = problems

    with open(OUT_DIR / f"result_{args.seed}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    if args.repeat > 1:
        noise = {
            name: {metric: {key: stats[key] for key in
                            ("median", "q1", "q3", "rel_spread")}
                   for metric, stats in row["end_to_end"].items()}
            for name, row in result["workloads"].items()
        }
        noise["max_rel_spread"] = {
            metric: max(row[metric]["rel_spread"]
                        for name, row in noise.items())
            for metric in next(iter(noise.values()))
        }
        with open(OUT_DIR / f"noise_{args.seed}.json", "w") as handle:
            json.dump(noise, handle, indent=1)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"wrote {OUT_DIR / f'result_{args.seed}.json'}")
    return 1 if problems else 0


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
