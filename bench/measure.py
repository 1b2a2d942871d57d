"""One benchmark run: passes of one workload until ``--seconds`` is used up.

The parent side. It starts one child (``passes.py``) per pass with BLAS
pinned to one thread, keeps going while another pass still fits into
``seconds``, and folds the passes into the metrics: set-up is measured at
least three times, timings pool over every pass, and the outputs a seed
determines (wire bytes, accuracy, loss series) must repeat exactly from
child to child. With ``trace`` every second pass carries the tracer, a last
child runs the per-layer replays, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Workloads that repeat another's arithmetic on a different backend; their
#: loss series must be bit-identical to the twin's on the same seed.
SAME_HISTORY_AS = {"flat_conv_process": "flat_conv"}
#: Timed rounds of the twin that every run replays to check that.
REFERENCE_ROUNDS = 10
MIN_SETUPS = 3


def _child(spec: dict) -> dict:
    """Run ``passes.py`` on ``spec`` and return the object it prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{name: "1" for name in THREAD_PINS})
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "passes.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    """Measure ``workload``; returns ``correct``, ``attempted``, ``failed``,
    the measured ``metrics`` by name, and the detail kept beside them."""
    started = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    spec = {"kind": "pass", "workload": workload, "seed": seed,
            "scale": scale,
            "trace_path": str(OUT_DIR / f"trace_{workload}.json")}
    problems: List[str] = []

    # A short replay first: its loss series must be the prefix of every full
    # pass's. For a process workload the replay runs the serial twin, which
    # is the bit-identity check between backends; for the others it is the
    # same-seed-twice check, and one more sample of set-up time.
    twin = SAME_HISTORY_AS.get(workload)
    setups: List[float] = []
    reference = None
    if not trace:
        reference = _child(dict(spec, builder=twin, rounds=REFERENCE_ROUNDS))
        if not twin:
            setups.append(reference["setup_s"])

    # Full passes while another still fits; traced runs go in pairs, one
    # pass without the tracer and one with it.
    passes: List[dict] = []
    slowest = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            pass_started = time.perf_counter()
            passes.append(_child(dict(spec, traced=traced)))
            slowest = max(slowest, time.perf_counter() - pass_started)
        step = slowest * (2 if trace else 1)
        if time.perf_counter() - started + step > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(_child(dict(spec, rounds=0))["setup_s"])

    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems += sorted({problem for p in passes for problem in p["problems"]})
    if any((p["digest"], p["wire_bytes"])
           != (first["digest"], first["wire_bytes"]) for p in passes):
        problems.append("passes of one seed disagree on the loss series or "
                        "the wire bytes")
    if reference and reference["losses"] != \
            first["losses"][:len(reference["losses"])]:
        problems.append("loss series differs from that of "
                        f"{twin or 'a second run of the seed'}")
    if failed:
        problems.append(f"{failed} of {attempted} rounds failed")

    timed = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    rounds_per_s = statistics.median(
        len(p["round_s"]) / p["loop_s"] for p in timed)
    detail = {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "passes": len(passes), "rounds_per_pass": first["attempted"],
        "history_digest": first["digest"],
        "mean_train_loss": first["mean_train_loss"],
        "environment": dict(first["environment"], seed=seed),
    }
    if not trace:
        # ru_maxrss of waited-for children is the largest of them: the peak
        # of one pass, pool workers of the process backend included.
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        detail["metrics"] = {
            "setup_s": statistics.median(setups),
            "rounds_per_s": rounds_per_s,
            "round_s_p50": statistics.median(
                statistics.median(p["round_s"]) for p in timed),
            "round_s_p80": statistics.median(
                _percentile(p["round_s"], 0.8) for p in timed),
            "client_steps_per_s": statistics.median(
                p["client_steps"] / p["loop_s"] for p in timed),
            "wire_bytes_per_round": first["wire_bytes"] / first["attempted"],
            "final_test_accuracy": first["accuracy"],
            "peak_rss_mb": children.ru_maxrss / 1024.0,
            "ok_round_share": 1.0 - failed / attempted,
        }
    else:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced
                                    if name in p["layers"])
            for name in sorted({name for p in traced for name in p["layers"]})
        }
        traced_rounds_per_s = statistics.median(
            len(p["round_s"]) / p["loop_s"] for p in traced)
        layers["trace.overhead_share"] = \
            1.0 - traced_rounds_per_s / rounds_per_s
        replays = _child(dict(spec, kind="replays"))["replays"]
        layers.update({name: pair[0] for name, pair in replays.items()})
        detail["metrics"] = layers
        detail["replay_min"] = {name: pair[1]
                                for name, pair in replays.items()}
    detail["wall_s"] = time.perf_counter() - started
    return detail
