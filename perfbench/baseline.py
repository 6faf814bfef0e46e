"""Measure the benchmark over several seeds and record the baseline.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--write]

Runs the benchmark command once per (seed, workload) for seeds 1-10 and every
workload in BENCHMARK.json, seeds outermost so that a slow spell of a shared
machine hits every workload alike, then one traced run per workload. For each
end-to-end metric it prints the median, the quartiles and their distance as
a share of the median (the spread), and flags a spread above a third of the
metric's bound. It also checks the per-layer split each workload was designed
for. `--write` stores everything, with the environment, in
perfbench/BASELINE.json.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180
SEEDS = list(range(1, 11))


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["inputs"] = json.loads(lines[-2].split(" ", 1)[1])
    return result


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, when it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "commit": commit,
    }


# The per-layer split each workload was designed for.
DESIGN = {
    "vote": ("neighbors.score_share", 0.8),
    "learn-pairs": ("learning.sample_pairs_share", 0.7),
}


def design_check(workload: str, layers: dict[str, float]) -> dict[str, object]:
    name, want = DESIGN[workload]
    if name == "learning.sample_pairs_share":
        value = layers["learning.sample_pairs_s"] / layers["cli.learn_s"]
    else:
        value = layers[name]
    return {"metric": name, "value": value, "want": f">= {want}", "ok": value >= want}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write perfbench/BASELINE.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    started = time.time()
    for seed in SEEDS:
        for w in workloads:
            t0 = time.time()
            runs[w].append(run_once(spec["command"], w, seed, spec["run_seconds"], 0))
            pipeline_s = runs[w][-1]["metrics"]["pipeline_s"]["value"]
            print(f"seed {seed} {w}: run {time.time() - t0:.1f} s, pipeline_s {pipeline_s:.3f}",
                  file=sys.stderr, flush=True)

    report: dict[str, object] = {}
    steady = True
    for w in workloads:
        metrics = {}
        print(f"== {w} ({len(SEEDS)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            s = spread(values)
            flag = ""
            if s["spread"] > bound / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")
            metrics[name] = {**s, "unit": runs[w][0]["metrics"][name]["unit"], "values": values}
        traced = run_once(spec["command"], w, SEEDS[0], spec["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        design = design_check(w, layers)
        print(f"  design split: {design}")
        steady &= design["ok"]
        report[w] = {"inputs": runs[w][0]["inputs"], "end_to_end": metrics,
                     "per_layer_seed": SEEDS[0], "per_layer": layers, "design": design}
    print(f"total {time.time() - started:.0f} s; {'steady' if steady else 'NOT steady'}")

    if args.write:
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        baseline = {
            "environment": environment(),
            "run_seconds": spec["run_seconds"],
            "seeds": SEEDS,
            "workloads": {w: {"why": why[w], **report[w]} for w in workloads},
        }
        (ROOT / "perfbench" / "BASELINE.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
