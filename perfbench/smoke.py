"""Smoke test of the benchmark: every workload on a tiny world, in seconds.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs the benchmark command with
`--smoke`, untraced and traced, and checks that the last line is a result
that names every end-to-end (or per-layer) metric with its unit, with no
failed operation. It then copies BENCHMARK.json and the benchmark's own
files into an empty directory and checks that the command fails there
without printing a result. Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180


def _run(cwd: Path, command: list[str], workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*command, "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def _check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[(n, got[n], u) for n, u in expected.items() if got.get(n) not in (None, u)]}")
    values = [m.get("value") for m in result.get("metrics", {}).values()]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        problems.append("a metric value is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = _check_result(_run(ROOT, spec["command"], workload, trace), expected[trace])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(problems)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["command"], spec["workloads"][0]["name"], 0)
    printed = proc.stdout.strip().splitlines()
    bare_ok = proc.returncode != 0 and not (printed and printed[-1].startswith("{"))
    print(f"without package sources: {'ok' if bare_ok else 'FAIL'} (exit code {proc.returncode})")
    shutil.rmtree(bare)
    failures += not bare_ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
