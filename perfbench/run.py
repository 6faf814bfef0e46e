"""tagfusion benchmark: seeded `synth -> score -> learn -> eval` pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vote --seed 1 --seconds 45 --trace 0

The runner drives the real CLI path, `tagfusion.cli.main([...])`, imported
from `src/`. One client runs the workload's commands back to back, each
starting when the previous one ends. A repeat (set-up, then the pipeline)
runs again and again until `--seconds` have passed, each in a fresh child
process, as a user's commands would, so nothing one repeat leaves in memory
serves the next; interpreter start-up and imports stay outside the timing.
Set-up (`synth`) runs before the pipeline and again after each of its
commands, rewriting the same bytes; a repeat's set-up sample is the mean of
these, so that, like a pipeline, it spans the repeat rather than one moment
of a machine whose speed changes every few seconds. Every timing is a median
over the repeats of a run. After the timed loop the outputs are checked
against the package's scalar reference functions (checks.py).

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` repeats alternate between untraced and traced (tracing.py) and
the line reports the per-layer metrics of the traced ones. The line before it
records the workload's input properties. Work files go to
`.perfbench_work/<workload>/` under the checkout; each traced repeat also
leaves its spans there in `spans-<repeat>.jsonl`. `--smoke` swaps in tiny
worlds (smoke.py).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEAT_TIMEOUT = 150  # seconds one child process may take


def _import_package():
    """Import tagfusion from this checkout's sources, never from elsewhere."""
    if not (SRC / "tagfusion" / "cli.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'tagfusion'}")
    sys.path.insert(0, str(SRC))
    import tagfusion.cli

    if Path(tagfusion.cli.__file__).resolve().parent != (SRC / "tagfusion").resolve():
        raise SystemExit(f"error: imported tagfusion from {tagfusion.cli.__file__}")
    return tagfusion.cli


class Ops:
    """Operations of one run: each distinct command and check counts once.

    An operation fails when any of its repeats fails, so `attempted` does not
    grow with the number of repeats that fit in the run.
    """

    def __init__(self) -> None:
        self.errors: dict[str, str | None] = {}

    def record(self, name: str, error: str | None) -> None:
        if self.errors.get(name) is None:
            self.errors[name] = error

    def same(self, name: str, digests: set[str]) -> None:
        self.record(name, None if len(digests) == 1 else f"{len(digests)} distinct outputs")

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {error}" for name, error in self.errors.items() if error is not None]


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _median(values) -> float:
    return float(statistics.median(values))


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


# --- one repeat, in its own process -------------------------------------------


def _command(cli, ops: Ops, name: str, argv, tracer) -> tuple[float, int | None, str]:
    """Run one CLI command; returns (wall seconds, traced command id, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                with tracer.command(f"cli.{argv[0]}"):
                    rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed operation
            traceback.print_exc(file=sys.stderr)
            rc = -1
        elapsed = time.perf_counter() - start
    ops.record(name, None if rc == 0 else f"exit code {rc}")
    return elapsed, tracer.last_command if tracer else None, buf.getvalue()


def repeat(cli, wl, work: Path, seed: int, traced: bool, index: int) -> dict:
    """Set up, then run the pipeline once, setting up again after each command."""
    from tracing import Tracer, install, layer_metrics, neighbor_share

    world, out = work / "world", work / "out"
    ops = Ops()
    tracer = Tracer() if traced else None
    restore = install(tracer) if traced else None
    try:
        synth = wl.synth_argv(world, seed)
        setups = [_command(cli, ops, "synth", synth, tracer)]
        stages = {"score": 0.0, "learn": 0.0, "eval": 0.0}
        commands, report = [], ""
        for step in wl.steps(world, out, seed):
            elapsed, cmd, stdout = _command(cli, ops, step.label, step.argv, tracer)
            stages[step.stage] += elapsed
            commands.append((step.stage, cmd))
            if step.stage == "eval":
                report = stdout
            setups.append(_command(cli, ops, "synth", synth, tracer))
    finally:
        if restore is not None:
            restore()
    result = {
        "setup_s": statistics.fmean(s for s, _, _ in setups),
        "stages": stages,
        "ops": ops.errors,
        "world": _digest(world),
        "output": _digest(out),
        "report": report,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, [cmd for _, cmd in commands])
        layers["neighbors.score_share"] = neighbor_share(
            tracer, [cmd for stage, cmd in commands if stage == "score"]
        )
        layers["collection.synth_s"] = statistics.fmean(
            layer_metrics(tracer, [cmd])["collection.synth_s"] for _, cmd, _ in setups
        )
        result["layers"] = layers
        tracer.write(work / f"spans-{index}.jsonl")
    return result


# --- the run: repeats in child processes, then checks and metrics -------------


def _spawn(args, index: int, traced: bool) -> dict:
    """Run one repeat in a fresh process, from empty world and output directories."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", str(int(traced)),
            "--repeat", str(index), *(["--smoke"] if args.smoke else [])]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=REPEAT_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: repeat {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, work: Path) -> list[dict]:
    """Repeats back to back until `--seconds` have passed.

    With `--trace 1`, repeats alternate untraced/traced (untraced first).
    """
    repeats: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        for directory in (work / "world", work / "out"):
            shutil.rmtree(directory, ignore_errors=True)
        (work / "out").mkdir()
        repeats.append(_spawn(args, len(repeats), traced))
        repeats[-1]["traced"] = traced
        if time.perf_counter() >= deadline and (not args.trace or len(repeats) >= 2):
            return repeats


def end_to_end(repeats: list[dict], ops: Ops) -> dict[str, tuple[float, str]]:
    stages = [r["stages"] for r in repeats]
    maps = [float(line.split("\t")[2])
            for line in repeats[-1]["report"].splitlines() if line.startswith("mAP\t")]
    return {
        "setup_s": (_median(r["setup_s"] for r in repeats), "s"),
        "score_s": (_median(s["score"] for s in stages), "s"),
        "learn_s": (_median(s["learn"] for s in stages), "s"),
        "eval_s": (_median(s["eval"] for s in stages), "s"),
        "pipeline_s": (_median(sum(s.values()) for s in stages), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in repeats), "MB"),
        "map": (statistics.fmean(maps) if maps else 0.0, "ratio"),
        "passed_frac": (1.0 - len(ops.failures) / ops.attempted, "ratio"),
    }


def per_layer(repeats: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [r for r in repeats if r["traced"]]
    untraced = [r for r in repeats if not r["traced"]]
    metrics = {
        name: (_median(r["layers"][name] for r in traced), _unit(name))
        for name in traced[0]["layers"]
    }

    def pipeline_median(rs):
        return _median(sum(r["stages"].values()) for r in rs)

    metrics["trace_overhead_frac"] = (pipeline_median(traced) / pipeline_median(untraced) - 1.0,
                                      "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny worlds, for smoke.py")
    parser.add_argument("--repeat", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import SMOKE_SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.smoke:
        images, tags = SMOKE_SIZES[wl.name]
        wl = dataclasses.replace(wl, images=images, tags=tags)
    work = ROOT / ".perfbench_work" / wl.name

    if args.repeat is not None:  # a child process: one repeat
        print(json.dumps(repeat(cli, wl, work, args.seed, bool(args.trace), args.repeat)))
        return 0

    from checks import OutputChecker

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    repeats = measure(args, work)

    ops = Ops()
    for r in repeats:
        for name, error in r["ops"].items():
            ops.record(name, error)
    ops.same("synth: identical bytes on every repeat", {r["world"] for r in repeats})
    ops.same("pipeline: identical output bytes on every repeat", {r["output"] for r in repeats})
    world = work / "world"
    steps = wl.steps(world, work / "out", args.seed)
    checker = OutputChecker(world, args.seed)
    for check in checker.run_all(steps, repeats[-1]["report"]):
        ops.record(check.name, check.error)
    metrics = per_layer(repeats) if args.trace else end_to_end(repeats, ops)

    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    inputs = checker.inputs(steps)
    inputs["repeats"] = len(repeats)
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not ops.failures else 1


if __name__ == "__main__":
    sys.exit(main())
