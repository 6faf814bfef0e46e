"""The benchmark's workloads: a seeded synthetic world plus a fixed command list.

Every workload uses two 8-dimensional features (visa, visb) with split
informativeness, k = 50 and the other `synth` defaults. The runner passes the
workload seed to `synth --seed` and to every command's `--seed`, so one seed
fixes every input byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FEATURES = ("visa", "visb")
K = 50


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload's pipeline."""

    stage: str  # "score", "learn" or "eval"
    argv: tuple[str, ...]
    preset: str | None = None  # score steps: the preset name
    out: Path | None = None  # score steps: run file; learn steps: weights directory

    @property
    def label(self) -> str:
        """The command's name among the workload's operations."""
        if self.preset is not None:
            return f"score {self.preset}"
        return f"learn {self.out.name}" if self.stage == "learn" else self.stage


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    images: int
    tags: int
    steps: Callable[[Path, Path, int], list[Step]]  # (world, out dir, seed)

    def synth_argv(self, world: Path, seed: int) -> list[str]:
        return [
            "synth", "--out", str(world), "--images", str(self.images),
            "--tags", str(self.tags), "--features", ",".join(f"{f}:8" for f in FEATURES),
            "--informativeness", "split", "--seed", str(seed),
        ]


def _common(world: Path, seed: int) -> list[str]:
    return [
        "--tags", str(world / "tags.tsv"),
        "--features", ",".join(str(world / f"{f}.tsv") for f in FEATURES),
        "--k", str(K), "--seed", str(seed),
    ]


def _score(world: Path, out: Path, seed: int, preset: str, *extra: str) -> Step:
    run = out / f"{preset}.run"
    argv = ("score", *_common(world, seed), "--preset", preset, "--out", str(run), *extra)
    return Step("score", argv, preset=preset, out=run)


def _learn(world: Path, out: Path, seed: int, name: str, *extra: str) -> Step:
    wdir = out / name
    argv = (
        "learn", *_common(world, seed), "--qrels", str(world / "qrels.tsv"),
        "--out", str(wdir), *extra,
    )
    return Step("learn", argv, out=wdir)


def _learned(wdir: Path) -> tuple[str, ...]:
    return (
        "--weights", str(wdir / "weights-global.tsv"),
        "--concept-weights", str(wdir / "weights-concepts.tsv"),
    )


def _eval(world: Path, seed: int, runs: list[Step]) -> Step:
    argv = (
        "eval", "--qrels", str(world / "qrels.tsv"), "--seed", str(seed),
        *(str(s.out) for s in runs),
    )
    return Step("eval", argv)


def _vote_steps(world: Path, out: Path, seed: int) -> list[Step]:
    scores = [
        _score(world, out, seed, p)
        for p in ("tagrel-visa", "late-rankmax-average", "early-rankmax-average")
    ]
    learn = _learn(world, out, seed, "late-global", "--scheme", "late", "--norm", "minmax")
    return [*scores, learn, _eval(world, seed, scores)]


def _learn_pairs_steps(world: Path, out: Path, seed: int) -> list[Step]:
    learn = _learn(world, out, seed, "early-pc", "--scheme", "early", "--per-concept")
    scores = [
        _score(world, out, seed, "tagrel-visa"),
        _score(world, out, seed, "early-minmax-learning+", *_learned(learn.out)),
    ]
    return [learn, *scores, _eval(world, seed, scores)]


# Sizes are chosen so one pipeline takes a few seconds on 2 cores, letting a
# run of --seconds repeat it and report medians; each keeps the property in
# its `why` (the share of the work that the named layer does). At 1000
# images the exact 2^20 randomization test weighs more on `vote` than at
# larger sizes: eval_s is about a third of pipeline_s. A third
# workload without neighbor search (late fusion of tag position and semantic
# field over 4000 images, 50 concepts) was dropped: on a shared 2-core host
# its timings spread 0.33-0.42 (quartile distance over median, 10 seeds),
# above any bound the benchmark may set.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "vote",
            "neighbor search is ~90% of score_s and rows are recomputed per tag, preset "
            "and learn; the exact eval test is ~35% of pipeline_s at 1000 images, so a "
            "neighbor gain shows most in score_s",
            images=1000, tags=20, steps=_vote_steps,
        ),
        Workload(
            "learn-pairs",
            "pair sampling enumerates every image pair per concept and dominates "
            "learn time and memory; no late fusion: where a faster pair sampler shows",
            images=1000, tags=20, steps=_learn_pairs_steps,
        ),
    )
}

# Tiny worlds (images, tags) for the smoke test: the same commands and the
# same randomization branch (exact enumeration up to 20 concepts).
SMOKE_SIZES = {"vote": (120, 10), "learn-pairs": (100, 10)}
