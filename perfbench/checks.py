"""Output checks, run after the timed loop; each one counts as an operation.

They compare the pipeline's files with the package's scalar reference
functions: `neighbor_vote` over `knn` for voting runs, `early_fused_score`
for early fusion, and `borda_rank` for RankMax average fusion.
"""
from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tagfusion.collection import Collection, images_with_tag, load_collection
from tagfusion.estimators import early_fused_score, neighbor_vote, neighbor_vote_table
from tagfusion.evalkit import EXACT_FLIP_LIMIT, RunFile, read_qrels, read_run
from tagfusion.fusion import borda_rank, read_concept_weights, read_weights
from tagfusion.neighbors import WeightVector, calibrate_normalizers, knn
from tagfusion.presets import derive_seed

from workloads import FEATURES, K, Step

SAMPLE = 12  # scores per run compared with the scalar reference


class CheckFailed(Exception):
    pass


@dataclass
class Check:
    name: str
    error: str | None  # None when the check passed


def _same_bits(got: float, want: float) -> bool:
    return float(got).hex() == float(want).hex()


def _sample(run: RunFile, seed: int, salt: int) -> list[tuple[str, str, float]]:
    entries = [(tag, x, s) for tag in run.tags() for x, s in run.rankings[tag]]
    rng = np.random.default_rng([seed, salt])
    pick = rng.choice(len(entries), size=min(SAMPLE, len(entries)), replace=False)
    return [entries[i] for i in sorted(pick)]


def _align(wv: WeightVector, names: tuple[str, ...]) -> WeightVector:
    lookup = dict(zip(wv.names, wv.weights))
    return wv if wv.names == names else WeightVector(names, tuple(lookup[n] for n in names))


class OutputChecker:
    """Checks one workload's outputs against the world they were computed from."""

    def __init__(self, world: Path, seed: int) -> None:
        self.seed = seed
        self.c: Collection = load_collection(
            world / "tags.tsv", [world / f"{f}.tsv" for f in FEATURES]
        )
        self.qrels = read_qrels(world / "qrels.tsv")
        self.features = tuple(self.c.features)
        # late fusion fuses one voting estimator per feature (the default)
        self.estimators = tuple(f"tagrel:{f}" for f in self.features)
        self.results: list[Check] = []

    def check(self, name: str, fn: Callable[[], None]) -> None:
        try:
            fn()
            self.results.append(Check(name, None))
        except Exception:  # a crashing check is a failed operation, not a crash
            self.results.append(Check(name, traceback.format_exc(limit=3)))

    def run_all(self, steps: list[Step], report: str) -> list[Check]:
        for i, step in enumerate(steps):
            if step.stage == "score":
                self.check(f"{step.preset}: read_run and coverage", lambda s=step: self._coverage(s))
                if step.preset.startswith("tagrel-"):
                    self.check(f"{step.preset}: scalar neighbor_vote",
                               lambda s=step, i=i: self._tagrel(s, i))
                elif step.preset.startswith("early-"):
                    self.check(f"{step.preset}: scalar early_fused_score",
                               lambda s=step, i=i: self._early(s, i))
                elif step.preset == "late-rankmax-average":
                    self.check(f"{step.preset}: borda_rank order", lambda s=step, i=i: self._borda(s, i))
            elif step.stage == "learn":
                self.check(f"learn {step.out.name}: weight files read back",
                           lambda s=step: self._weights(s))
        evaluated = [s for s in steps if s.stage == "eval"]
        self.check("eval: report lists every run", lambda: self._report(report, evaluated[0]))
        return self.results

    def _coverage(self, step: Step) -> None:
        run = read_run(step.out)
        if set(run.rankings) != set(self.c.tag_index):
            raise CheckFailed(f"{step.out} ranks {len(run.rankings)} tags, "
                              f"{len(self.c.tag_index)} label an image")
        for tag in run.tags():
            if set(run.ranking(tag)) != images_with_tag(self.c, tag):
                raise CheckFailed(f"{step.out}: candidates of {tag!r} differ from its images")

    def _tagrel(self, step: Step, salt: int) -> None:
        feature = step.preset[len("tagrel-"):]
        for tag, x, score in _sample(read_run(step.out), self.seed, salt):
            want = neighbor_vote(self.c, knn(self.c, feature, x, K), tag, K)
            if not _same_bits(score, want):
                raise CheckFailed(f"{tag}/{x}: run {score!r} != neighbor_vote {want!r}")

    def _early_weights(self, weighting: str, tag: str, wdir: Path | None) -> WeightVector:
        if weighting == "average":
            return WeightVector.uniform(self.features)
        global_wv = read_weights(wdir / "weights-global.tsv")
        if weighting == "learning":
            return _align(global_wv, self.features)
        per_concept, _ = read_concept_weights(wdir / "weights-concepts.tsv")
        return _align(per_concept.get(tag, global_wv), self.features)

    def _early(self, step: Step, salt: int) -> None:
        _, norm, weighting = step.preset.split("-")
        normalizers = calibrate_normalizers(
            self.c, self.features, mode=norm, seed=derive_seed(self.seed, "calibration")
        )
        wdir = None
        if weighting != "average":
            wdir = Path(step.argv[step.argv.index("--weights") + 1]).parent
        for tag, x, score in _sample(read_run(step.out), self.seed, salt):
            wv = self._early_weights(weighting, tag, wdir)
            want = early_fused_score(self.c, x, tag, wv, normalizers, K)
            if not _same_bits(score, want):
                raise CheckFailed(f"{tag}/{x}: run {score!r} != early_fused_score {want!r}")

    def _borda(self, step: Step, salt: int) -> None:
        run = read_run(step.out)
        tags = run.tags()
        tag = tags[int(np.random.default_rng([self.seed, salt]).integers(len(tags)))]
        want = borda_rank([neighbor_vote_table(self.c, tag, f, K) for f in self.features])
        if run.ranking(tag) != want:
            raise CheckFailed(f"{tag}: fused order differs from borda_rank")

    def _weights(self, step: Step) -> None:
        names = self.features if "early" in step.argv else self.estimators
        files = [read_weights(step.out / "weights-global.tsv")]
        if "--per-concept" in step.argv:
            per_concept, _ = read_concept_weights(step.out / "weights-concepts.tsv")
            files += per_concept.values()
        for wv in files:
            if wv.names != names:
                raise CheckFailed(f"{step.out}: weights over {wv.names}, expected {names}")

    def _report(self, report: str, step: Step) -> None:
        runs = [read_run(p).run_id for p in step.argv if p.endswith(".run")]
        maps = {line.split("\t")[1] for line in report.splitlines() if line.startswith("mAP\t")}
        if maps != set(runs):
            raise CheckFailed(f"report has mAP for {sorted(maps)}, evaluated {runs}")
        p_values = [line for line in report.splitlines() if line.startswith("p\t")]
        pairs = len(runs) * (len(runs) - 1)  # AP and NDCG per unordered pair
        if len(p_values) != pairs or any(line.endswith("n/a") for line in p_values):
            raise CheckFailed(f"expected {pairs} p-values, got {p_values}")

    def inputs(self, steps: list[Step]) -> dict[str, object]:
        """Input properties a later change's gain may depend on."""
        n = len(self.c)
        labels = sum(len(ids) for ids in self.c.tag_index.values())
        concepts = len(self.qrels.tags())
        return {
            "images": n,
            "tags": len(self.c.tag_index),
            "mean_tags_per_image": labels / n,
            "candidates_per_preset": labels,
            "concepts": concepts,
            "randomization": "exact" if concepts <= EXACT_FLIP_LIMIT else "montecarlo",
            "rows_parsed_per_load": n * (1 + len(self.features)),
            "features": len(self.features),
            "k": K,
            "commands": [" ".join([s.stage, s.preset or ""]).strip() for s in steps],
        }
