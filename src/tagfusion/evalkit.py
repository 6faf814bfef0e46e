"""Retrieval evaluation: AP, NDCG, concept means, randomization test, run I/O.

Metrics see only the ordering of the candidate set. AP averages precision at
the relevant positions over the whole ranking; NDCG uses binary gains with a
log2(i+1) discount, cut off (default 100). The significance test sign-flips
per-concept score differences: exact p-values up to 20 concepts, counted by
meet in the middle (Horowitz & Sahni, JACM 1974) and bit-identical to full
enumeration of the 2^n flips; seeded Monte Carlo with the add-one convention
beyond that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .collection import _read_lines
from .estimators import ScoreTable

EXACT_FLIP_LIMIT = 20


class EvalFormatError(ValueError):
    """Malformed run or qrels file."""


_discount_table = np.empty(0)


def _discounts(length: int) -> np.ndarray:
    """The NDCG discounts 1/log2(i+1) of ranks 1..length, sliced from one
    table that is rebuilt at twice the size when a longer prefix is needed."""
    global _discount_table
    if length > len(_discount_table):
        _discount_table = 1.0 / np.log2(np.arange(2, 2 * length + 2))
    return _discount_table[:length]


def rank_metric(flags: np.ndarray, metric: str, cutoff: int = 100) -> float:
    """AP ("ap") or binary-gain NDCG@cutoff ("ndcg") of boolean relevance
    flags in rank order.

    The one implementation behind evaluation and coordinate ascent. Both
    metrics are 0 when no flag is set; `cutoff` applies to NDCG only.
    """
    if metric == "ndcg":
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
    elif metric != "ap":
        raise ValueError(f"unknown metric {metric!r}")
    n_rel = int(np.count_nonzero(flags))
    if n_rel == 0:
        return 0.0
    if metric == "ap":
        hits = np.cumsum(flags)
        positions = np.arange(1, len(flags) + 1)
        return float((hits[flags] / positions[flags]).sum() / n_rel)
    top = flags[:cutoff]
    dcg = float((top * _discounts(len(top))).sum())
    idcg = float(_discounts(min(n_rel, cutoff)).sum())
    return dcg / idcg


def _flags(ranking: Sequence[str], relevant: AbstractSet[str]) -> np.ndarray:
    return np.array([item in relevant for item in ranking], dtype=bool)


def average_precision(ranking: Sequence[str], relevant: AbstractSet[str]) -> float:
    """Mean precision at the relevant positions; 0 if nothing relevant ranked.

    R counts only relevant items inside the ranked candidate set, so
    judgments for images outside the candidate set do not dilute the score.
    """
    return rank_metric(_flags(ranking, relevant), "ap")


def ndcg_at(ranking: Sequence[str], relevant: AbstractSet[str], cutoff: int = 100) -> float:
    """Binary-gain NDCG at `cutoff`: DCG / ideal DCG; 0 when nothing relevant."""
    return rank_metric(_flags(ranking, relevant), "ndcg", cutoff)


def mean_over_concepts(values: Mapping[str, float] | Iterable[float]) -> float:
    seq = list(values.values()) if isinstance(values, Mapping) else list(values)
    if not seq:
        raise ValueError("mean over zero concepts is undefined")
    return sum(seq) / len(seq)


def _flip_count(diffs: np.ndarray, sign_blocks: Iterable[np.ndarray]) -> int:
    """Number of sign rows whose |flipped sum| reaches the observed |sum|."""
    observed = abs(float(np.sum(diffs)))  # compare sums; the 1/n factor cancels
    count = 0
    for signs in sign_blocks:
        # row-wise np.sum (not BLAS matmul) so the identity flip reproduces the
        # observed statistic bitwise and mathematically tied flips count as ties
        sums = np.sum(signs * diffs, axis=1)
        count += int((np.abs(sums) >= observed).sum())
    return count


def _signed_sums(first: float, d: np.ndarray) -> np.ndarray:
    """first ± d[0] ± d[1] ..., summed left to right; entry c takes -d[j]
    where bit j of c is set."""
    sums = np.array([first])
    for x in d:
        sums = np.concatenate([sums + x, sums - x])
    return sums


def _exact_flip_count(diffs: np.ndarray) -> int:
    """Number of the 2^n sign rows whose |row-wise np.sum| reaches
    |np.sum(diffs)|, counted by meet in the middle (Horowitz & Sahni, 1974).

    A sign on a zero difference changes no |row sum|, and a row's complement
    negates its sum exactly, so the count is 2 * 2^z times the count over
    the sign patterns of the nonzero columns that keep the last one (z zero
    differences). Those patterns are the pairs (a, b) of signed sums of the
    free columns' two halves, b including the last column; for each a,
    `searchsorted` in the sorted b finds the pairs whose a + b clears the
    observed |sum| by more than a margin covering every rounding, which
    every float row order decides alike. The pairs inside the margin are
    rebuilt as full sign rows and counted by `_flip_count`, so the count
    equals that of full enumeration.
    """
    n = len(diffs)
    nonzero = np.flatnonzero(diffs)
    if len(nonzero) == 0:
        return 1 << n  # every row sums to 0, which reaches 0
    free = nonzero[:-1]
    h = len(free) // 2
    half_a = _signed_sums(0.0, diffs[free[:h]])
    half_b = _signed_sums(diffs[nonzero[-1]], diffs[free[h:]])
    order = np.argsort(half_b, kind="stable")
    half_b = half_b[order]
    abs_sum = float(np.abs(diffs).sum())
    # for each a: b in [0, neg) or [pos, len(b)) counts, b in [neg, neg_band)
    # or [pos_band, pos) is within the margin, and the rest does not count
    if math.isfinite(4 * abs_sum):
        observed = abs(float(np.sum(diffs)))
        # a float row sum and a + b each lie within γ_{n-1}·Σ|d| of the exact
        # sum, and observed, hi, lo and the thresholds minus a round by at
        # most 2^-53·3Σ|d| each, less than 8n·2^-53·Σ|d| in all;
        # nextafter covers a product that underflows
        margin = float(np.nextafter(abs_sum * (8 * n * 2.0**-53), np.inf))
        hi, lo = observed + margin, observed - margin
        neg = np.searchsorted(half_b, -hi - half_a, "right")
        neg_band = np.searchsorted(half_b, -lo - half_a, "right")
        # the maximum keeps the bands disjoint where they meet, and merges
        # them into (-hi, hi) when lo <= 0
        pos_band = np.maximum(np.searchsorted(half_b, lo - half_a, "left"), neg_band)
        pos = np.maximum(np.searchsorted(half_b, hi - half_a, "left"), pos_band)
    else:  # no headroom for the bounds: rebuild every row
        neg = neg_band = pos_band = np.zeros(len(half_a), dtype=np.int64)
        pos = np.full(len(half_a), len(half_b), dtype=np.int64)
    count = int(neg.sum()) + int((len(half_b) - pos).sum())
    starts = np.concatenate([neg, pos_band])
    lengths = np.concatenate([neg_band - neg, pos - pos_band])
    count += _flip_count(diffs, _band_signs(n, free, order, h, starts, lengths))
    return (2 * count) << (n - len(nonzero))


def _band_signs(
    n: int, free: np.ndarray, order: np.ndarray, h: int, starts: np.ndarray, lengths: np.ndarray
) -> Iterator[np.ndarray]:
    """Full sign rows of the pairs (i mod 2^h, order[starts[i] + j]) of half
    codes for j < lengths[i], 2^16 rows at a time; the h low bits of a row
    code flip free[:h], the others free[h:]; zero and last columns keep +1."""
    ends = np.cumsum(lengths)
    bits = np.arange(len(free), dtype=np.int64)
    total = int(ends[-1])
    for start in range(0, total, 1 << 16):
        row = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        band = np.searchsorted(ends, row, "right")
        code_b = order[starts[band] + row - (ends[band] - lengths[band])]
        code = (band & ((1 << h) - 1)) | (code_b << h)
        signs = np.ones((len(row), n))
        signs[:, free] = np.where((code[:, None] >> bits) & 1, -1.0, 1.0)
        yield signs


def _random_signs(n: int, n_perm: int, seed: int) -> Iterator[np.ndarray]:
    """`n_perm` seeded uniform sign vectors, 2^14 rows at a time."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_perm, 1 << 14):
        yield rng.choice((-1.0, 1.0), size=(min(1 << 14, n_perm - start), n))


def randomization_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    n_perm: int = 100_000,
    seed: int = 0,
    method: str = "auto",
) -> float:
    """Two-sided sign-flip test on paired per-concept scores.

    Exact over all 2^n flips when n <= 20 (or method='exact'), counted by
    meet in the middle and bit-identical to enumerating every flip;
    otherwise `n_perm` seeded random flips with the add-one convention.
    Returns the p-value in (0, 1]; symmetric in its arguments. Raises
    ValueError on a NaN or infinite score or an overflowing difference.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError(f"length mismatch: {len(scores_a)} vs {len(scores_b)}")
    if len(scores_a) < 2:
        raise ValueError("need at least 2 paired scores")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if method not in ("auto", "exact", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    for name, scores in (("scores_a", a), ("scores_b", b)):
        bad = np.flatnonzero(~np.isfinite(scores))
        if len(bad):
            raise ValueError(f"{name}[{bad[0]}] is not finite: {scores[bad[0]]!r}")
    # a difference that overflows is rejected; a sum that does is counted
    # as full enumeration counts it
    with np.errstate(over="ignore"):
        diffs = a - b
        bad = np.flatnonzero(~np.isfinite(diffs))
        if len(bad):
            raise ValueError(f"score difference at index {bad[0]} overflows")
        n = len(diffs)
        if method == "exact" or (method == "auto" and n <= EXACT_FLIP_LIMIT):
            return _exact_flip_count(diffs) / (1 << n)
        # add-one: the observed labeling counts as one permutation, so p > 0
        return (_flip_count(diffs, _random_signs(n, n_perm, seed)) + 1) / (n_perm + 1)


# ---------------------------------------------------------------------------
# qrels and run files
# ---------------------------------------------------------------------------


@dataclass
class Qrels:
    """Binary relevance judgments; unjudged pairs default to irrelevant."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, tag: str, image_id: str, rel: int) -> None:
        if rel not in (0, 1):
            raise ValueError(f"relevance must be 0 or 1, got {rel!r}")
        self.judgments.setdefault(tag, {})[image_id] = rel

    def relevant(self, tag: str) -> frozenset[str]:
        return frozenset(i for i, r in self.judgments.get(tag, {}).items() if r == 1)

    def tags(self) -> list[str]:
        return sorted(self.judgments)

    def __contains__(self, tag: str) -> bool:
        return tag in self.judgments

    @classmethod
    def from_ground_truth(cls, truth: Mapping[str, AbstractSet[str]]) -> "Qrels":
        q = cls()
        for tag in sorted(truth):
            for image_id in sorted(truth[tag]):
                q.add(tag, image_id, 1)
        return q


def read_qrels(path: str | Path) -> Qrels:
    path = Path(path)
    q = Qrels()
    for no, line in _read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise EvalFormatError(f"{path}:{no}: expected 'tag<TAB>image_id<TAB>rel'")
        tag, image_id, rel_s = parts
        if rel_s not in ("0", "1"):
            raise EvalFormatError(f"{path}:{no}: relevance must be 0 or 1")
        if image_id in q.judgments.get(tag, {}):
            raise EvalFormatError(f"{path}:{no}: duplicate judgment for ({tag}, {image_id})")
        q.add(tag, image_id, int(rel_s))
    return q


def write_qrels(path: str | Path, q: Qrels) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for tag in sorted(q.judgments):
            for image_id in sorted(q.judgments[tag]):
                fh.write(f"{tag}\t{image_id}\t{q.judgments[tag][image_id]}\n")


@dataclass
class RunFile:
    """Ranked retrieval output: per tag, (image_id, score) descending."""

    run_id: str
    rankings: dict[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)

    def tags(self) -> list[str]:
        return sorted(self.rankings)

    def ranking(self, tag: str) -> list[str]:
        return [i for i, _ in self.rankings[tag]]


def run_from_tables(run_id: str, tables: Iterable[ScoreTable]) -> RunFile:
    run = RunFile(run_id=run_id)
    for t in tables:
        if t.tag in run.rankings:
            raise ValueError(f"duplicate table for tag {t.tag!r}")
        run.rankings[t.tag] = tuple((x, t.scores[x]) for x in t.ranking())
    return run


def write_run(path: str | Path, run: RunFile) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for tag in sorted(run.rankings):
            for rank, (image_id, score) in enumerate(run.rankings[tag], start=1):
                fh.write(f"{tag}\t{image_id}\t{rank}\t{score!r}\t{run.run_id}\n")


def read_run(path: str | Path) -> RunFile:
    path = Path(path)
    run_id: str | None = None
    rankings: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    for no, line in _read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise EvalFormatError(
                f"{path}:{no}: expected 5 tab-separated fields, got {len(parts)}"
            )
        tag, image_id, rank_s, score_s, rid = parts
        if run_id is None:
            run_id = rid
        elif rid != run_id:
            raise EvalFormatError(f"{path}:{no}: mixed run ids {run_id!r} and {rid!r}")
        if (tag, image_id) in seen:
            raise EvalFormatError(f"{path}:{no}: duplicate image {image_id!r} under {tag!r}")
        seen.add((tag, image_id))
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise EvalFormatError(f"{path}:{no}: bad rank or score") from None
        if not math.isfinite(score):
            raise EvalFormatError(f"{path}:{no}: non-finite score {score_s!r}")
        entries = rankings.setdefault(tag, [])
        if rank != len(entries) + 1:
            raise EvalFormatError(
                f"{path}:{no}: rank {rank} not contiguous for tag {tag!r}"
            )
        if entries:
            prev_id, prev_score = entries[-1]
            if score > prev_score or (score == prev_score and image_id <= prev_id):
                raise EvalFormatError(
                    f"{path}:{no}: ordering violates the descending-score/id tie rule"
                )
        entries.append((image_id, score))
    if run_id is None:
        raise EvalFormatError(f"{path}: empty run file")
    return RunFile(run_id=run_id, rankings={t: tuple(e) for t, e in rankings.items()})


# ---------------------------------------------------------------------------
# evaluation and report
# ---------------------------------------------------------------------------


@dataclass
class RunEvaluation:
    run_id: str
    per_concept: dict[str, tuple[float, float]]  # tag -> (AP, NDCG@cutoff)
    unjudged_tags: frozenset[str]
    missing_tags: frozenset[str]

    @property
    def mean_ap(self) -> float:
        return mean_over_concepts({t: v[0] for t, v in self.per_concept.items()})

    @property
    def mean_ndcg(self) -> float:
        return mean_over_concepts({t: v[1] for t, v in self.per_concept.items()})


def evaluate_run(run: RunFile, qrels: Qrels, cutoff: int = 100) -> RunEvaluation:
    """Per-concept AP and NDCG over the judged concepts plus the run's own tags.

    Judged concepts the run leaves out score 0 and are flagged missing, so a
    run cannot raise its means by omitting hard concepts; run tags absent
    from the qrels score 0 and are flagged unjudged.
    """
    if not run.rankings:
        raise ValueError(f"run {run.run_id!r} ranks no tags")
    per_concept: dict[str, tuple[float, float]] = {}
    for tag in sorted(set(qrels.tags()) | set(run.tags())):
        if tag not in run.rankings:
            per_concept[tag] = (0.0, 0.0)
            continue
        flags = _flags(run.ranking(tag), qrels.relevant(tag))
        per_concept[tag] = (rank_metric(flags, "ap"), rank_metric(flags, "ndcg", cutoff))
    return RunEvaluation(
        run_id=run.run_id,
        per_concept=per_concept,
        unjudged_tags=frozenset(t for t in run.tags() if t not in qrels),
        missing_tags=frozenset(t for t in qrels.tags() if t not in run.rankings),
    )


def render_report(
    runs: Sequence[RunFile],
    qrels: Qrels,
    cutoff: int = 100,
    n_perm: int = 100_000,
    seed: int = 0,
) -> str:
    """Plain-text evaluation report.

    One concept/AP/NDCG table per run, then a footer with mAP, mNDCG, and
    pairwise randomization-test p-values when two or more runs are given.
    Concepts one run scores and the other does not count as 0 for the
    other, so every pairwise test runs over the union of their concepts.
    """
    if not runs:
        raise ValueError("no runs to evaluate")
    evals = [evaluate_run(r, qrels, cutoff=cutoff) for r in runs]
    lines: list[str] = []
    for ev in evals:
        lines.append(f"run\t{ev.run_id}")
        lines.append(f"concept\tAP\tNDCG@{cutoff}")
        for tag in sorted(ev.per_concept):
            ap, nd = ev.per_concept[tag]
            flag = (
                "\t[unjudged]" if tag in ev.unjudged_tags
                else "\t[missing]" if tag in ev.missing_tags
                else ""
            )
            lines.append(f"{tag}\t{ap:.6f}\t{nd:.6f}{flag}")
        lines.append("")
    lines.append("== summary ==")
    for ev in evals:
        lines.append(f"mAP\t{ev.run_id}\t{ev.mean_ap:.6f}")
    for ev in evals:
        lines.append(f"mNDCG\t{ev.run_id}\t{ev.mean_ndcg:.6f}")
    if len(evals) >= 2:
        lines.append("== randomization test (two-sided) ==")
        for i in range(len(evals)):
            for j in range(i + 1, len(evals)):
                a, b = evals[i], evals[j]
                concepts = sorted(set(a.per_concept) | set(b.per_concept))
                if len(concepts) < 2:
                    lines.append(f"p\tAP\t{a.run_id}\t{b.run_id}\tn/a")
                    lines.append(f"p\tNDCG\t{a.run_id}\t{b.run_id}\tn/a")
                    continue
                score_a = [a.per_concept.get(t, (0.0, 0.0)) for t in concepts]
                score_b = [b.per_concept.get(t, (0.0, 0.0)) for t in concepts]
                p_ap = randomization_test(
                    [s[0] for s in score_a], [s[0] for s in score_b], n_perm=n_perm, seed=seed
                )
                p_nd = randomization_test(
                    [s[1] for s in score_a], [s[1] for s in score_b], n_perm=n_perm, seed=seed
                )
                lines.append(f"p\tAP\t{a.run_id}\t{b.run_id}\t{p_ap:.6g}")
                lines.append(f"p\tNDCG\t{a.run_id}\t{b.run_id}\t{p_nd:.6g}")
    return "\n".join(lines) + "\n"
