"""Score normalization and late fusion of tag relevance estimators.

MinMax rescales scores against the estimator's possible range; RankMax
replaces scores by 1 - rank/n over the n candidates, so only the ordering
survives. Late fusion is the convex combination of aligned score tables.
Fused sums are
accumulated in exact rational arithmetic and rounded once, so candidates
whose rank points tie under Borda counting also tie in the fused float
scores; `borda_rank` provides the independent integer-arithmetic oracle for
that equivalence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .collection import Collection, _read_lines, tag_prior
from .estimators import ScoreTable
from .neighbors import WeightVector


@dataclass(frozen=True)
class ScoreBounds:
    """Minimum and maximum possible score of an estimator for one tag."""

    lower: float
    upper: float
    source: str = "analytic"

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"degenerate bounds [{self.lower}, {self.upper}]")


def neighbor_vote_bounds(c: Collection, w: str) -> ScoreBounds:
    """Counting range of the voting estimator: [-prior, 1 - prior]."""
    prior = tag_prior(c, w)
    return ScoreBounds(lower=-prior, upper=1.0 - prior, source="analytic")


def unit_bounds() -> ScoreBounds:
    """[0, 1] for estimators with that analytic range (position, semantic field)."""
    return ScoreBounds(lower=0.0, upper=1.0, source="analytic")


def observed_bounds(st: ScoreTable) -> ScoreBounds:
    """Fallback for estimators without closed-form bounds (e.g. KDE)."""
    if not st.scores:
        raise ValueError("cannot take observed bounds of an empty table")
    values = st.scores.values()
    return ScoreBounds(lower=min(values), upper=max(values), source="observed")


def minmax_normalize(st: ScoreTable, bounds: ScoreBounds) -> ScoreTable:
    """(g - min) / (max - min), clamped to [0, 1]."""
    span = bounds.upper - bounds.lower
    scores = {
        x: min(1.0, max(0.0, (g - bounds.lower) / span)) for x, g in st.scores.items()
    }
    meta = dict(st.meta)
    meta["minmax_bounds"] = (bounds.lower, bounds.upper)
    meta["bounds_source"] = bounds.source
    return ScoreTable(estimator=st.estimator, tag=st.tag, scores=scores, meta=meta)


def _rank_unit(n: int) -> float:
    # Nearest multiple of 2^-52 to 1/n. Products k * unit are exact floats for
    # every k <= n, so rank-score sums tie exactly whenever rank sums tie,
    # while staying within relative n/2^53 of 1/n itself.
    p, r = divmod(1 << 52, n)
    if 2 * r >= n:
        p += 1
    return p * 2.0**-52


def rankmax_normalize(st: ScoreTable) -> ScoreTable:
    """Scores become 1 - rank/n (rank 1-based, descending, id tie rule)."""
    n = len(st.scores)
    if n == 0:
        raise ValueError("cannot rank-normalize an empty table")
    unit = _rank_unit(n)
    scores: dict[str, float] = {}
    for rank, x in enumerate(st.ranking(), start=1):
        scores[x] = float(n - rank) * unit
    return ScoreTable(estimator=st.estimator, tag=st.tag, scores=scores, meta=dict(st.meta))


def _check_aligned(tables: Sequence[ScoreTable]) -> frozenset[str]:
    if not tables:
        raise ValueError("no tables to fuse")
    tag = tables[0].tag
    ids = tables[0].ids()
    for t in tables[1:]:
        if t.tag != tag:
            raise ValueError(f"tag mismatch: {t.tag!r} vs {tag!r}")
        if t.ids() != ids:
            raise ValueError(
                f"candidate-set mismatch between {tables[0].estimator!r} and {t.estimator!r}"
            )
    return ids


def late_fuse(
    tables: Sequence[ScoreTable], wv: WeightVector, name: str | None = None
) -> ScoreTable:
    """Per image, G = sum_i lambda_i * g_i over aligned tables.

    Each fused score is the correctly rounded value of the exact rational
    sum, which keeps mathematically equal combinations bitwise equal.
    """
    ids = _check_aligned(tables)
    if len(wv.weights) != len(tables):
        raise ValueError(
            f"{len(wv.weights)} weights for {len(tables)} tables"
        )
    lams = [Fraction(w) for w in wv.weights]
    total = sum(lams)
    if total <= 0:
        raise ValueError("weights sum to zero")
    lams = [lam / total for lam in lams]  # exactly on the simplex in Q
    scores: dict[str, float] = {}
    for x in sorted(ids):
        acc = Fraction(0)
        for lam, t in zip(lams, tables):
            acc += lam * Fraction(t.scores[x])
        scores[x] = float(acc)
    fused_name = name if name is not None else "latefuse[" + ",".join(t.estimator for t in tables) + "]"
    return ScoreTable(
        estimator=fused_name,
        tag=tables[0].tag,
        scores=scores,
        meta={"weights": wv},
    )


def average_fuse(tables: Sequence[ScoreTable], name: str | None = None) -> ScoreTable:
    """Uniform late fusion: late_fuse with lambda_i = 1/m."""
    wv = WeightVector.uniform(tuple(t.estimator for t in tables))
    return late_fuse(tables, wv, name=name)


def borda_rank(tables: Sequence[ScoreTable]) -> list[str]:
    """Rank aggregation by summed Borda points (n - rank), integer arithmetic.

    Oracle for the equivalence: averaging RankMax-normalized tables orders
    candidates identically to Borda counting on the raw tables.
    """
    ids = _check_aligned(tables)
    n = len(ids)
    points = {x: 0 for x in ids}
    for t in tables:
        for rank, x in enumerate(t.ranking(), start=1):
            points[x] += n - rank
    return sorted(points, key=lambda x: (-points[x], x))


# ---------------------------------------------------------------------------
# weight files
#
# global:       '# global' header, then  name<TAB>weight
# per-concept:  optional '# fallback: <tag>' comments, then tag<TAB>name<TAB>weight
# ---------------------------------------------------------------------------


def _parse_weight(text: str, path: Path, no: int) -> float:
    try:
        w = float(text)
    except ValueError:
        raise ValueError(f"{path}:{no}: bad weight {text!r}") from None
    if not math.isfinite(w) or w < 0:
        raise ValueError(f"{path}:{no}: weight must be finite and nonnegative, got {text!r}")
    return w


def write_weights(path: str | Path, wv: WeightVector) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write("# global\n")
        for name, w in zip(wv.names, wv.weights):
            fh.write(f"{name}\t{w!r}\n")


def _normalized(names: list[str], weights: list[float], where: str) -> WeightVector:
    try:
        return WeightVector.normalized(names, weights)
    except ValueError as exc:  # e.g. every weight is 0
        raise ValueError(f"{where}: {exc}") from None


def read_weights(path: str | Path) -> WeightVector:
    path = Path(path)
    names: list[str] = []
    weights: list[float] = []
    for no, line in _read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{no}: expected 'name<TAB>weight'")
        names.append(parts[0])
        weights.append(_parse_weight(parts[1], path, no))
    if not names:
        raise ValueError(f"{path}: no weights found")
    return _normalized(names, weights, str(path))


def write_concept_weights(
    path: str | Path,
    per_concept: Mapping[str, WeightVector],
    fallbacks: Iterable[str] = (),
) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for tag in sorted(fallbacks):
            fh.write(f"# fallback: {tag}\n")
        for tag in sorted(per_concept):
            wv = per_concept[tag]
            for name, w in zip(wv.names, wv.weights):
                fh.write(f"{tag}\t{name}\t{w!r}\n")


def read_concept_weights(path: str | Path) -> tuple[dict[str, WeightVector], frozenset[str]]:
    path = Path(path)
    raw: dict[str, tuple[int, list[str], list[float]]] = {}  # tag -> first line, names, weights
    fallbacks: set[str] = set()
    for no, line in _read_lines(path):
        if not line.strip():
            continue
        if line.startswith("#"):
            marker = line[1:].strip()
            if marker.startswith("fallback:"):
                fallbacks.add(marker.split(":", 1)[1].strip())
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{no}: expected 'tag<TAB>name<TAB>weight'")
        tag, name, w = parts
        _, names, weights = raw.setdefault(tag, (no, [], []))
        names.append(name)
        weights.append(_parse_weight(w, path, no))
    if not raw:
        raise ValueError(f"{path}: no weights found")
    return (
        {t: _normalized(n, w, f"{path}:{no}: tag {t!r}") for t, (no, n, w) in raw.items()},
        frozenset(fallbacks),
    )
