"""Score normalization and late fusion of tag relevance estimators.

MinMax rescales scores against the estimator's possible range; RankMax
replaces scores by 1 - rank/n over the n candidates, so only the ordering
survives. Late fusion is the convex combination of aligned score tables.
Each fused score is the exact rational sum rounded once, so candidates
whose rank points tie under Borda counting also tie in the fused float
scores; `borda_rank` provides the independent integer-arithmetic oracle for
that equivalence. The sums run in floats as double-doubles, with Dekker's
product and Knuth's TwoSum (Ogita, Rump & Oishi, "Accurate sum and dot
product", SIAM J. Sci. Comput. 2005), and carry an error bound; a candidate
whose rounding that bound cannot certify is summed in rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .collection import _FIELD_BREAK, Collection, _records, _write_records, tag_prior
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
        if not math.isfinite(self.upper - self.lower):  # MinMax would map the top to 0
            raise ValueError(f"bounds [{self.lower}, {self.upper}] span more than a float")


def neighbor_vote_bounds(c: Collection, w: str) -> ScoreBounds:
    """Counting range of the voting estimator: [-prior, 1 - prior]."""
    prior = tag_prior(c, w)
    return ScoreBounds(lower=-prior, upper=1.0 - prior, source="analytic")


def unit_bounds() -> ScoreBounds:
    """[0, 1] for estimators with that analytic range (position, semantic field)."""
    return ScoreBounds(lower=0.0, upper=1.0, source="analytic")


def observed_bounds(st: ScoreTable) -> ScoreBounds:
    """Fallback for estimators without closed-form bounds (e.g. KDE)."""
    if not len(st):
        raise ValueError("cannot take observed bounds of an empty table")
    # the first minimum and maximum in id order, as min() and max() take them
    lower, upper = st.scores[[np.argmin(st.scores), np.argmax(st.scores)]].tolist()
    return ScoreBounds(lower=lower, upper=upper, source="observed")


def minmax_normalize(st: ScoreTable, bounds: ScoreBounds) -> ScoreTable:
    """(g - min) / (max - min), clamped to [0, 1]; a nan or -0.0 quotient
    clamps to 0.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = (st.scores - bounds.lower) / (bounds.upper - bounds.lower)
    meta = {**st.meta, "minmax_bounds": (bounds.lower, bounds.upper), "bounds_source": bounds.source}
    return ScoreTable(st.estimator, st.tag, st.ids, np.where(x > 0.0, np.minimum(x, 1.0), 0.0), meta)


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
    n = len(st)
    if n == 0:
        raise ValueError("cannot rank-normalize an empty table")
    scores = np.empty(n)
    scores[st.order()] = np.arange(n - 1, -1, -1, dtype=np.float64) * _rank_unit(n)
    return ScoreTable(st.estimator, st.tag, st.ids, scores, dict(st.meta))


def _check_aligned(tables: Sequence[ScoreTable]) -> tuple[str, ...]:
    if not tables:
        raise ValueError("no tables to fuse")
    tag, ids = tables[0].tag, tables[0].ids
    for t in tables[1:]:
        if t.tag != tag:
            raise ValueError(f"tag mismatch: {t.tag!r} vs {tag!r}")
        if t.ids != ids:
            raise ValueError(
                f"candidate-set mismatch between {tables[0].estimator!r} and {t.estimator!r}"
            )
    return ids


_SPLIT = 2.0**27 + 1.0  # Veltkamp's factor: halves of at most 26 bits
_TINY, _HUGE = 2.0**-500, 2.0**500  # scores whose splits and products stay exact


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, each half of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = fl(a + b) and the exact error, a + b = s + e."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _at_least(x: Fraction) -> float:
    """A float >= x >= 0, and >= 2^-500 unless x is 0 (so products with
    scores >= 2^-500 cannot underflow)."""
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return max(f, _TINY) if x else 0.0


def _fuse_certified(lams: Sequence[Fraction], g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's sum_i lams[i] * g[i] as a float, and where that float is
    certified to be the exact sum correctly rounded.

    Each lambda is hi + lo + slack, hi and lo floats. hi * g is split into
    an exact sum of two floats (Dekker's product), and the products are
    folded exactly (TwoSum) into s plus a compensation c, as in Ogita, Rump
    and Oishi's Dot2. What the fold leaves out, the errors of summing c,
    the rounding of lo * g and slack * |g|, is bounded from above. A column
    is certified when s + c, within that bound, cannot round to another
    float; with a bound of 0, s + c is the exact sum and one IEEE addition
    rounds it, exact midpoints to even. Scores beyond 2^500 or nonzero
    below 2^-500, and lambdas below 2^-400, are not certified: the split
    and the products could lose bits there.
    """
    hi = np.array([float(lam) for lam in lams])
    rest = [lam - Fraction(h) for lam, h in zip(lams, hi.tolist())]
    lo = np.array([float(r) for r in rest])
    slack = np.array([_at_least(abs(r - Fraction(x))) for r, x in zip(rest, lo.tolist())])
    mag = np.abs(g)
    ok = ((mag >= _TINY) & (mag <= _HUGE) | (g == 0.0)).all(axis=0)
    if ((hi > 0.0) & (hi < 2.0**-400)).any():
        ok[:] = False
    g = np.where(ok, g, 0.0)  # the others go to exact rationals; spare them overflow
    g_hi, g_lo = _split(g)
    h_hi, h_lo = _split(hi[:, None])
    p = hi[:, None] * g
    e = ((h_hi * g_hi - p) + h_hi * g_lo + h_lo * g_hi) + h_lo * g_lo  # hi * g = p + e
    bound = (slack[:, None] * mag).sum(axis=0)
    s = np.zeros(g.shape[1])
    c = np.zeros(g.shape[1])
    for i in range(len(lams)):
        s, r = _two_sum(s, p[i])
        terms = [r, e[i]]
        if lo[i]:
            q = lo[i] * g[i]
            terms.append(q)
            bound += 2.0**-52 * np.abs(q) + 2.0**-1074 * (g[i] != 0.0)  # rounding of lo * g
        for x in terms:
            c, d = _two_sum(c, x)
            bound += np.abs(d)
    bound *= 1.0 + 2.0**-30  # covers the rounding of the bound's own sums
    fused, t = _two_sum(s, c)  # exact sum within bound of fused + t
    gap = np.minimum(np.nextafter(fused, np.inf) - fused, fused - np.nextafter(fused, -np.inf))
    ok &= (bound == 0.0) | ((np.abs(t) + bound) * (1.0 + 2.0**-50) < 0.5 * gap)
    return fused + 0.0, ok  # an exact zero is +0.0, as a rational's float


def late_fuse(
    tables: Sequence[ScoreTable], wv: WeightVector, name: str | None = None
) -> ScoreTable:
    """Per image, G = sum_i lambda_i * g_i over aligned tables.

    Each fused score is the correctly rounded value of the exact rational
    sum, which keeps mathematically equal combinations bitwise equal. A
    candidate whose rounding `_fuse_certified` cannot certify is summed in
    rationals.
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
    g = np.stack([t.scores for t in tables])
    scores, certified = _fuse_certified(lams, g)
    for j in np.flatnonzero(~certified).tolist():
        scores[j] = float(sum(lam * Fraction(x) for lam, x in zip(lams, g[:, j].tolist())))
    fused_name = name if name is not None else "latefuse[" + ",".join(t.estimator for t in tables) + "]"
    return ScoreTable(fused_name, tables[0].tag, ids, scores, {"weights": wv})


def borda_rank(tables: Sequence[ScoreTable]) -> list[str]:
    """Rank aggregation by summed Borda points (n - rank), integer arithmetic.

    Oracle for the equivalence: averaging RankMax-normalized tables orders
    candidates identically to Borda counting on the raw tables.
    """
    ids = _check_aligned(tables)
    n = len(ids)
    points = np.zeros(n, dtype=np.int64)
    for t in tables:
        points[t.order()] += np.arange(n - 1, -1, -1)
    return [ids[i] for i in np.argsort(-points, kind="stable").tolist()]


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
    """Raises ValueError, before creating anything, on a name `read_weights` would
    not read back: one that starts with '#' (a comment line) or holds a tab, CR or LF."""
    for name in wv.names:
        if name.startswith("#") or _FIELD_BREAK.search(name):
            raise ValueError(
                f"cannot write weight {name!r}: it starts with '#' or holds a tab, CR or LF"
            )
    _write_records(path, zip(wv.names, map(repr, wv.weights)), "# global\n")


def _normalized(names: list[str], weights: list[float], where: str) -> WeightVector:
    try:
        return WeightVector.normalized(names, weights)
    except ValueError as exc:  # e.g. every weight is 0
        raise ValueError(f"{where}: {exc}") from None


def read_weights(path: str | Path) -> WeightVector:
    path = Path(path)
    names: list[str] = []
    weights: list[float] = []
    for no, (name, w) in _records(path, 2, "'name<TAB>weight'"):
        names.append(name)
        weights.append(_parse_weight(w, path, no))
    if not names:
        raise ValueError(f"{path}: no weights found")
    return _normalized(names, weights, str(path))


def write_concept_weights(
    path: str | Path,
    per_concept: Mapping[str, WeightVector],
    fallbacks: Iterable[str] = (),
) -> None:
    rows = (
        (tag, name, repr(w))
        for tag, wv in sorted(per_concept.items())
        for name, w in zip(wv.names, wv.weights)
    )
    _write_records(path, rows, "".join(f"# fallback: {tag}\n" for tag in sorted(fallbacks)))


def read_concept_weights(path: str | Path) -> tuple[dict[str, WeightVector], frozenset[str]]:
    path = Path(path)
    raw: dict[str, tuple[int, list[str], list[float]]] = {}  # tag -> first line, names, weights
    comments: list[str] = []
    for no, (tag, name, w) in _records(path, 3, "'tag<TAB>name<TAB>weight'", comments=comments):
        _, names, weights = raw.setdefault(tag, (no, [], []))
        names.append(name)
        weights.append(_parse_weight(w, path, no))
    if not raw:
        raise ValueError(f"{path}: no weights found")
    markers = (line[1:].strip() for line in comments)
    return (
        {t: _normalized(n, w, f"{path}:{no}: tag {t!r}") for t, (no, n, w) in raw.items()},
        frozenset(m.split(":", 1)[1].strip() for m in markers if m.startswith("fallback:")),
    )
