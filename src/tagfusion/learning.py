"""Supervised fusion weights.

Early fusion weights come from distance metric learning: minimize the squared
gap between exp(-combined distance) and the pair label (1 = images share a
concept) by projected gradient descent on the simplex. The judged images and
their relevance form one label matrix (`_label_matrix`); a training pair is
a pair of its rows, from the sampler to the gradient fit. Late fusion weights
come from coordinate ascent on a rank metric (AP or NDCG) of a float
approximation of the fused ranking, with a bidirectional growing-step line
search per coordinate whose candidates are scored in one batch, with the
same float objective as scoring them one at a time. Both learners are
deterministic given their seeds and record a monotone objective trace.
Per-concept variants retrain for each tag and fall back to the global
weights when a tag has too few relevant training items.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .collection import Collection
from .estimators import ScoreTable
from .evalkit import Qrels, rank_metric
from .fusion import _check_aligned
from .neighbors import DistanceNormalizer, WeightVector


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection max(v - theta, 0) onto the probability simplex,
    by the sort-based threshold of Duchi et al. ("Efficient projections onto
    the l1-ball for learning in high dimensions", ICML 2008). theta is found
    on Python floats, one per coordinate, summed in descending order as
    np.sort(v)[::-1] and np.cumsum take them: the last running threshold
    (sum of the top k - 1) / k that the k-th largest value exceeds. Raises
    ValueError for an empty or non-finite vector, or one so large that
    rounding leaves no value above its threshold."""
    v = np.asarray(v, dtype=np.float64)
    total, theta = 0.0, None
    for k, u in enumerate(sorted(v.tolist(), reverse=True), start=1):
        total += u
        t = (total - 1.0) / k
        if u > t:
            theta = t
    if not (len(v) and math.isfinite(total)):
        raise ValueError(f"simplex_project needs a nonempty finite vector, got {v.tolist()!r}")
    if theta is None:
        raise ValueError(f"simplex_project: rounding leaves no threshold for {v.tolist()!r}")
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------


_ENUMERATE_LIMIT = 5_000_000  # pairs per run of the one-byte mask
_CHUNK = 1 << 16  # positive ordinals rewritten in place at a time


class PairSampleError(ValueError):
    """A label matrix yields no pair sample: too few images or pairs asked
    for, or a class without pairs."""


def _label_matrix(qrels: Qrels, c: Collection) -> tuple[np.ndarray, np.ndarray]:
    """The collection row of each judged image of `c`, in image-id order, and
    their (images x concepts) relevance, one column per `qrels.tags()`."""
    tags = qrels.tags()
    universe = sorted({i for t in tags for i in qrels.judgments[t] if i in c})
    position = {image_id: k for k, image_id in enumerate(universe)}
    labels = np.zeros((len(universe), len(tags)), dtype=bool)
    for j, t in enumerate(tags):
        members = [position[i] for i, rel in qrels.judgments[t].items() if rel == 1 and i in position]
        labels[members, j] = True
    return np.fromiter(map(c.index_of, universe), dtype=np.intp, count=len(universe)), labels


def _sample_sizes(n_pos: int, n_neg: int, n_pairs: int) -> tuple[int, int]:
    """Pairs to take from each listed class: half each where possible; a
    scarce class gives all its pairs and the other tops the sample up."""
    if not n_pos:
        raise PairSampleError("no positive pairs available")
    if not n_neg:
        raise PairSampleError("no negative pairs available")
    want_pos = min(n_pairs // 2, n_pos)
    want_neg = min(n_pairs - want_pos, n_neg)
    if want_neg < n_pairs - want_pos:  # negatives scarce: top up with positives
        want_pos = min(n_pairs - want_neg, n_pos)
    return want_pos, want_neg


def _choose(rng: np.random.Generator, n: int, want: int) -> np.ndarray:
    """`want` distinct ranks of range(n), drawn uniformly, in ascending order."""
    return np.sort(rng.choice(n, want, replace=False, shuffle=False))


def _codes(t: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    """Codes a * n + b of the pairs with ordinals `t`."""
    a = np.searchsorted(row_start, t, side="right") - 1
    return a * len(row_start) + (t - row_start[a] + a + 1)


def sample_pairs(labels: np.ndarray, n_pairs: int, seed: int = 0) -> np.ndarray:
    """Seeded sample of pairs of rows of an (images x concepts) label matrix
    (`_label_matrix`), balanced 50/50 where possible: an int array of rows
    a < b and the label, one pair per row (shape (pairs, 3)).

    A pair is positive iff its rows share a concept. Pair (a, b > a) has the
    lexicographic ordinal t(a, b) = a * n - a * (a + 1) / 2 + (b - a - 1).
    Rows are taken in runs of at most _ENUMERATE_LIMIT pairs (one row at
    least); each run ORs every concept's flags into a one-byte-per-pair
    mask, one row slice per member image. A first sweep counts each run's
    positives (one run keeps their list). Each class is then sampled by rank,
    uniformly without replacement, by `rng.choice`, which draws a sample of
    at most a twentieth of its class by Floyd's algorithm, in time and
    memory proportional to the sample; a scarce class contributes all its
    pairs and the other tops the sample up to `n_pairs`. A second sweep
    lists the positives of each run holding a drawn rank and maps the ranks
    to ordinals: positive ranks by indexing, negative ranks by the number
    of positives before them. The sample is the same at any run length, and
    memory is one run's mask plus eight bytes per positive in it. Output
    holds positives, then negatives, each in lexicographic order, and never
    a duplicate unordered pair. Raises `PairSampleError` if either class has
    no pairs at all.
    """
    if n_pairs < 1:
        raise PairSampleError("n_pairs must be >= 1")
    n = len(labels)
    if n < 2:
        raise PairSampleError("need at least 2 judged training images")
    rng = np.random.default_rng(seed)

    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2  # t(a, a + 1); row_start[n - 1] counts every pair
    cols = np.ascontiguousarray(labels.T)  # one concept's flags, contiguous
    bounds = [0]
    while bounds[-1] < n - 1:
        end = np.searchsorted(row_start, row_start[bounds[-1]] + _ENUMERATE_LIMIT, side="right")
        bounds.append(max(bounds[-1] + 1, int(end) - 1))
    runs = list(zip(bounds, bounds[1:]))

    def shared(lo: int, hi: int) -> np.ndarray:
        base = row_start[lo]
        mask = np.zeros(row_start[hi] - base, dtype=bool)
        for col in cols:
            for a in (np.flatnonzero(col[lo:hi]) + lo).tolist():
                mask[row_start[a] - base:row_start[a + 1] - base] |= col[a + 1:]
        return mask

    listed = [np.flatnonzero(shared(*runs[0]))] if len(runs) == 1 else []
    n_pos = [len(t) for t in listed] or [int(np.count_nonzero(shared(lo, hi))) for lo, hi in runs]
    pos_from = [0, *accumulate(n_pos)]  # each run's first rank, then the class size
    sizes = np.diff(row_start[bounds]).tolist()  # pairs per run
    neg_from = [0, *accumulate(size - m for size, m in zip(sizes, n_pos))]
    want_pos, want_neg = _sample_sizes(pos_from[-1], neg_from[-1], n_pairs)
    pos = _choose(rng, pos_from[-1], want_pos)
    neg = _choose(rng, neg_from[-1], want_neg)
    p_cut = np.searchsorted(pos, pos_from).tolist()
    q_cut = np.searchsorted(neg, neg_from).tolist()
    for k, (lo, hi) in enumerate(runs):
        p, q = pos[p_cut[k]:p_cut[k + 1]], neg[q_cut[k]:q_cut[k + 1]]  # views, mapped in place
        if len(p) or len(q):
            t = listed.pop() if listed else np.flatnonzero(shared(lo, hi))
            p[:] = t[p - pos_from[k]] + row_start[lo]
            for s in range(0, len(t), _CHUNK):  # negatives before each positive, in place
                t[s:s + _CHUNK] -= np.arange(s, min(s + _CHUNK, len(t)))
            q -= neg_from[k]
            q += np.searchsorted(t, q, side="right") + row_start[lo]
            del t  # one run's list at a time
    a, b = np.divmod(np.concatenate([_codes(pos, row_start), _codes(neg, row_start)]), n)
    return np.column_stack([a, b, np.repeat([1, 0], [len(pos), len(neg)])])


def pair_feature_distances(
    c: Collection,
    pairs: np.ndarray,
    features: Sequence[str],
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> np.ndarray:
    """(n_pairs, n_features) matrix of per-feature normalized L1 distances
    between the collection rows `pairs[:, 0]` and `pairs[:, 1]`.

    Distances feeding the metric learner are MinMax-normalized (rank
    normalization is query-relative and has no meaning for a symmetric pair).
    """
    ia, ib = pairs[:, 0], pairs[:, 1]
    out = np.empty((len(pairs), len(features)), dtype=np.float64)
    for j, f in enumerate(features):
        norm = (normalizers or {}).get(f, DistanceNormalizer(mode="none"))
        if norm.mode == "rankmax":
            raise ValueError("rankmax normalization is undefined for image pairs")
        matrix = c.feature(f).matrix
        out[:, j] = norm.apply(np.abs(matrix[ia] - matrix[ib]).sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# distance metric learning (early fusion weights)
# ---------------------------------------------------------------------------


# learn_distance_weights' step schedule and stopping rule
STEP0 = 0.1
STEP_FLOOR = 1e-8
REL_TOL = 1e-8
MAX_ITER = 1000


@dataclass
class GradientResult:
    weights: WeightVector
    loss: float
    trace: tuple[float, ...]  # loss after init and after each accepted step
    weight_trace: tuple[tuple[float, ...], ...] = ()  # weights per accepted step


def learn_distance_weights(
    pair_distances: np.ndarray,
    labels: Sequence[int],
    names: Sequence[str],
) -> GradientResult:
    """Fit simplex weights minimizing sum (exp(-sum_i w_i d_i) - y)^2.

    Projected gradient descent from uniform weights with backtracking line
    search (start 0.1, halve on non-decrease, floor 1e-8); stops when the
    relative loss change drops below 1e-8 or after 1000 iterations. Each
    trial projects one candidate (`simplex_project`); the accepted one's
    exp(-d w) and residual carry into the next gradient. The recorded loss
    trace is non-increasing.
    """
    d = np.asarray(pair_distances, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != len(y):
        raise ValueError("pair_distances must be (n_pairs, n_features) matching labels")
    if d.shape[1] != len(names):
        raise ValueError("names must match the feature axis")
    if d.shape[0] == 0:
        raise ValueError("no training pairs")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distances must be finite and nonnegative")
    m = d.shape[1]

    def residual(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        e = np.exp(-(d @ w))
        r = e - y
        return e, r, float(np.add.reduce(r * r))  # np.sum(r**2) without its wrapper

    w = np.full(m, 1.0 / m)
    e, r, loss = residual(w)
    if not np.isfinite(loss):
        raise ValueError("non-finite loss; check input distances")
    trace = [loss]
    weight_trace: list[tuple[float, ...]] = []
    if m == 1:
        return GradientResult(WeightVector(tuple(names), (1.0,)), loss, tuple(trace))

    for _ in range(MAX_ITER):
        grad = -2.0 * (d.T @ (r * e))
        step = STEP0
        while step >= STEP_FLOOR:
            cand = simplex_project(w - step * grad)
            cand_e, cand_r, cand_loss = residual(cand)
            if cand_loss < loss:
                break
            step /= 2.0
        else:  # no step decreased the loss
            break
        rel_change = (loss - cand_loss) / max(abs(loss), 1e-300)
        w, e, r, loss = cand, cand_e, cand_r, cand_loss
        trace.append(loss)
        weight_trace.append(tuple(w.tolist()))
        if rel_change < REL_TOL:
            break
    weights = WeightVector.normalized(tuple(names), tuple(float(v) for v in w))
    return GradientResult(weights, loss, tuple(trace), tuple(weight_trace))


# ---------------------------------------------------------------------------
# coordinate ascent (late fusion weights)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AscentConfig:
    metric: str = "ap"  # "ap" or "ndcg"
    cutoff: int = 100
    delta0: float = 0.05
    growth: float = 2.0
    steps: int = 10
    tol: float = 1e-6
    max_sweeps: int = 50
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.metric not in ("ap", "ndcg"):
            raise ValueError(f"unknown metric {self.metric!r}")
        for name in ("delta0", "growth", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.delta0 <= 0 or self.tol <= 0 or self.steps < 1:
            raise ValueError("delta0 > 0, tol > 0, steps >= 1 required")
        if self.growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if self.max_sweeps < 1 or self.restarts < 1:
            raise ValueError("max_sweeps and restarts must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")


AscentMove = tuple[int, str, float, float]  # sweep, coordinate, new_weight, objective


@dataclass
class AscentResult:
    weights: WeightVector
    objective: float
    trace: tuple[AscentMove, ...]
    restart: int


class _ConceptEval:
    """Precomputed candidate matrix for fast metric evaluation of one concept."""

    def __init__(self, tables: Sequence[ScoreTable], relevant: frozenset[str]) -> None:
        ids = _check_aligned(tables)
        self.matrix = np.stack([t.scores for t in tables], axis=1)  # C order, one row per id
        self.rel = np.array([x in relevant for x in ids], dtype=bool)

    def metric(self, w_norm: np.ndarray, metric: str, cutoff: int) -> np.ndarray:
        """Rank metric of the float fused ranking, (B,) values for the rows
        of a (B, m) weight array. `matmul` makes one gemv per stacked row, so
        each row is fused as `matrix @ w` would be; a gemm (`matrix @ W.T`)
        rounds differently. So does one product over the stacked rows of
        several concepts: of 4000 random concept blocks (1-199 rows, 2-4
        estimators, 22 weight rows), 21 got other last bits than from their
        own product (numpy 2.4 with its bundled BLAS). Fusing all concepts'
        candidates at once therefore needs an exact kernel such as
        `late_fuse`'s, not this one."""
        fused = np.matmul(self.matrix, w_norm[:, :, None])[..., 0]
        order = np.argsort(-fused, axis=1, kind="stable")  # ties by id: rows are id-sorted
        return rank_metric(self.rel[order], metric, cutoff)


def _mean_metric(
    evals: Sequence[_ConceptEval], raw: np.ndarray, metric: str, cutoff: int
) -> list[float | None]:
    """Coordinate ascent's objective for each row of raw weights (B, m): the
    mean metric over the concepts under the row normalized to sum 1, or None
    where the row sums to <= 0."""
    totals = raw.sum(axis=1)
    valid = totals > 0
    w_norm = raw[valid] / totals[valid, None]
    values = np.empty((len(w_norm), len(evals)))  # C-contiguous: rows average as 1-D
    for k, ce in enumerate(evals):
        values[:, k] = ce.metric(w_norm, metric, cutoff)
    means = iter(values.mean(axis=1).tolist())
    return [next(means) if ok else None for ok in valid.tolist()]


def _build_concept_evals(
    tables_per_concept: Mapping[str, Sequence[ScoreTable]], qrels: Qrels
) -> tuple[list[_ConceptEval], tuple[str, ...]]:
    names: tuple[str, ...] | None = None
    evals: list[_ConceptEval] = []
    for tag in sorted(tables_per_concept):
        tables = tables_per_concept[tag]
        tag_names = tuple(t.estimator for t in tables)
        if names is None:
            names = tag_names
        elif tag_names != names:
            raise ValueError(
                f"estimator sequence for {tag!r} differs: {tag_names} vs {names}"
            )
        ce = _ConceptEval(tables, qrels.relevant(tag))
        if ce.rel.any():  # metric undefined without relevant candidates
            evals.append(ce)
    if names is None:
        raise ValueError("no concepts to train on")
    if not evals:
        raise ValueError("no concept has a relevant training candidate")
    return evals, names


def coordinate_ascent(
    tables_per_concept: Mapping[str, Sequence[ScoreTable]],
    qrels: Qrels,
    cfg: AscentConfig = AscentConfig(),
) -> AscentResult:
    """Maximize the mean rank metric of a float fused ranking over the weights.

    Candidates are ranked by the float product `matrix @ w` (ties by id),
    not by `late_fuse`'s exactly rounded rational sums, so near ties can
    order differently and the objective can differ from the scored run's.

    Cycles the coordinates; each tries values w_i +- delta0 * growth^j
    (j = 0..steps, clamped at 0; a repeated value once), scored in one batch,
    and accepts the best (the first in that order on ties) if it improves
    the objective by more than tol. Weights are renormalized to the simplex
    for every evaluation; the raw vector is normalized once at the end.
    Restarts perturb the start point with seeded noise; the best restart wins.
    """
    evals, names = _build_concept_evals(tables_per_concept, qrels)
    m = len(names)

    def objective(raw: np.ndarray) -> list[float | None]:
        return _mean_metric(evals, raw, cfg.metric, cfg.cutoff)

    if m == 1:
        obj = objective(np.ones((1, 1)))[0]
        assert obj is not None
        return AscentResult(WeightVector(tuple(names), (1.0,)), obj, (), 0)

    best_overall: tuple[float, np.ndarray, list[AscentMove], int] | None = None
    for restart in range(cfg.restarts):
        if restart == 0:
            w = np.full(m, 1.0 / m)
        else:
            rng = np.random.default_rng([cfg.seed, restart])
            w = simplex_project(np.full(m, 1.0 / m) + rng.normal(0.0, 0.25, size=m))
        current = objective(w[None])[0]
        if current is None:
            continue
        trace: list[AscentMove] = []
        for sweep in range(1, cfg.max_sweeps + 1):
            improved = False
            for i in range(m):
                values = []  # the line search's candidates for w_i, scored in one batch
                for j in range(cfg.steps + 1):
                    delta = cfg.delta0 * cfg.growth**j
                    for value in (w[i] + delta, max(0.0, w[i] - delta)):
                        if value != w[i] and value not in values:  # clamped repeats
                            values.append(value)
                cands = np.tile(w, (len(values), 1))
                cands[:, i] = values
                best_cand: tuple[float, float] | None = None  # (objective, value)
                for value, obj in zip(values, objective(cands)):
                    if obj is not None and (best_cand is None or obj > best_cand[0]):
                        best_cand = (obj, value)
                if best_cand is not None and best_cand[0] > current + cfg.tol:
                    w[i] = best_cand[1]
                    current = best_cand[0]
                    trace.append((sweep, names[i], float(w[i]), current))
                    improved = True
            if not improved:
                break
        if best_overall is None or current > best_overall[0]:
            best_overall = (current, w.copy(), trace, restart)

    assert best_overall is not None
    obj, w, trace, restart = best_overall
    weights = WeightVector.normalized(tuple(names), tuple(float(v) for v in w))
    return AscentResult(weights, obj, tuple(trace), restart)


# ---------------------------------------------------------------------------
# per-concept ("learning+") variants
# ---------------------------------------------------------------------------


@dataclass
class PerConceptResult:
    global_weights: WeightVector
    per_concept: dict[str, WeightVector]
    fallbacks: frozenset[str]
    traces: dict[str, tuple[AscentMove, ...]] = field(default_factory=dict)


def learn_per_concept(
    tables_per_concept: Mapping[str, Sequence[ScoreTable]],
    qrels: Qrels,
    cfg: AscentConfig = AscentConfig(),
    min_pos: int = 1,
    global_weights: WeightVector | None = None,
) -> PerConceptResult:
    """Coordinate ascent per concept, with global-weight fallback.

    Concepts with fewer than `min_pos` relevant training candidates (or none
    at all) receive the global weights and are flagged in `fallbacks`.
    """
    if global_weights is None:
        global_weights = coordinate_ascent(tables_per_concept, qrels, cfg).weights
    per_concept: dict[str, WeightVector] = {}
    fallbacks: set[str] = set()
    traces: dict[str, tuple[AscentMove, ...]] = {}
    for tag in sorted(tables_per_concept):
        tables = tables_per_concept[tag]
        n_pos = len(qrels.relevant(tag).intersection(tables[0].ids))
        if n_pos < max(min_pos, 1):
            per_concept[tag] = global_weights
            fallbacks.add(tag)
            continue
        res = coordinate_ascent({tag: tables}, qrels, cfg)
        per_concept[tag] = res.weights
        traces[tag] = res.trace
    return PerConceptResult(
        global_weights=global_weights,
        per_concept=per_concept,
        fallbacks=frozenset(fallbacks),
        traces=traces,
    )


def _fit_pairs(
    c: Collection, rows: np.ndarray, labels: np.ndarray, features: Sequence[str],
    normalizers: Mapping[str, DistanceNormalizer] | None, n_pairs: int, seed: int,
) -> GradientResult:
    """Distance weights fit on a seeded pair sample of `labels`, whose rows
    are the collection rows `rows`."""
    pairs = sample_pairs(labels, n_pairs, seed)
    d = pair_feature_distances(c, rows[pairs[:, :2]], features, normalizers)
    return learn_distance_weights(d, pairs[:, 2], features)


def learn_distance_weights_per_concept(
    c: Collection,
    tags: Sequence[str],
    rows: np.ndarray,
    labels: np.ndarray,
    features: Sequence[str],
    normalizers: Mapping[str, DistanceNormalizer] | None,
    n_pairs: int,
    min_pos: int = 1,
    seed: int = 0,
    global_weights: WeightVector | None = None,
) -> PerConceptResult:
    """Per-concept metric learning on the label matrix (collection `rows`,
    one column per tag) of `_label_matrix`: concept k samples its pairs from
    column k with seed + k + 1, a pair being positive iff both images are
    relevant to that concept. A concept with fewer than max(min_pos, 2)
    relevant images, or whose column yields no pair sample, keeps the global
    weights (fit with `seed` when not given) and is listed in `fallbacks`."""
    if global_weights is None:
        global_weights = _fit_pairs(c, rows, labels, features, normalizers, n_pairs, seed).weights
    per_concept = dict.fromkeys(tags, global_weights)
    for k, tag in enumerate(tags):
        if labels[:, k].sum() < max(min_pos, 2):  # a positive pair needs two relevant images
            continue
        with contextlib.suppress(PairSampleError):
            per_concept[tag] = _fit_pairs(
                c, rows, labels[:, [k]], features, normalizers, n_pairs, seed + k + 1
            ).weights
    fallbacks = frozenset(t for t, w in per_concept.items() if w is global_weights)
    return PerConceptResult(global_weights, per_concept, fallbacks)
