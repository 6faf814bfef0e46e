"""Supervised fusion weights.

Early fusion weights come from distance metric learning: minimize the squared
gap between exp(-combined distance) and the pair label (1 = images share a
concept) by projected gradient descent on the simplex. Late fusion weights
come from coordinate ascent on a rank metric (AP or NDCG) of a float
approximation of the fused ranking, with a bidirectional growing-step line
search per coordinate. Both learners are deterministic given their seeds
and record a monotone objective trace. Per-concept variants retrain for each
tag and fall back to the global weights when a tag has too few relevant
training items.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .collection import Collection
from .estimators import ScoreTable
from .evalkit import Qrels, rank_metric
from .neighbors import DistanceNormalizer, WeightVector


@dataclass(frozen=True)
class LabeledPair:
    """Unordered training pair; label 1 iff the images share a concept."""

    x: str
    x_other: str
    label: int


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    cond = u > (css - 1.0) / ks
    k = int(np.nonzero(cond)[0][-1])
    theta = (css[k] - 1.0) / (k + 1)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------


_ENUMERATE_LIMIT = 5_000_000  # pairs listed in memory; beyond, negatives are drawn


def _label_matrix(qrels: Qrels, c: Collection) -> tuple[list[str], np.ndarray]:
    """Judged images of `c` in id order, and their (images x concepts) relevance."""
    tags = qrels.tags()
    universe = sorted({i for t in tags for i in qrels.judgments[t] if i in c})
    row = {image_id: k for k, image_id in enumerate(universe)}
    labels = np.zeros((len(universe), len(tags)), dtype=bool)
    for j, t in enumerate(tags):
        rows = [row[i] for i, rel in qrels.judgments[t].items() if rel == 1 and i in row]
        labels[rows, j] = True
    return universe, labels


def _positive_codes(labels: np.ndarray) -> np.ndarray | None:
    """Sorted codes a * n + b (a < b) of the pairs sharing a concept, or None
    when the concepts hold more than _ENUMERATE_LIMIT pairs between them."""
    n = len(labels)
    members = [np.flatnonzero(col) for col in labels.T]
    if sum(len(m) * (len(m) - 1) // 2 for m in members) > _ENUMERATE_LIMIT:
        return None
    codes = [np.empty(0, dtype=np.intp)]
    for m in members:
        a, b = np.triu_indices(len(m), 1)
        codes.append(m[a] * n + m[b])
    return np.unique(np.concatenate(codes))


def _draw_pairs(
    rng: np.random.Generator, labels: np.ndarray, want: int, positive: bool
) -> np.ndarray:
    """Sorted codes of up to `want` distinct pairs of one class, drawn
    uniformly by rejection within a budget of 200 draws per wanted pair."""
    n = len(labels)
    bits = np.packbits(labels, axis=1)
    got = np.empty(0, dtype=np.intp)
    budget = 200 * want
    while len(got) < want and budget > 0:
        size = min(budget, 1 << 16)
        budget -= size
        a, b = rng.integers(0, n, size=(2, size))
        a, b = np.minimum(a, b), np.maximum(a, b)
        keep = (a != b) & ((bits[a] & bits[b]).any(axis=1) == positive)
        got = np.concatenate([got, a[keep] * n + b[keep]])
        _, first = np.unique(got, return_index=True)
        got = got[np.sort(first)]  # distinct codes in draw order
    return np.sort(got[:want])


def _labeled(universe: list[str], codes: np.ndarray, label: int) -> list[LabeledPair]:
    a, b = np.divmod(codes, len(universe))
    return [LabeledPair(universe[i], universe[j], label) for i, j in zip(a.tolist(), b.tolist())]


def sample_pairs(
    qrels: Qrels, c: Collection, n_pairs: int, seed: int = 0
) -> list[LabeledPair]:
    """Seeded sample of labeled pairs, balanced 50/50 where possible.

    Pairs (a, b) of judged images, a < b by id, are positive iff they share a
    concept. Up to 5M pairs, both classes are listed in lexicographic order
    and each is sampled without replacement; a scarce class contributes all
    its pairs and the other tops the sample up to `n_pairs`. Beyond that,
    positives are still listed when the concepts hold at most 5M pairs, and
    negatives are drawn by rejection (otherwise both classes are). Output holds
    positives, then negatives, each in lexicographic order, and never a
    duplicate unordered pair. Raises if either class has no pairs at all.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    universe, labels = _label_matrix(qrels, c)
    n = len(universe)
    if n < 2:
        raise ValueError("need at least 2 judged training images")
    rng = np.random.default_rng(seed)

    total_pairs = n * (n - 1) // 2
    neg: np.ndarray | None = None
    if total_pairs <= _ENUMERATE_LIMIT:
        counts = labels.astype(np.float32)  # shared-concept counts are exact
        shared = (counts @ counts.T) > 0
        upper = ~np.tri(n, dtype=bool)
        pos = np.flatnonzero(shared & upper)  # row-major = lexicographic (a, b)
        neg = np.flatnonzero(upper & ~shared)
    else:
        pos = _positive_codes(labels)
    if pos is None:  # too many positive pairs to list: draw both classes
        want_neg = n_pairs - n_pairs // 2
        pos = _draw_pairs(rng, labels, n_pairs // 2, positive=True)
    else:
        n_neg = total_pairs - len(pos)
        if not len(pos):
            raise ValueError("no positive pairs available")
        if not n_neg:
            raise ValueError("no negative pairs available")
        want_pos = min(n_pairs // 2, len(pos))
        want_neg = min(n_pairs - want_pos, n_neg)
        if want_neg < n_pairs - want_pos:  # negatives scarce: top up with positives
            want_pos = min(n_pairs - want_neg, len(pos))
        pos = pos[np.sort(rng.permutation(len(pos))[:want_pos])]
    if neg is None:
        neg = _draw_pairs(rng, labels, want_neg, positive=False)
        if not len(neg):
            raise ValueError("no negative pairs found within the sampling budget")
    else:
        neg = neg[np.sort(rng.permutation(len(neg))[:want_neg])]
    return _labeled(universe, pos, 1) + _labeled(universe, neg, 0)


def pair_feature_distances(
    c: Collection,
    pairs: Sequence[LabeledPair],
    features: Sequence[str],
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> np.ndarray:
    """(n_pairs, n_features) matrix of per-feature normalized L1 distances.

    Distances feeding the metric learner are MinMax-normalized (rank
    normalization is query-relative and has no meaning for a symmetric pair).
    """
    ia = np.array([c.index_of(p.x) for p in pairs], dtype=np.intp)
    ib = np.array([c.index_of(p.x_other) for p in pairs], dtype=np.intp)
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


@dataclass(frozen=True)
class GradientConfig:
    step0: float = 0.1
    step_floor: float = 1e-8
    rel_tol: float = 1e-8
    max_iter: int = 1000


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
    config: GradientConfig = GradientConfig(),
) -> GradientResult:
    """Fit simplex weights minimizing sum (exp(-sum_i w_i d_i) - y)^2.

    Projected gradient descent from uniform weights with backtracking line
    search (start 0.1, halve on non-decrease, floor 1e-8); stops when the
    relative loss change drops below 1e-8 or after 1000 iterations. The
    recorded loss trace is non-increasing.
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

    def loss_at(w: np.ndarray) -> float:
        e = np.exp(-(d @ w))
        return float(np.sum((e - y) ** 2))

    w = np.full(m, 1.0 / m)
    loss = loss_at(w)
    if not np.isfinite(loss):
        raise ValueError("non-finite loss; check input distances")
    trace = [loss]
    weight_trace: list[tuple[float, ...]] = []
    if m == 1:
        return GradientResult(WeightVector(tuple(names), (1.0,)), loss, tuple(trace))

    for _ in range(config.max_iter):
        e = np.exp(-(d @ w))
        grad = -2.0 * (d.T @ ((e - y) * e))
        step = config.step0
        accepted = None
        while step >= config.step_floor:
            cand = simplex_project(w - step * grad)
            cand_loss = loss_at(cand)
            if cand_loss < loss:
                accepted = (cand, cand_loss)
                break
            step /= 2.0
        if accepted is None:
            break
        new_w, new_loss = accepted
        rel_change = (loss - new_loss) / max(abs(loss), 1e-300)
        w, loss = new_w, new_loss
        trace.append(loss)
        weight_trace.append(tuple(float(v) for v in w))
        if rel_change < config.rel_tol:
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
        ids = sorted(tables[0].ids())
        self.matrix = np.array(
            [[t.scores[x] for t in tables] for x in ids], dtype=np.float64
        )
        self.rel = np.array([x in relevant for x in ids], dtype=bool)

    def metric(self, w_norm: np.ndarray, metric: str, cutoff: int) -> float:
        fused = self.matrix @ w_norm
        order = np.argsort(-fused, kind="stable")  # ties by id: rows are id-sorted
        return rank_metric(self.rel[order], metric, cutoff)


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
    (j = 0..steps, clamped at 0) and accepts the best if it improves the
    objective by more than tol. Weights are renormalized to the simplex for
    every evaluation; the raw vector is normalized once at the end. Restarts
    perturb the start point with seeded noise; the best restart wins.
    """
    evals, names = _build_concept_evals(tables_per_concept, qrels)
    m = len(names)

    def objective(raw: np.ndarray) -> float | None:
        total = raw.sum()
        if total <= 0:
            return None
        w_norm = raw / total
        return float(
            np.mean([ce.metric(w_norm, cfg.metric, cfg.cutoff) for ce in evals])
        )

    if m == 1:
        start = np.array([1.0])
        obj = objective(start)
        assert obj is not None
        return AscentResult(WeightVector(tuple(names), (1.0,)), obj, (), 0)

    best_overall: tuple[float, np.ndarray, list[AscentMove], int] | None = None
    for restart in range(cfg.restarts):
        if restart == 0:
            w = np.full(m, 1.0 / m)
        else:
            rng = np.random.default_rng([cfg.seed, restart])
            w = simplex_project(np.full(m, 1.0 / m) + rng.normal(0.0, 0.25, size=m))
        current = objective(w)
        if current is None:
            continue
        trace: list[AscentMove] = []
        for sweep in range(1, cfg.max_sweeps + 1):
            improved = False
            for i in range(m):
                best_cand: tuple[float, float] | None = None  # (objective, value)
                for j in range(cfg.steps + 1):
                    delta = cfg.delta0 * cfg.growth**j
                    for value in (w[i] + delta, max(0.0, w[i] - delta)):
                        if value == w[i]:
                            continue
                        cand = w.copy()
                        cand[i] = value
                        obj = objective(cand)
                        if obj is None:
                            continue
                        if best_cand is None or obj > best_cand[0]:
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
        candidates = tables[0].ids()
        n_pos = len(qrels.relevant(tag) & candidates)
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


def learn_distance_weights_per_concept(
    c: Collection,
    qrels: Qrels,
    features: Sequence[str],
    normalizers: Mapping[str, DistanceNormalizer] | None,
    n_pairs: int,
    min_pos: int = 1,
    seed: int = 0,
    config: GradientConfig = GradientConfig(),
    global_weights: WeightVector | None = None,
) -> PerConceptResult:
    """Per-concept metric learning: pairs are drawn within one concept, a pair
    being positive iff both images are relevant to that concept."""
    if global_weights is None:
        pairs = sample_pairs(qrels, c, n_pairs, seed=seed)
        d = pair_feature_distances(c, pairs, features, normalizers)
        global_weights = learn_distance_weights(
            d, [p.label for p in pairs], features, config
        ).weights
    per_concept: dict[str, WeightVector] = {}
    fallbacks: set[str] = set()
    all_judged = sorted(
        {i for t in qrels.tags() for i in qrels.judgments[t] if i in c}
    )
    for k, tag in enumerate(qrels.tags()):
        # concept-w view: every judged training image labeled by relevance to w,
        # so negatives are "this concept's positives vs the others"
        relevant_w = qrels.relevant(tag)
        sub = Qrels(
            judgments={tag: {i: 1 if i in relevant_w else 0 for i in all_judged}}
        )
        n_pos = len(relevant_w & frozenset(all_judged))
        if n_pos < max(min_pos, 2):  # a positive pair needs two relevant images
            per_concept[tag] = global_weights
            fallbacks.add(tag)
            continue
        try:
            pairs = sample_pairs(sub, c, n_pairs, seed=seed + k + 1)
        except ValueError:
            per_concept[tag] = global_weights
            fallbacks.add(tag)
            continue
        d = pair_feature_distances(c, pairs, features, normalizers)
        per_concept[tag] = learn_distance_weights(
            d, [p.label for p in pairs], features, config
        ).weights
    return PerConceptResult(
        global_weights=global_weights,
        per_concept=per_concept,
        fallbacks=frozenset(fallbacks),
    )
