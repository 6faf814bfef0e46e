"""Scalar reference implementations that only the tests call.

Each one computes a single value the slow, obvious way; the package's
blocked code paths are checked against them bit for bit.
"""
from __future__ import annotations

import math
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from tagfusion.collection import (
    Collection,
    CollectionError,
    FeatureMatrix,
    ImageRecord,
    _read_lines,
    images_with_tag,
    normalize_tag,
)
from tagfusion.estimators import ScoreTable, TagSimilarityModel, _kde_sigma, vote_tables
from tagfusion.evalkit import rank_metric
from tagfusion.fusion import ScoreBounds, _rank_unit, late_fuse
from tagfusion.learning import MAX_ITER, REL_TOL, STEP0, STEP_FLOOR, GradientResult
from tagfusion.neighbors import DistanceNormalizer, WeightVector, distance_block


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Manhattan distance sum |a_j - b_j|; symmetric, zero iff a == b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite components")
    return float(np.abs(a - b).sum())


def dict_table(estimator: str, tag: str, scores: Mapping[str, float], meta=None) -> ScoreTable:
    """A ScoreTable from an id -> score mapping, ids sorted."""
    ids = sorted(scores)
    return ScoreTable(estimator, tag, ids, [scores[x] for x in ids], dict(meta or {}))


def scores_of(st: ScoreTable) -> dict[str, float]:
    """A table's id -> score mapping, in id order, scores as Python floats."""
    return dict(zip(st.ids, st.scores.tolist()))


# Dict-keyed score-table operations, as the package computed them per image
# before tables became arrays; each takes and returns id -> score mappings.


def dict_ranking(scores: Mapping[str, float]) -> list[str]:
    """Descending score, ties by ascending id."""
    return sorted(scores, key=lambda i: (-scores[i], i))


def dict_observed_bounds(scores: Mapping[str, float]) -> ScoreBounds:
    return ScoreBounds(min(scores.values()), max(scores.values()), source="observed")


def dict_minmax(scores: Mapping[str, float], bounds: ScoreBounds) -> dict[str, float]:
    span = bounds.upper - bounds.lower
    return {x: min(1.0, max(0.0, (g - bounds.lower) / span)) for x, g in scores.items()}


def dict_rankmax(scores: Mapping[str, float]) -> dict[str, float]:
    n = len(scores)
    unit = _rank_unit(n)
    return {x: float(n - rank) * unit for rank, x in enumerate(dict_ranking(scores), start=1)}


def dict_late_fuse(tables: Sequence[Mapping[str, float]], weights: Sequence[float]) -> dict[str, float]:
    """Per image, the exact rational sum of (w_i / sum w) * g_i, rounded once."""
    lams = [Fraction(w) for w in weights]
    total = sum(lams)
    lams = [lam / total for lam in lams]
    fused = {}
    for x in sorted(tables[0]):
        acc = Fraction(0)
        for lam, t in zip(lams, tables):
            acc += lam * Fraction(t[x])
        fused[x] = float(acc)
    return fused


def fraction_late_fuse(tables: Sequence[ScoreTable], wv: WeightVector) -> list[float]:
    """`late_fuse`'s scores summed in rationals, candidate by candidate: each
    is float(sum_i (w_i / sum w) * g_i), rounded once."""
    lams = [Fraction(w) for w in wv.weights]
    total = sum(lams)
    lams = [lam / total for lam in lams]
    return [
        float(sum(lam * Fraction(g) for lam, g in zip(lams, row)))
        for row in zip(*(t.scores.tolist() for t in tables))
    ]


def average_fuse(tables: Sequence[ScoreTable], name: str | None = None) -> ScoreTable:
    """Uniform late fusion: late_fuse with lambda_i = 1/m."""
    wv = WeightVector.uniform(tuple(t.estimator for t in tables))
    return late_fuse(tables, wv, name=name)


def combined_distance(
    c: Collection,
    x: str,
    x_other: str,
    wv: WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None = None,
) -> float:
    """Weighted combination sum_i lambda_i * norm_i(d_i(x, x_other)); nan for x itself."""
    ix = c.index_of(x)
    io = c.index_of(x_other)
    return float(distance_block(c, wv, np.array([ix]), normalizers)[0, io])


def rankmax_rows(d: np.ndarray, own: np.ndarray) -> np.ndarray:
    """RankMax of a raw (B, n) distance block, one row at a time.

    Row b's candidates are its entries without the query's own slot
    `own[b]` (-1: none), removed with np.delete; every entry becomes the
    fraction of candidates strictly below it, and the own slot is nan.
    """
    out = np.array(d, dtype=np.float64)
    for b, row in enumerate(out):
        candidates = np.delete(row, own[b]) if own[b] >= 0 else row
        out[b] = np.searchsorted(np.sort(candidates), row, side="left") / len(candidates)
        if own[b] >= 0:
            out[b, own[b]] = np.nan
    return out


def early_fused_table(
    c: Collection,
    w: str,
    wv: WeightVector,
    normalizers: Mapping[str, DistanceNormalizer] | None,
    k: int,
) -> ScoreTable:
    """Early-fused voting scores for every candidate image of tag `w`."""
    return vote_tables(c, [w], wv, normalizers, k)[w]


def from_pair_table(sims: Mapping[tuple[str, str], float]) -> TagSimilarityModel:
    """Similarity model with explicitly fixed pair similarities; every other pair is 0."""
    model = TagSimilarityModel(2, {})
    for (w, t), s in sims.items():
        model._cache[(w, t)] = float(s)
        model._cache[(t, w)] = float(s)
    return model


def tag_ranking_kde_score(
    c: Collection,
    x: str,
    w: str,
    feature: str,
    sigma: float | None = None,
    sample_cap: int = 500,
    seed: int = 0,
) -> float:
    """Mean Gaussian kernel exp(-d^2 / sigma^2) from x to the other tagged images.

    sigma defaults to the median pairwise distance among the tagged images
    (seeded sample); the support sample is capped at `sample_cap`, also
    seeded.
    """
    qvec = c.vector(feature, x)
    support = sorted(images_with_tag(c, w) - {x})
    if not support:
        raise ValueError(f"tag {w!r} has no support images besides {x!r}")
    if sigma is None:
        sigma = _kde_sigma(c, w, feature, sample_cap, seed)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if len(support) > sample_cap:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(len(support), size=sample_cap, replace=False))
        support = [support[i] for i in pick]
    matrix = c.feature(feature).matrix
    rows = np.array([c.index_of(m) for m in support])
    d = np.abs(matrix[rows] - qvec).sum(axis=1)
    return float(np.mean(np.exp(-(d * d) / (sigma * sigma))))


def ascent_objective(evals, raw: np.ndarray, metric: str, cutoff: int) -> float | None:
    """Coordinate ascent's objective for one raw weight vector: the mean over
    the concepts' `_ConceptEval`s of the metric of `matrix @ (raw / sum)`,
    ranked by a stable sort (ties by id), one concept at a time; None when
    the weights sum to <= 0."""
    total = raw.sum()
    if total <= 0:
        return None
    w_norm = raw / total
    values = []
    for ce in evals:
        order = np.argsort(-(ce.matrix @ w_norm), kind="stable")
        values.append(rank_metric(ce.rel[order], metric, cutoff))
    return float(np.mean(values))


def mean_metric_rows(evals, raw: np.ndarray, metric: str, cutoff: int) -> list[float | None]:
    """`learning._mean_metric` computed one weight row at a time."""
    return [ascent_objective(evals, row, metric, cutoff) for row in raw]


def numpy_simplex_project(v: np.ndarray) -> np.ndarray:
    """`learning.simplex_project` in numpy calls: sort descending, cumsum,
    and the last index passing the threshold test (IndexError when none
    does)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    cond = u > (css - 1.0) / ks
    k = int(np.nonzero(cond)[0][-1])
    theta = (css[k] - 1.0) / (k + 1)
    return np.maximum(v - theta, 0.0)


def numpy_learn_distance_weights(d: np.ndarray, labels, names) -> GradientResult:
    """`learning.learn_distance_weights` on valid input, recomputing
    exp(-d w) for every gradient and projecting with `numpy_simplex_project`."""
    y = np.asarray(labels, dtype=np.float64)
    m = d.shape[1]

    def loss_at(w: np.ndarray) -> float:
        e = np.exp(-(d @ w))
        return float(np.sum((e - y) ** 2))

    w = np.full(m, 1.0 / m)
    loss = loss_at(w)
    trace = [loss]
    weight_trace: list[tuple[float, ...]] = []
    if m == 1:
        return GradientResult(WeightVector(tuple(names), (1.0,)), loss, tuple(trace))
    for _ in range(MAX_ITER):
        e = np.exp(-(d @ w))
        grad = -2.0 * (d.T @ ((e - y) * e))
        step = STEP0
        accepted = None
        while step >= STEP_FLOOR:
            cand = numpy_simplex_project(w - step * grad)
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
        if rel_change < REL_TOL:
            break
    weights = WeightVector.normalized(tuple(names), tuple(float(v) for v in w))
    return GradientResult(weights, loss, tuple(trace), tuple(weight_trace))


def load_collection_by_line(
    tags_path: str | Path, feature_paths: Iterable[str | Path]
) -> Collection:
    """`collection.load_collection` parsing one feature line at a time with
    `float()`: the reference for the block-converting loader.

    Raises CollectionError naming the file, line, and offending image id for
    every format violation (missing row, dim mismatch, duplicate id,
    non-finite value, duplicate tag), naming the tags file when it holds no
    image row, and naming the file and feature when
    the feature's widest L1 distance, sum_j (max_j - min_j), is not finite.
    """
    tags_path = Path(tags_path)
    records: list[ImageRecord] = []
    seen: set[str] = set()
    for no, line in _read_lines(tags_path):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CollectionError(
                f"{tags_path}:{no}: expected 3 tab-separated fields, got {len(parts)}"
            )
        image_id, user_id, tag_field = parts
        raw_tags = [t for t in tag_field.split(" ") if t]
        tags = tuple(normalize_tag(t) for t in raw_tags)
        if any(not t for t in tags):
            raise CollectionError(
                f"{tags_path}:{no}: tag folds to empty token on image {image_id!r}"
            )
        if image_id in seen:
            raise CollectionError(f"{tags_path}:{no}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        try:
            records.append(ImageRecord(image_id=image_id, user_id=user_id, tags=tags))
        except CollectionError as exc:
            raise CollectionError(f"{tags_path}:{no}: {exc}") from None

    if not records:
        raise CollectionError(f"{tags_path}: no image rows")
    ids = [r.image_id for r in records]

    features: dict[str, FeatureMatrix] = {}
    for fpath in feature_paths:
        fpath = Path(fpath)
        lines = _read_lines(fpath)
        if not lines:
            raise CollectionError(f"{fpath}: empty feature file")
        header_no, header = lines[0]
        hparts = header.split("\t")
        if len(hparts) != 3 or hparts[0] != "#feature":
            raise CollectionError(
                f"{fpath}:{header_no}: expected '#feature<TAB>name<TAB>dim' header"
            )
        name = hparts[1]
        try:
            dim = int(hparts[2])
        except ValueError:
            raise CollectionError(f"{fpath}:{header_no}: bad dim {hparts[2]!r}") from None
        if dim <= 0:
            raise CollectionError(f"{fpath}:{header_no}: dim must be positive")
        if name in features:
            raise CollectionError(f"{fpath}: duplicate feature name {name!r}")
        rows: dict[str, int] = {}  # image id -> its row in `parsed`
        parsed = array("d")
        for no, line in lines[1:]:
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CollectionError(
                    f"{fpath}:{no}: expected 'image_id<TAB>v1,...,v{dim}'"
                )
            image_id, values = parts
            if image_id in rows:
                raise CollectionError(f"{fpath}:{no}: duplicate row for image {image_id!r}")
            if image_id not in seen:
                raise CollectionError(
                    f"{fpath}:{no}: image {image_id!r} not present in tags file"
                )
            comps = values.split(",")
            if len(comps) != dim:
                raise CollectionError(
                    f"{fpath}:{no}: image {image_id!r} has {len(comps)} components, "
                    f"expected {dim}"
                )
            try:
                vec = [float(v) for v in comps]
            except ValueError:
                raise CollectionError(
                    f"{fpath}:{no}: unparseable component for image {image_id!r}"
                ) from None
            if not all(map(math.isfinite, vec)):
                raise CollectionError(
                    f"{fpath}:{no}: non-finite component for image {image_id!r}"
                )
            rows[image_id] = len(rows)
            parsed.extend(vec)
        missing = [i for i in ids if i not in rows]
        if missing:
            raise CollectionError(
                f"{fpath}: feature {name!r} missing image {missing[0]!r}"
                + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
            )
        order = [rows[i] for i in ids]
        matrix = np.frombuffer(parsed).reshape(-1, dim)[order]
        with np.errstate(over="ignore", invalid="ignore"):
            widest = float((matrix.max(axis=0) - matrix.min(axis=0)).sum())
        if not math.isfinite(widest):
            raise CollectionError(
                f"{fpath}: feature {name!r} has L1 distances that overflow: "
                "the widest, sum_j (max_j - min_j), exceeds the float range"
            )
        features[name] = FeatureMatrix(name=name, dim=dim, matrix=matrix)

    return Collection(records, features)
